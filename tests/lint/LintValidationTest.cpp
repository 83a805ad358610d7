//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Simulator cross-validation of the lint rules: a program padlint
/// flags at warning-or-higher must exhibit
/// real conflict misses under CacheSim's miss classifier, applying a
/// finding's fix-it must make that finding disappear on re-lint while
/// the program's access stream keeps the same length, order, sizes and
/// read/write pattern (only addresses move — padding must never change
/// semantics), and the fixed layout must measurably reduce classified
/// conflict misses. gather.pad is the negative control: no warnings, no
/// fixes to validate. On set-associative caches, conflict-pair Errors
/// over the kernel corpus must sit in layouts the simulator shows
/// conflicting.
///
//===----------------------------------------------------------------------===//

#include "lint/Linter.h"

#include "cachesim/MissClassifier.h"
#include "core/Padding.h"
#include "exec/RecordedTrace.h"
#include "exec/Trace.h"
#include "exec/TraceRunner.h"
#include "experiments/Experiment.h"
#include "frontend/Parser.h"
#include "kernels/Kernels.h"

#include "gtest/gtest.h"

#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <vector>

using namespace padx;
using namespace padx::lint;

namespace {

/// Caps every simulated walk; the conflict behavior the rules flag is
/// periodic, so the first million accesses carry the signal (jacobi512's
/// full trace alone is ~7M accesses).
constexpr uint64_t kMaxAccesses = 1u << 20;

ir::Program parseExample(const std::string &Stem) {
  std::filesystem::path File =
      std::filesystem::path(PADX_EXAMPLES_DIR) / (Stem + ".pad");
  std::ifstream In(File);
  EXPECT_TRUE(In) << "missing " << File;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  DiagnosticEngine Diags;
  auto P = frontend::parseProgram(Buf.str(), Diags);
  EXPECT_TRUE(P) << File << ": " << Diags.str();
  return std::move(*P);
}

sim::MissBreakdown simulate(const ir::Program &P,
                            const layout::DataLayout &DL,
                            const CacheConfig &Cache = CacheConfig::base16K()) {
  exec::RunOptions Opt;
  Opt.MaxAccesses = kMaxAccesses;
  exec::TraceRunner Runner(P, DL, Opt);
  sim::MissClassifier MC(Cache);
  exec::ClassifierSink Sink(MC);
  Runner.run(Sink);
  return MC.breakdown();
}

std::vector<const Finding *> warningsAndUp(const LintResult &R) {
  std::vector<const Finding *> Out;
  for (const Finding &F : R.Findings)
    if (F.Sev >= Severity::Warning)
      Out.push_back(&F);
  return Out;
}

bool hasFinding(const LintResult &R, const std::string &RuleId,
                const std::string &Key) {
  for (const Finding &F : R.Findings)
    if (F.RuleId == RuleId && F.Key == Key)
      return true;
  return false;
}

/// Applies warning-level fixes until none remain (or the iteration cap
/// trips — each fix clears at least its own finding, so this converges).
layout::DataLayout fixAll(const Linter &L,
                          const layout::DataLayout &Orig) {
  layout::DataLayout DL = Orig;
  for (int Iter = 0; Iter != 16; ++Iter) {
    LintResult R = L.run(DL);
    const Finding *Next = nullptr;
    for (const Finding *F : warningsAndUp(R))
      if (F->Fix.isValid()) {
        Next = F;
        break;
      }
    if (!Next)
      return DL;
    DL = applyFix(DL, Next->Fix);
  }
  ADD_FAILURE() << "fix-all did not converge in 16 rounds";
  return DL;
}

} // namespace

//===----------------------------------------------------------------------===//
// Flagged programs exhibit real conflict misses
//===----------------------------------------------------------------------===//

TEST(LintValidation, JacobiWarningsAreBackedByClassifiedConflicts) {
  ir::Program P = parseExample("jacobi512");
  layout::DataLayout DL = layout::originalLayout(P);
  LintResult R = Linter().run(DL);
  ASSERT_FALSE(warningsAndUp(R).empty());
  EXPECT_EQ(R.maxSeverity(), Severity::Error)
      << "the jacobi ping-pong dominates the estimate";

  sim::MissBreakdown B = simulate(P, DL);
  EXPECT_GT(B.Conflict, B.Accesses / 5)
      << "a flagged program must show substantial conflict misses, got "
      << B.Conflict << " of " << B.Accesses;
}

TEST(LintValidation, CholeskyWarningsAreBackedByClassifiedConflicts) {
  ir::Program P = parseExample("cholesky384");
  layout::DataLayout DL = layout::originalLayout(P);
  LintResult R = Linter().run(DL);
  ASSERT_FALSE(warningsAndUp(R).empty());

  // The 1.2MB factor blows the 16KB cache, so capacity misses are
  // expected too — but the 384 column's self-interference must
  // contribute a substantial classified-conflict share on top.
  sim::MissBreakdown B = simulate(P, DL);
  EXPECT_GT(B.Conflict, B.Accesses / 50)
      << "a flagged program must show real conflict misses, got "
      << B.Conflict << " of " << B.Accesses;
}

TEST(LintValidation, GatherIsACleanNegativeControl) {
  ir::Program P = parseExample("gather");
  LintResult R = Linter().run(layout::originalLayout(P));
  EXPECT_TRUE(warningsAndUp(R).empty())
      << "gather has no uniform conflicts to flag";
}

//===----------------------------------------------------------------------===//
// Error findings on set-associative caches are backed by the simulator
//===----------------------------------------------------------------------===//

TEST(LintValidation, SetAssociativeErrorsAreBackedBySimulatedConflicts) {
  // A conflict-pair Error claims the conflict dominates the program. On
  // a set-associative cache a colliding pair can share a set and evict
  // nothing, so the claim only holds where the static model predicts a
  // set to overflow. Over the corpus, original and padded for each
  // geometry, an Error finding is unbacked when its layout's classified
  // conflict misses stay under 5% of the first 2^20 accesses; at most 5%
  // of each geometry's Error findings may be unbacked.
  struct Geometry {
    CacheConfig Cache;
    bool ExpectErrors;
  };
  const Geometry Geometries[] = {{{16 * 1024, 32, 4}, true},
                                 {{32 * 1024, 64, 8}, false},
                                 {{1024 * 1024, 64, 16}, false}};
  const auto &Kernels = kernels::allKernels();
  for (const Geometry &G : Geometries) {
    std::vector<unsigned> Errors(Kernels.size()), Unbacked(Kernels.size());
    expt::parallelFor(Kernels.size(), [&](size_t KI) {
      ir::Program P = kernels::makeKernel(Kernels[KI].Name);
      const layout::DataLayout Layouts[] = {
          layout::originalLayout(P), pad::runPad(P, G.Cache).Layout,
          pad::runPadLite(P, G.Cache).Layout};
      for (const layout::DataLayout &DL : Layouts) {
        LintResult R = Linter(LintOptions(G.Cache)).run(DL);
        unsigned N = 0;
        for (const Finding &F : R.Findings)
          N += F.RuleId == "conflict-pair" && F.Sev == Severity::Error;
        if (N == 0)
          continue;
        Errors[KI] += N;
        sim::MissBreakdown B = simulate(P, DL, G.Cache);
        if (B.Conflict * 20 < B.Accesses)
          Unbacked[KI] += N;
      }
    });
    unsigned E = std::accumulate(Errors.begin(), Errors.end(), 0u);
    unsigned U = std::accumulate(Unbacked.begin(), Unbacked.end(), 0u);
    EXPECT_LE(U * 20, E) << G.Cache.describe() << ": " << U << " of " << E
                         << " error findings have no simulated conflicts";
    if (G.ExpectErrors) {
      EXPECT_GT(E, 0u) << G.Cache.describe();
    }
  }
}

//===----------------------------------------------------------------------===//
// Every fix-it clears its finding on re-lint
//===----------------------------------------------------------------------===//

TEST(LintValidation, EveryFixClearsItsFindingOnRelint) {
  Linter L;
  for (const char *Stem : {"jacobi512", "cholesky384"}) {
    ir::Program P = parseExample(Stem);
    layout::DataLayout DL = layout::originalLayout(P);
    LintResult R = L.run(DL);
    unsigned Validated = 0;
    for (const Finding *F : warningsAndUp(R)) {
      if (!F->Fix.isValid())
        continue;
      layout::DataLayout Fixed = applyFix(DL, F->Fix);
      EXPECT_FALSE(hasFinding(L.run(Fixed), F->RuleId, F->Key))
          << Stem << ": [" << F->RuleId << "] " << F->Key
          << " survived its own fix";
      ++Validated;
    }
    EXPECT_GT(Validated, 0u) << Stem;
  }
}

//===----------------------------------------------------------------------===//
// Fixing everything reduces simulated conflict misses
//===----------------------------------------------------------------------===//

TEST(LintValidation, FixAllEliminatesWarningsAndReducesConflicts) {
  Linter L;
  for (const char *Stem : {"jacobi512", "cholesky384"}) {
    ir::Program P = parseExample(Stem);
    layout::DataLayout Orig = layout::originalLayout(P);
    layout::DataLayout Fixed = fixAll(L, Orig);

    LintResult After = L.run(Fixed);
    EXPECT_TRUE(warningsAndUp(After).empty())
        << Stem << " still has warnings after fix-all";

    sim::MissBreakdown OrigB = simulate(P, Orig);
    sim::MissBreakdown FixedB = simulate(P, Fixed);
    EXPECT_EQ(OrigB.Accesses, FixedB.Accesses);
    EXPECT_LT(FixedB.Conflict * 2, OrigB.Conflict)
        << Stem << ": fixes must at least halve conflict misses ("
        << OrigB.Conflict << " -> " << FixedB.Conflict << ")";
  }
}

//===----------------------------------------------------------------------===//
// Fixes keep the access stream's semantics
//===----------------------------------------------------------------------===//

TEST(LintValidation, FixedLayoutKeepsAccessStreamShape) {
  Linter L;
  ir::Program P = parseExample("jacobi512");
  layout::DataLayout Orig = layout::originalLayout(P);
  layout::DataLayout Fixed = fixAll(L, Orig);

  exec::RunOptions Opt;
  Opt.MaxAccesses = kMaxAccesses;
  exec::CollectSink Before, After;
  exec::TraceRunner(P, Orig, Opt).run(Before);
  exec::TraceRunner(P, Fixed, Opt).run(After);

  ASSERT_EQ(Before.Events.size(), After.Events.size());
  for (size_t I = 0; I != Before.Events.size(); ++I) {
    // Padding moves addresses; everything else is semantics and must
    // not change.
    ASSERT_EQ(Before.Events[I].Size, After.Events[I].Size) << I;
    ASSERT_EQ(Before.Events[I].IsWrite, After.Events[I].IsWrite) << I;
  }
}

TEST(LintValidation, ReplayOnFixedLayoutIsBitIdenticalToDirectWalk) {
  Linter L;
  ir::Program P = parseExample("jacobi512");
  layout::DataLayout Fixed = fixAll(L, layout::originalLayout(P));

  exec::RunOptions Opt;
  Opt.MaxAccesses = kMaxAccesses;
  std::string WhyNot;
  auto Trace = exec::RecordedTrace::record(P, Opt, &WhyNot);
  ASSERT_TRUE(Trace) << WhyNot;

  exec::CollectSink Direct, Replayed;
  exec::TraceRunner(P, Fixed, Opt).run(Direct);
  exec::TraceReplayer Replayer(*Trace);
  Replayer.replay(Fixed, Replayed);

  ASSERT_EQ(Direct.Events.size(), Replayed.Events.size());
  for (size_t I = 0; I != Direct.Events.size(); ++I)
    ASSERT_TRUE(Direct.Events[I] == Replayed.Events[I]) << I;
}
