//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential test over generated programs: padx counts misses three
/// ways — the direct walk into a CacheSim, replay of the recorded trace
/// into a CacheSim, and replay into a one-level CacheHierarchy — and the
/// three must agree bit for bit. The programs come from the property
/// generator with one-level index-array subscripts switched on, so
/// gathered refs are covered too; each is scored under its original
/// layout, PAD's layout and one seeded random candidate, on the paper's
/// direct-mapped 16K cache and a 2-way one.
///
//===----------------------------------------------------------------------===//

#include "cachesim/CacheHierarchy.h"
#include "core/Padding.h"
#include "exec/RecordedTrace.h"
#include "ir/Validator.h"
#include "machine/MachineModel.h"
#include "search/Candidate.h"
#include "tests/property/RandomProgram.h"

#include "gtest/gtest.h"

#include <random>

using namespace padx;

namespace {

/// Fixed, so the test's cost and coverage never drift.
constexpr uint64_t kSamples = 48;
/// Caps every walk and recording; most samples run to completion under
/// it, the rest also cover truncation.
constexpr uint64_t kMaxAccesses = uint64_t(1) << 17;

/// One random candidate: column pads of 0..8 elements on every
/// dimension and gaps of 0..64 elements before every array.
layout::DataLayout randomCandidate(const ir::Program &P, uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::uniform_int_distribution<int64_t> Pad(0, 8), Gap(0, 64);
  search::Candidate C = search::zeroCandidate(P);
  for (unsigned A = 0; A != C.DimPads.size(); ++A) {
    for (int64_t &D : C.DimPads[A])
      D = Pad(Rng);
    C.GapBytes[A] = Gap(Rng) * P.array(A).ElemSize;
  }
  return search::materialize(P, C);
}

} // namespace

TEST(Differential, WalkReplayAndHierarchyAgreeOnGeneratedPrograms) {
  padx::testing::RandomProgramOptions GenOpts;
  GenOpts.IndirectSubscripts = true;
  exec::RunOptions Run;
  Run.MaxAccesses = kMaxAccesses;
  const CacheConfig Geometries[] = {CacheConfig::base16K(),
                                    CacheConfig{16 * 1024, 32, 2}};
  uint64_t Gathered = 0;
  for (uint64_t Seed = 1; Seed <= kSamples; ++Seed) {
    ir::Program P = padx::testing::generateRandomProgram(Seed, GenOpts);
    DiagnosticEngine Diags;
    ASSERT_TRUE(ir::validate(P, Diags)) << "seed " << Seed << ": "
                                        << Diags.str();
    std::string WhyNot;
    auto T = exec::RecordedTrace::record(P, Run, &WhyNot);
    // The generator keeps every index subscript inside its table.
    ASSERT_NE(T, nullptr) << "seed " << Seed << ": " << WhyNot;
    Gathered += T->numGatheredRefs();
    exec::TraceReplayer Replayer(*T);
    const layout::DataLayout Layouts[] = {
        layout::originalLayout(P),
        pad::runPad(P, CacheConfig::base16K()).Layout,
        randomCandidate(P, Seed)};
    const char *Names[] = {"original", "pad", "random"};
    for (const CacheConfig &Cfg : Geometries) {
      sim::CacheHierarchy H(MachineModel::singleLevel(Cfg));
      for (unsigned L = 0; L != 3; ++L) {
        const std::string Context = "seed " + std::to_string(Seed) + " " +
                                    Names[L] + " " + Cfg.describe();
        sim::CacheSim Walk(Cfg);
        exec::CacheSimSink Sink(Walk);
        const exec::RunStatus Status =
            exec::TraceRunner(P, Layouts[L], Run).run(Sink);

        sim::CacheSim Replay(Cfg);
        EXPECT_EQ(Replayer.replay(Layouts[L], Replay), Status) << Context;
        EXPECT_EQ(Replay.stats(), Walk.stats()) << Context << " replay";

        H.reset();
        EXPECT_EQ(Replayer.replay(Layouts[L], H), Status) << Context;
        ASSERT_EQ(H.numLevels(), 1u);
        EXPECT_EQ(H.stats(0), Walk.stats()) << Context << " hierarchy";
      }
    }
  }
  // The samples must actually exercise gathered refs.
  EXPECT_GT(Gathered, kSamples / 2);
}
