//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential tests over generated programs: padx counts misses
/// several ways — the direct walk, replay of the recorded trace into a
/// CacheSim, and replay into a CacheHierarchy — and they must agree bit
/// for bit. The programs come from the property generator with one-level
/// index-array subscripts switched on, so gathered refs are covered too;
/// each is scored under its original layout, PAD's layout and one seeded
/// random candidate. The first test scores one cache level (the paper's
/// direct-mapped 16K cache and a 2-way one); the second scores
/// multi-level machines, with a TLB beside the chain, an 8-way first
/// level and 256 B lines, level by level against the walk.
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

/// Fixed, so the tests' cost and coverage never drift.
constexpr uint64_t kSamples = 48;
/// Caps every walk and recording; most samples run to completion under
/// it, the rest also cover truncation.
constexpr uint64_t kMaxAccesses = uint64_t(1) << 17;

constexpr const char *kLayoutNames[] = {"original", "pad", "random"};

exec::RunOptions cappedRun() {
  exec::RunOptions Run;
  Run.MaxAccesses = kMaxAccesses;
  return Run;
}

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

/// Generates each sample program, records it under the cap and calls
/// Body(Seed, P, Trace, Layouts) with its three layouts, in
/// kLayoutNames order.
template <typename BodyFn> void forEachSample(BodyFn &&Body) {
  padx::testing::RandomProgramOptions GenOpts;
  GenOpts.IndirectSubscripts = true;
  for (uint64_t Seed = 1; Seed <= kSamples; ++Seed) {
    ir::Program P = padx::testing::generateRandomProgram(Seed, GenOpts);
    DiagnosticEngine Diags;
    ASSERT_TRUE(ir::validate(P, Diags)) << "seed " << Seed << ": "
                                        << Diags.str();
    std::string WhyNot;
    auto T = exec::RecordedTrace::record(P, cappedRun(), &WhyNot);
    // The generator keeps every index subscript inside its table.
    ASSERT_NE(T, nullptr) << "seed " << Seed << ": " << WhyNot;
    const layout::DataLayout Layouts[] = {
        layout::originalLayout(P),
        pad::runPad(P, CacheConfig::base16K()).Layout,
        randomCandidate(P, Seed)};
    Body(Seed, P, *T, Layouts);
  }
}

} // namespace

TEST(Differential, WalkReplayAndHierarchyAgreeOnGeneratedPrograms) {
  const exec::RunOptions Run = cappedRun();
  const CacheConfig Geometries[] = {CacheConfig::base16K(),
                                    CacheConfig{16 * 1024, 32, 2}};
  uint64_t Gathered = 0;
  forEachSample([&](uint64_t Seed, const ir::Program &P,
                    const exec::RecordedTrace &T,
                    const layout::DataLayout *Layouts) {
    Gathered += T.numGatheredRefs();
    exec::TraceReplayer Replayer(T);
    for (const CacheConfig &Cfg : Geometries) {
      sim::CacheHierarchy H(MachineModel::singleLevel(Cfg));
      for (unsigned L = 0; L != 3; ++L) {
        const std::string Context = "seed " + std::to_string(Seed) + " " +
                                    kLayoutNames[L] + " " + Cfg.describe();
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
  });
  // The samples must actually exercise gathered refs.
  EXPECT_GT(Gathered, kSamples / 2);
}

TEST(Differential, HierarchyReplayMatchesTheWalkOnEveryMachineShape) {
  const exec::RunOptions Run = cappedRun();
  // Direct-mapped L1 and L2 with longer L2 lines; an 8-way L1 under
  // two outer levels and a TLB; 256 B lines; and a TLB beside a
  // direct-mapped chain.
  const char *Specs[] = {"paper-l2", "skylake", "a64fx",
                         "l1:16k/32/1,l2:64k/64/1,tlb:64/4k/4"};
  std::vector<MachineModel> Machines;
  for (const char *Spec : Specs) {
    MachineModel M;
    std::string Error;
    ASSERT_TRUE(MachineModel::parse(Spec, M, &Error)) << Spec << ": "
                                                      << Error;
    Machines.push_back(std::move(M));
  }
  // One walked and one replayed hierarchy per machine, reset per layout.
  std::vector<sim::CacheHierarchy> Walks, Replays;
  for (const MachineModel &M : Machines) {
    Walks.emplace_back(M);
    Replays.emplace_back(M);
  }
  forEachSample([&](uint64_t Seed, const ir::Program &P,
                    const exec::RecordedTrace &T,
                    const layout::DataLayout *Layouts) {
    exec::TraceReplayer Replayer(T);
    for (size_t M = 0; M != Machines.size(); ++M) {
      sim::CacheHierarchy &Walk = Walks[M], &Replay = Replays[M];
      for (unsigned L = 0; L != 3; ++L) {
        const std::string Context = "seed " + std::to_string(Seed) + " " +
                                    kLayoutNames[L] + " " + Specs[M];
        Walk.reset();
        exec::HierarchySink Sink(Walk);
        const exec::RunStatus Status =
            exec::TraceRunner(P, Layouts[L], Run).run(Sink);

        Replay.reset();
        EXPECT_EQ(Replayer.replay(Layouts[L], Replay), Status) << Context;
        for (unsigned I = 0; I != Walk.numLevels(); ++I)
          EXPECT_EQ(Replay.stats(I), Walk.stats(I))
              << Context << " level " << Machines[M].levelName(I);
        EXPECT_EQ(Replay.memoryAccesses(), Walk.memoryAccesses())
            << Context;
      }
    }
  });
}
