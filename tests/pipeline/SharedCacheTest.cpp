//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SharedAnalysisCache tests: the cross-request layer behind the padd
/// daemon. Fingerprints are stable per program text; one manager's
/// computation is another manager's shared hit; shared results are
/// bit-identical to locally computed ones; a disabled local cache never
/// touches the shared layer (the recompute baseline stays honest); the
/// layout side evicts under pressure without corrupting anything; and
/// many managers hammering one cache concurrently stay correct (the
/// TSan target in ci.sh).
///
//===----------------------------------------------------------------------===//

#include "pipeline/SharedAnalysisCache.h"

#include "analysis/LatticePredictor.h"
#include "kernels/Kernels.h"
#include "layout/DataLayout.h"
#include "pipeline/AnalysisManager.h"

#include "gtest/gtest.h"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

using namespace padx;
using namespace padx::pipeline;

namespace {
const CacheConfig kCache = CacheConfig::base16K();
} // namespace

TEST(SharedCache, FingerprintIsStableAndDiscriminates) {
  ir::Program P1 = kernels::makeKernel("jacobi");
  ir::Program P2 = kernels::makeKernel("jacobi");
  ir::Program P3 = kernels::makeKernel("chol");
  EXPECT_EQ(fingerprintProgram(P1), fingerprintProgram(P2));
  EXPECT_NE(fingerprintProgram(P1), fingerprintProgram(P3));
}

TEST(SharedCache, SecondManagerHitsWhatTheFirstComputed) {
  ir::Program P = kernels::makeKernel("jacobi");
  SharedAnalysisCache Shared;

  AnalysisManager AM1(P);
  AM1.attachSharedCache(&Shared);
  AM1.iterationCounts();
  EXPECT_EQ(AM1.stats().of(AnalysisKind::IterationCounts).Misses, 1u);
  EXPECT_EQ(AM1.stats().of(AnalysisKind::IterationCounts).SharedHits,
            0u);

  AnalysisManager AM2(P);
  AM2.attachSharedCache(&Shared);
  AM2.iterationCounts();
  EXPECT_EQ(AM2.stats().of(AnalysisKind::IterationCounts).Misses, 0u);
  EXPECT_EQ(AM2.stats().of(AnalysisKind::IterationCounts).SharedHits,
            1u);
  // A local re-query is a plain local hit, not more shared traffic.
  AM2.iterationCounts();
  EXPECT_EQ(AM2.stats().of(AnalysisKind::IterationCounts).Hits, 1u);
  EXPECT_EQ(AM2.stats().of(AnalysisKind::IterationCounts).SharedHits,
            1u);

  SharedCacheStats S = Shared.snapshot();
  EXPECT_EQ(S.totalHits(), 1u);
  EXPECT_GE(S.ProgramEntries, 1u);
}

// LoopGroup holds raw pointers into one Program instance; a served copy
// would dangle once the owning request's arena dies. The manager must
// keep that kind strictly local — no shared traffic in either
// direction, even with the cache attached. reuse(), which builds on the
// groups, is a pass-through with no cache of its own.
TEST(SharedCache, PointerCarryingKindsAreNeverShared) {
  ir::Program P = kernels::makeKernel("jacobi");
  layout::DataLayout DL = layout::originalLayout(P);
  SharedAnalysisCache Shared;

  AnalysisManager AM1(P);
  AM1.attachSharedCache(&Shared);
  AM1.referenceGroups();
  AM1.reuse(DL, kCache);

  AnalysisManager AM2(P);
  AM2.attachSharedCache(&Shared);
  AM2.referenceGroups();
  AM2.reuse(DL, kCache);
  EXPECT_EQ(AM2.stats().of(AnalysisKind::ReferenceGroups).SharedHits,
            0u);
  EXPECT_EQ(AM2.stats().of(AnalysisKind::ReferenceGroups).Misses, 1u);

  SharedCacheStats S = Shared.snapshot();
  EXPECT_EQ(S.Kinds[unsigned(AnalysisKind::ReferenceGroups)].Hits, 0u);
  EXPECT_EQ(S.Kinds[unsigned(AnalysisKind::ReferenceGroups)].Misses,
            0u);
}

// The daemon scenario that makes the rule above load-bearing: the
// program that warmed the cache is destroyed, a new (textually
// identical) instance queries next. Every shared-served result must
// stay valid and value-identical to a fresh computation.
TEST(SharedCache, SurvivesDeathOfTheWarmingProgram) {
  SharedAnalysisCache Shared;
  {
    auto P1 =
        std::make_unique<ir::Program>(kernels::makeKernel("chol"));
    layout::DataLayout DL1 = layout::originalLayout(*P1);
    AnalysisManager AM1(*P1);
    AM1.attachSharedCache(&Shared);
    AM1.latticePrediction(DL1, kCache);
    AM1.severeConflicts(DL1, kCache);
    AM1.reuse(DL1, kCache);
    AM1.iterationCounts();
  } // P1 and its IR are gone, like a finished daemon request.

  ir::Program P2 = kernels::makeKernel("chol");
  layout::DataLayout DL2 = layout::originalLayout(P2);
  AnalysisManager AM2(P2);
  AM2.attachSharedCache(&Shared);

  analysis::LatticePrediction Direct =
      analysis::predictConflicts(DL2, kCache);
  const analysis::LatticePrediction &Served =
      AM2.latticePrediction(DL2, kCache);
  EXPECT_EQ(Served.PredictedMisses, Direct.PredictedMisses);
  EXPECT_GT(AM2.statsSnapshot().totalSharedHits(), 0u);
  // Reuse recomputes against P2's own IR — its group pointers must
  // point into AM2's groups, not at freed memory.
  const std::vector<analysis::GroupReuse> &R = AM2.reuse(DL2, kCache);
  const std::vector<analysis::LoopGroup> &G = AM2.referenceGroups();
  ASSERT_EQ(R.size(), G.size());
  for (size_t I = 0; I != R.size(); ++I)
    EXPECT_EQ(R[I].Group, &G[I]);
}

TEST(SharedCache, LayoutResultsShareAcrossManagers) {
  ir::Program P = kernels::makeKernel("chol");
  layout::DataLayout DL = layout::originalLayout(P);
  SharedAnalysisCache Shared;

  AnalysisManager AM1(P);
  AM1.attachSharedCache(&Shared);
  const analysis::LatticePrediction &E1 =
      AM1.latticePrediction(DL, kCache);

  AnalysisManager AM2(P);
  AM2.attachSharedCache(&Shared);
  const analysis::LatticePrediction &E2 =
      AM2.latticePrediction(DL, kCache);
  const AnalysisCounters &C =
      AM2.stats().of(AnalysisKind::LatticePrediction);
  EXPECT_EQ(C.SharedHits, 1u);
  EXPECT_EQ(C.Misses, 0u);
  EXPECT_EQ(E1.PredictedMisses, E2.PredictedMisses);
  EXPECT_EQ(E1.PredictedAccesses, E2.PredictedAccesses);
}

TEST(SharedCache, SharedResultsMatchUnsharedComputation) {
  ir::Program P = kernels::makeKernel("jacobi");
  layout::DataLayout DL = layout::originalLayout(P);
  SharedAnalysisCache Shared;

  // Warm the shared cache through one manager.
  AnalysisManager Warm(P);
  Warm.attachSharedCache(&Shared);
  Warm.latticePrediction(DL, kCache);
  Warm.severeConflicts(DL, kCache);
  Warm.reuse(DL, kCache);
  Warm.iterationCounts();

  // A manager with no shared cache computes everything directly.
  AnalysisManager Plain(P);
  // One served from the shared cache.
  AnalysisManager Served(P);
  Served.attachSharedCache(&Shared);

  EXPECT_EQ(Plain.latticePrediction(DL, kCache).PredictedMisses,
            Served.latticePrediction(DL, kCache).PredictedMisses);
  EXPECT_EQ(Plain.severeConflicts(DL, kCache).size(),
            Served.severeConflicts(DL, kCache).size());
  EXPECT_EQ(Plain.reuse(DL, kCache).size(),
            Served.reuse(DL, kCache).size());
  EXPECT_EQ(Plain.iterationCounts(), Served.iterationCounts());
  EXPECT_GT(Served.statsSnapshot().totalSharedHits(), 0u);
}

TEST(SharedCache, DisabledLocalCacheNeverTouchesSharedLayer) {
  ir::Program P = kernels::makeKernel("jacobi");
  layout::DataLayout DL = layout::originalLayout(P);
  SharedAnalysisCache Shared;

  AnalysisManager AM(P, /*EnableCache=*/false);
  AM.attachSharedCache(&Shared);
  AM.referenceGroups();
  AM.latticePrediction(DL, kCache);

  SharedCacheStats S = Shared.snapshot();
  EXPECT_EQ(S.totalHits(), 0u);
  EXPECT_EQ(S.totalMisses(), 0u);
  EXPECT_EQ(S.ProgramEntries, 0u);
  EXPECT_EQ(S.LayoutEntries, 0u);
}

TEST(SharedCache, LayoutSideEvictsUnderPressure) {
  ir::Program P = kernels::makeKernel("jacobi");
  SharedAnalysisCache Shared(/*MaxLayoutEntries=*/16);

  AnalysisManager AM(P);
  AM.attachSharedCache(&Shared);
  // Distinct geometries give distinct layout keys; push well past the
  // cap so some shard must sweep.
  layout::DataLayout DL = layout::originalLayout(P);
  for (int64_t Size = 1024; Size <= 1024 << 8; Size *= 2) {
    CacheConfig C{Size, 32, 1};
    AM.latticePrediction(DL, C);
    AM.severeConflicts(DL, C);
  }
  // Still correct afterwards.
  const analysis::LatticePrediction &E = AM.latticePrediction(DL, kCache);
  analysis::LatticePrediction Direct =
      analysis::predictConflicts(DL, kCache);
  EXPECT_EQ(E.PredictedMisses, Direct.PredictedMisses);
}

TEST(SharedCache, ClearKeepsReadersAlive) {
  ir::Program P = kernels::makeKernel("jacobi");
  SharedAnalysisCache Shared;
  AnalysisManager AM1(P);
  AM1.attachSharedCache(&Shared);
  AM1.iterationCounts();

  // Serve a second manager, then clear: the served manager copied the
  // value out and stays valid.
  AnalysisManager AM2(P);
  AM2.attachSharedCache(&Shared);
  const std::vector<double> &I = AM2.iterationCounts();
  size_t N = I.size();
  Shared.clear();
  EXPECT_EQ(Shared.snapshot().ProgramEntries, 0u);
  EXPECT_EQ(AM2.iterationCounts().size(), N);
}

// One shared cache, many request-sized managers on concurrent threads —
// the daemon's exact access pattern. Run under TSan by ci.sh; the
// assertion here is value-correctness on every thread.
TEST(SharedCache, ConcurrentManagersStayCorrect) {
  ir::Program P = kernels::makeKernel("chol");
  layout::DataLayout DL = layout::originalLayout(P);
  SharedAnalysisCache Shared;
  const analysis::LatticePrediction Expected =
      analysis::predictConflicts(DL, kCache);

  constexpr unsigned kThreads = 8;
  constexpr unsigned kIters = 16;
  std::vector<std::thread> Threads;
  std::atomic<unsigned> Mismatches{0};
  for (unsigned T = 0; T != kThreads; ++T) {
    Threads.emplace_back([&] {
      for (unsigned I = 0; I != kIters; ++I) {
        AnalysisManager AM(P);
        AM.attachSharedCache(&Shared);
        if (AM.latticePrediction(DL, kCache).PredictedMisses !=
            Expected.PredictedMisses)
          Mismatches.fetch_add(1);
        AM.severeConflicts(DL, kCache);
        AM.reuse(DL, kCache);
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0u);

  SharedCacheStats S = Shared.snapshot();
  EXPECT_GT(S.totalHits(), 0u);
  // Warm steady state: the vast majority of queries were shared hits.
  EXPECT_GT(S.hitRate(), 0.5);
}
