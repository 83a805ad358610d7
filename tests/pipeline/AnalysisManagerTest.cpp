//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AnalysisManager unit tests: program-level results are computed once
/// and then hit; layout-dependent results are keyed by the layout's
/// fingerprint, so mutating a layout mid-session recomputes exactly the
/// stale results while the layout-independent analyses stay cached;
/// explicit invalidation drops only the layout side; with the cache
/// disabled every query recomputes; a multi-level machine's static score
/// reuses single-geometry lattice predictions level by level; and the
/// missEstimate() pass-through neither counts nor caches. Every cached
/// answer is checked bit-identical to the direct analysis call it
/// memoizes.
///
//===----------------------------------------------------------------------===//

#include "pipeline/AnalysisManager.h"

#include "analysis/ConflictReport.h"
#include "analysis/LatticePredictor.h"
#include "kernels/Kernels.h"
#include "layout/DataLayout.h"
#include "pipeline/SharedAnalysisCache.h"
#include "search/CostModel.h"

#include "gtest/gtest.h"

using namespace padx;
using namespace padx::pipeline;

namespace {

const CacheConfig kCache = CacheConfig::base16K();

void expectSamePrediction(const analysis::LatticePrediction &A,
                          const analysis::LatticePrediction &B) {
  EXPECT_EQ(A.PredictedMisses, B.PredictedMisses);
  EXPECT_EQ(A.PredictedAccesses, B.PredictedAccesses);
  EXPECT_EQ(A.PredictedConflictMisses, B.PredictedConflictMisses);
}

} // namespace

TEST(AnalysisManager, ProgramLevelResultsHitAfterFirstQuery) {
  ir::Program P = kernels::makeKernel("jacobi");
  AnalysisManager AM(P);

  const std::vector<analysis::LoopGroup> &G1 = AM.referenceGroups();
  const std::vector<analysis::LoopGroup> &G2 = AM.referenceGroups();
  EXPECT_EQ(&G1, &G2); // Same cached object, not a recompute.
  EXPECT_EQ(AM.stats().of(AnalysisKind::ReferenceGroups).Misses, 1u);
  EXPECT_EQ(AM.stats().of(AnalysisKind::ReferenceGroups).Hits, 1u);

  AM.safety();
  AM.safety();
  EXPECT_EQ(AM.stats().of(AnalysisKind::Safety).Misses, 1u);
  EXPECT_EQ(AM.stats().of(AnalysisKind::Safety).Hits, 1u);

  // iterationCounts depends on referenceGroups: the dependency resolves
  // as a hit on the groups, not a recompute.
  AM.iterationCounts();
  EXPECT_EQ(AM.stats().of(AnalysisKind::IterationCounts).Misses, 1u);
  EXPECT_EQ(AM.stats().of(AnalysisKind::ReferenceGroups).Misses, 1u);
}

TEST(AnalysisManager, CachedResultsMatchDirectAnalysisCalls) {
  ir::Program P = kernels::makeKernel("chol");
  AnalysisManager AM(P);
  layout::DataLayout DL = layout::originalLayout(P);

  expectSamePrediction(AM.latticePrediction(DL, kCache),
                       analysis::predictConflicts(DL, kCache));

  std::vector<analysis::ConflictEntry> Direct =
      analysis::reportConflicts(DL, kCache, /*SevereOnly=*/true);
  const std::vector<analysis::ConflictEntry> &Cached =
      AM.severeConflicts(DL, kCache);
  ASSERT_EQ(Cached.size(), Direct.size());
  for (size_t I = 0; I != Direct.size(); ++I) {
    EXPECT_EQ(Cached[I].DistanceBytes, Direct[I].DistanceBytes);
    EXPECT_EQ(Cached[I].ConflictDistance, Direct[I].ConflictDistance);
    EXPECT_EQ(Cached[I].Array1, Direct[I].Array1);
    EXPECT_EQ(Cached[I].Array2, Direct[I].Array2);
  }
}

// The satellite scenario: a session mutates a layout in place. The
// mutated layout has a new fingerprint, so its results are recomputed —
// and the layout-independent analyses must not be, which the hit
// counters prove.
TEST(AnalysisManager, LayoutMutationRecomputesOnlyLayoutResults) {
  ir::Program P = kernels::makeKernel("jacobi");
  AnalysisManager AM(P);
  layout::DataLayout DL = layout::originalLayout(P);

  AM.latticePrediction(DL, kCache);
  AM.latticePrediction(DL, kCache);
  const AnalysisStats &S = AM.stats();
  EXPECT_EQ(S.of(AnalysisKind::LatticePrediction).Misses, 1u);
  EXPECT_EQ(S.of(AnalysisKind::LatticePrediction).Hits, 1u);
  uint64_t GroupMisses = S.of(AnalysisKind::ReferenceGroups).Misses;

  // Mutate mid-session: grow a dimension, as lint's intra-pad fix does.
  DL.layout(0).Dims[0] += 3;
  layout::assignSequentialBases(DL);
  expectSamePrediction(AM.latticePrediction(DL, kCache),
                       analysis::predictConflicts(DL, kCache));
  EXPECT_EQ(S.of(AnalysisKind::LatticePrediction).Misses, 2u)
      << "mutated layout must be recomputed, not served stale";
  EXPECT_EQ(S.of(AnalysisKind::ReferenceGroups).Misses, GroupMisses)
      << "layout-independent analyses must stay cached across mutation";
  EXPECT_GT(S.of(AnalysisKind::ReferenceGroups).Hits, 0u);

  // Mutating back restores the original fingerprint: still cached.
  DL.layout(0).Dims[0] -= 3;
  layout::assignSequentialBases(DL);
  AM.latticePrediction(DL, kCache);
  EXPECT_EQ(S.of(AnalysisKind::LatticePrediction).Misses, 2u);
  EXPECT_EQ(S.of(AnalysisKind::LatticePrediction).Hits, 2u);
}

TEST(AnalysisManager, ExplicitInvalidationDropsOnlyLayoutResults) {
  ir::Program P = kernels::makeKernel("jacobi");
  AnalysisManager AM(P);
  layout::DataLayout DL = layout::originalLayout(P);

  AM.referenceGroups();
  AM.latticePrediction(DL, kCache);
  AM.severeConflicts(DL, kCache);
  AM.invalidateLayoutResults();

  const AnalysisStats &S = AM.stats();
  EXPECT_EQ(S.of(AnalysisKind::LatticePrediction).Invalidated, 1u);
  EXPECT_EQ(S.of(AnalysisKind::ConflictReport).Invalidated, 1u);
  EXPECT_EQ(S.of(AnalysisKind::ReferenceGroups).Invalidated, 0u);

  AM.latticePrediction(DL, kCache);
  EXPECT_EQ(S.of(AnalysisKind::LatticePrediction).Misses, 2u)
      << "invalidated layout result must recompute";
  EXPECT_EQ(S.of(AnalysisKind::ReferenceGroups).Misses, 1u)
      << "program-level results survive layout invalidation";
}

TEST(AnalysisManager, CacheKeyCoversCacheGeometry) {
  ir::Program P = kernels::makeKernel("jacobi");
  AnalysisManager AM(P);
  layout::DataLayout DL = layout::originalLayout(P);

  CacheConfig TwoWay = kCache;
  TwoWay.Associativity = 2;
  AM.latticePrediction(DL, kCache);
  AM.latticePrediction(DL, TwoWay);
  EXPECT_EQ(AM.stats().of(AnalysisKind::LatticePrediction).Misses, 2u)
      << "same layout under a different geometry is a different result";
  expectSamePrediction(AM.latticePrediction(DL, TwoWay),
                       analysis::predictConflicts(DL, TwoWay));
}

TEST(AnalysisManager, DisabledCacheRecomputesEveryQuery) {
  ir::Program P = kernels::makeKernel("jacobi");
  AnalysisManager AM(P, /*EnableCache=*/false);
  layout::DataLayout DL = layout::originalLayout(P);

  AM.referenceGroups();
  AM.referenceGroups();
  AM.latticePrediction(DL, kCache);
  expectSamePrediction(AM.latticePrediction(DL, kCache),
                       analysis::predictConflicts(DL, kCache));

  const AnalysisStats &S = AM.stats();
  EXPECT_EQ(S.of(AnalysisKind::ReferenceGroups).Hits, 0u);
  EXPECT_GE(S.of(AnalysisKind::ReferenceGroups).Misses, 2u);
  EXPECT_EQ(S.of(AnalysisKind::LatticePrediction).Hits, 0u);
  EXPECT_EQ(S.totalHits(), 0u);
}

TEST(AnalysisManager, LayoutCacheOverflowSweepsAndStaysCorrect) {
  ir::Program P = kernels::makeKernel("jacobi");
  AnalysisManager AM(P);

  // More distinct fingerprints than the cap: the cache must sweep (and
  // count it) rather than grow without bound — and still answer right.
  for (size_t I = 0; I != AnalysisManager::kMaxLayoutEntries + 8; ++I) {
    layout::DataLayout DL = layout::originalLayout(P);
    DL.layout(1).BaseAddr += static_cast<int64_t>(I) * 64;
    expectSamePrediction(AM.latticePrediction(DL, kCache),
                         analysis::predictConflicts(DL, kCache));
  }
  EXPECT_GT(AM.stats().of(AnalysisKind::LatticePrediction).Invalidated, 0u);
  EXPECT_EQ(AM.stats().of(AnalysisKind::ReferenceGroups).Misses, 1u);
}

// The static cost model reads a machine's prediction one level at a
// time, so paper-l2's L1 (the base16k geometry) is the very entry a
// base16k query of the same layout left behind: a local hit in one
// manager, and a shared hit in another manager on the same shared cache.
TEST(AnalysisManager, MachineLevelReusesSingleGeometryPrediction) {
  ir::Program P = kernels::makeKernel("jacobi");
  layout::DataLayout DL = layout::originalLayout(P);
  const MachineModel L2 = MachineModel::paperL2();
  ASSERT_EQ(L2.Levels.front().Geometry, kCache);

  AnalysisManager AM(P);
  AM.latticePrediction(DL, kCache);
  search::StaticCostModel(L2, &AM).evaluate(DL);
  const AnalysisCounters &Local =
      AM.stats().of(AnalysisKind::LatticePrediction);
  EXPECT_EQ(Local.Hits, 1u) << "the L1 level must reuse the base16k entry";
  EXPECT_EQ(Local.Misses, 2u) << "base16k, then paper-l2's L2";

  SharedAnalysisCache Shared;
  AnalysisManager Warm(P);
  Warm.attachSharedCache(&Shared);
  Warm.latticePrediction(DL, kCache);
  AnalysisManager Served(P);
  Served.attachSharedCache(&Shared);
  search::StaticCostModel(L2, &Served).evaluate(DL);
  const AnalysisCounters &Across =
      Served.stats().of(AnalysisKind::LatticePrediction);
  EXPECT_EQ(Across.SharedHits, 1u)
      << "the L1 level must be served from the shared cache";
  EXPECT_EQ(Across.Misses, 1u);
}

// missEstimate() survives only as perfbench's pass-through: it answers
// with the lattice predictor but owns no slot and no counters, and it
// must leave the lattice slot cold for the latticePrediction() timing
// that follows it in perfbench's analysis probe.
TEST(AnalysisManager, MissEstimateIsAnUncountedLatticePassThrough) {
  ir::Program P = kernels::makeKernel("jacobi");
  AnalysisManager AM(P);
  layout::DataLayout DL = layout::originalLayout(P);

  expectSamePrediction(AM.missEstimate(DL, kCache),
                       analysis::predictConflicts(DL, kCache));
  AM.missEstimate(DL, kCache);
  const AnalysisCounters &C =
      AM.stats().of(AnalysisKind::LatticePrediction);
  EXPECT_EQ(C.Hits, 0u);
  EXPECT_EQ(C.Misses, 0u);

  AM.latticePrediction(DL, kCache);
  EXPECT_EQ(C.Misses, 1u) << "the pass-through must not warm the slot";
}
