//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "analysis/LatticePredictor.h"

#include "core/Padding.h"
#include "experiments/Experiment.h"
#include "frontend/Parser.h"
#include "kernels/Kernels.h"
#include "pipeline/AnalysisManager.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>

using namespace padx;
using namespace padx::analysis;

namespace {

ir::Program parseOrDie(std::string_view Src) {
  DiagnosticEngine Diags;
  auto P = frontend::parseProgram(Src, Diags);
  EXPECT_TRUE(P) << Diags.str();
  return std::move(*P);
}

const CacheConfig kBase = CacheConfig::base16K();

/// Two 512-double arrays whose bases are exactly one cache size apart
/// (the 12288-byte filler is never touched): every A[i]/B[i] pair maps
/// to the same direct-mapped set, so the loop ping-pongs one set while
/// the rest of the cache idles. The scalar lands at byte 20480, set
/// offset 4096, disjoint from every touched set.
ir::Program makeThrashPair() {
  return parseOrDie(R"(program thrash
array A : real[512]
array F : real[1536]
array B : real[512]
array S : real
loop i = 1, 512 {
  S = S + A[i] + B[i]
}
)");
}

/// Spearman rank correlation with average ranks for ties.
double spearman(const std::vector<double> &X, const std::vector<double> &Y) {
  size_t N = X.size();
  auto ranks = [](const std::vector<double> &V) {
    size_t N = V.size();
    std::vector<size_t> Idx(N);
    std::iota(Idx.begin(), Idx.end(), 0);
    std::sort(Idx.begin(), Idx.end(),
              [&](size_t A, size_t B) { return V[A] < V[B]; });
    std::vector<double> R(N);
    for (size_t I = 0; I != N;) {
      size_t J = I;
      while (J + 1 < N && V[Idx[J + 1]] == V[Idx[I]])
        ++J;
      double Avg = 0.5 * static_cast<double>(I + J) + 1.0;
      for (size_t K = I; K <= J; ++K)
        R[Idx[K]] = Avg;
      I = J + 1;
    }
    return R;
  };
  std::vector<double> RX = ranks(X), RY = ranks(Y);
  double MX = 0, MY = 0;
  for (size_t I = 0; I != N; ++I) {
    MX += RX[I];
    MY += RY[I];
  }
  MX /= static_cast<double>(N);
  MY /= static_cast<double>(N);
  double Cov = 0, VX = 0, VY = 0;
  for (size_t I = 0; I != N; ++I) {
    double DX = RX[I] - MX, DY = RY[I] - MY;
    Cov += DX * DY;
    VX += DX * DX;
    VY += DY * DY;
  }
  return Cov / std::sqrt(VX * VY);
}

double pairSum(const LatticePrediction &E) {
  double S = 0;
  for (const PairConflict &P : E.Pairs)
    S += P.PredictedConflictMisses;
  return S;
}

} // namespace

TEST(LatticePredictor, DirectMappedExactness) {
  // Closed form: per iteration each of the two colliding leaders loses
  // its reuse, charging 1 - 8/32 = 0.75 misses over the spatial
  // baseline; 2 refs x 0.75 x 512 iterations = 768 conflict misses.
  // The direct-mapped set-mapping lattice makes this exact, so the
  // simulator's classifier must agree to the access.
  ir::Program P = makeThrashPair();
  layout::DataLayout DL = layout::originalLayout(P);

  LatticePrediction E = predictConflicts(DL, kBase);
  EXPECT_NEAR(E.PredictedConflictMisses, 768.0, 1e-9);
  ASSERT_EQ(E.Pairs.size(), 1u);
  EXPECT_EQ(E.Pairs[0].NameA, "A");
  EXPECT_EQ(E.Pairs[0].NameB, "B");
  EXPECT_EQ(E.Pairs[0].DistanceBytes, 16384);
  EXPECT_EQ(E.Pairs[0].LatticeDistanceBytes, 0);
  EXPECT_NEAR(E.Pairs[0].PredictedConflictMisses, 768.0, 1e-9);

  sim::MissBreakdown B = expt::classifyMisses(P, DL, kBase);
  EXPECT_EQ(B.Conflict, 768u);

  // Same bases on the half-size direct-mapped cache: 16384 is a lattice
  // point of 8192*Z too, so the count is unchanged.
  CacheConfig Half{8 * 1024, 32, 1};
  EXPECT_NEAR(predictConflicts(DL, Half).PredictedConflictMisses, 768.0,
              1e-9);
  EXPECT_EQ(expt::classifyMisses(P, DL, Half).Conflict, 768u);
}

TEST(LatticePredictor, TwoWayAbsorbsThePair) {
  // The same pair fits in a 2-way set: two reuse classes <= 2 ways, so
  // the cluster does not thrash and no conflicts are predicted. The
  // simulator agrees (LRU keeps both lines resident).
  ir::Program P = makeThrashPair();
  layout::DataLayout DL = layout::originalLayout(P);
  CacheConfig TwoWay{16 * 1024, 32, 2};
  EXPECT_EQ(predictConflicts(DL, TwoWay).PredictedConflictMisses, 0.0);
  EXPECT_EQ(expt::classifyMisses(P, DL, TwoWay).Conflict, 0u);
}

TEST(LatticePredictor, FullyAssociativeHasNoPairs) {
  ir::Program P = makeThrashPair();
  layout::DataLayout DL = layout::originalLayout(P);
  CacheConfig Fully{16 * 1024, 32, 0};
  LatticePrediction E = predictConflicts(DL, Fully);
  EXPECT_TRUE(E.Pairs.empty());
  EXPECT_EQ(E.PredictedConflictMisses, 0.0);
}

TEST(LatticePredictor, PairRowsSumToNestTotals) {
  // Per-pair attribution must partition the per-nest conflict charge:
  // the pair table and the nest table are two views of one number.
  for (const char *Name : {"jacobi", "shal", "tomcatv", "expl"}) {
    ir::Program P = kernels::makeKernel(Name);
    layout::DataLayout DL = layout::originalLayout(P);
    LatticePrediction E = predictConflicts(DL, kBase);
    EXPECT_NEAR(pairSum(E), E.PredictedConflictMisses,
                1e-6 * (1.0 + E.PredictedConflictMisses))
        << Name;
  }
}

TEST(LatticePredictor, DirectMappedTotalsGolden) {
  // The access and miss totals over every corpus kernel, on both
  // direct-mapped geometries, for the original, PAD and PADLITE layouts
  // (each padded for its geometry), pinned to a golden file to the last
  // bit. The file was captured while the reuse-only miss estimator this
  // predictor replaced still existed, and every row equalled that
  // estimator's totals: on a direct-mapped cache only the conflict
  // attribution is new, so lint severities and `padtool --estimate`
  // kept their output when they moved onto the predictor.
  const std::filesystem::path Golden = PADX_LATTICE_GOLDEN;
  const CacheConfig Geometries[] = {kBase, CacheConfig{64 * 1024, 64, 1}};
  const char *const LayoutNames[] = {"original", "pad", "padlite"};
  const auto &Kernels = kernels::allKernels();
  std::vector<std::string> Actual(Kernels.size() * 6);
  expt::parallelFor(Kernels.size(), [&](size_t KI) {
    ir::Program P = kernels::makeKernel(Kernels[KI].Name);
    for (size_t GI = 0; GI != 2; ++GI) {
      const CacheConfig &C = Geometries[GI];
      const layout::DataLayout Layouts[] = {layout::originalLayout(P),
                                            pad::runPad(P, C).Layout,
                                            pad::runPadLite(P, C).Layout};
      for (size_t LI = 0; LI != 3; ++LI) {
        LatticePrediction E = predictConflicts(Layouts[LI], C);
        char Row[256];
        std::snprintf(Row, sizeof Row,
                      "%s %lld/%lld/%d %s accesses=%.17g misses=%.17g",
                      Kernels[KI].Name.c_str(),
                      static_cast<long long>(C.SizeBytes),
                      static_cast<long long>(C.LineBytes), C.Associativity,
                      LayoutNames[LI], E.PredictedAccesses,
                      E.PredictedMisses);
        Actual[KI * 6 + GI * 3 + LI] = Row;
      }
    }
  });

  if (std::getenv("PADX_UPDATE_GOLDEN")) {
    std::ofstream Out(Golden);
    Out << "# kernel geometry layout: lattice-predicted accesses and "
           "misses (regenerate with\n# PADX_UPDATE_GOLDEN=1 padx_tests "
           "--gtest_filter=LatticePredictor.DirectMappedTotalsGolden)\n";
    for (const std::string &Row : Actual)
      Out << Row << '\n';
    GTEST_SKIP() << "rewrote " << Golden;
  }

  std::ifstream In(Golden);
  ASSERT_TRUE(In) << "missing " << Golden;
  std::vector<std::string> Expected;
  for (std::string Line; std::getline(In, Line);)
    if (!Line.empty() && Line[0] != '#')
      Expected.push_back(Line);
  ASSERT_EQ(Actual.size(), Expected.size());
  for (size_t I = 0; I != Actual.size(); ++I)
    EXPECT_EQ(Actual[I], Expected[I]);
}

TEST(LatticePredictor, TwoWayChargesDotOnlyItsSpatialFloor) {
  // dot's two streams sit one cache size apart, so on a direct-mapped
  // cache every iteration evicts the partner's line. A 2-way set holds
  // both: the pair contends but does not thrash, and each stream pays
  // only its spatial floor of one miss per four elements.
  ir::Program P = kernels::makeKernel("dot");
  layout::DataLayout DL = layout::originalLayout(P);
  const CacheConfig TwoWay{16 * 1024, 32, 2};
  LatticePrediction E = predictConflicts(DL, TwoWay);
  EXPECT_EQ(E.PredictedMisses, 8192.0);
  EXPECT_EQ(E.PredictedConflictMisses, 0.0);
}

TEST(LatticePredictor, PaddingRemovesPredictedConflicts) {
  // PAD exists to clear conflicts; the predictor must see that on the
  // motivating kernels.
  for (const char *Name : {"jacobi", "dot"}) {
    ir::Program P = kernels::makeKernel(Name);
    layout::DataLayout Orig = layout::originalLayout(P);
    layout::DataLayout Padded = pad::runPad(P, kBase).Layout;
    LatticePrediction Before = predictConflicts(Orig, kBase);
    LatticePrediction After = predictConflicts(Padded, kBase);
    EXPECT_GT(Before.PredictedConflictMisses, 0.0) << Name;
    EXPECT_LT(After.PredictedConflictMisses,
              0.1 * Before.PredictedConflictMisses)
        << Name;
  }
}

TEST(LatticePredictor, CorpusRankCorrelation) {
  // The regression the prescreen tier rests on: ranked by predicted
  // conflict rate, the corpus (every kernel x original/PADLITE/PAD)
  // must track the simulator's classified conflict rate with Spearman
  // >= 0.8 on the base geometry. Deterministic on both sides.
  const auto &Kernels = kernels::allKernels();
  struct Sample {
    double Est = 0, Sim = 0;
  };
  std::vector<Sample> Samples(Kernels.size() * 3);
  expt::parallelFor(Kernels.size(), [&](size_t KI) {
    ir::Program P = kernels::makeKernel(Kernels[KI].Name);
    layout::DataLayout Layouts[3] = {
        layout::originalLayout(P),
        pad::runPadLite(P, kBase).Layout,
        pad::runPad(P, kBase).Layout,
    };
    for (size_t LI = 0; LI != 3; ++LI) {
      LatticePrediction E = predictConflicts(Layouts[LI], kBase);
      sim::MissBreakdown B = expt::classifyMisses(P, Layouts[LI], kBase);
      double Acc = B.Accesses ? static_cast<double>(B.Accesses) : 1.0;
      Samples[KI * 3 + LI].Est = E.PredictedConflictMisses /
                                 std::max(E.PredictedAccesses, 1.0);
      Samples[KI * 3 + LI].Sim = static_cast<double>(B.Conflict) / Acc;
    }
  });
  std::vector<double> Est, Sim;
  for (const Sample &S : Samples) {
    Est.push_back(S.Est);
    Sim.push_back(S.Sim);
  }
  EXPECT_GE(spearman(Est, Sim), 0.8);
}

TEST(LatticePredictor, DotConflictPredicted) {
  // The motivating example: every iteration's two loads evict each
  // other, so the model must predict ~100% before padding and the 25%
  // spatial floor (8-byte elements, 32-byte lines) after.
  ir::Program P = kernels::makeKernel("dot", 4096);
  layout::DataLayout Orig = layout::originalLayout(P);
  EXPECT_NEAR(predictConflicts(Orig, kBase).predictedMissRatePercent(),
              100.0, 1.0);
  pad::PaddingResult R = pad::runPad(P);
  EXPECT_NEAR(
      predictConflicts(R.Layout, kBase).predictedMissRatePercent(), 25.0,
      1.0);
}

TEST(LatticePredictor, AccessCountMatchesSimulator) {
  for (const char *Name : {"jacobi", "dgefa", "shal"}) {
    ir::Program P = kernels::makeKernel(Name, 64);
    layout::DataLayout DL = layout::originalLayout(P);
    expt::MissResult Sim = expt::measureMissRate(P, DL, kBase);
    LatticePrediction E = predictConflicts(DL, kBase);
    EXPECT_NEAR(E.PredictedAccesses, static_cast<double>(Sim.Accesses),
                0.02 * static_cast<double>(Sim.Accesses) + 64)
        << Name;
  }
}

TEST(LatticePredictor, TracksSimulatorOnJacobi) {
  // The model is first-order; require agreement within a few points on
  // both the conflicted and the padded layout, and the right ranking.
  ir::Program P = kernels::makeKernel("jacobi", 512);
  layout::DataLayout Orig = layout::originalLayout(P);
  double SimOrig = expt::measureMissRate(P, Orig, kBase).percent();
  double PredOrig = predictConflicts(Orig, kBase).predictedMissRatePercent();
  EXPECT_NEAR(PredOrig, SimOrig, 8.0);

  pad::PaddingResult R = pad::runPad(P);
  double SimPad = expt::measureMissRate(P, R.Layout, kBase).percent();
  double PredPad =
      predictConflicts(R.Layout, kBase).predictedMissRatePercent();
  EXPECT_NEAR(PredPad, SimPad, 8.0);
  EXPECT_LT(PredPad, PredOrig);
}

TEST(LatticePredictor, FlagsThrashingNests) {
  // Lint's conflict-pair severity reads these flags.
  ir::Program P = kernels::makeKernel("jacobi", 512);
  layout::DataLayout Orig = layout::originalLayout(P);
  LatticePrediction E = predictConflicts(Orig, kBase);
  ASSERT_EQ(E.Nests.size(), 2u);
  EXPECT_TRUE(E.Nests[0].Thrashing);
  EXPECT_TRUE(E.Nests[1].Thrashing);

  pad::PaddingResult R = pad::runPad(P);
  for (const NestPrediction &N : predictConflicts(R.Layout, kBase).Nests)
    EXPECT_FALSE(N.Thrashing);
}

TEST(LatticePredictor, FullyAssociativeHasNoConflictTerm) {
  // Without sets nothing conflicts: dot pays only its spatial floor.
  ir::Program P = kernels::makeKernel("dot", 4096);
  layout::DataLayout Orig = layout::originalLayout(P);
  CacheConfig Fully{16 * 1024, 32, 0};
  LatticePrediction E = predictConflicts(Orig, Fully);
  EXPECT_NEAR(E.predictedMissRatePercent(), 25.0, 1.0);
  EXPECT_EQ(E.PredictedConflictMisses, 0.0);
}

TEST(LatticePredictor, TriangularIterationCount) {
  // sum_{k=1..63} (64 - k) = 63 * 64 / 2: the outer loop is enumerated,
  // so a triangular nest is counted exactly.
  ir::Program P = parseOrDie(R"(program p
array A : real[64, 64]
loop k = 1, 63 {
  loop i = k+1, 64 {
    A[i, k] = A[i, k]
  }
}
)");
  layout::DataLayout DL = layout::originalLayout(P);
  LatticePrediction E = predictConflicts(DL, kBase);
  ASSERT_EQ(E.Nests.size(), 1u);
  EXPECT_EQ(E.Nests[0].Iterations, 63.0 * 64.0 / 2.0);
}

TEST(LatticePredictor, ScalarRefsExcluded) {
  ir::Program P = parseOrDie(R"(program p
array S : real
array A : real[64]
loop i = 1, 64 {
  S = S + A[i]
}
)");
  layout::DataLayout DL = layout::originalLayout(P);
  LatticePrediction E = predictConflicts(DL, kBase);
  ASSERT_EQ(E.Nests.size(), 1u);
  EXPECT_EQ(E.Nests[0].RefsPerIteration, 1u);
}

TEST(LatticePredictor, IndirectCountsTwoAccesses) {
  // An indirect reference reads its index array and then its target.
  ir::Program P = kernels::makeKernel("irr", 1000);
  layout::DataLayout DL = layout::originalLayout(P);
  LatticePrediction E = predictConflicts(DL, kBase);
  expt::MissResult Sim = expt::measureMissRate(P, DL, kBase);
  EXPECT_NEAR(E.PredictedAccesses, static_cast<double>(Sim.Accesses),
              0.02 * static_cast<double>(Sim.Accesses) + 64);
}

TEST(LatticePredictor, MemoizedAndInvalidatedByLayout) {
  ir::Program P = kernels::makeKernel("jacobi");
  layout::DataLayout DL = layout::originalLayout(P);
  pipeline::AnalysisManager AM(P);

  LatticePrediction A = AM.latticePrediction(DL, kBase);
  LatticePrediction B = AM.latticePrediction(DL, kBase);
  EXPECT_EQ(A.PredictedConflictMisses, B.PredictedConflictMisses);
  using pipeline::AnalysisKind;
  EXPECT_EQ(AM.stats().of(AnalysisKind::LatticePrediction).Misses, 1u);
  EXPECT_EQ(AM.stats().of(AnalysisKind::LatticePrediction).Hits, 1u);

  // A different layout of the same program is a fresh entry, not a hit.
  layout::DataLayout Padded = pad::runPad(P, kBase).Layout;
  AM.latticePrediction(Padded, kBase);
  EXPECT_EQ(AM.stats().of(AnalysisKind::LatticePrediction).Misses, 2u);
}
