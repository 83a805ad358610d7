//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-validation of the lattice conflict predictor against the
/// trace-driven simulator: every corpus kernel x three cache
/// geometries x three layouts (original, PADLITE, PAD), comparing the
/// predicted miss rate with the simulator's and the predicted conflict
/// misses with the classifier's conflict count. The predictor exists to
/// *rank* layouts without simulating, so the guarded metric is the
/// pooled Spearman rank correlation between predicted and simulated
/// miss rates; mean relative error is reported for calibration but not
/// gated (absolute gaps of a few points are expected for irregular
/// programs).
///
///   model_accuracy [--json PATH] [--guard-rank X] [--guard-rank-l2 X]
///
/// --json writes one line of JSON with the per-row data (all counts are
/// deterministic, so the file is diffable across machines); --guard-rank
/// exits 1 when the pooled miss-rate rank correlation falls below X.
///
/// A second section cross-validates the per-level machine predictor on
/// the paper-l2 hierarchy: predicted L2 conflict rates vs the hierarchy
/// classifier's (which sees only the lines that missed L1), pooled over
/// kernels x layouts. --guard-rank-l2 gates that rank correlation.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

#include "analysis/LatticePredictor.h"
#include "core/Padding.h"
#include "support/JsonWriter.h"
#include "support/ParseInteger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <numeric>

using namespace padx;

namespace {

struct Row {
  std::string Program;
  std::string Layout; // original | padlite | pad
  unsigned Geometry = 0;
  double SimMissRate = 0, EstMissRate = 0;
  uint64_t SimConflict = 0;
  double EstConflict = 0;
  uint64_t Accesses = 0;
};

/// One kernel x layout on the paper-l2 machine: L2 conflict misses per
/// full-stream access, simulated (hierarchy classifier) vs predicted
/// (per-level lattice terms). Rates, not counts, so programs with long
/// traces do not dominate the pooled ranking.
struct L2Row {
  std::string Program;
  std::string Layout;
  double SimConflictRate = 0;
  double EstConflictRate = 0;
};

/// Spearman rank correlation with average ranks for ties. Returns 1.0
/// for degenerate inputs (fewer than two rows, or a constant side).
double spearman(const std::vector<double> &X, const std::vector<double> &Y) {
  size_t N = X.size();
  if (N < 2)
    return 1.0;
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
  if (VX == 0 || VY == 0)
    return 1.0;
  return Cov / std::sqrt(VX * VY);
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath;
  double GuardRank = -2.0;
  double GuardRankL2 = -2.0;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Arg.c_str());
        std::exit(2);
      }
      return argv[++I];
    };
    if (Arg == "--json")
      JsonPath = Next();
    else if (Arg == "--guard-rank")
      GuardRank = parseNumberFlag(Arg, Next(), -1.0, 1.0, 2);
    else if (Arg == "--guard-rank-l2")
      GuardRankL2 = parseNumberFlag(Arg, Next(), -1.0, 1.0, 2);
    else {
      std::fprintf(stderr,
                   "usage: model_accuracy [--json PATH] "
                   "[--guard-rank X] [--guard-rank-l2 X]\n");
      return 2;
    }
  }

  // Three geometries: the paper's base direct-mapped cache, its 2-way
  // variant (exercises the shortest-vector bound instead of the exact
  // direct-mapped lattice), and a half-size direct-mapped cache (moves
  // every set-mapping lattice, so base distances land differently).
  const std::vector<CacheConfig> Geometries = {
      CacheConfig{16 * 1024, 32, 1},
      CacheConfig{16 * 1024, 32, 2},
      CacheConfig{8 * 1024, 32, 1},
  };

  const auto &Kernels = kernels::allKernels();
  const size_t NumLayouts = 3;
  std::vector<Row> Rows(Kernels.size() * Geometries.size() * NumLayouts);

  expt::parallelFor(Kernels.size() * Geometries.size(), [&](size_t Task) {
    size_t KI = Task / Geometries.size();
    size_t GI = Task % Geometries.size();
    const CacheConfig &Cache = Geometries[GI];
    ir::Program P = kernels::makeKernel(Kernels[KI].Name);

    layout::DataLayout Layouts[NumLayouts] = {
        layout::originalLayout(P),
        pad::runPadLite(P, Cache).Layout,
        pad::runPad(P, Cache).Layout,
    };
    static const char *Names[NumLayouts] = {"original", "padlite", "pad"};

    for (size_t LI = 0; LI != NumLayouts; ++LI) {
      Row &R = Rows[Task * NumLayouts + LI];
      R.Program = Kernels[KI].Display;
      R.Layout = Names[LI];
      R.Geometry = static_cast<unsigned>(GI);
      sim::MissBreakdown B = expt::classifyMisses(P, Layouts[LI], Cache);
      analysis::LatticePrediction E =
          analysis::predictConflicts(Layouts[LI], Cache);
      R.SimMissRate = 100.0 * B.missRate();
      R.EstMissRate = E.predictedMissRatePercent();
      R.SimConflict = B.Conflict;
      R.EstConflict = E.PredictedConflictMisses;
      R.Accesses = B.Accesses;
    }
  });

  // Pooled metrics. Relative error only over rows where the simulator
  // saw a meaningful miss rate (>= 0.5%), otherwise the ratio explodes
  // on near-zero denominators without telling us anything.
  std::vector<double> SimRate, EstRate, SimConf, EstConf;
  double RelErrSum = 0;
  unsigned RelErrRows = 0;
  for (const Row &R : Rows) {
    double Acc = R.Accesses ? static_cast<double>(R.Accesses) : 1.0;
    SimRate.push_back(R.SimMissRate);
    EstRate.push_back(R.EstMissRate);
    // Conflict counts are ranked as rates: raw counts would conflate
    // trace length with conflict intensity across programs.
    SimConf.push_back(static_cast<double>(R.SimConflict) / Acc);
    EstConf.push_back(R.EstConflict / Acc);
    if (R.SimMissRate >= 0.5) {
      RelErrSum += std::fabs(R.EstMissRate - R.SimMissRate) / R.SimMissRate;
      ++RelErrRows;
    }
  }
  double RankMiss = spearman(EstRate, SimRate);
  double RankConflict = spearman(EstConf, SimConf);
  double MeanRelErr = RelErrRows ? RelErrSum / RelErrRows : 0.0;

  // L2 section: the machine predictor vs the hierarchy classifier on
  // the paper-l2 machine. The predictor scores L2 against the full
  // stream while the classifier sees only L1's missed lines, so
  // absolute rates differ by construction; the pooled ranking across
  // layouts is the guarded signal.
  const MachineModel L2Machine = MachineModel::paperL2();
  const unsigned L2Level = 1;
  std::vector<L2Row> L2Rows(Kernels.size() * NumLayouts);
  expt::parallelFor(Kernels.size(), [&](size_t KI) {
    ir::Program P = kernels::makeKernel(Kernels[KI].Name);
    const CacheConfig &L1 = L2Machine.firstCache();
    layout::DataLayout Layouts[NumLayouts] = {
        layout::originalLayout(P),
        pad::runPadLite(P, L1).Layout,
        pad::runPad(P, L1).Layout,
    };
    static const char *Names[NumLayouts] = {"original", "padlite", "pad"};
    for (size_t LI = 0; LI != NumLayouts; ++LI) {
      L2Row &R = L2Rows[KI * NumLayouts + LI];
      R.Program = Kernels[KI].Display;
      R.Layout = Names[LI];
      expt::HierarchyMissResult Sim = expt::measureHierarchy(
          P, Layouts[LI], L2Machine, /*Classify=*/true);
      analysis::MachinePrediction Est =
          analysis::predictConflicts(Layouts[LI], L2Machine);
      double Acc = Sim.Levels.empty() || Sim.Levels[0].Accesses == 0
                       ? 1.0
                       : static_cast<double>(Sim.Levels[0].Accesses);
      R.SimConflictRate =
          static_cast<double>(Sim.Levels[L2Level].ConflictMisses) / Acc;
      const analysis::LatticePrediction &LP =
          Est.Levels[L2Level].Prediction;
      R.EstConflictRate = LP.PredictedAccesses == 0
                              ? 0.0
                              : LP.PredictedConflictMisses /
                                    LP.PredictedAccesses;
    }
  });
  std::vector<double> SimL2, EstL2;
  for (const L2Row &R : L2Rows) {
    SimL2.push_back(R.SimConflictRate);
    EstL2.push_back(R.EstConflictRate);
  }
  double RankL2 = spearman(EstL2, SimL2);

  std::cout << "Lattice predictor vs simulator, " << Rows.size()
            << " rows (" << Kernels.size() << " programs x "
            << Geometries.size() << " geometries x " << NumLayouts
            << " layouts)\n\n";
  for (size_t GI = 0; GI != Geometries.size(); ++GI) {
    std::cout << "geometry " << GI << ": " << Geometries[GI].describe()
              << "\n";
    TableFormatter T({"Program", "Layout", "Sim%", "Est%", "SimConf",
                      "EstConf"});
    for (const Row &R : Rows) {
      if (R.Geometry != GI)
        continue;
      T.beginRow();
      T.cell(R.Program);
      T.cell(R.Layout);
      T.cell(R.SimMissRate, 2);
      T.cell(R.EstMissRate, 2);
      T.cell(static_cast<double>(R.SimConflict), 0);
      T.cell(R.EstConflict, 0);
    }
    bench::printTable(T);
    std::cout << "\n";
  }
  std::printf("rank correlation (miss rate):      %.4f\n", RankMiss);
  std::printf("rank correlation (conflict rate):  %.4f\n", RankConflict);
  std::printf("mean relative error (miss rate >= 0.5%%): %.3f over %u "
              "rows\n",
              MeanRelErr, RelErrRows);

  std::cout << "\nL2 cross-validation on " << L2Machine.describe()
            << "\n";
  {
    TableFormatter T({"Program", "Layout", "SimL2Conf/acc",
                      "EstL2Conf/acc"});
    for (const L2Row &R : L2Rows) {
      T.beginRow();
      T.cell(R.Program);
      T.cell(R.Layout);
      T.cell(R.SimConflictRate, 4);
      T.cell(R.EstConflictRate, 4);
    }
    bench::printTable(T);
  }
  std::printf("rank correlation (l2 conflict rate): %.4f\n", RankL2);

  if (!JsonPath.empty()) {
    std::ofstream OS(JsonPath);
    if (!OS) {
      std::fprintf(stderr, "error: cannot write %s\n", JsonPath.c_str());
      return 2;
    }
    support::JsonWriter J(OS);
    J.beginObject();
    J.field("bench", std::string("model_accuracy"));
    J.key("geometries");
    J.beginArray();
    for (const CacheConfig &C : Geometries) {
      J.beginObject();
      J.field("cache", C.SizeBytes);
      J.field("line", C.LineBytes);
      J.field("assoc", static_cast<int64_t>(C.Associativity));
      J.endObject();
    }
    J.endArray();
    J.key("rows");
    J.beginArray();
    for (const Row &R : Rows) {
      J.beginObject();
      J.field("program", R.Program);
      J.field("geometry", static_cast<int64_t>(R.Geometry));
      J.field("layout", R.Layout);
      J.field("accesses", static_cast<int64_t>(R.Accesses));
      J.field("sim_miss_rate", R.SimMissRate);
      J.field("est_miss_rate", R.EstMissRate);
      J.field("sim_conflict", static_cast<int64_t>(R.SimConflict));
      J.field("est_conflict", R.EstConflict);
      J.endObject();
    }
    J.endArray();
    J.key("l2_rows");
    J.beginArray();
    for (const L2Row &R : L2Rows) {
      J.beginObject();
      J.field("program", R.Program);
      J.field("layout", R.Layout);
      J.field("sim_l2_conflict_rate", R.SimConflictRate);
      J.field("est_l2_conflict_rate", R.EstConflictRate);
      J.endObject();
    }
    J.endArray();
    J.field("rank_correlation", RankMiss);
    J.field("conflict_rank_correlation", RankConflict);
    J.field("l2_conflict_rank_correlation", RankL2);
    J.field("mean_rel_error", MeanRelErr);
    J.endObject();
    OS << "\n";
  }

  if (GuardRank > -2.0 && RankMiss < GuardRank) {
    std::fprintf(stderr,
                 "error: miss-rate rank correlation %.4f below the "
                 "%.4f guard\n",
                 RankMiss, GuardRank);
    return 1;
  }
  if (GuardRankL2 > -2.0 && RankL2 < GuardRankL2) {
    std::fprintf(stderr,
                 "error: l2 conflict rank correlation %.4f below the "
                 "%.4f guard\n",
                 RankL2, GuardRankL2);
    return 1;
  }
  return 0;
}
