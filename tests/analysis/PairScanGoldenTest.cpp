//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the three pairwise scans over a loop group's references to a
/// golden file: the lattice predictor's collision scan, analyzeReuse's
/// self-stride and group-reuse scan, and reportConflicts. One row per
/// corpus kernel x geometry x layout, with the original layout and the
/// PAD and PADLITE layouts padded for that geometry. The geometries are
/// the paper's direct-mapped 16K cache, a 2-way one, an 8-way 32K cache
/// with 64 B lines and a 4-way 64K cache with 256 B lines.
///
/// Regenerate with
///   PADX_UPDATE_GOLDEN=1 padx_tests --gtest_filter=PairScans.CorpusGolden
///
//===----------------------------------------------------------------------===//

#include "analysis/ConflictReport.h"
#include "analysis/LatticePredictor.h"
#include "analysis/Reuse.h"

#include "core/Padding.h"
#include "experiments/Experiment.h"
#include "kernels/Kernels.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace padx;
using namespace padx::analysis;

namespace {

uint64_t fnv1a(const std::string &Text) {
  uint64_t H = 1469598103934665603ULL;
  for (unsigned char C : Text) {
    H ^= C;
    H *= 1099511628211ULL;
  }
  return H;
}

std::string reportText(const std::vector<ConflictEntry> &Entries) {
  std::ostringstream OS;
  printConflictReport(OS, Entries);
  return OS.str();
}

/// One golden row: what each scan decides for one layout on one cache.
std::string scanRow(const std::string &Kernel, const CacheConfig &C,
                    const char *LayoutName, const layout::DataLayout &DL,
                    const std::vector<LoopGroup> &Groups,
                    const std::vector<double> &Iterations) {
  LatticePrediction LP = predictConflicts(DL, C, Groups, Iterations);
  unsigned Thrashing = 0;
  for (const NestPrediction &NP : LP.Nests)
    Thrashing += NP.Thrashing;

  unsigned Leaders = 0, SelfTemporal = 0, SelfSpatial = 0,
           GroupTemporal = 0, GroupSpatial = 0;
  for (const LoopGroup &G : Groups) {
    GroupReuse R = analyzeReuse(DL, G, C.LineBytes);
    for (size_t I = 0; I != R.Refs.size(); ++I) {
      const RefReuse &RR = R.Refs[I];
      Leaders += RR.Leader == I;
      SelfTemporal += RR.Self == SelfReuse::Temporal;
      SelfSpatial += RR.Self == SelfReuse::Spatial;
      GroupTemporal += RR.GroupTemporal;
      GroupSpatial += RR.GroupSpatial;
    }
  }

  std::vector<ConflictEntry> All =
      reportConflicts(DL, C, Groups, /*SevereOnly=*/false);
  std::vector<ConflictEntry> Severe =
      reportConflicts(DL, C, Groups, /*SevereOnly=*/true);

  char Row[512];
  std::snprintf(
      Row, sizeof Row,
      "%s %lld/%lld/%d %s misses=%.17g conflict=%.17g pairs=%zu "
      "thrashing=%u leaders=%u self_t=%u self_s=%u group_t=%u "
      "group_s=%u report=%zu severe=%zu digest=%016llx "
      "severe_digest=%016llx",
      Kernel.c_str(), static_cast<long long>(C.SizeBytes),
      static_cast<long long>(C.LineBytes), C.Associativity, LayoutName,
      LP.PredictedMisses, LP.PredictedConflictMisses, LP.Pairs.size(),
      Thrashing, Leaders, SelfTemporal, SelfSpatial, GroupTemporal,
      GroupSpatial, All.size(), Severe.size(),
      static_cast<unsigned long long>(fnv1a(reportText(All))),
      static_cast<unsigned long long>(fnv1a(reportText(Severe))));
  return Row;
}

} // namespace

TEST(PairScans, CorpusGolden) {
  const std::filesystem::path Golden = PADX_SCAN_GOLDEN;
  const CacheConfig Geometries[] = {
      CacheConfig::base16K(), CacheConfig{16 * 1024, 32, 2},
      CacheConfig{32 * 1024, 64, 8}, CacheConfig{64 * 1024, 256, 4}};
  constexpr size_t NumGeometries = std::size(Geometries);
  const char *const LayoutNames[] = {"original", "pad", "padlite"};
  const auto &Kernels = kernels::allKernels();
  const size_t RowsPerKernel = NumGeometries * 3;
  std::vector<std::string> Actual(Kernels.size() * RowsPerKernel);
  expt::parallelFor(Kernels.size(), [&](size_t KI) {
    const std::string &Name = Kernels[KI].Name;
    ir::Program P = kernels::makeKernel(Name);
    const std::vector<LoopGroup> Groups = collectLoopGroups(P);
    const std::vector<double> Iterations = countGroupIterations(Groups);
    for (size_t GI = 0; GI != NumGeometries; ++GI) {
      const CacheConfig &C = Geometries[GI];
      const layout::DataLayout Layouts[] = {layout::originalLayout(P),
                                            pad::runPad(P, C).Layout,
                                            pad::runPadLite(P, C).Layout};
      for (size_t LI = 0; LI != 3; ++LI)
        Actual[KI * RowsPerKernel + GI * 3 + LI] = scanRow(
            Name, C, LayoutNames[LI], Layouts[LI], Groups, Iterations);
    }
  });

  if (std::getenv("PADX_UPDATE_GOLDEN")) {
    std::ofstream Out(Golden);
    Out << "# kernel geometry layout: lattice predictor, reuse and "
           "conflict-report scans (regenerate\n# with PADX_UPDATE_GOLDEN=1 "
           "padx_tests --gtest_filter=PairScans.CorpusGolden)\n";
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
