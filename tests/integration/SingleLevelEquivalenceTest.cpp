//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Corpus-sweep equivalence: a 1-level MachineModel is a pure
/// re-spelling of the old single-CacheConfig API, never a behavior
/// change. For every parseable corpus program and every built-in
/// kernel, the hierarchy simulator, the lattice predictor, the PAD
/// heuristics and the linter produce bit-identical stats and chosen
/// layouts whether the geometry arrives as a CacheConfig or as
/// MachineModel::singleLevel of the same CacheConfig. The search takes
/// only a machine; its results are pinned to a golden file
/// (tests/integration/golden/search_kernels.txt). This is the
/// refactor's back-compat contract: every legacy call site (and every
/// daemon request without a "machine" field) keeps its exact
/// pre-hierarchy behavior.
///
//===----------------------------------------------------------------------===//

#include "analysis/LatticePredictor.h"
#include "core/Padding.h"
#include "experiments/Experiment.h"
#include "frontend/Parser.h"
#include "kernels/Kernels.h"
#include "layout/DataLayout.h"
#include "lint/Linter.h"
#include "lint/Output.h"
#include "machine/MachineModel.h"
#include "search/SearchEngine.h"

#include "gtest/gtest.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

using namespace padx;

namespace {

const CacheConfig kCache = CacheConfig::base16K();

std::optional<ir::Program> parseFile(const std::filesystem::path &File) {
  std::ifstream In(File);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  DiagnosticEngine Diags;
  return frontend::parseProgram(Buf.str(), Diags);
}

/// The sweep set: every parseable fuzz-corpus program plus every
/// registered kernel (same set as the pipeline consistency sweep).
std::vector<std::pair<std::string, ir::Program>> allPrograms() {
  std::vector<std::pair<std::string, ir::Program>> Out;
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry :
       std::filesystem::directory_iterator(PADX_CORPUS_DIR))
    if (Entry.path().extension() == ".pad")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  EXPECT_FALSE(Files.empty());
  for (const auto &File : Files)
    if (std::optional<ir::Program> P = parseFile(File))
      Out.emplace_back(File.filename().string(), std::move(*P));
  for (const auto &K : kernels::allKernels())
    Out.emplace_back(K.Name, kernels::makeKernel(K.Name));
  return Out;
}

void expectSameLayout(const layout::DataLayout &A,
                      const layout::DataLayout &B,
                      const std::string &Name) {
  ASSERT_EQ(A.numArrays(), B.numArrays()) << Name;
  for (unsigned Id = 0; Id != A.numArrays(); ++Id) {
    EXPECT_EQ(A.layout(Id).BaseAddr, B.layout(Id).BaseAddr)
        << Name << " array " << Id;
    EXPECT_EQ(A.layout(Id).Dims, B.layout(Id).Dims)
        << Name << " array " << Id;
  }
}

/// One golden row for a search result: every reported cost (exact,
/// %.17g), the per-level miss arrays, the counters, and the best
/// layout's base addresses and dimensions.
std::string searchRow(const std::string &Machine, const std::string &Kernel,
                      const search::SearchResult &R) {
  std::ostringstream OS;
  OS.precision(17);
  auto Levels = [&](const char *Key, const std::vector<double> &V) {
    OS << ' ' << Key << '=';
    for (size_t I = 0; I != V.size(); ++I)
      OS << (I ? "/" : "") << V[I];
  };
  OS << Machine << ' ' << Kernel << " best=" << R.BestMisses
     << " original=" << R.OriginalMisses << " pad=" << R.PadMisses
     << " accesses=" << R.Accesses << " evals=" << R.ExactEvaluations
     << " candidates=" << R.CandidatesGenerated
     << " pruned=" << R.PrunedStatic;
  Levels("best_levels", R.BestLevelMisses);
  Levels("original_levels", R.OriginalLevelMisses);
  Levels("pad_levels", R.PadLevelMisses);
  OS << " layout=";
  for (unsigned Id = 0; Id != R.BestLayout.numArrays(); ++Id) {
    const layout::ArrayLayout &L = R.BestLayout.layout(Id);
    OS << (Id ? ";" : "") << L.BaseAddr << '[';
    for (size_t D = 0; D != L.Dims.size(); ++D)
      OS << (D ? "," : "") << L.Dims[D];
    OS << ']';
  }
  return OS.str();
}

} // namespace

TEST(SingleLevelEquivalence, HierarchySimMatchesCacheSim) {
  const MachineModel M = MachineModel::singleLevel(kCache);
  // Both layouts, classified, over the corpus and the kernel tier.
  // The NAS/SPEC-tier kernels are excluded for time: their single-level
  // sim path is already swept corpus-wide by the replay-equivalence
  // tests, and the hierarchy code they'd exercise is identical.
  struct Case {
    const std::string *Name;
    const ir::Program *P;
    layout::DataLayout DL;
    expt::MissResult Flat;
    expt::HierarchyMissResult Hier;
    sim::MissBreakdown B;
  };
  std::vector<std::pair<std::string, ir::Program>> Programs = allPrograms();
  std::vector<Case> Cases;
  for (auto &[Name, P] : Programs) {
    const kernels::KernelInfo *K = kernels::findKernel(Name);
    if (K && K->Tier != kernels::Suite::Kernel)
      continue;
    Cases.push_back({&Name, &P, layout::originalLayout(P), {}, {}, {}});
    Cases.push_back({&Name, &P, pad::runPad(P, kCache).Layout, {}, {}, {}});
  }
  // Each (program, layout) case takes four full walks: the hierarchy
  // and its classifier, the single-cache classifier, and the flat sim.
  // They are independent, so each of the three measurements runs as its
  // own task, the longest kind first (the classified hierarchy's two
  // walks, then the classifier), and the checks run afterwards.
  const size_t N = Cases.size();
  expt::parallelFor(3 * N, [&](size_t I) {
    Case &C = Cases[I % N];
    if (I < N)
      C.Hier = expt::measureHierarchy(*C.P, C.DL, M, /*Classify=*/true);
    else if (I < 2 * N)
      C.B = expt::classifyMisses(*C.P, C.DL, kCache);
    else
      C.Flat = expt::measureMissRate(*C.P, C.DL, kCache);
  });
  for (const Case &C : Cases) {
    const std::string &Name = *C.Name;
    ASSERT_EQ(C.Hier.Levels.size(), 1u) << Name;
    EXPECT_EQ(C.Hier.Levels[0].Accesses, C.Flat.Accesses) << Name;
    EXPECT_EQ(C.Hier.Levels[0].Misses, C.Flat.Misses) << Name;
    // The classified conflict component matches the single-cache
    // three-Cs classifier bit for bit as well.
    EXPECT_EQ(C.Hier.Levels[0].ConflictMisses, C.B.Conflict) << Name;
  }
}

TEST(SingleLevelEquivalence, PredictorMatchesSingleGeometryPath) {
  const MachineModel M = MachineModel::singleLevel(kCache);
  for (auto &[Name, P] : allPrograms()) {
    const layout::DataLayout DL = layout::originalLayout(P);
    analysis::LatticePrediction Flat =
        analysis::predictConflicts(DL, kCache);
    analysis::MachinePrediction Hier =
        analysis::predictConflicts(DL, M);
    ASSERT_EQ(Hier.Levels.size(), 1u) << Name;
    const analysis::LatticePrediction &L0 = Hier.Levels[0].Prediction;
    EXPECT_EQ(L0.PredictedAccesses, Flat.PredictedAccesses) << Name;
    EXPECT_EQ(L0.PredictedMisses, Flat.PredictedMisses) << Name;
    EXPECT_EQ(L0.PredictedConflictMisses, Flat.PredictedConflictMisses)
        << Name;
    EXPECT_EQ(L0.UnscoredNests, Flat.UnscoredNests) << Name;
    EXPECT_EQ(Hier.UnscoredNests, Flat.UnscoredNests) << Name;
    // The weighted aggregate of one unit-weight level is the level.
    EXPECT_EQ(Hier.WeightedMisses, Flat.PredictedMisses) << Name;
    EXPECT_EQ(Hier.WeightedConflictMisses, Flat.PredictedConflictMisses)
        << Name;
  }
}

TEST(SingleLevelEquivalence, PaddingHeuristicsMatch) {
  const MachineModel M = MachineModel::singleLevel(kCache);
  for (auto &[Name, P] : allPrograms()) {
    expectSameLayout(
        pad::applyPadding(P, M, pad::PaddingScheme::pad()).Layout,
        pad::runPad(P, kCache).Layout, Name);
    expectSameLayout(
        pad::applyPadding(P, M, pad::PaddingScheme::padLite()).Layout,
        pad::runPadLite(P, kCache).Layout, Name);
  }
}

TEST(SingleLevelEquivalence, LintFindingsMatch) {
  for (auto &[Name, P] : allPrograms()) {
    lint::Linter Legacy((lint::LintOptions(kCache)));
    lint::Linter Single(
        (lint::LintOptions(MachineModel::singleLevel(kCache))));
    lint::LintResult A = Legacy.run(P);
    lint::LintResult B = Single.run(P);
    const layout::DataLayout DL = layout::originalLayout(P);
    std::ostringstream OA, OB;
    lint::writeJson(OA, A, DL, kCache, Name);
    lint::writeJson(OB, B, DL, kCache, Name);
    EXPECT_EQ(OA.str(), OB.str()) << Name;
  }
}

TEST(SingleLevelEquivalence, SearchIsBitIdentical) {
  // The search is the most state-heavy consumer (RNG, candidate dedup,
  // tie-breaks, replay). Its one remaining scoring path is pinned to a
  // golden file captured before the CacheConfig route and batched
  // replay were retired: the kernel tier with a small budget on the
  // default single-level machine and on paper-l2, reporting the same
  // layout, the same costs and the same counters.
  const std::filesystem::path Golden = PADX_SEARCH_GOLDEN;
  std::vector<std::string> Actual;
  for (const auto &[MachineName, Machine] :
       {std::pair{"base16k", MachineModel::base16K()},
        std::pair{"paper-l2", MachineModel::paperL2()}}) {
    for (const auto &K : kernels::allKernels()) {
      if (K.Tier != kernels::Suite::Kernel)
        continue;
      ir::Program P = kernels::makeKernel(K.Name);
      search::SearchOptions Opts;
      Opts.Machine = Machine;
      Opts.EvalBudget = 10;
      Actual.push_back(
          searchRow(MachineName, K.Name, search::runSearch(P, Opts)));
    }
  }

  if (std::getenv("PADX_UPDATE_GOLDEN")) {
    std::ofstream Out(Golden);
    Out << "# machine kernel: search costs, counters and best layout "
           "(regenerate with\n# PADX_UPDATE_GOLDEN=1 padx_tests "
           "--gtest_filter=SingleLevelEquivalence.SearchIsBitIdentical)\n";
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
