//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The search subsystem's contracts: candidate coordinates embed the
/// heuristic layouts losslessly, the cost models agree on direction, and
/// the engine is deterministic — same seed and budget give bit-identical
/// results for every thread count — while never losing to the PAD
/// baseline it seeds from.
///
//===----------------------------------------------------------------------===//

#include "search/SearchEngine.h"
#include "analysis/LatticePredictor.h"

#include "core/Padding.h"
#include "frontend/Parser.h"
#include "kernels/Kernels.h"
#include "pipeline/AnalysisManager.h"
#include "search/Candidate.h"
#include "search/CandidateGenerator.h"
#include "search/CostModel.h"

#include "gtest/gtest.h"

#include <atomic>

using namespace padx;

namespace {

/// Small problem sizes keep each simulated evaluation cheap.
ir::Program smallKernel(const std::string &Name, int64_t N = 96) {
  return kernels::makeKernel(Name, N);
}

} // namespace

//===----------------------------------------------------------------------===//
// Candidate coordinates
//===----------------------------------------------------------------------===//

TEST(Candidate, ZeroCandidateMaterializesToOriginalLayout) {
  ir::Program P = smallKernel("expl");
  layout::DataLayout Orig = layout::originalLayout(P);
  layout::DataLayout DL =
      search::materialize(P, search::zeroCandidate(P));
  for (unsigned Id = 0; Id != DL.numArrays(); ++Id) {
    EXPECT_EQ(DL.layout(Id).BaseAddr, Orig.layout(Id).BaseAddr)
        << P.array(Id).Name;
    EXPECT_EQ(DL.layout(Id).Dims, Orig.layout(Id).Dims);
  }
}

TEST(Candidate, PadLayoutProjectsAndMaterializesExactly) {
  // The "never worse than PAD" guarantee rests on this: PAD's layout
  // must survive a round trip through candidate coordinates byte for
  // byte.
  for (const char *Name : {"expl", "tomcatv", "dgefa", "jacobi"}) {
    ir::Program P = smallKernel(Name);
    layout::DataLayout Pad =
        pad::runPad(P, CacheConfig::base16K()).Layout;
    layout::DataLayout RoundTrip =
        search::materialize(P, search::project(Pad));
    for (unsigned Id = 0; Id != Pad.numArrays(); ++Id) {
      EXPECT_EQ(RoundTrip.layout(Id).BaseAddr, Pad.layout(Id).BaseAddr)
          << Name << "/" << P.array(Id).Name;
      EXPECT_EQ(RoundTrip.layout(Id).Dims, Pad.layout(Id).Dims)
          << Name << "/" << P.array(Id).Name;
    }
  }
}

TEST(Candidate, KeyDistinguishesCandidates) {
  ir::Program P = smallKernel("expl");
  search::Candidate A = search::zeroCandidate(P);
  search::Candidate B = A;
  ASSERT_FALSE(B.GapBytes.empty());
  B.GapBytes.back() += 32;
  EXPECT_NE(A.key(), B.key());
  EXPECT_EQ(A.key(), search::zeroCandidate(P).key());
}

//===----------------------------------------------------------------------===//
// Candidate generator
//===----------------------------------------------------------------------===//

TEST(CandidateGenerator, SeedsContainPadFirstAndAreDeduplicated) {
  ir::Program P = smallKernel("expl");
  CacheConfig Cache = CacheConfig::base16K();
  search::CandidateGenerator Gen(P, MachineModel::singleLevel(Cache));
  ASSERT_FALSE(Gen.seeds().empty());
  EXPECT_EQ(Gen.padSeedIndex(), 0u);
  EXPECT_EQ(Gen.seeds().front(),
            search::project(pad::runPad(P, Cache).Layout));
  for (size_t I = 0; I != Gen.seeds().size(); ++I)
    for (size_t J = I + 1; J != Gen.seeds().size(); ++J)
      EXPECT_FALSE(Gen.seeds()[I] == Gen.seeds()[J])
          << "duplicate seeds " << I << "," << J;
}

TEST(CandidateGenerator, NeighborsRespectSafetyAndBounds) {
  ir::Program P = smallKernel("dgefa");
  CacheConfig Cache = CacheConfig::base16K();
  search::CandidateGenerator Gen(P, MachineModel::singleLevel(Cache));
  std::mt19937_64 Rng(7);
  search::Candidate Base = search::zeroCandidate(P);
  for (int Round = 0; Round != 20; ++Round) {
    for (const search::Candidate &C :
         Gen.neighbors(Base, Rng, 8)) {
      for (unsigned Id = 0; Id != P.arrays().size(); ++Id) {
        if (!P.array(Id).isScalar() && !Gen.safety().CanPadIntra[Id]) {
          for (int64_t Pad : C.DimPads[Id])
            EXPECT_EQ(Pad, 0) << P.array(Id).Name;
        }
        if (P.array(Id).isScalar() || !Gen.safety().CanMoveBase[Id]) {
          EXPECT_EQ(C.GapBytes[Id], 0) << P.array(Id).Name;
        }
        for (int64_t Pad : C.DimPads[Id])
          EXPECT_GE(Pad, 0);
        EXPECT_GE(C.GapBytes[Id], 0);
        EXPECT_LE(C.GapBytes[Id], Cache.waySpanBytes());
      }
    }
  }
}

TEST(CandidateGenerator, NeighborsAreDeterministicGivenRngState) {
  ir::Program P = smallKernel("expl");
  search::CandidateGenerator Gen(P, MachineModel::base16K());
  search::Candidate Base = search::zeroCandidate(P);
  std::mt19937_64 RngA(99), RngB(99);
  auto A = Gen.neighbors(Base, RngA, 8);
  auto B = Gen.neighbors(Base, RngB, 8);
  EXPECT_EQ(A, B);
}

//===----------------------------------------------------------------------===//
// Cost models
//===----------------------------------------------------------------------===//

TEST(CostModel, BothModelsPreferPadOverOriginalOnExpl) {
  ir::Program P = kernels::makeKernel("expl");
  CacheConfig Cache = CacheConfig::base16K();
  layout::DataLayout Orig = layout::originalLayout(P);
  layout::DataLayout Pad = pad::runPad(P, Cache).Layout;
  search::SimulationCostModel Exact(MachineModel::singleLevel(Cache));
  search::StaticCostModel Static(MachineModel::singleLevel(Cache));
  EXPECT_LT(Exact.evaluate(Pad).Cost, Exact.evaluate(Orig).Cost);
  EXPECT_LT(Static.evaluate(Pad).Cost, Static.evaluate(Orig).Cost);
}

// The static model scores every machine through one loop over its
// levels. Memoized (first query and hit) and un-memoized evaluations
// must equal the weighted sum of per-level predictions exactly, and that
// sum must equal the whole-machine prediction's aggregate.
TEST(CostModel, StaticEvaluationIsTheWeightedSumOfLevelPredictions) {
  for (const MachineModel &M :
       {MachineModel::base16K(), MachineModel::paperL2()}) {
    for (const kernels::KernelInfo &K : kernels::allKernels()) {
      ir::Program P = kernels::makeKernel(K.Name);
      const layout::DataLayout Layouts[] = {
          layout::originalLayout(P),
          pad::applyPadding(P, M, pad::PaddingScheme::pad()).Layout};
      pipeline::AnalysisManager AM(P);
      search::StaticCostModel Memo(M, &AM), Plain(M);
      for (const layout::DataLayout &DL : Layouts) {
        search::CostSample Want;
        for (const CacheLevel &L : M.Levels) {
          analysis::LatticePrediction LP =
              analysis::predictConflicts(DL, L.Geometry);
          Want.Cost += L.Weight * LP.PredictedMisses;
          Want.LevelMisses.push_back(LP.PredictedMisses);
          if (Want.Accesses == 0 && !L.IsTlb)
            Want.Accesses = static_cast<uint64_t>(LP.PredictedAccesses);
        }
        EXPECT_EQ(Want.Cost,
                  analysis::predictConflicts(DL, M).WeightedMisses)
            << K.Name << " on " << M.spec();
        for (const search::CostSample &Got :
             {Memo.evaluate(DL), Memo.evaluate(DL), Plain.evaluate(DL)}) {
          EXPECT_EQ(Got.Cost, Want.Cost) << K.Name << " on " << M.spec();
          EXPECT_EQ(Got.Accesses, Want.Accesses)
              << K.Name << " on " << M.spec();
          EXPECT_EQ(Got.LevelMisses, Want.LevelMisses)
              << K.Name << " on " << M.spec();
        }
      }
    }
  }
}

TEST(CostModel, SimulationCountsEveryAccess) {
  ir::Program P = smallKernel("expl");
  layout::DataLayout Orig = layout::originalLayout(P);
  search::SimulationCostModel Exact(MachineModel::base16K());
  search::CostSample S = Exact.evaluate(Orig);
  EXPECT_GT(S.Accesses, 0u);
  EXPECT_GE(S.Accesses, static_cast<uint64_t>(S.Cost));
}

//===----------------------------------------------------------------------===//
// Search engine
//===----------------------------------------------------------------------===//

TEST(SearchEngine, SameSeedAndBudgetGiveIdenticalResults) {
  ir::Program P = smallKernel("expl");
  search::SearchOptions Opts;
  Opts.EvalBudget = 16;
  Opts.Seed = 42;
  search::SearchResult A = search::runSearch(P, Opts);
  search::SearchResult B = search::runSearch(P, Opts);
  EXPECT_EQ(A.Best, B.Best);
  EXPECT_EQ(A.BestMisses, B.BestMisses);
  EXPECT_EQ(A.ExactEvaluations, B.ExactEvaluations);
  EXPECT_EQ(A.Log, B.Log);
}

TEST(SearchEngine, ResultIndependentOfThreadCount) {
  // The acceptance criterion: --threads N must not change the layout the
  // search returns, only how fast it gets there.
  for (const char *Name : {"expl", "dgefa"}) {
    ir::Program P = smallKernel(Name);
    search::SearchOptions Opts;
    Opts.EvalBudget = 16;
    Opts.Seed = 3;
    Opts.Threads = 1;
    search::SearchResult Serial = search::runSearch(P, Opts);
    Opts.Threads = 4;
    search::SearchResult Parallel = search::runSearch(P, Opts);
    EXPECT_EQ(Serial.Best, Parallel.Best) << Name;
    EXPECT_EQ(Serial.BestMisses, Parallel.BestMisses) << Name;
    EXPECT_EQ(Serial.Log, Parallel.Log) << Name;
  }
}

TEST(SearchEngine, ReplayAndDirectEvaluationAgreeExactly) {
  // The search scores candidates by replaying a recorded trace; every
  // cost it reports must equal a direct IR walk of the same layout —
  // best, original and PAD, per level — on one and two cache levels,
  // under worker threads.
  for (const MachineModel &M :
       {MachineModel::base16K(), MachineModel::paperL2()}) {
    for (const char *Name : {"expl", "jacobi", "dgefa"}) {
      ir::Program P = smallKernel(Name);
      search::SearchOptions Opts;
      Opts.Machine = M;
      Opts.EvalBudget = 16;
      Opts.Seed = 7;
      Opts.Threads = 2;
      search::SearchResult R = search::runSearch(P, Opts);
      const search::SimulationCostModel Direct(M); // No replay prepared.
      search::CostSample Best = Direct.evaluate(R.BestLayout);
      search::CostSample Orig = Direct.evaluate(layout::originalLayout(P));
      search::CostSample Pad =
          Direct.evaluate(pad::runPad(P, M.firstCache()).Layout);
      const std::string What = M.spec() + " " + Name;
      EXPECT_EQ(Best.Cost, R.BestMisses) << What;
      EXPECT_EQ(Best.LevelMisses, R.BestLevelMisses) << What;
      EXPECT_EQ(Best.Accesses, R.Accesses) << What;
      EXPECT_EQ(Orig.Cost, R.OriginalMisses) << What;
      EXPECT_EQ(Orig.LevelMisses, R.OriginalLevelMisses) << What;
      EXPECT_EQ(Pad.Cost, R.PadMisses) << What;
      EXPECT_EQ(Pad.LevelMisses, R.PadLevelMisses) << What;
    }
  }
}

TEST(SearchEngine, NeverWorseThanPadBaseline) {
  for (const char *Name : {"expl", "jacobi", "dgefa", "chol"}) {
    ir::Program P = smallKernel(Name);
    search::SearchOptions Opts;
    Opts.EvalBudget = 12;
    search::SearchResult R = search::runSearch(P, Opts);
    EXPECT_LE(R.BestMisses, R.PadMisses) << Name;
    // Cross-check PadMisses against an independent simulation of the
    // real PAD layout, so the guarantee is not self-referential.
    search::SimulationCostModel Exact(Opts.Machine);
    EXPECT_EQ(R.PadMisses,
              Exact.evaluate(pad::runPad(P, Opts.Machine.firstCache())
                                 .Layout)
                  .Cost)
        << Name;
  }
}

TEST(SearchEngine, RespectsEvaluationBudget) {
  ir::Program P = smallKernel("expl");
  search::SearchOptions Opts;
  Opts.EvalBudget = 10;
  search::SearchResult R = search::runSearch(P, Opts);
  EXPECT_LE(R.ExactEvaluations, Opts.EvalBudget);
  EXPECT_GE(R.ExactEvaluations, 3u); // Seeds always run.
}

TEST(SearchEngine, ImprovesOnExplWithDefaultBudget) {
  // Regression guard for the headline result: on EXPL at the paper's
  // base cache the search strictly beats the PAD heuristic.
  ir::Program P = kernels::makeKernel("expl");
  search::SearchOptions Opts;
  search::SearchResult R = search::runSearch(P, Opts);
  EXPECT_LT(R.BestMisses, R.PadMisses);
}

TEST(SearchEngine, BestLayoutMatchesReportedCost) {
  ir::Program P = smallKernel("tomcatv");
  search::SearchOptions Opts;
  Opts.EvalBudget = 12;
  search::SearchResult R = search::runSearch(P, Opts);
  search::SimulationCostModel Exact(Opts.Machine);
  EXPECT_EQ(Exact.evaluate(R.BestLayout).Cost, R.BestMisses);
  EXPECT_EQ(Exact.evaluate(search::materialize(P, R.Best)).Cost,
            R.BestMisses);
}

//===----------------------------------------------------------------------===//
// Graceful degradation
//===----------------------------------------------------------------------===//

TEST(SearchEngine, ExpiredDeadlineStillBeatsOrMatchesPad) {
  // Acceptance criterion: a deadline that expires immediately must
  // degrade to best-so-far — never worse than the PAD seed — and say
  // why it stopped.
  ir::Program P = smallKernel("expl");
  search::SearchOptions Opts;
  Opts.EvalBudget = 64;
  Opts.DeadlineSeconds = 1e-9;
  search::SearchResult R = search::runSearch(P, Opts);
  EXPECT_LE(R.BestMisses, R.PadMisses);
  EXPECT_NE(R.Outcome, search::SearchOutcome::Completed);
  EXPECT_EQ(R.Outcome, search::SearchOutcome::DeadlineExpired);
  EXPECT_FALSE(R.OutcomeDetail.empty());
  // The returned layout is still coherent with the reported cost.
  search::SimulationCostModel Exact(Opts.Machine);
  EXPECT_EQ(Exact.evaluate(R.BestLayout).Cost, R.BestMisses);
}

TEST(SearchEngine, CancellationTokenStopsTheSearch) {
  ir::Program P = smallKernel("expl");
  std::atomic<bool> Cancel{true}; // Pre-cancelled: stop at first check.
  search::SearchOptions Opts;
  Opts.EvalBudget = 64;
  Opts.Cancel = &Cancel;
  search::SearchResult R = search::runSearch(P, Opts);
  EXPECT_EQ(R.Outcome, search::SearchOutcome::Cancelled);
  EXPECT_LE(R.BestMisses, R.PadMisses); // Seeds are evaluated regardless.
}

TEST(SearchEngine, BudgetExhaustionIsReportedAsOutcome) {
  ir::Program P = smallKernel("expl");
  search::SearchOptions Opts;
  Opts.EvalBudget = 4; // Seeds alone nearly consume this.
  search::SearchResult R = search::runSearch(P, Opts);
  EXPECT_EQ(R.Outcome, search::SearchOutcome::BudgetExhausted);
  EXPECT_LE(R.BestMisses, R.PadMisses);
}

TEST(SearchEngine, OutcomeNamesAreStable) {
  // padtool prints these; keep the spelling pinned.
  EXPECT_STREQ(search::outcomeName(search::SearchOutcome::Completed),
               "completed");
  EXPECT_STREQ(
      search::outcomeName(search::SearchOutcome::BudgetExhausted),
      "budget exhausted");
  EXPECT_STREQ(
      search::outcomeName(search::SearchOutcome::DeadlineExpired),
      "deadline expired");
  EXPECT_STREQ(search::outcomeName(search::SearchOutcome::Cancelled),
               "cancelled");
  EXPECT_STREQ(
      search::outcomeName(search::SearchOutcome::EvaluationFailed),
      "evaluation failed");
}

TEST(SearchEngine, CompletedRunsReportCompletion) {
  // One tiny array: no padding can beat the compulsory misses, so every
  // round is dry and the search finishes with Completed — either by
  // exhausting the neighborhood or by running out of fresh candidates —
  // well before the generous budget runs out.
  DiagnosticEngine Diags;
  auto P = frontend::parseProgram(R"(program t
array A : real[4]
loop i = 1, 4 {
  A[i] = 1.0
}
)",
                                  Diags);
  ASSERT_TRUE(P) << Diags.str();
  search::SearchOptions Opts;
  Opts.EvalBudget = 100000;
  search::SearchResult Res = search::runSearch(*P, Opts);
  EXPECT_EQ(Res.Outcome, search::SearchOutcome::Completed);
  EXPECT_FALSE(Res.OutcomeDetail.empty());
}
