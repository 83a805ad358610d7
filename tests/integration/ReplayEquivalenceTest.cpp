//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replay equivalence over the fuzz corpus: for every kernel in
/// tests/fuzz/corpus and a sweep of inter/intra padding candidates, the
/// replayed cache statistics must be bit-identical to a fresh
/// TraceRunner + CacheSim walk — across cache geometries, including
/// MaxAccesses truncation. The same holds for perfbench's
/// MultiTraceReplayer shim, which scores a whole sweep in one call.
/// Index-array gathers replay like any other ref; programs the recorder
/// declines (an index subscript outside its declared table) must keep
/// evaluating through the cost model's direct fallback with unchanged
/// results, and a search over one must say so in its log.
///
//===----------------------------------------------------------------------===//

#include "exec/MultiTraceReplayer.h"
#include "exec/RecordedTrace.h"
#include "frontend/Parser.h"
#include "search/Candidate.h"
#include "search/CostModel.h"
#include "search/SearchEngine.h"

#include "gtest/gtest.h"

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

using namespace padx;
using namespace padx::exec;

namespace {

/// Caps each simulated walk so the sweep stays fast under sanitizers;
/// jacobi512's full trace alone is ~7M accesses.
constexpr uint64_t kMaxAccesses = 1u << 20;

std::vector<std::filesystem::path> corpusFiles() {
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry :
       std::filesystem::directory_iterator(PADX_CORPUS_DIR))
    if (Entry.path().extension() == ".pad")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  EXPECT_FALSE(Files.empty()) << "corpus missing at " PADX_CORPUS_DIR;
  return Files;
}

ir::Program parseFileOrDie(const std::filesystem::path &File) {
  std::ifstream In(File);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  DiagnosticEngine Diags;
  auto P = frontend::parseProgram(Buf.str(), Diags);
  EXPECT_TRUE(P) << File << ": " << Diags.str();
  return std::move(*P);
}

/// Inter gaps of 0, 1 and 3 lines crossed with column pads of 0, 1 and
/// 7 elements, spread across the arrays so candidates disturb several
/// slots at once.
std::vector<search::Candidate> candidateSweep(const ir::Program &P,
                                              int64_t LineBytes) {
  std::vector<search::Candidate> Out;
  for (int64_t GapLines : {0, 1, 3})
    for (int64_t ColPad : {0, 1, 7}) {
      search::Candidate C = search::zeroCandidate(P);
      for (unsigned A = 0; A != C.DimPads.size(); ++A) {
        if (!C.DimPads[A].empty())
          C.DimPads[A][0] = ColPad;
        const int64_t Elem = P.array(A).ElemSize;
        // Rounded up to the element size, as candidate gaps must be.
        C.GapBytes[A] =
            (GapLines * LineBytes + Elem - 1) / Elem * Elem *
            static_cast<int64_t>(A % 2 + 1);
      }
      Out.push_back(std::move(C));
    }
  return Out;
}

struct SimOutcome {
  RunStatus Status = RunStatus::Ok;
  sim::CacheStats Stats;
};

SimOutcome directRun(const ir::Program &P,
                     const layout::DataLayout &DL,
                     const CacheConfig &Cfg, const RunOptions &Opts) {
  SimOutcome Out;
  sim::CacheSim Sim(Cfg);
  CacheSimSink Sink(Sim);
  TraceRunner Runner(P, DL, Opts);
  Out.Status = Runner.run(Sink);
  Out.Stats = Sim.stats();
  return Out;
}

} // namespace

TEST(ReplayEquivalence, CorpusSweepIsBitIdentical) {
  const std::vector<CacheConfig> Geometries = {
      CacheConfig::base16K(),     // The paper's base: direct mapped.
      CacheConfig{16 * 1024, 32, 2}, // 2-way.
      CacheConfig{4 * 1024, 32, 0},  // Fully associative.
      CacheConfig{4 * 1024, 64, 4},  // Wider lines, 4-way.
  };
  RunOptions Opts;
  Opts.MaxAccesses = kMaxAccesses;

  std::set<std::string> Gathered;
  for (const auto &File : corpusFiles()) {
    ir::Program P = parseFileOrDie(File);
    const std::string Name = File.filename().string();
    std::string WhyNot;
    auto T = RecordedTrace::record(P, Opts, &WhyNot);
    if (T && T->numGatheredRefs() > 0)
      Gathered.insert(Name);
    if (!T) {
      // Declined programs (none in today's corpus: its index subscripts
      // all stay inside their tables) must say why, and the cost model
      // must transparently keep its direct path.
      EXPECT_FALSE(WhyNot.empty()) << Name;
      search::SimulationCostModel Replay(MachineModel::base16K());
      Replay.prepareReplay(P);
      EXPECT_FALSE(Replay.usingReplay()) << Name;
      search::SimulationCostModel Direct(MachineModel::base16K());
      layout::DataLayout DL = layout::originalLayout(P);
      search::CostSample A = Replay.evaluate(DL);
      search::CostSample B = Direct.evaluate(DL);
      EXPECT_EQ(A.Cost, B.Cost) << Name;
      EXPECT_EQ(A.Accesses, B.Accesses) << Name;
      continue;
    }

    TraceReplayer Replayer(*T);
    for (const CacheConfig &Cfg : Geometries) {
      std::vector<layout::DataLayout> Layouts;
      std::vector<SimOutcome> Direct;
      std::vector<std::string> Contexts;
      for (const search::Candidate &C :
           candidateSweep(P, Cfg.LineBytes)) {
        Layouts.push_back(search::materialize(P, C));
        Direct.push_back(directRun(P, Layouts.back(), Cfg, Opts));
        Contexts.push_back(Name + " " + Cfg.describe() + " " + C.key());
      }
      for (size_t I = 0; I != Layouts.size(); ++I) {
        sim::CacheSim Sim(Cfg);
        RunStatus Status = Replayer.replay(Layouts[I], Sim);
        EXPECT_EQ(Status, Direct[I].Status) << Name;
        EXPECT_EQ(Sim.stats(), Direct[I].Stats) << Contexts[I];
      }

      // perfbench's shim: one call over the whole sweep.
      MultiTraceReplayer Shim(*T, Cfg);
      std::vector<sim::CacheStats> Stats(Layouts.size());
      EXPECT_EQ(Shim.replay(Layouts, Stats), Direct.front().Status)
          << Name;
      for (size_t I = 0; I != Layouts.size(); ++I)
        EXPECT_EQ(Stats[I], Direct[I].Stats) << Contexts[I] << " (shim)";
    }
  }
  // The corpus's two gather programs record and replay their gathers.
  EXPECT_TRUE(Gathered.count("gather.pad"));
  EXPECT_TRUE(Gathered.count("attrs.pad"));
}

TEST(ReplayEquivalence, UncappedSmallKernelMatchesEndToEnd) {
  // One corpus kernel small enough to run without a trace cap, so the
  // untruncated path is covered end to end as well.
  ir::Program P = parseFileOrDie(
      std::filesystem::path(PADX_CORPUS_DIR) / "small_stencil.pad");
  auto T = RecordedTrace::record(P);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->recordStatus(), RunStatus::Ok);
  TraceReplayer Replayer(*T);
  for (const search::Candidate &C : candidateSweep(P, 32)) {
    layout::DataLayout DL = search::materialize(P, C);
    SimOutcome Direct =
        directRun(P, DL, CacheConfig::base16K(), RunOptions());
    sim::CacheSim Sim(CacheConfig::base16K());
    EXPECT_EQ(Replayer.replay(DL, Sim), RunStatus::Ok);
    EXPECT_EQ(Sim.stats(), Direct.Stats) << C.key();
  }
}

TEST(ReplayEquivalence, IndirectOutOfRangeFallsBackIdentically) {
  // An index-array subscript that walks off the table truncates the
  // direct trace with IndirectOutOfRange; recording declines, and the
  // cost model's fallback must reproduce the truncated statistics.
  DiagnosticEngine Diags;
  auto P = frontend::parseProgram(R"(program p
array X : real[64]
array IDX : int[8] init identity
loop i = 1, 8 {
  X[IDX[i+7]] = 2.0
}
)",
                                  Diags);
  ASSERT_TRUE(P) << Diags.str();
  EXPECT_EQ(RecordedTrace::record(*P), nullptr);
  search::SimulationCostModel M(MachineModel::base16K());
  M.prepareReplay(*P);
  EXPECT_FALSE(M.usingReplay());
  layout::DataLayout DL = layout::originalLayout(*P);
  SimOutcome Direct =
      directRun(*P, DL, CacheConfig::base16K(), RunOptions());
  EXPECT_EQ(Direct.Status, RunStatus::IndirectOutOfRange);
  search::CostSample S = M.evaluate(DL);
  EXPECT_EQ(S.Cost, static_cast<double>(Direct.Stats.Misses));
  EXPECT_EQ(S.Accesses, Direct.Stats.Accesses);
}

TEST(ReplayEquivalence, DirectWalkScoringIsNamedInSearchLog) {
  // The same out-of-table program: a search over it scores every
  // candidate by the direct walk, and its log says so and why.
  DiagnosticEngine Diags;
  auto P = frontend::parseProgram(R"(program p
array X : real[64]
array IDX : int[8] init identity
loop i = 1, 8 {
  X[IDX[i+7]] = 2.0
}
)",
                                  Diags);
  ASSERT_TRUE(P) << Diags.str();
  search::SearchOptions Opts;
  Opts.EvalBudget = 4;
  search::SearchResult R = search::runSearch(*P, Opts);
  const std::string Expected = "exact scores by the direct walk";
  const auto Line =
      std::find_if(R.Log.begin(), R.Log.end(), [&](const std::string &L) {
        return L.find(Expected) != std::string::npos;
      });
  ASSERT_NE(Line, R.Log.end());
  EXPECT_NE(Line->find("IDX"), std::string::npos) << *Line;

  // A replayed search carries no such line.
  auto Q = frontend::parseProgram(R"(program q
array X : real[64]
array IDX : int[8] init identity
loop i = 1, 8 {
  X[IDX[i]] = 2.0
}
)",
                                  Diags);
  ASSERT_TRUE(Q) << Diags.str();
  search::SearchResult S = search::runSearch(*Q, Opts);
  for (const std::string &L : S.Log)
    EXPECT_EQ(L.find(Expected), std::string::npos) << L;
}
