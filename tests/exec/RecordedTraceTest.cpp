//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The recorded-trace contract: replaying a recording under any layout
/// produces the exact event stream a fresh TraceRunner walk would —
/// index-array gathers and every loop width included — the compression
/// is block-per-innermost-loop, programs the format cannot express
/// (an index subscript outside its declared table, scalar emission) are
/// declined with a reason instead of recorded wrongly, and the address
/// key the search memoizes scores by holds exactly what replay reads.
///
//===----------------------------------------------------------------------===//

#include "exec/RecordedTrace.h"

#include "frontend/Parser.h"
#include "layout/DataLayout.h"
#include "search/Candidate.h"

#include "gtest/gtest.h"

using namespace padx;
using namespace padx::exec;

namespace {

ir::Program parseOrDie(std::string_view Src) {
  DiagnosticEngine Diags;
  auto P = frontend::parseProgram(Src, Diags);
  EXPECT_TRUE(P) << Diags.str();
  return std::move(*P);
}

std::vector<TraceEvent> directTrace(const ir::Program &P,
                                    const layout::DataLayout &DL,
                                    const RunOptions &Opts = {}) {
  TraceRunner Runner(P, DL, Opts);
  CollectSink Sink;
  Runner.run(Sink);
  return Sink.Events;
}

std::vector<TraceEvent> replayTrace(const RecordedTrace &T,
                                    const layout::DataLayout &DL) {
  TraceReplayer Replayer(T);
  CollectSink Sink;
  Replayer.replay(DL, Sink);
  return Sink.Events;
}

/// The layouts the equivalence checks sweep: original, intra-padded
/// columns, inter gaps, and both combined.
std::vector<layout::DataLayout> layoutSweep(const ir::Program &P) {
  std::vector<layout::DataLayout> Out;
  Out.push_back(layout::originalLayout(P));
  for (int64_t ColPad : {1, 7}) {
    search::Candidate C = search::zeroCandidate(P);
    for (unsigned A = 0; A != C.DimPads.size(); ++A) {
      if (!C.DimPads[A].empty())
        C.DimPads[A][0] = ColPad + A;
      C.GapBytes[A] =
          static_cast<int64_t>(A) * P.array(A).ElemSize * 4;
    }
    Out.push_back(search::materialize(P, C));
  }
  return Out;
}

/// Replays \p T into a CacheSim of each geometry under every layout of
/// the sweep and compares with a direct walk (the fast probe paths, not
/// the sink path the event-stream checks take).
void expectSameSimulation(const ir::Program &P, const RecordedTrace &T,
                          const std::vector<CacheConfig> &Geometries,
                          const RunOptions &Opts = {}) {
  TraceReplayer Replayer(T);
  for (const CacheConfig &Cfg : Geometries)
    for (const layout::DataLayout &DL : layoutSweep(P)) {
      sim::CacheSim Direct(Cfg), Replay(Cfg);
      CacheSimSink Sink(Direct);
      TraceRunner Runner(P, DL, Opts);
      const RunStatus Status = Runner.run(Sink);
      EXPECT_EQ(Replayer.replay(DL, Replay), Status) << Cfg.describe();
      EXPECT_EQ(Replay.stats(), Direct.stats())
          << P.name() << " " << Cfg.describe();
    }
}

} // namespace

//===----------------------------------------------------------------------===//
// Stream equivalence
//===----------------------------------------------------------------------===//

TEST(RecordedTrace, ReplayMatchesDirectTraceAcrossLayouts) {
  ir::Program P = parseOrDie(R"(program p
array A : real[16, 16]
array B : real[16, 16]
loop i = 2, 15 {
  loop j = 2, 15 {
    B[j, i] = A[j-1, i] + A[j+1, i] + A[j, i]
  }
}
)");
  auto T = RecordedTrace::record(P);
  ASSERT_NE(T, nullptr);
  for (const layout::DataLayout &DL : layoutSweep(P))
    EXPECT_EQ(replayTrace(*T, DL), directTrace(P, DL));
}

TEST(RecordedTrace, TriangularNest) {
  ir::Program P = parseOrDie(R"(program p
array A : real[24, 24]
loop k = 1, 24 {
  loop i = k, 24 {
    A[i, k] = A[i, k] * 2.0
  }
}
)");
  auto T = RecordedTrace::record(P);
  ASSERT_NE(T, nullptr);
  for (const layout::DataLayout &DL : layoutSweep(P))
    EXPECT_EQ(replayTrace(*T, DL), directTrace(P, DL));
}

TEST(RecordedTrace, NegativeStepAndLowerBoundZero) {
  ir::Program P = parseOrDie(R"(program p
array X : real4[0:63]
loop i = 63, 0 step -1 {
  X[i] = X[i] + 1
}
)");
  auto T = RecordedTrace::record(P);
  ASSERT_NE(T, nullptr);
  for (const layout::DataLayout &DL : layoutSweep(P))
    EXPECT_EQ(replayTrace(*T, DL), directTrace(P, DL));
}

TEST(RecordedTrace, SiblingLoopsAndLooseAssigns) {
  // A straight-line assign between two loop nests exercises the
  // one-shot (zero-delta) pattern path.
  ir::Program P = parseOrDie(R"(program p
array A : real[8]
array B : real[8]
loop i = 1, 8 {
  A[i] = 1.0
}
A[1] = B[2]
loop i = 1, 8 {
  B[i] = A[i]
}
)");
  auto T = RecordedTrace::record(P);
  ASSERT_NE(T, nullptr);
  for (const layout::DataLayout &DL : layoutSweep(P))
    EXPECT_EQ(replayTrace(*T, DL), directTrace(P, DL));
}

TEST(RecordedTrace, MixedBodyLoopFallsBackToLoosePatterns) {
  // The outer loop's own assign is not inside any innermost loop, so it
  // becomes a per-execution block next to its sibling loop's blocks.
  ir::Program P = parseOrDie(R"(program p
array A : real[8, 8]
array D : real[8]
loop i = 1, 8 {
  D[i] = A[1, i]
  loop j = 1, 8 {
    A[j, i] = A[j, i] + D[i]
  }
}
)");
  auto T = RecordedTrace::record(P);
  ASSERT_NE(T, nullptr);
  for (const layout::DataLayout &DL : layoutSweep(P))
    EXPECT_EQ(replayTrace(*T, DL), directTrace(P, DL));
}

TEST(RecordedTrace, OutOfDeclaredBoundsSubscriptsReplayExactly) {
  // Affine subscripts may leave the declared box (the analysis pads for
  // conflicts, not bounds); the recorded per-dimension indices must
  // reproduce the same out-of-box addresses under every layout.
  ir::Program P = parseOrDie(R"(program p
array A : real[8, 8]
loop i = 1, 8 {
  A[i+4, i] = A[i, i] + 1.0
}
)");
  auto T = RecordedTrace::record(P);
  ASSERT_NE(T, nullptr);
  for (const layout::DataLayout &DL : layoutSweep(P))
    EXPECT_EQ(replayTrace(*T, DL), directTrace(P, DL));
}

//===----------------------------------------------------------------------===//
// Simulation equivalence (the fast CacheSim path, not the sink path)
//===----------------------------------------------------------------------===//

TEST(RecordedTrace, CacheStatsMatchDirectSimulation) {
  ir::Program P = parseOrDie(R"(program p
array A : real[64, 64]
array B : real[64, 64]
loop i = 2, 63 {
  loop j = 2, 63 {
    B[j, i] = A[j-1, i] + A[j+1, i]
  }
}
)");
  auto T = RecordedTrace::record(P);
  ASSERT_NE(T, nullptr);
  expectSameSimulation(P, *T,
                       {CacheConfig{4096, 32, 1}, CacheConfig{4096, 32, 2},
                        CacheConfig{4096, 32, 0}});
}

TEST(RecordedTrace, ElementWiderThanLineTakesSpanningPath) {
  // real = 8 bytes, 4-byte lines: every element touches two lines. The
  // replayer must match the general access() path, not accessLine.
  ir::Program P = parseOrDie(R"(program p
array A : real[32]
loop i = 1, 32 {
  A[i] = A[i] + 1.0
}
)");
  auto T = RecordedTrace::record(P);
  ASSERT_NE(T, nullptr);
  CacheConfig Cfg{512, 4, 1};
  ASSERT_TRUE(Cfg.isValid());
  layout::DataLayout DL = layout::originalLayout(P);
  sim::CacheSim Direct(Cfg), Replay(Cfg);
  CacheSimSink Sink(Direct);
  TraceRunner Runner(P, DL);
  Runner.run(Sink);
  TraceReplayer Replayer(*T);
  Replayer.replay(DL, Replay);
  EXPECT_EQ(Replay.stats(), Direct.stats());
}

//===----------------------------------------------------------------------===//
// Compression shape
//===----------------------------------------------------------------------===//

TEST(RecordedTrace, OneBlockPerInnermostLoopExecution) {
  ir::Program P = parseOrDie(R"(program p
array A : real[16, 16]
loop i = 1, 16 {
  loop j = 1, 16 {
    A[j, i] = A[j, i] + 1.0
  }
}
)");
  auto T = RecordedTrace::record(P);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->numAccesses(), 2u * 16 * 16);
  EXPECT_EQ(T->numBlocks(), 16u); // One per inner-loop execution.
  EXPECT_EQ(T->numPatterns(), 1u);
  EXPECT_LT(T->storageBytes(), size_t(16) * 1024);
}

//===----------------------------------------------------------------------===//
// Truncation
//===----------------------------------------------------------------------===//

TEST(RecordedTrace, MaxAccessesTruncatesMidIteration) {
  // 10 is not a multiple of the 2 refs per iteration times anything
  // aligned with the loop, so the cut lands mid-pattern: the prefix
  // blocks plus a tail block must reproduce the runner's stream.
  ir::Program P = parseOrDie(R"(program p
array A : real[16]
array B : real[16]
loop i = 1, 16 {
  B[i] = A[i] + A[1]
}
)");
  RunOptions Opts;
  Opts.MaxAccesses = 10;
  auto T = RecordedTrace::record(P, Opts);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->recordStatus(), RunStatus::TraceLimitReached);
  EXPECT_EQ(T->numAccesses(), 10u);
  layout::DataLayout DL = layout::originalLayout(P);
  EXPECT_EQ(replayTrace(*T, DL), directTrace(P, DL, Opts));
}

TEST(RecordedTrace, LimitLandingOnIterationBoundaryIsOk) {
  // Ending exactly at the limit is not a truncation — mirror the
  // TraceRunner's convention.
  ir::Program P = parseOrDie(R"(program p
array A : real[8]
loop i = 1, 8 {
  A[i] = 1.0
}
)");
  RunOptions Opts;
  Opts.MaxAccesses = 8;
  auto T = RecordedTrace::record(P, Opts);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->recordStatus(), RunStatus::Ok);
  EXPECT_EQ(T->numAccesses(), 8u);
}

//===----------------------------------------------------------------------===//
// Gathered (index-array) subscripts
//===----------------------------------------------------------------------===//

TEST(RecordedTrace, GatheredSubscriptsReplayExactly) {
  // An identity and a seeded random table, a gathered write, and a
  // subscript running backwards. layoutSweep pads every array, the
  // index arrays themselves included, and moves their bases.
  ir::Program P = parseOrDie(R"(program p
array X : real[64]
array Y : real4[64]
array IDX : int[32] init identity
array R : int[32] init random(1, 64, 5)
loop i = 1, 32 {
  X[IDX[i]] = X[R[i]] + Y[R[33 - i]]
}
)");
  auto T = RecordedTrace::record(P);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->numGatheredRefs(), 3u);
  // Six accesses per iteration: each gather is an index read plus its
  // target, as in the walk.
  EXPECT_EQ(T->numAccesses(), 6u * 32);
  for (const layout::DataLayout &DL : layoutSweep(P))
    EXPECT_EQ(replayTrace(*T, DL), directTrace(P, DL));
  expectSameSimulation(P, *T,
                       {CacheConfig::base16K(), CacheConfig{256, 32, 1},
                        CacheConfig{256, 32, 2}});
}

TEST(RecordedTrace, GatheredSecondDimensionOf2DTarget) {
  // attrs.pad's shape: the indirect subscript is the second dimension,
  // so its byte stride is the padded column — intra padding of A moves
  // every gathered address.
  ir::Program P = parseOrDie(R"(program p
array A : real[8, 0:9]
array IDX : int[16] init random(0, 9, 3)
loop j = 1, 16 {
  loop i = 1, 8 {
    A[i, IDX[j]] = A[i, IDX[17 - j]] * 3.5e2
  }
}
)");
  auto T = RecordedTrace::record(P);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->numGatheredRefs(), 2u);
  for (const layout::DataLayout &DL : layoutSweep(P))
    EXPECT_EQ(replayTrace(*T, DL), directTrace(P, DL));
  expectSameSimulation(P, *T, {CacheConfig{256, 32, 1}});
}

TEST(RecordedTrace, MaxAccessesBetweenIndexReadAndTarget) {
  // Two accesses per iteration (index read, gathered write); an odd cap
  // ends the recording right after an index read, as the walk ends.
  ir::Program P = parseOrDie(R"(program p
array X : real[16]
array IDX : int[16] init random(1, 16, 9)
loop i = 1, 16 {
  X[IDX[i]] = 2.0
}
)");
  RunOptions Opts;
  Opts.MaxAccesses = 7;
  auto T = RecordedTrace::record(P, Opts);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->recordStatus(), RunStatus::TraceLimitReached);
  EXPECT_EQ(T->numAccesses(), 7u);
  for (const layout::DataLayout &DL : layoutSweep(P))
    EXPECT_EQ(replayTrace(*T, DL), directTrace(P, DL, Opts));
  expectSameSimulation(P, *T, {CacheConfig::base16K()}, Opts);
}

TEST(RecordedTrace, IndexReadOutsideItsTableIsDeclined) {
  // IDX[i+7] over 8 elements: the second index read leaves the table.
  // Under the original layout the walk stops there with
  // IndirectOutOfRange; with IDX padded it reads the padding instead. No
  // recording serves both, so recording declines — unless the cap ends
  // the stream before that read is emitted.
  ir::Program P = parseOrDie(R"(program p
array X : real[64]
array IDX : int[8] init identity
loop i = 1, 8 {
  X[IDX[i+7]] = 2.0
}
)");
  std::string WhyNot;
  EXPECT_EQ(RecordedTrace::record(P, {}, &WhyNot), nullptr);
  EXPECT_NE(WhyNot.find("IDX"), std::string::npos) << WhyNot;

  search::Candidate Padded = search::zeroCandidate(P);
  Padded.DimPads[1][0] = 8;
  layout::DataLayout DL = search::materialize(P, Padded);
  CountSink Sink;
  EXPECT_EQ(TraceRunner(P, layout::originalLayout(P)).run(Sink),
            RunStatus::IndirectOutOfRange);
  EXPECT_EQ(TraceRunner(P, DL).run(Sink), RunStatus::Ok);

  RunOptions Opts;
  Opts.MaxAccesses = 3; // Iteration 1, then iteration 2's index read.
  EXPECT_EQ(RecordedTrace::record(P, Opts), nullptr);
  Opts.MaxAccesses = 2; // Iteration 1 only.
  auto T = RecordedTrace::record(P, Opts);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(replayTrace(*T, DL), directTrace(P, DL, Opts));
}

TEST(RecordedTrace, CandidatePaddingTheIndexArray) {
  // A candidate that lengthens and moves the index array: the walk's
  // table grows with the padding, the recording's keeps the declared
  // length, and every subscript stays inside it, so they agree.
  ir::Program P = parseOrDie(R"(program p
array X : real[40, 40]
array IDX : int[40] init random(1, 40, 11)
loop j = 1, 40 {
  loop i = 1, 40 {
    X[IDX[i], j] = X[i, IDX[j]] + 1.0
  }
}
)");
  auto T = RecordedTrace::record(P);
  ASSERT_NE(T, nullptr);
  TraceReplayer Replayer(*T);
  for (int64_t Pad : {0, 1, 13, 1000}) {
    search::Candidate C = search::zeroCandidate(P);
    C.DimPads[1][0] = Pad;
    C.GapBytes[1] = 4 * Pad;
    C.DimPads[0][0] = Pad % 7;
    layout::DataLayout DL = search::materialize(P, C);
    EXPECT_EQ(replayTrace(*T, DL), directTrace(P, DL)) << Pad;
    sim::CacheSim Direct(CacheConfig::base16K()),
        Replay(CacheConfig::base16K());
    CacheSimSink Sink(Direct);
    TraceRunner(P, DL).run(Sink);
    Replayer.replay(DL, Replay);
    EXPECT_EQ(Replay.stats(), Direct.stats()) << "pad " << Pad;
  }
}

TEST(RecordedTrace, WideGatheredPatternsReplayExactly) {
  // Three gathers and five affine refs, 11 refs per iteration: wider
  // than the width-unrolled loops, so the gather-capable wide loop runs.
  ir::Program P = parseOrDie(R"(program p
array X : real[48]
array Y : real[48]
array Z : real[48]
array E : int[45] init random(1, 48, 4)
loop i = 2, 45 {
  X[E[i]] = Y[E[i - 1]] + Z[i] + Z[i + 1] + Y[i] + Y[E[i]] + X[i - 1]
}
)");
  auto T = RecordedTrace::record(P);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->numGatheredRefs(), 3u);
  for (const layout::DataLayout &DL : layoutSweep(P))
    EXPECT_EQ(replayTrace(*T, DL), directTrace(P, DL));
  expectSameSimulation(P, *T,
                       {CacheConfig{256, 32, 1}, CacheConfig{256, 32, 2}});
}

//===----------------------------------------------------------------------===//
// Pattern widths
//===----------------------------------------------------------------------===//

TEST(RecordedTrace, EveryPatternWidthMatchesDirectSimulation) {
  // The direct-mapped replay unrolls innermost bodies of up to eight
  // refs by their width and streams wider ones through the general
  // loop. Sweep widths 1..9 (plus one gathered variant per width) with
  // an odd number of blocks of odd length, writes spread through the
  // body so write-backs count, on the paper's direct-mapped cache, a
  // small one that thrashes, and a 2-way cache.
  for (unsigned Width = 1; Width <= 9; ++Width)
    for (bool Gather : {false, true}) {
      if (Gather && Width < 2)
        continue; // A gather is two refs.
      // Statements of one write and up to two reads; the first write
      // of the gathered variant goes through IDX (two refs).
      std::string Body;
      unsigned Left = Width;
      for (unsigned Stmt = 0; Left > 0; ++Stmt) {
        std::string Write = "A[j + " + std::to_string(Stmt % 3) + ", i]";
        if (Stmt % 2)
          Write = "B[j]";
        if (Gather && Stmt == 0)
          Write = "B[IDX[j]]";
        Left -= Write == "B[IDX[j]]" ? 2 : 1;
        std::string Rhs;
        for (unsigned R = 0; R != 2 && Left > 0; ++R, --Left)
          Rhs += (Rhs.empty() ? "" : " + ") + std::string("A[j - ") +
                 std::to_string(R + Stmt % 2) + ", i]";
        Body += "    " + Write + " = " + (Rhs.empty() ? "1.0" : Rhs) +
                "\n";
      }
      const std::string Src =
          "program w" + std::to_string(Width) +
          "\narray A : real[40, 9]\narray B : real[40]\n"
          "array IDX : int[40] init random(1, 40, " +
          std::to_string(Width) + ")\nloop i = 1, 7 {\n  loop j = 3, 37 {\n" +
          Body + "  }\n}\n";
      ir::Program P = parseOrDie(Src);
      auto T = RecordedTrace::record(P);
      ASSERT_NE(T, nullptr) << Src;
      SCOPED_TRACE(Src);
      EXPECT_EQ(T->numBlocks(), 7u);
      EXPECT_EQ(T->numAccesses(), uint64_t(Width) * 35 * 7);
      for (const layout::DataLayout &DL : layoutSweep(P))
        EXPECT_EQ(replayTrace(*T, DL), directTrace(P, DL));
      expectSameSimulation(P, *T,
                           {CacheConfig::base16K(), CacheConfig{512, 32, 1},
                            CacheConfig{16 * 1024, 32, 2}});
    }
}

//===----------------------------------------------------------------------===//
// Declined programs
//===----------------------------------------------------------------------===//

TEST(RecordedTrace, ScalarEmissionIsDeclined) {
  ir::Program P = parseOrDie(R"(program p
array S : real
array A : real[4]
loop i = 1, 4 {
  S = S + A[i]
}
)");
  RunOptions Opts;
  Opts.EmitScalarRefs = true;
  std::string WhyNot;
  EXPECT_EQ(RecordedTrace::record(P, Opts, &WhyNot), nullptr);
  EXPECT_FALSE(WhyNot.empty());
  // Without scalar emission the same program records fine (the scalar
  // is register-promoted out of the stream).
  EXPECT_NE(RecordedTrace::record(P), nullptr);
}

//===----------------------------------------------------------------------===//
// Replayer reuse
//===----------------------------------------------------------------------===//

TEST(RecordedTrace, ReplayerReusableAcrossLayoutsAndIds) {
  ir::Program P = parseOrDie(R"(program p
array A : real[16, 16]
array B : real[16, 16]
loop i = 1, 16 {
  loop j = 1, 16 {
    B[j, i] = A[j, i]
  }
}
)");
  auto T = RecordedTrace::record(P);
  ASSERT_NE(T, nullptr);
  TraceReplayer Replayer(*T);
  // Same replayer, many layouts — including inter-only moves that reuse
  // the cached stride deltas — must keep matching the fresh walk.
  for (int Round = 0; Round != 2; ++Round)
    for (const layout::DataLayout &DL : layoutSweep(P)) {
      CollectSink Sink;
      Replayer.replay(DL, Sink);
      EXPECT_EQ(Sink.Events, directTrace(P, DL));
    }
  auto T2 = RecordedTrace::record(P);
  ASSERT_NE(T2, nullptr);
  EXPECT_NE(T->id(), T2->id());
}

//===----------------------------------------------------------------------===//
// Remap invalidation granularity
//===----------------------------------------------------------------------===//

TEST(RecordedTrace, InterOnlyCandidatesSkipRemapRebuilds) {
  ir::Program P = parseOrDie(R"(program p
array A : real[32, 32]
array B : real[32, 32]
array C : real[32, 32]
loop i = 1, 32 {
  loop j = 1, 32 {
    C[j, i] = A[j, i] + B[i, j]
  }
}
)");
  auto T = RecordedTrace::record(P);
  ASSERT_NE(T, nullptr);
  TraceReplayer Replayer(*T);
  sim::CacheSim Sim(CacheConfig::base16K());

  // First layout: every slot's deltas are built once.
  Replayer.replay(layout::originalLayout(P), Sim);
  const auto &RS = Replayer.remapStats();
  EXPECT_EQ(RS.Calls, 1u);
  EXPECT_EQ(RS.SlotRebuilds, 3u);
  const uint64_t ColdRefRebuilds = RS.RefDeltaRebuilds;
  EXPECT_GT(ColdRefRebuilds, 0u);

  // An inter-only sequence — bases move, strides never do — must not
  // rebuild a single slot across any number of candidates.
  for (int64_t Gap : {32, 64, 96, 128}) {
    search::Candidate C = search::zeroCandidate(P);
    for (unsigned A = 0; A != C.GapBytes.size(); ++A)
      C.GapBytes[A] = Gap * static_cast<int64_t>(A);
    Sim.reset();
    Replayer.replay(search::materialize(P, C), Sim);
  }
  EXPECT_EQ(RS.Calls, 5u);
  EXPECT_EQ(RS.SlotRebuilds, 3u) << "inter-only moves rebuilt a slot";
  EXPECT_EQ(RS.RefDeltaRebuilds, ColdRefRebuilds);

  // Intra-padding exactly one array rebuilds exactly that slot — and
  // only its own refs: A is read once per iteration (one ref), so the
  // rebuild touches one ref, not all three in the table.
  {
    search::Candidate C = search::zeroCandidate(P);
    C.DimPads[0][0] = 1; // Pad A's column.
    Sim.reset();
    Replayer.replay(search::materialize(P, C), Sim);
  }
  EXPECT_EQ(RS.SlotRebuilds, 4u);
  EXPECT_EQ(RS.RefDeltaRebuilds, ColdRefRebuilds + 1);

  // The replay after the intra candidate reverts to original strides
  // for A: that slot (alone) rebuilds again.
  Sim.reset();
  Replayer.replay(layout::originalLayout(P), Sim);
  EXPECT_EQ(RS.SlotRebuilds, 5u);
  EXPECT_EQ(RS.RefDeltaRebuilds, ColdRefRebuilds + 2);
}

//===----------------------------------------------------------------------===//
// Address key
//===----------------------------------------------------------------------===//

TEST(RecordedTrace, AddressKeyReadsOnlyWhatReplayReads) {
  ir::Program P = parseOrDie(R"(program p
array S : real
array U : real[8, 8]
array A : real[16, 16]
array B : real[16, 16]
loop i = 1, 16 {
  loop j = 1, 16 {
    B[j, i] = A[j, i] + S
  }
}
)");
  auto T = RecordedTrace::record(P);
  ASSERT_NE(T, nullptr);
  const unsigned S = *P.findArray("S"), U = *P.findArray("U"),
                 A = *P.findArray("A"), B = *P.findArray("B");
  const layout::DataLayout Orig = layout::originalLayout(P);
  const std::vector<int64_t> Key = T->addressKey(Orig, 32);
  // A and B only, each as its base from the origin and its first dim.
  ASSERT_EQ(Key.size(), 4u);
  EXPECT_EQ(Key[1], 16);
  EXPECT_EQ(Key[3], 16);

  // The register-promoted scalar, the unreferenced array and every last
  // dim stay out of the key, and replay indeed never reads them.
  layout::DataLayout Unread = Orig;
  Unread.layout(S).BaseAddr += 8;
  Unread.layout(U).BaseAddr += 8;
  Unread.layout(U).Dims = {9, 9};
  Unread.layout(A).Dims.back() += 5;
  Unread.layout(B).Dims.back() += 1;
  EXPECT_EQ(T->addressKey(Unread, 32), Key);
  EXPECT_EQ(replayTrace(*T, Unread), replayTrace(*T, Orig));

  // A first dim is a stride: padding it changes the key.
  layout::DataLayout Padded = Orig;
  Padded.layout(A).Dims.front() += 1;
  EXPECT_NE(T->addressKey(Padded, 32), Key);

  // Moving both referenced arrays by 32 bytes is a whole-period shift at
  // period 32 but not at period 64.
  layout::DataLayout Shifted = Orig;
  Shifted.layout(A).BaseAddr += 32;
  Shifted.layout(B).BaseAddr += 32;
  EXPECT_EQ(T->addressKey(Shifted, 32), Key);
  EXPECT_NE(T->addressKey(Shifted, 64), T->addressKey(Orig, 64));
  // Moving one of them alone changes their distance at any period.
  layout::DataLayout Apart = Orig;
  Apart.layout(B).BaseAddr += 32;
  EXPECT_NE(T->addressKey(Apart, 32), Key);
}
