//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests over randomly generated programs: the invariants the
/// paper's heuristics promise must hold for *every* program, not just
/// the benchmark suite. Parameterized over seeds.
///
//===----------------------------------------------------------------------===//

#include "analysis/ConflictReport.h"
#include "core/Padding.h"
#include "exec/TraceRunner.h"
#include "frontend/Parser.h"
#include "ir/Printer.h"
#include "ir/Validator.h"
#include "search/CostModel.h"
#include "search/SearchEngine.h"
#include "support/MathExtras.h"
#include "tests/property/RandomProgram.h"

#include "gtest/gtest.h"

using namespace padx;

class PaddingProperty : public ::testing::TestWithParam<uint64_t> {
protected:
  ir::Program P = padx::testing::generateRandomProgram(GetParam());
};

TEST_P(PaddingProperty, GeneratedProgramValidates) {
  DiagnosticEngine Diags;
  EXPECT_TRUE(ir::validate(P, Diags)) << Diags.str();
}

TEST_P(PaddingProperty, PrintParseRoundTrip) {
  std::string Once = ir::programToString(P);
  DiagnosticEngine Diags;
  auto Q = frontend::parseProgram(Once, Diags);
  ASSERT_TRUE(Q) << Diags.str();
  EXPECT_EQ(Once, ir::programToString(*Q));
}

TEST_P(PaddingProperty, PadLeavesNoSevereConflicts) {
  // The central guarantee: after PAD, no uniformly generated pair has a
  // conflict distance below the line size — unless the greedy search
  // provably failed (InterFallback).
  for (int64_t CacheBytes : {2048, 16384}) {
    CacheConfig Cache{CacheBytes, 32, 1};
    pad::PaddingResult R = pad::runPad(P, Cache);
    if (R.Stats.InterFallback)
      continue;
    EXPECT_EQ(analysis::countSevereConflicts(R.Layout, Cache), 0u)
        << "seed " << GetParam() << " cache " << CacheBytes;
  }
}

TEST_P(PaddingProperty, PadLiteSeparatesEqualSizedArrays) {
  CacheConfig Cache = CacheConfig::base16K();
  pad::PaddingResult R = pad::runPadLite(P, Cache);
  if (R.Stats.InterFallback)
    return;
  int64_t M = 4 * Cache.LineBytes;
  const auto &Arrays = P.arrays();
  for (unsigned A = 0; A < Arrays.size(); ++A) {
    for (unsigned B = A + 1; B < Arrays.size(); ++B) {
      if (Arrays[A].isScalar() || Arrays[B].isScalar())
        continue;
      if (R.Layout.sizeBytes(A) != R.Layout.sizeBytes(B))
        continue;
      int64_t Dist = R.Layout.layout(A).BaseAddr -
                     R.Layout.layout(B).BaseAddr;
      EXPECT_GE(distanceToMultiple(Dist, Cache.SizeBytes), M)
          << "seed " << GetParam() << ": " << Arrays[A].Name << " vs "
          << Arrays[B].Name;
    }
  }
}

TEST_P(PaddingProperty, LayoutIsNonOverlapping) {
  pad::PaddingResult R = pad::runPad(P);
  const auto &DL = R.Layout;
  for (unsigned A = 0; A < P.arrays().size(); ++A) {
    for (unsigned B = 0; B < P.arrays().size(); ++B) {
      if (A == B)
        continue;
      int64_t StartA = DL.layout(A).BaseAddr;
      int64_t EndA = StartA + DL.sizeBytes(A);
      int64_t StartB = DL.layout(B).BaseAddr;
      EXPECT_FALSE(StartB >= StartA && StartB < EndA)
          << "seed " << GetParam() << ": " << P.array(B).Name
          << " starts inside " << P.array(A).Name;
    }
  }
}

TEST_P(PaddingProperty, MemoryOverheadBounded) {
  pad::PaddingResult R = pad::runPad(P);
  // Generated programs have at most 6 variables; even pathological
  // layouts pad each by at most a cache size.
  EXPECT_LE(R.Layout.totalBytes(),
            layout::originalLayout(P).totalBytes() +
                6 * CacheConfig::base16K().SizeBytes + 64);
}

TEST_P(PaddingProperty, TraceStaysInBounds) {
  pad::PaddingResult R = pad::runPad(P);
  class BoundsSink : public exec::TraceSink {
  public:
    explicit BoundsSink(const layout::DataLayout &DL) : DL(DL) {}
    void access(int64_t Addr, int32_t Size, bool) override {
      for (unsigned Id = 0; Id < DL.numArrays(); ++Id)
        if (Addr >= DL.layout(Id).BaseAddr &&
            Addr + Size <= DL.layout(Id).BaseAddr + DL.sizeBytes(Id))
          return;
      ++Violations;
    }
    const layout::DataLayout &DL;
    unsigned Violations = 0;
  } Sink(R.Layout);
  exec::TraceRunner Runner(P, R.Layout);
  Runner.run(Sink);
  EXPECT_EQ(Sink.Violations, 0u) << "seed " << GetParam();
}

TEST_P(PaddingProperty, TraceIdenticalUpToRelocation) {
  // Padding only relocates variables and restrides dimensions: the
  // number of accesses and the read/write mix must be exactly the
  // original's.
  layout::DataLayout Orig = layout::originalLayout(P);
  pad::PaddingResult R = pad::runPad(P);
  exec::CountSink A, B;
  exec::TraceRunner(P, Orig).run(A);
  exec::TraceRunner(P, R.Layout).run(B);
  EXPECT_EQ(A.Count, B.Count);
  EXPECT_EQ(A.Writes, B.Writes);
}

TEST_P(PaddingProperty, SearchNeverWorseThanPad) {
  // The search seeds from (and therefore can always fall back to) the
  // PAD layout, so on *every* program its simulated miss count must be
  // at most PAD's — measured independently here, not taken from the
  // search's own report.
  search::SearchOptions Opts;
  Opts.EvalBudget = 8;
  Opts.Threads = 2;
  Opts.Seed = GetParam();
  search::SearchResult R = search::runSearch(P, Opts);
  pad::PaddingResult Pad = pad::runPad(P, Opts.Machine.firstCache());
  search::SimulationCostModel Exact(Opts.Machine);
  EXPECT_LE(R.BestMisses, Exact.evaluate(Pad.Layout).Cost)
      << "seed " << GetParam();
  // And the layout it returns really has the cost it claims.
  EXPECT_EQ(Exact.evaluate(R.BestLayout).Cost, R.BestMisses)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaddingProperty,
                         ::testing::Range<uint64_t>(0, 25));
