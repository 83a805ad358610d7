//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own arithmetic: the tail-percentile rule, order
/// statistics, the geometric mean of ratios, span self time, and the
/// seeded generator.
///
//===----------------------------------------------------------------------===//

#include "Arith.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

using namespace padx::perfbench;

namespace {

std::vector<double> iota(size_t N) {
  std::vector<double> V(N);
  std::iota(V.begin(), V.end(), 1.0); // 1, 2, ..., N
  return V;
}

Span span(const char *Name, double Start, double End, int Parent) {
  Span S;
  S.Name = Name;
  S.Start = Start;
  S.End = End;
  S.Parent = Parent;
  return S;
}

} // namespace

TEST(TailPercentile, LeavesExactlyTenSamplesBeyond) {
  // 80 ops: rank 70 of 80 is p87.5 and leaves 10 samples above it.
  TailChoice T = tailPercentile(iota(80));
  EXPECT_EQ(T.Rank, 70u);
  EXPECT_EQ(T.Beyond, 10u);
  EXPECT_DOUBLE_EQ(T.Percentile, 87.5);
  EXPECT_DOUBLE_EQ(T.Value, 70.0);
}

TEST(TailPercentile, LargeCountsReachTheDeepTail) {
  TailChoice T = tailPercentile(iota(4000));
  EXPECT_EQ(T.Beyond, 10u);
  EXPECT_DOUBLE_EQ(T.Percentile, 99.75);
  EXPECT_DOUBLE_EQ(T.Value, 3990.0);
}

TEST(TailPercentile, IgnoresInputOrder) {
  std::vector<double> V = iota(30);
  std::reverse(V.begin(), V.end());
  TailChoice T = tailPercentile(V);
  EXPECT_EQ(T.Rank, 20u);
  EXPECT_DOUBLE_EQ(T.Value, 20.0);
}

TEST(TailPercentile, FewSamplesFallBackToTheMinimum) {
  TailChoice T = tailPercentile(iota(7));
  EXPECT_EQ(T.Rank, 1u);
  EXPECT_EQ(T.Beyond, 6u);
  EXPECT_DOUBLE_EQ(T.Value, 1.0);
  // Exactly MinBeyond + 1 samples: rank 1 with 10 beyond.
  T = tailPercentile(iota(11));
  EXPECT_EQ(T.Rank, 1u);
  EXPECT_EQ(T.Beyond, 10u);
  EXPECT_EQ(tailPercentile({}).Rank, 0u);
}

TEST(OrderStatistics, MedianAndMean) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({1, 2, 6}), 3.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(GroupMinimum, EachSampleTakesItsGroupsFastest) {
  // Two programs round-robin: 0, 1, 0, 1, 0, 1.
  std::vector<double> V = {9, 20, 5, 30, 7, 25};
  std::vector<unsigned> G = {0, 1, 0, 1, 0, 1};
  std::vector<double> M = groupMinimum(V, G);
  EXPECT_EQ(M, (std::vector<double>{5, 20, 5, 20, 5, 20}));
  // Op-count statistics still apply: six samples, median of the costs.
  EXPECT_DOUBLE_EQ(median(M), 12.5);
  EXPECT_TRUE(groupMinimum({}, {}).empty());
}

TEST(Geomean, OfRatios) {
  EXPECT_DOUBLE_EQ(geomean({0.5, 2.0}), 1.0);
  EXPECT_NEAR(geomean({0.25, 0.5, 1.0}), 0.5, 1e-15);
  EXPECT_DOUBLE_EQ(geomean({0.8}), 0.8);
  // The geomean of ratios is the ratio of geomeans.
  std::vector<double> Best = {10, 300, 7}, Orig = {20, 400, 14};
  std::vector<double> Ratios;
  for (size_t I = 0; I != Best.size(); ++I)
    Ratios.push_back(Best[I] / Orig[I]);
  EXPECT_NEAR(geomean(Ratios), geomean(Best) / geomean(Orig), 1e-12);
}

TEST(Geomean, RejectsEmptyAndNonPositive) {
  EXPECT_EQ(geomean({}), 0.0);
  EXPECT_EQ(geomean({1.0, 0.0}), 0.0);
  EXPECT_EQ(geomean({1.0, -2.0}), 0.0);
}

TEST(SelfTime, NestedChildren) {
  // op [0,10] > search [1,9] > exec [2,8]
  std::vector<Span> S = {span("op", 0, 10, -1), span("search", 1, 9, 0),
                         span("exec", 2, 8, 1)};
  std::vector<double> Self = selfTimes(S);
  EXPECT_DOUBLE_EQ(Self[0], 2.0);
  EXPECT_DOUBLE_EQ(Self[1], 2.0);
  EXPECT_DOUBLE_EQ(Self[2], 6.0);
  // Self times partition the root span.
  EXPECT_DOUBLE_EQ(Self[0] + Self[1] + Self[2], S[0].duration());
}

TEST(SelfTime, BackToBackChildren) {
  // op [0,10] with parse [0,3], search [3,9], emit [9,10]: no gaps.
  std::vector<Span> S = {span("op", 0, 10, -1), span("parse", 0, 3, 0),
                         span("search", 3, 9, 0), span("emit", 9, 10, 0)};
  std::vector<double> Self = selfTimes(S);
  EXPECT_DOUBLE_EQ(Self[0], 0.0);
  EXPECT_DOUBLE_EQ(Self[1], 3.0);
  EXPECT_DOUBLE_EQ(Self[2], 6.0);
  EXPECT_DOUBLE_EQ(Self[3], 1.0);
}

TEST(SelfTime, SeparateRootsStayApart) {
  std::vector<Span> S = {span("op", 0, 4, -1), span("parse", 1, 2, 0),
                         span("op", 4, 9, -1), span("parse", 5, 8, 2)};
  std::vector<double> Self = selfTimes(S);
  EXPECT_DOUBLE_EQ(Self[0], 3.0);
  EXPECT_DOUBLE_EQ(Self[2], 2.0);
  EXPECT_DOUBLE_EQ(Self[3], 3.0);
}

TEST(SpanRecorder, ParentsFollowTheOpenStack) {
  SpanRecorder R(true);
  {
    ScopedSpan Op(R, "op", 7);
    { ScopedSpan A(R, "parse", 7); }
    {
      ScopedSpan B(R, "search", 7);
      ScopedSpan C(R, "exec", 7);
    }
  }
  const std::vector<Span> &S = R.spans();
  ASSERT_EQ(S.size(), 4u);
  EXPECT_EQ(S[0].Parent, -1);
  EXPECT_EQ(S[1].Parent, 0);
  EXPECT_EQ(S[2].Parent, 0);
  EXPECT_EQ(S[3].Parent, 2);
  EXPECT_EQ(S[3].Op, 7u);
  for (const Span &X : S)
    EXPECT_GE(X.End, X.Start);
  std::vector<double> Self = selfTimes(S);
  double Sum = 0;
  for (double V : Self)
    Sum += V;
  EXPECT_NEAR(Sum, S[0].duration(), 1e-12);
}

TEST(SpanRecorder, DisabledRecordsNothing) {
  SpanRecorder R(false);
  {
    ScopedSpan Op(R, "op", 0);
  }
  EXPECT_TRUE(R.spans().empty());
}

TEST(Rng, SameSeedSameStream) {
  Rng A(42), B(42), C(43);
  bool Differs = false;
  for (int I = 0; I != 100; ++I) {
    uint64_t X = A.next();
    EXPECT_EQ(X, B.next());
    Differs |= X != C.next();
  }
  EXPECT_TRUE(Differs);
}

TEST(Rng, RangeIsInclusive) {
  Rng R(1);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I != 1000; ++I) {
    int64_t V = R.range(3, 5);
    ASSERT_GE(V, 3);
    ASSERT_LE(V, 5);
    SawLo |= V == 3;
    SawHi |= V == 5;
  }
  EXPECT_TRUE(SawLo && SawHi);
}

TEST(Fnv1a, KnownVector) {
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
}
