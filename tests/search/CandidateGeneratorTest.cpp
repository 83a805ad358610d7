//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CandidateGenerator tests, centered on the greedy repair's worst-entry
/// selection: when several severe conflicts tie on conflict distance the
/// repair must target the lowest array-id pair — a documented tie-break,
/// so the candidate stream is stable across platforms and report
/// orderings — and the repair must read its conflict reports through
/// the pipeline's analysis manager.
///
//===----------------------------------------------------------------------===//

#include "search/CandidateGenerator.h"

#include "frontend/Parser.h"
#include "pipeline/PadPipeline.h"
#include "search/Candidate.h"

#include "gtest/gtest.h"

#include <random>

using namespace padx;
using namespace padx::search;

namespace {

const CacheConfig kCache = CacheConfig::base16K();
const MachineModel kMachine = MachineModel::singleLevel(kCache);

/// Three arrays of exactly one way span each (2048 reals = 16K), read in
/// one uniformly generated group. Packed bases are 0, 16K, 32K, so all
/// three pairs conflict with distance 0 — a three-way tie.
ir::Program tiedConflictProgram() {
  static const char *Source = R"(
program tiebreak

array A : real[2048]
array B : real[2048]
array C : real[2048]

loop i = 1, 2048 {
  C[i] = B[i] + A[i]
}
)";
  DiagnosticEngine Diags;
  std::optional<ir::Program> P = frontend::parseProgram(Source, Diags);
  EXPECT_TRUE(P) << Diags.render(Source, "tiebreak");
  return std::move(*P);
}

} // namespace

TEST(CandidateGenerator, RepairBreaksConflictTiesByLowestArrayIds) {
  ir::Program P = tiedConflictProgram();
  pipeline::PadPipeline PP(P);
  CandidateGenerator Gen(P, kMachine, PP);

  // Count 1 isolates the repair proposal: no random moves are drawn.
  std::mt19937_64 Rng(0);
  std::vector<Candidate> N = Gen.neighbors(zeroCandidate(P), Rng, 1);
  ASSERT_EQ(N.size(), 1u);

  // All three pairs {A,B}, {A,C}, {B,C} tie at conflict distance 0; the
  // winner must be the lowest pair {A,B}, and the repair slides the
  // later-placed of the two — B, array id 1 — one line forward.
  EXPECT_EQ(N[0].GapBytes[1], kCache.LineBytes);
  EXPECT_EQ(N[0].GapBytes[0], 0);
  EXPECT_EQ(N[0].GapBytes[2], 0);
  for (const auto &Pads : N[0].DimPads)
    for (int64_t Pad : Pads)
      EXPECT_EQ(Pad, 0);
}

TEST(CandidateGenerator, RepairIsDeterministicAcrossRuns) {
  ir::Program P = tiedConflictProgram();
  pipeline::PadPipeline PP(P);
  CandidateGenerator Gen(P, kMachine, PP);
  std::mt19937_64 RngA(7), RngB(7);
  std::vector<Candidate> A = Gen.neighbors(zeroCandidate(P), RngA, 4);
  std::vector<Candidate> B = Gen.neighbors(zeroCandidate(P), RngB, 4);
  EXPECT_EQ(A, B);
}

TEST(CandidateGenerator, RepairReadsConflictReportsThroughTheManager) {
  ir::Program P = tiedConflictProgram();
  pipeline::PadPipeline PP(P);
  CandidateGenerator Gen(P, kMachine, PP);
  auto Reports = [&] {
    return PP.stats().Analysis.of(pipeline::AnalysisKind::ConflictReport);
  };
  const pipeline::AnalysisCounters Before = Reports();

  // Count 1 isolates the repair: one report query, memoized.
  std::mt19937_64 Rng(3);
  ASSERT_EQ(Gen.neighbors(zeroCandidate(P), Rng, 1).size(), 1u);
  const pipeline::AnalysisCounters After = Reports();
  EXPECT_EQ(After.Hits + After.Misses, Before.Hits + Before.Misses + 1);
  EXPECT_GT(After.Misses, 0u);

  // Repairing the same candidate again hits the manager's entry.
  Gen.neighbors(zeroCandidate(P), Rng, 1);
  EXPECT_EQ(Reports().Misses, After.Misses);
  EXPECT_EQ(Reports().Hits, After.Hits + 1);
}
