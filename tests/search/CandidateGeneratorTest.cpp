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
/// orderings — and the pipeline-backed generator must propose exactly
/// the same candidates as the legacy one.
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
  CandidateGenerator Gen(P, kMachine);

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
  CandidateGenerator Gen(P, kMachine);
  std::mt19937_64 RngA(7), RngB(7);
  std::vector<Candidate> A = Gen.neighbors(zeroCandidate(P), RngA, 4);
  std::vector<Candidate> B = Gen.neighbors(zeroCandidate(P), RngB, 4);
  EXPECT_EQ(A, B);
}

TEST(CandidateGenerator, PipelineBackedGeneratorProposesSameCandidates) {
  ir::Program P = tiedConflictProgram();
  CandidateGenerator Legacy(P, kMachine);
  pipeline::PadPipeline PP(P);
  CandidateGenerator Piped(P, kMachine, PP);

  EXPECT_EQ(Legacy.seeds(), Piped.seeds());
  EXPECT_EQ(Legacy.padSeedIndex(), Piped.padSeedIndex());

  std::mt19937_64 RngA(3), RngB(3);
  EXPECT_EQ(Legacy.neighbors(zeroCandidate(P), RngA, 6),
            Piped.neighbors(zeroCandidate(P), RngB, 6));

  // The repair path went through the manager: conflict reports cached.
  EXPECT_GT(PP.stats()
                .Analysis.of(pipeline::AnalysisKind::ConflictReport)
                .Misses,
            0u);
}
