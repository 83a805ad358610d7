//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Census classification of known corpus programs: the properties the
/// benchmark reports shares of must match what padx branches on.
///
//===----------------------------------------------------------------------===//

#include "Census.h"

#include "frontend/Parser.h"
#include "kernels/Kernels.h"

#include <gtest/gtest.h>

using namespace padx;
using namespace padx::perfbench;

namespace {

ProgramCensus censusOfKernel(const char *Name, int64_t N) {
  ir::Program P = kernels::makeKernel(Name, N);
  return censusOf(P);
}

} // namespace

TEST(Census, IrrIsTraceDeclined) {
  ProgramCensus C = censusOfKernel("irr", 500);
  EXPECT_TRUE(C.TraceDeclined);
  EXPECT_NE(C.DeclineReason.find("indirect"), std::string::npos);
  EXPECT_GT(C.Accesses, 0u);
}

TEST(Census, CholAndDgefaHaveUnscoredTriangularNests) {
  ProgramCensus Chol = censusOfKernel("chol", 64);
  EXPECT_TRUE(Chol.unscored());
  EXPECT_FALSE(Chol.TraceDeclined);
  ProgramCensus Dgefa = censusOfKernel("dgefa", 64);
  EXPECT_TRUE(Dgefa.unscored());
}

TEST(Census, JacobiIsScoredRecordedAndNarrow) {
  ProgramCensus C = censusOfKernel("jacobi", 64);
  EXPECT_FALSE(C.TraceDeclined);
  EXPECT_FALSE(C.unscored());
  EXPECT_FALSE(C.wideBody());
  EXPECT_EQ(C.MaxRefsPerBody, 5u);
}

TEST(Census, ShalTakesTheScalarLaneLoop) {
  ProgramCensus C = censusOfKernel("shal", 32);
  EXPECT_TRUE(C.wideBody());
  EXPECT_GT(C.MaxRefsPerBody, kProbeMaxRefs);
  EXPECT_GE(C.MaxRefsPerBody, C.MaxRefsPerStmt);
}

TEST(Census, CountsFromParsedSource) {
  // A body of two statements: 3 + 4 refs, 7 per innermost body, which
  // the batched probes cannot take although no statement exceeds 6.
  const char *Src = "program two\n"
                    "array A : real[64]\n"
                    "array B : real[64]\n"
                    "array C : real[64]\n"
                    "loop i = 2, 63 {\n"
                    "  A[i] = B[i] + C[i]\n"
                    "  B[i] = A[i] + A[i-1] + C[i]\n"
                    "}\n";
  DiagnosticEngine Diags;
  std::optional<ir::Program> P = frontend::parseProgram(Src, Diags);
  ASSERT_TRUE(P.has_value());
  ProgramCensus C = censusOf(*P);
  EXPECT_EQ(C.MaxRefsPerStmt, 4u);
  EXPECT_EQ(C.MaxRefsPerBody, 7u);
  EXPECT_TRUE(C.wideBody());
  EXPECT_EQ(C.Nests, 1u);
  EXPECT_EQ(C.Accesses, 62u * 7u);
}
