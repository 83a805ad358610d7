//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "analysis/ConflictDistance.h"

#include "ir/Builder.h"
#include "layout/DataLayout.h"

#include "gtest/gtest.h"

using namespace padx;
using namespace padx::analysis;
using namespace padx::ir;

namespace {

/// JACOBI's key references over N x N arrays A and B (paper Figure 7).
struct JacobiFixture {
  Program P;
  layout::DataLayout DL;
  ArrayRef BWrite, Ajm1, Ajim1, Ajp1, Ajip1;

  explicit JacobiFixture(int64_t N)
      : P(buildProgram(N)), DL(layout::originalLayout(P)) {
    ProgramBuilder Helper("h"); // only for ref construction helpers
    unsigned A = *P.findArray("A");
    unsigned B = *P.findArray("B");
    auto Idx = [](const char *V, int64_t Off) {
      return AffineExpr::index(V, 1, Off);
    };
    BWrite = ArrayRef{B, {Idx("j", 0), Idx("i", 0)}, true, -1, 0, {}};
    Ajm1 = ArrayRef{A, {Idx("j", -1), Idx("i", 0)}, false, -1, 0, {}};
    Ajim1 = ArrayRef{A, {Idx("j", 0), Idx("i", -1)}, false, -1, 0, {}};
    Ajp1 = ArrayRef{A, {Idx("j", 1), Idx("i", 0)}, false, -1, 0, {}};
    Ajip1 = ArrayRef{A, {Idx("j", 0), Idx("i", 1)}, false, -1, 0, {}};
  }

  static Program buildProgram(int64_t N) {
    ProgramBuilder PB("jacobi");
    PB.addArray2D("A", N, N);
    PB.addArray2D("B", N, N);
    return PB.take();
  }
};

} // namespace

TEST(Linearize, ColumnMajorOffsets) {
  ProgramBuilder PB("p");
  unsigned A = PB.addArray2D("A", 10, 20);
  PB.beginLoop("i", 1, 20);
  PB.beginLoop("j", 2, 10);
  PB.assign({PB.write(A, {PB.idx("j", -1), PB.idx("i")})});
  PB.endLoop();
  PB.endLoop();
  Program P = PB.take();
  layout::DataLayout DL = layout::originalLayout(P);
  DL.layout(A).BaseAddr = 800;

  std::vector<LoopGroup> Groups = collectLoopGroups(P);
  ASSERT_EQ(Groups.size(), 1u);
  std::vector<LinearForm> Forms = linearizeGroup(DL, Groups[0]);
  ASSERT_EQ(Forms.size(), 1u);
  ASSERT_TRUE(Forms[0].Affine);
  // 800 + 8 * ((j-1-1) + (i-1)*10) = 800 + 80*i + 8*j - 96, over the
  // nest (i, j), outermost first.
  EXPECT_EQ(Forms[0].CoeffBytes, (std::vector<int64_t>{80, 8}));
  EXPECT_EQ(Forms[0].ConstBytes, 800 - 96);
}

TEST(Linearize, UsesPaddedDims) {
  ProgramBuilder PB("p");
  unsigned A = PB.addArray2D("A", 10, 20);
  PB.beginLoop("i", 1, 20);
  PB.beginLoop("j", 1, 10);
  PB.assign({PB.write(A, {PB.idx("j"), PB.idx("i")})});
  PB.endLoop();
  PB.endLoop();
  Program P = PB.take();
  layout::DataLayout DL = layout::originalLayout(P);
  DL.layout(A).Dims[0] = 12; // padded column
  std::vector<LoopGroup> Groups = collectLoopGroups(P);
  ASSERT_EQ(Groups.size(), 1u);
  EXPECT_EQ(linearizeGroup(DL, Groups[0])[0].CoeffBytes.front(), 12 * 8);
}

TEST(IterationDistance, SameArrayColumnDistance) {
  JacobiFixture F(512);
  // A(j,i-1) vs A(j,i+1): two columns apart = 2*512 elements.
  auto D = iterationDistanceBytes(F.DL, F.Ajip1, F.Ajim1, 0, 0);
  ASSERT_TRUE(D);
  EXPECT_EQ(*D, 2 * 512 * 8);
}

TEST(IterationDistance, PaperCaseN512Cs2048Elems) {
  // Paper Section 3, first case: N=512, Cs=2048 elements (16K bytes for
  // 8-byte reals). B's packed base is 512*512 elements after A, which is
  // congruent to 0 mod Cs: B(j,i) conflicts with every A reference.
  JacobiFixture F(512);
  auto D = iterationDistanceBytes(F.DL, F.BWrite, F.Ajm1);
  ASSERT_TRUE(D);
  // Distance = base distance + one element (j vs j-1).
  EXPECT_EQ(*D, 512 * 512 * 8 + 8);
  EXPECT_EQ(conflictDistance(*D, 2048 * 8), 8);
  // Conflict distance below the 32-byte line: severe conflict.
  EXPECT_LT(conflictDistance(*D, 2048 * 8), 32);
}

TEST(IterationDistance, PaperCaseN934NoLiteConflictButPadFindsIt) {
  // Paper Section 3, third case: N=934, Cs=1024 elements. The base
  // distance 934*934 mod 1024 = 932 elements is far from zero (PADLITE
  // sees no problem), but B(j,i) vs A(j,i+1) has distance
  // 934*934 - 934 == -2 (mod 1024) elements: a severe conflict only the
  // reference analysis finds.
  JacobiFixture F(934);
  int64_t CsBytes = 1024 * 8;
  // 934*934 == 932 (mod 1024) elements; the symmetric distance is
  // min(932, 1024-932) = 92 elements = 736 bytes, well above a line.
  EXPECT_EQ(conflictDistance(934 * 934 * 8, CsBytes), 92 * 8);
  EXPECT_GT(conflictDistance(934 * 934 * 8, CsBytes), 32);

  auto D = iterationDistanceBytes(F.DL, F.BWrite, F.Ajip1);
  ASSERT_TRUE(D);
  EXPECT_EQ(conflictDistance(*D, CsBytes), 16); // 2 elements
  EXPECT_LT(conflictDistance(*D, CsBytes), 32);
}

TEST(IterationDistance, NonConformingPairIsNotConstant) {
  // After intra-padding A (514 columns) but not B (512), the iteration
  // distance depends on i: not a constant.
  JacobiFixture F(512);
  F.DL.layout(*F.P.findArray("A")).Dims[0] = 514;
  auto D = iterationDistanceBytes(F.DL, F.BWrite, F.Ajm1);
  EXPECT_FALSE(D.has_value());
}

TEST(IterationDistance, DifferentLoopVariablesNotConstant) {
  ProgramBuilder PB("p");
  unsigned A = PB.addArray2D("A", 16, 16);
  Program P = PB.take();
  layout::DataLayout DL = layout::originalLayout(P);
  ArrayRef R1{A, {AffineExpr::index("i"), AffineExpr::index("j")},
              false, -1, 0, {}};
  ArrayRef R2{A, {AffineExpr::index("i"), AffineExpr::index("k")},
              false, -1, 0, {}};
  EXPECT_FALSE(iterationDistanceBytes(DL, R1, R2, 0, 0).has_value());
}

TEST(IterationDistance, OneDimDifferentSizesStillConstant) {
  // Figure 1 of the paper: 1-D arrays always conform.
  ProgramBuilder PB("p");
  unsigned A = PB.addArray1D("A", 100);
  unsigned B = PB.addArray1D("B", 300);
  Program P = PB.take();
  layout::DataLayout DL = layout::originalLayout(P);
  ArrayRef RA{A, {AffineExpr::index("i")}, false, -1, 0, {}};
  ArrayRef RB{B, {AffineExpr::index("i")}, false, -1, 0, {}};
  auto D = iterationDistanceBytes(DL, RA, RB);
  ASSERT_TRUE(D);
  EXPECT_EQ(*D, -100 * 8);
}

TEST(IterationDistance, IndirectRefsRejected) {
  ProgramBuilder PB("p");
  unsigned A = PB.addArray1D("A", 100);
  ArrayVariable Idx;
  Idx.Name = "IDX";
  Idx.ElemSize = 4;
  Idx.DimSizes = {100};
  Idx.LowerBounds = {1};
  Idx.Init = ArrayInitKind::Identity;
  unsigned I = PB.addArray(std::move(Idx));
  Program P = PB.take();
  layout::DataLayout DL = layout::originalLayout(P);
  ArrayRef R1{A, {AffineExpr::index("i")}, false, 0, I, {}};
  ArrayRef R2{A, {AffineExpr::index("i")}, false, -1, 0, {}};
  EXPECT_FALSE(iterationDistanceBytes(DL, R1, R2).has_value());
}

TEST(ConflictDistanceFn, Symmetric) {
  EXPECT_EQ(conflictDistance(16386, 16384), 2);
  EXPECT_EQ(conflictDistance(-2, 16384), 2);
  EXPECT_EQ(conflictDistance(8192, 16384), 8192);
}
