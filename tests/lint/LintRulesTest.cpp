//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the lint rule catalog: every rule has a positive case
/// (the paper's pad condition holds and the rule fires with the right
/// severity, key and fix-it) and a negative case (a near-miss layout the
/// rule must stay silent on), plus pass-manager behavior — severity
/// ranking, the fully-associative short-circuit, and applyFix semantics.
///
//===----------------------------------------------------------------------===//

#include "lint/Linter.h"
#include "lint/Rule.h"

#include "frontend/Parser.h"
#include "layout/DataLayout.h"

#include "gtest/gtest.h"

#include <vector>

using namespace padx;
using namespace padx::lint;

namespace {

ir::Program parse(std::string_view Source) {
  DiagnosticEngine Diags;
  auto P = frontend::parseProgram(Source, Diags);
  EXPECT_TRUE(P) << Diags.str();
  return std::move(*P);
}

LintResult lintSource(std::string_view Source,
                      CacheConfig Cache = CacheConfig::base16K()) {
  ir::Program P = parse(Source);
  return Linter(LintOptions{Cache}).run(P);
}

std::vector<const Finding *> byRule(const LintResult &R,
                                    std::string_view RuleId) {
  std::vector<const Finding *> Out;
  for (const Finding &F : R.Findings)
    if (F.RuleId == RuleId)
      Out.push_back(&F);
  return Out;
}

bool hasFinding(const LintResult &R, std::string_view RuleId,
                std::string_view Key) {
  for (const Finding &F : R.Findings)
    if (F.RuleId == RuleId && F.Key == Key)
      return true;
  return false;
}

/// Two 2 MiB arrays (a multiple of the 16 KiB cache size apart when
/// packed) read in the same loop nest: the InterPadLite and InterPad
/// conditions both hold.
constexpr const char *kLockstep = R"(program lockstep
array A : real[512, 512]
array B : real[512, 512]
loop i = 1, 512 {
  loop j = 1, 512 {
    B[j, i] = A[j, i]
  }
}
)";

/// Cholesky with the paper's pathological 384-element column (Figure 3):
/// LinPad1 and LinPad2 both reject this shape.
constexpr const char *kCholesky = R"(program chol
array A : real[384, 384]
array D : real
loop k = 1, 384 {
  D = A[k, k]
  loop j = k+1, 384 {
    loop i = j, 384 {
      A[i, j] = A[i, j] - A[i, k] * A[j, k]
    }
  }
}
)";

} // namespace

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(LintRegistry, RulesInExecutionOrder) {
  const std::vector<const Rule *> &Rules = allRules();
  ASSERT_EQ(Rules.size(), 6u);
  EXPECT_EQ(Rules[0]->id(), "base-proximity");
  EXPECT_EQ(Rules[1]->id(), "pathological-leading-dim");
  EXPECT_EQ(Rules[2]->id(), "conflict-pair");
  EXPECT_EQ(Rules[3]->id(), "self-interference");
  EXPECT_EQ(Rules[4]->id(), "predicted-conflict-volume");
  EXPECT_EQ(Rules[5]->id(), "unsafe-to-fix");
  for (const Rule *R : Rules) {
    EXPECT_FALSE(R->summary().empty());
    EXPECT_FALSE(R->paperCondition().empty());
  }
}

TEST(LintRegistry, LookupById) {
  EXPECT_NE(findRule("conflict-pair"), nullptr);
  EXPECT_EQ(findRule("no-such-rule"), nullptr);
}

//===----------------------------------------------------------------------===//
// R1: base-proximity
//===----------------------------------------------------------------------===//

TEST(BaseProximityRule, WarnsOnEqualSizeArraysSharingALoop) {
  LintResult R = lintSource(kLockstep);
  auto Hits = byRule(R, "base-proximity");
  ASSERT_EQ(Hits.size(), 1u);
  const Finding &F = *Hits[0];
  EXPECT_EQ(F.Sev, Severity::Warning);
  EXPECT_EQ(F.Key, "'A' ~ 'B'");
  ASSERT_EQ(F.Fix.K, FixIt::Kind::InterGap);
  EXPECT_GT(F.Fix.GapBytes, 0);
  EXPECT_EQ(F.Fix.GapBytes % 8, 0) << "gap must be element-aligned";
  EXPECT_TRUE(F.Loc.isValid());
  EXPECT_TRUE(F.RelatedLoc.isValid());
}

TEST(BaseProximityRule, InfoWhenArraysNeverShareALoop) {
  LintResult R = lintSource(R"(program separate
array A : real[512, 512]
array B : real[512, 512]
loop i = 1, 512 {
  loop j = 1, 512 {
    A[j, i] = A[j, i] + 1
  }
}
loop i = 1, 512 {
  loop j = 1, 512 {
    B[j, i] = B[j, i] + 1
  }
}
)");
  auto Hits = byRule(R, "base-proximity");
  ASSERT_EQ(Hits.size(), 1u);
  EXPECT_EQ(Hits[0]->Sev, Severity::Info);
}

TEST(BaseProximityRule, SilentWhenBasesAreFarApartModuloCache) {
  // 8000-byte arrays: packed bases differ by 8000 mod 16384, nowhere
  // near a multiple of the cache size.
  LintResult R = lintSource(R"(program far
array A : real[1000]
array B : real[1000]
loop i = 1, 1000 {
  B[i] = A[i]
}
)");
  EXPECT_TRUE(byRule(R, "base-proximity").empty());
}

TEST(BaseProximityRule, FixClearsTheFindingOnRelint) {
  ir::Program P = parse(kLockstep);
  layout::DataLayout DL = layout::originalLayout(P);
  Linter L;
  LintResult R = L.run(DL);
  auto Hits = byRule(R, "base-proximity");
  ASSERT_EQ(Hits.size(), 1u);
  layout::DataLayout Fixed = applyFix(DL, Hits[0]->Fix);
  EXPECT_FALSE(
      hasFinding(L.run(Fixed), "base-proximity", Hits[0]->Key));
}

//===----------------------------------------------------------------------===//
// R2: pathological-leading-dim
//===----------------------------------------------------------------------===//

TEST(PathologicalLeadingDimRule, FiresWhenTwiceLineDividesColumn) {
  // 512 * 8B = 4096B columns: divisible by 2 * 32B. Stencil access, so
  // only a heads-up.
  LintResult R = lintSource(kLockstep);
  auto Hits = byRule(R, "pathological-leading-dim");
  ASSERT_EQ(Hits.size(), 2u) << "both A and B have the bad column";
  for (const Finding *F : Hits) {
    EXPECT_EQ(F->Sev, Severity::Info);
    ASSERT_EQ(F->Fix.K, FixIt::Kind::IntraPad);
    EXPECT_EQ(F->Fix.Dim, 0u);
    EXPECT_EQ(F->Fix.PadElems, 1) << "513*8 = 4104 already clears";
  }
}

TEST(PathologicalLeadingDimRule, WarningOnLinearAlgebraArrays) {
  LintResult R = lintSource(kCholesky);
  auto Hits = byRule(R, "pathological-leading-dim");
  ASSERT_EQ(Hits.size(), 1u);
  EXPECT_EQ(Hits[0]->Sev, Severity::Warning);
  EXPECT_EQ(Hits[0]->Key, "'A'");
}

TEST(PathologicalLeadingDimRule, SilentOnBenignColumnSize) {
  // 500 * 8B = 4000B: not a multiple of 64B.
  LintResult R = lintSource(R"(program benign
array A : real[500, 500]
loop i = 1, 500 {
  loop j = 1, 500 {
    A[j, i] = A[j, i] * 2
  }
}
)");
  EXPECT_TRUE(byRule(R, "pathological-leading-dim").empty());
}

//===----------------------------------------------------------------------===//
// R3: conflict-pair
//===----------------------------------------------------------------------===//

TEST(ConflictPairRule, SameArrayColumnsOneWaySpanApart) {
  // Column span 2048 * 8B = 16384B = C_s exactly: A[i,1] and A[i,2]
  // fold to conflict distance 0 on every iteration.
  LintResult R = lintSource(R"(program selfpair
array A : real[2048, 4]
loop i = 1, 2048 {
  A[i, 1] = A[i, 2]
}
)");
  auto Hits = byRule(R, "conflict-pair");
  ASSERT_EQ(Hits.size(), 1u);
  const Finding &F = *Hits[0];
  EXPECT_GE(F.Sev, Severity::Warning);
  EXPECT_NE(F.Message.find("within 'A'"), std::string::npos);
  ASSERT_EQ(F.Fix.K, FixIt::Kind::IntraPad);
  EXPECT_EQ(F.Fix.Dim, 0u);
  // Smallest pad pushing the fold at least a line away: 4 elements
  // (conflict distance grows 8B per element).
  EXPECT_EQ(F.Fix.PadElems, 4);
}

TEST(ConflictPairRule, CrossArrayPairGetsInterGapOnLaterArray) {
  ir::Program P = parse(kLockstep);
  layout::DataLayout DL = layout::originalLayout(P);
  Linter L;
  LintResult R = L.run(DL);
  auto Hits = byRule(R, "conflict-pair");
  ASSERT_FALSE(Hits.empty());
  for (const Finding *F : Hits) {
    ASSERT_EQ(F->Fix.K, FixIt::Kind::InterGap);
    EXPECT_EQ(P.array(F->Fix.ArrayId).Name, "B")
        << "the gap goes before the later-placed array";
    layout::DataLayout Fixed = applyFix(DL, F->Fix);
    EXPECT_FALSE(hasFinding(L.run(Fixed), "conflict-pair", F->Key))
        << F->Key;
  }
}

TEST(ConflictPairRule, ErrorOnlyWhereThePairThrashesItsSet) {
  // A[i] and B[i] sit exactly one 16 KiB cache apart, so the pair folds
  // to conflict distance 0 on a direct-mapped and a 2-way cache alike.
  // Direct-mapped, each access evicts the other's line and the nest's
  // misses dominate: Error. A 2-way set holds both lines, so nothing
  // thrashes and the finding stays a Warning, although the nest's
  // spatial misses alone reach 25% of its accesses.
  constexpr const char *kPair = R"(program pair
array A : real[512]
array F : real[1536]
array B : real[512]
loop i = 1, 512 {
  B[i] = A[i]
}
)";
  LintResult Direct = lintSource(kPair);
  auto DirectHits = byRule(Direct, "conflict-pair");
  ASSERT_EQ(DirectHits.size(), 1u);
  EXPECT_EQ(DirectHits[0]->Sev, Severity::Error);

  LintResult TwoWay = lintSource(kPair, CacheConfig{16 * 1024, 32, 2});
  auto TwoWayHits = byRule(TwoWay, "conflict-pair");
  ASSERT_EQ(TwoWayHits.size(), 1u);
  EXPECT_EQ(TwoWayHits[0]->Sev, Severity::Warning);
}

TEST(ConflictPairRule, SilentOnSpatialReuseWithinALine) {
  // 8 bytes apart: same line, reuse rather than eviction.
  LintResult R = lintSource(R"(program reuse
array A : real[4096]
loop i = 1, 4095 {
  A[i] = A[i+1]
}
)");
  EXPECT_TRUE(byRule(R, "conflict-pair").empty());
}

TEST(ConflictPairRule, SilentWhenFoldedDistanceExceedsLine) {
  // Column span 600 * 8B = 4800B: folds to 4800 mod 16384, far from any
  // multiple of the way span.
  LintResult R = lintSource(R"(program benignpair
array A : real[600, 2]
loop i = 1, 600 {
  A[i, 1] = A[i, 2]
}
)");
  EXPECT_TRUE(byRule(R, "conflict-pair").empty());
}

//===----------------------------------------------------------------------===//
// R4: self-interference
//===----------------------------------------------------------------------===//

TEST(SelfInterferenceRule, FiresOnCholeskyColumn) {
  ir::Program P = parse(kCholesky);
  layout::DataLayout DL = layout::originalLayout(P);
  Linter L;
  LintResult R = L.run(DL);
  auto Hits = byRule(R, "self-interference");
  ASSERT_EQ(Hits.size(), 1u);
  const Finding &F = *Hits[0];
  EXPECT_EQ(F.Sev, Severity::Warning);
  EXPECT_EQ(F.Key, "'A'");
  EXPECT_NE(F.Message.find("FirstConflict"), std::string::npos);
  ASSERT_EQ(F.Fix.K, FixIt::Kind::IntraPad);
  layout::DataLayout Fixed = applyFix(DL, F.Fix);
  EXPECT_FALSE(hasFinding(L.run(Fixed), "self-interference", F.Key));
}

TEST(SelfInterferenceRule, SilentOnStencilArrays) {
  // jacobi-style arrays are not linear-algebra: columns are always
  // walked a fixed distance apart, so FirstConflict is irrelevant.
  LintResult R = lintSource(kLockstep);
  EXPECT_TRUE(byRule(R, "self-interference").empty());
}

//===----------------------------------------------------------------------===//
// R5: unsafe-to-fix
//===----------------------------------------------------------------------===//

TEST(UnsafeToFixRule, ReportsParameterBlockedFix) {
  LintResult R = lintSource(R"(program frozen
array A : real[512, 512] param
array B : real[512, 512] param
loop i = 1, 512 {
  loop j = 1, 512 {
    B[j, i] = A[j, i]
  }
}
)");
  auto Pairs = byRule(R, "conflict-pair");
  ASSERT_FALSE(Pairs.empty());
  for (const Finding *F : Pairs) {
    EXPECT_FALSE(F->Fix.isValid());
    EXPECT_TRUE(F->FixBlockedBySafety);
  }
  auto Meta = byRule(R, "unsafe-to-fix");
  ASSERT_FALSE(Meta.empty());
  EXPECT_EQ(Meta[0]->Sev, Severity::Warning);
  EXPECT_NE(Meta[0]->Message.find("formal parameter"),
            std::string::npos);
}

TEST(UnsafeToFixRule, NamesFrozenCommonBlock) {
  // One storage-associated member freezes the whole block: B may not be
  // moved even though B itself has no stassoc attribute.
  LintResult R = lintSource(R"(program commons
array A : real[512, 512] common(blk) stassoc
array B : real[512, 512] common(blk)
loop i = 1, 512 {
  loop j = 1, 512 {
    B[j, i] = A[j, i]
  }
}
)");
  auto Meta = byRule(R, "unsafe-to-fix");
  ASSERT_FALSE(Meta.empty());
  bool NamesBlock = false;
  for (const Finding *F : Meta)
    NamesBlock |=
        F->Message.find("common block 'blk'") != std::string::npos;
  EXPECT_TRUE(NamesBlock);
}

TEST(UnsafeToFixRule, AbsentWhenEveryFixIsSafe) {
  LintResult R = lintSource(kLockstep);
  EXPECT_TRUE(byRule(R, "unsafe-to-fix").empty());
}

//===----------------------------------------------------------------------===//
// Pass manager
//===----------------------------------------------------------------------===//

TEST(Linter, FullyAssociativeCacheHasNoConflictFindings) {
  CacheConfig Full = CacheConfig::base16K();
  Full.Associativity = 0;
  LintResult R = lintSource(kLockstep, Full);
  EXPECT_TRUE(R.Findings.empty());
}

TEST(Linter, FindingsRankedMostSevereFirst) {
  LintResult R = lintSource(kLockstep);
  ASSERT_FALSE(R.Findings.empty());
  for (size_t I = 1; I != R.Findings.size(); ++I)
    EXPECT_GE(R.Findings[I - 1].Sev, R.Findings[I].Sev);
}

TEST(Linter, ResultCountsBySeverity) {
  LintResult R = lintSource(kLockstep);
  unsigned Total = R.count(Severity::Error) +
                   R.count(Severity::Warning) +
                   R.count(Severity::Info);
  EXPECT_EQ(Total, R.Findings.size());
  EXPECT_GE(R.maxSeverity(), Severity::Warning);
}

TEST(ApplyFix, InterGapShiftsOnlyLaterArrays) {
  ir::Program P = parse(kLockstep);
  layout::DataLayout DL = layout::originalLayout(P);
  FixIt Fix;
  Fix.K = FixIt::Kind::InterGap;
  Fix.ArrayId = 1; // B, placed after A.
  Fix.GapBytes = 128;
  layout::DataLayout Fixed = applyFix(DL, Fix);
  EXPECT_EQ(Fixed.layout(0).BaseAddr, DL.layout(0).BaseAddr);
  EXPECT_EQ(Fixed.layout(1).BaseAddr, DL.layout(1).BaseAddr + 128);
}

TEST(ApplyFix, IntraPadGrowsDimensionAndRepacks) {
  ir::Program P = parse(kLockstep);
  layout::DataLayout DL = layout::originalLayout(P);
  FixIt Fix;
  Fix.K = FixIt::Kind::IntraPad;
  Fix.ArrayId = 0;
  Fix.Dim = 0;
  Fix.PadElems = 1;
  layout::DataLayout Fixed = applyFix(DL, Fix);
  EXPECT_EQ(Fixed.dimSize(0, 0), DL.dimSize(0, 0) + 1);
  EXPECT_EQ(Fixed.layout(1).BaseAddr,
            DL.layout(1).BaseAddr + 512 * 8)
      << "one pad element per column, 512 columns of 8B elements";
}
