//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "lint/Linter.h"

#include "analysis/LinearAlgebra.h"
#include "analysis/ReferenceGroups.h"
#include "analysis/Safety.h"
#include "lint/Rule.h"
#include "support/MathExtras.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <utility>

using namespace padx;
using namespace padx::lint;

Severity LintResult::maxSeverity() const {
  Severity Max = Severity::Info;
  for (const Finding &F : Findings)
    if (!F.Suppressed && F.Sev > Max)
      Max = F.Sev;
  return Max;
}

unsigned LintResult::count(Severity S) const {
  unsigned N = 0;
  for (const Finding &F : Findings)
    N += !F.Suppressed && F.Sev == S;
  return N;
}

unsigned LintResult::numSuppressed() const {
  unsigned N = 0;
  for (const Finding &F : Findings)
    N += F.Suppressed;
  return N;
}

LintResult Linter::run(const ir::Program &P) const {
  return run(layout::originalLayout(P));
}

LintResult Linter::run(const layout::DataLayout &DL) const {
  pipeline::PadPipeline PP(DL.program());
  return run(DL, PP);
}

LintResult Linter::run(const layout::DataLayout &DL,
                       pipeline::PadPipeline &PP) const {
  assert(DL.allBasesAssigned() &&
         "lint needs a layout with assigned base addresses");
  LintResult Result;
  const MachineModel Machine = Options.machine();
  const bool Single = Machine.isSingleLevel();

  pipeline::AnalysisManager &AM = PP.analysis();
  const analysis::SafetyInfo &Safety = AM.safety();
  const std::vector<bool> &LinAlg = AM.linearAlgebraArrays();
  const std::vector<analysis::LoopGroup> &Groups = AM.referenceGroups();

  // Every set-mapped cache level is linted innermost-first; a defect
  // seen at several levels keeps the innermost copy (same rule, same
  // fingerprint key). TLB levels are skipped — the rules reason in
  // lines within a way span, which page-granular conflicts need scaled
  // differently — as are fully associative levels, which replace
  // nothing by address conflict.
  std::set<std::pair<std::string, std::string>> Reported;
  for (unsigned LI = 0; LI != Machine.numLevels(); ++LI) {
    const CacheLevel &L = Machine.Levels[LI];
    if (L.IsTlb || L.Geometry.Associativity == 0)
      continue;
    const CacheConfig &Cache = L.Geometry;
    const analysis::LatticePrediction &Prediction =
        AM.latticePrediction(DL, Cache);

    LintContext Ctx{DL, Cache, Safety, LinAlg, Groups, Prediction};
    std::vector<Finding> LevelFindings;
    for (const Rule *R : allRules())
      PP.run("lint:" + std::string(R->id()),
             [&] { R->check(Ctx, LevelFindings); });
    // Dedup across levels only: a rule may legitimately report several
    // findings under one key within a level (one conflict-pair key per
    // array pair, many reference pairs), so this level's keys join
    // Reported only after the whole level is filtered.
    std::vector<std::pair<std::string, std::string>> LevelKeys;
    for (Finding &F : LevelFindings) {
      if (Reported.count({F.RuleId, F.Key}))
        continue;
      LevelKeys.emplace_back(F.RuleId, F.Key);
      if (!Single)
        F.Level = Machine.levelName(LI);
      Result.Findings.push_back(std::move(F));
    }
    Reported.insert(LevelKeys.begin(), LevelKeys.end());
  }

  // Rank most severe first; stable, so each rule's source order is kept.
  std::stable_sort(Result.Findings.begin(), Result.Findings.end(),
                   [](const Finding &A, const Finding &B) {
                     return A.Sev > B.Sev;
                   });
  return Result;
}

layout::DataLayout lint::applyFix(const layout::DataLayout &DL,
                                  const FixIt &Fix) {
  layout::DataLayout Fixed = DL;
  switch (Fix.K) {
  case FixIt::Kind::None:
    break;
  case FixIt::Kind::IntraPad: {
    Fixed.layout(Fix.ArrayId).Dims[Fix.Dim] += Fix.PadElems;
    // Dimension growth moves every later base; re-pack like the
    // original layout does. Pre-existing inter gaps (none on packed
    // layouts, the documented input) do not survive this.
    layout::assignSequentialBases(Fixed);
    break;
  }
  case FixIt::Kind::InterGap: {
    int64_t Target = Fixed.layout(Fix.ArrayId).BaseAddr;
    assert(Target != layout::ArrayLayout::kUnassigned &&
           "fix on a layout without bases");
    for (unsigned Id = 0, E = Fixed.numArrays(); Id != E; ++Id)
      if (Fixed.layout(Id).BaseAddr >= Target)
        Fixed.layout(Id).BaseAddr += Fix.GapBytes;
    break;
  }
  }
  return Fixed;
}
