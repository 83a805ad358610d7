//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lint rule interface and the analysis context rules run against.
/// Each rule encodes one of the paper's pad conditions as an independent
/// diagnostic (see DESIGN.md section 10 for the catalog); the Linter pass
/// manager runs them in registry order over a shared, precomputed
/// LintContext. Rules append to the accumulated finding list, which lets
/// meta-rules (unsafe-to-fix) inspect what earlier rules produced.
///
//===----------------------------------------------------------------------===//

#ifndef PADX_LINT_RULE_H
#define PADX_LINT_RULE_H

#include "analysis/LatticePredictor.h"
#include "analysis/ReferenceGroups.h"
#include "analysis/Safety.h"
#include "layout/DataLayout.h"
#include "lint/Finding.h"
#include "machine/CacheConfig.h"

#include <string_view>
#include <vector>

namespace padx {
namespace lint {

/// Everything a rule may consult, computed once per lint run. The layout
/// under analysis has all base addresses assigned (the driver lints the
/// original packed layout; tests re-lint fixed layouts).
struct LintContext {
  const layout::DataLayout &DL;
  CacheConfig Cache;
  const analysis::SafetyInfo &Safety;
  /// detectLinearAlgebraArrays: gates the LinPad rules exactly as PAD
  /// gates LinPad2, so stencil arrays are not flagged speculatively.
  const std::vector<bool> &LinAlgArrays;
  const std::vector<analysis::LoopGroup> &Groups;
  /// The static miss model's prediction for this layout. conflict-pair
  /// takes Error vs Warning from the thrashing nests of the conflict's
  /// loop; predicted-conflict-volume ranks array pairs by it.
  const analysis::LatticePrediction &Prediction;

  const ir::Program &program() const { return DL.program(); }
};

/// One lint rule. Implementations are stateless singletons owned by the
/// registry; check() may read findings earlier rules appended but must
/// not mutate them (the unsafe-to-fix meta-rule is the one exception,
/// documented there).
class Rule {
public:
  virtual ~Rule() = default;

  /// Stable identifier used in output, baselines and SARIF, e.g.
  /// "conflict-pair".
  virtual std::string_view id() const = 0;

  /// One-line description for --list-rules and SARIF rule metadata.
  virtual std::string_view summary() const = 0;

  /// The paper condition the rule encodes, for documentation output.
  virtual std::string_view paperCondition() const = 0;

  virtual void check(const LintContext &Ctx,
                     std::vector<Finding> &Findings) const = 0;
};

/// All registered rules in execution order (meta-rules last).
const std::vector<const Rule *> &allRules();

/// Looks a rule up by id; nullptr when unknown.
const Rule *findRule(std::string_view Id);

} // namespace lint
} // namespace padx

#endif // PADX_LINT_RULE_H
