//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Groups array references by the loop whose iterations they repeat in.
/// The paper's severe conflict misses are flushes happening on *every
/// iteration of a loop*, so the pad conditions of InterPad and IntraPad
/// compare pairs of references executed together in one iteration of the
/// same (innermost enclosing) loop.
///
//===----------------------------------------------------------------------===//

#ifndef PADX_ANALYSIS_REFERENCEGROUPS_H
#define PADX_ANALYSIS_REFERENCEGROUPS_H

#include "ir/Program.h"

#include <vector>

namespace padx {
namespace analysis {

/// One reference instance together with its enclosing loop chain
/// (outermost first). Pointers reference the analyzed Program and stay
/// valid as long as it does.
struct RefInstance {
  const ir::ArrayRef *Ref = nullptr;
  const ir::Assign *Stmt = nullptr;
  std::vector<const ir::Loop *> Nest;

  /// The innermost enclosing loop (nullptr for top-level statements).
  const ir::Loop *innermost() const {
    return Nest.empty() ? nullptr : Nest.back();
  }
};

/// All references whose innermost enclosing loop is `Innermost`. One
/// iteration of that loop executes every reference in the group once, so
/// any two of them can produce a severe conflict.
struct LoopGroup {
  const ir::Loop *Innermost = nullptr;
  std::vector<const ir::Loop *> Nest;
  std::vector<RefInstance> Refs;
};

/// Collects one LoopGroup per loop that directly contains assignments.
/// Top-level assignments (outside any loop) execute once and cannot cause
/// severe conflicts; they are not grouped.
std::vector<LoopGroup> collectLoopGroups(const ir::Program &P);

/// Body executions of every group's innermost loop, aligned with
/// \p Groups. The outer loops are enumerated exactly and the innermost
/// trip count, a closed form of its affine bounds, is summed over them,
/// so triangular nests count exactly. Past 10M enumerated outer
/// iterations the rest of a nest falls back to a midpoint product: each
/// remaining outer loop contributes its trip count, with its index fixed
/// at the midpoint of its range for the loops inside it. Depends only on
/// the program (trip counts never involve a base address or a padded
/// dimension), so a pipeline::AnalysisManager computes this once per
/// program and reuses it across layouts.
std::vector<double>
countGroupIterations(const std::vector<LoopGroup> &Groups);

} // namespace analysis
} // namespace padx

#endif // PADX_ANALYSIS_REFERENCEGROUPS_H
