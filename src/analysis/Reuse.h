//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reuse classification of array references with respect to the
/// innermost loop, in the style of Wolf & Lam (the paper's reference
/// [23]) restricted to uniformly generated references:
///
///   * self-temporal — the address does not change with the innermost
///     index;
///   * self-spatial  — the address advances by less than a line per
///     iteration;
///   * group-temporal/group-spatial — the reference trails another
///     reference of its group at distance zero / within one line, so the
///     leader pays the misses.
///
/// This classification sets the base misses of the static miss model
/// (LatticePredictor.h), the "simplified cache miss equations" the paper
/// uses to reason about when large numbers of conflict misses occur.
///
//===----------------------------------------------------------------------===//

#ifndef PADX_ANALYSIS_REUSE_H
#define PADX_ANALYSIS_REUSE_H

#include "analysis/ReferenceGroups.h"
#include "layout/DataLayout.h"

#include <vector>

namespace padx {
namespace analysis {

enum class SelfReuse {
  None,     ///< A new line (almost) every iteration.
  Temporal, ///< Same address every iteration.
  Spatial,  ///< Same line for several consecutive iterations.
};

struct RefReuse {
  const ir::ArrayRef *Ref = nullptr;
  SelfReuse Self = SelfReuse::None;
  /// Bytes the address moves per innermost iteration (0 for temporal).
  int64_t StrideBytes = 0;
  /// Index (into GroupReuse::Refs) of the reference this one trails; its
  /// own index if it leads its class.
  size_t Leader = 0;
  /// Valid when Leader != own index.
  bool GroupTemporal = false;
  bool GroupSpatial = false;
  /// True for indirect or non-affine-stride references the analysis
  /// cannot classify (treated pessimistically by the miss model).
  bool Unanalyzable = false;
};

struct GroupReuse {
  const LoopGroup *Group = nullptr;
  std::vector<RefReuse> Refs;
};

/// Classifies every reference of \p Group under layout \p DL for a cache
/// line of \p LineBytes.
GroupReuse analyzeReuse(const layout::DataLayout &DL,
                        const LoopGroup &Group, int64_t LineBytes);

} // namespace analysis
} // namespace padx

#endif // PADX_ANALYSIS_REUSE_H
