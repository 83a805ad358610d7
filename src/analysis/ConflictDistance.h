//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Subscript linearization and conflict distances — the paper's
/// Expressions (1) and (2). For two references whose address difference is
/// the same on every loop iteration, the conflict distance is that
/// difference folded modulo the cache size; a distance below the line size
/// means the pair contends for the same cache line every iteration (a
/// severe conflict on a direct-mapped cache).
///
//===----------------------------------------------------------------------===//

#ifndef PADX_ANALYSIS_CONFLICTDISTANCE_H
#define PADX_ANALYSIS_CONFLICTDISTANCE_H

#include "analysis/ReferenceGroups.h"
#include "ir/Program.h"
#include "layout/DataLayout.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace padx {
namespace analysis {

/// One reference's byte address as an integer affine form over a fixed
/// list of index variables i_k:
///   ConstBytes + sum_k CoeffBytes[k] * i_k.
struct LinearForm {
  /// False for an indirect reference, whose address is not affine; the
  /// other fields are then empty.
  bool Affine = false;
  int64_t ConstBytes = 0;
  std::vector<int64_t> CoeffBytes;
};

/// The forms of every reference of \p G under \p DL's base addresses,
/// aligned with G.Refs, over the group's nest variables (G.Nest,
/// outermost first, so CoeffBytes.back() belongs to the innermost
/// loop). Each is built with integer multiply-adds from the subscripts,
/// the lower bounds, the padded strides, the element size and the base,
/// so a pairwise scan builds the forms once per group and compares
/// integers. A subscript naming a variable outside the nest (which the
/// validator rejects) leaves its reference non-affine.
std::vector<LinearForm> linearizeGroup(const layout::DataLayout &DL,
                                       const LoopGroup &G);

/// Constant byte distance (address of \p A) - (address of \p B) of two
/// forms over the same variables. Two references have a constant
/// distance exactly when their coefficient rows are equal, and it is the
/// difference of their constants; std::nullopt otherwise, or when either
/// form is not affine. For forms from linearizeGroup this equals
/// iterationDistanceBytes of the two references.
std::optional<int64_t> constantDistance(const LinearForm &A,
                                        const LinearForm &B);

/// Byte distance (address of \p R1) - (address of \p R2) evaluated with
/// explicit base addresses, when that distance is the same on every
/// iteration; std::nullopt when the difference still depends on a loop
/// variable (non-uniform pair, e.g. arrays that stopped conforming after
/// intra-padding) or when either reference is indirect.
///
/// This is Expression (1) of the paper; with \p Base1 == \p Base2 == 0 and
/// R1, R2 referencing the same array it reduces to Expression (2).
std::optional<int64_t> iterationDistanceBytes(const layout::DataLayout &DL,
                                              const ir::ArrayRef &R1,
                                              const ir::ArrayRef &R2,
                                              int64_t Base1, int64_t Base2);

/// Convenience overload taking both base addresses from \p DL (they must
/// be assigned).
std::optional<int64_t> iterationDistanceBytes(const layout::DataLayout &DL,
                                              const ir::ArrayRef &R1,
                                              const ir::ArrayRef &R2);

/// Conflict distance of a byte distance \p DistanceBytes with respect to a
/// cache of \p CacheBytes: the symmetric distance to the nearest multiple
/// of the cache size, min(d mod C, C - d mod C).
int64_t conflictDistance(int64_t DistanceBytes, int64_t CacheBytes);

} // namespace analysis
} // namespace padx

#endif // PADX_ANALYSIS_CONFLICTDISTANCE_H
