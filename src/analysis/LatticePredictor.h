//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// padx's static miss model: the "simplified cache miss equations" the
/// paper uses to spot severe conflicts, with the conflict term computed
/// on the cache-associativity lattice. Each nest's reuse classes
/// (Reuse.h) set a floor of base misses per iteration, and the lattice
/// adds what conflicts cost on top of it.
///
/// Two addresses contend for the same cache set exactly when
/// their difference lies within one line of the set-mapping lattice
/// Lambda = waySpanBytes * Z (waySpanBytes = SizeBytes / Associativity;
/// the whole cache for a direct-mapped one). For every uniform reference
/// pair in a loop group, the per-iteration address difference d is a
/// single lattice point of the pair's address-difference lattice, so the
/// intersection test is closed-form: the shortest vector from d into
/// Lambda is conflictDistance(d, waySpan), and the pair collides when
/// that falls below the line size while |d| spans at least one line.
///
/// Colliding pairs are clustered (union-find); a cluster overflows its
/// set — and every reuse class in it thrashes — when it holds more
/// distinct reuse classes than the associativity can retain. A thrashing
/// class leader loses whatever reuse it had: its conflict charge is
/// 1 - baseline misses/iteration. Charges are attributed back to
/// colliding array pairs (each edge takes its endpoints' charge divided
/// by their collision degree), so per-pair conflict volumes sum exactly
/// to the per-nest and program totals.
///
/// On direct-mapped caches the lattice test is exact; on set-associative
/// ones the shortest-vector bound is the standard over-approximation
/// (it ignores replacement order within a set). The result is a plain
/// value — names, ids and doubles, no IR pointers — so it is shareable
/// across requests through the daemon's SharedAnalysisCache.
///
//===----------------------------------------------------------------------===//

#ifndef PADX_ANALYSIS_LATTICEPREDICTOR_H
#define PADX_ANALYSIS_LATTICEPREDICTOR_H

#include "analysis/ReferenceGroups.h"
#include "layout/DataLayout.h"
#include "machine/MachineModel.h"

#include <cstdint>
#include <string>
#include <vector>

namespace padx {
namespace analysis {

/// Predicted conflict volume between two arrays in one loop nest. One
/// entry per (innermost loop, unordered array pair) with at least one
/// thrashing collision; A == B records self-interference.
struct PairConflict {
  unsigned ArrayA = 0; ///< Program array ids, ArrayA <= ArrayB.
  unsigned ArrayB = 0;
  std::string NameA; ///< Array names (value-only, printable as-is).
  std::string NameB;
  std::string LoopVar; ///< Innermost loop variable of the nest.
  /// Representative constant per-iteration address difference of the
  /// pair's colliding references and its shortest vector into the
  /// set-mapping lattice (< LineBytes by construction). Both are
  /// magnitudes: direction is meaningless once the pair is ordered.
  int64_t DistanceBytes = 0;
  int64_t LatticeDistanceBytes = 0;
  /// Colliding reference-class edges folded into this row.
  unsigned Collisions = 0;
  double PredictedConflictMisses = 0;
};

/// Per-nest breakdown, one per loop group in collectLoopGroups order.
struct NestPrediction {
  std::string LoopVar;
  double Iterations = 0;
  unsigned RefsPerIteration = 0;
  /// Reuse-only misses/iteration — the floor a conflict-free layout of
  /// this nest would achieve.
  double BaseMissesPerIteration = 0;
  /// Lattice-attributed extra misses/iteration on top of the floor.
  double ConflictMissesPerIteration = 0;
  /// True when some collision cluster overflows its cache set. Lint's
  /// conflict-pair rule takes its severity from the thrashing nests.
  bool Thrashing = false;
  /// True when the nest could not be scored because its iteration count
  /// came out zero, so every per-nest number above is zero as "no
  /// signal", not "no misses". countGroupIterations enumerates outer
  /// loops exactly, so triangular nests (DGEFA, CHOL, MULT) are counted
  /// and scored. Consumers that compare predicted misses
  /// (bench/model_accuracy, the `unscored_nests` counters) use this to
  /// tell the two apart.
  bool Unscored = false;
};

/// The predictor's result for one (program, geometry, layout) triple.
struct LatticePrediction {
  std::vector<NestPrediction> Nests;
  std::vector<PairConflict> Pairs;
  double PredictedAccesses = 0;
  /// Total predicted misses: base plus conflict, summed over nests of
  /// Iterations * (BaseMissesPerIteration + ConflictMissesPerIteration).
  double PredictedMisses = 0;
  /// The conflict component alone — comparable to the simulator's
  /// classified conflict misses (sim::MissBreakdown::Conflict).
  double PredictedConflictMisses = 0;
  /// Nests with NestPrediction::Unscored set — the "couldn't score"
  /// count surfaced as predictor_unscored in padtool / paddctl / padd
  /// stats.
  unsigned UnscoredNests = 0;

  double predictedMissRatePercent() const {
    return PredictedAccesses == 0
               ? 0.0
               : 100.0 * PredictedMisses / PredictedAccesses;
  }
  double conflictRatePercent() const {
    return PredictedAccesses == 0
               ? 0.0
               : 100.0 * PredictedConflictMisses / PredictedAccesses;
  }
};

/// Predicts conflict misses of \p DL's program on \p Cache without
/// simulation. Scalar references are excluded (register promotion, as in
/// the trace generator); indirect references contribute misses but never
/// join collision clusters.
LatticePrediction predictConflicts(const layout::DataLayout &DL,
                                   const CacheConfig &Cache);

/// As above with the layout-independent inputs precomputed: \p Groups
/// from collectLoopGroups(DL.program()) and \p Iterations from
/// countGroupIterations(Groups). Bit-identical to the two-argument
/// overload, which forwards here.
LatticePrediction predictConflicts(const layout::DataLayout &DL,
                                   const CacheConfig &Cache,
                                   const std::vector<LoopGroup> &Groups,
                                   const std::vector<double> &Iterations);

/// One machine level's lattice terms.
struct MachineLevelPrediction {
  std::string Level; ///< Effective level name ("l1", "l2", "tlb", ...).
  bool IsTlb = false;
  double Weight = 1.0;
  LatticePrediction Prediction;
};

/// Per-level lattice prediction for a whole machine plus the weighted
/// aggregate, which equals search::StaticCostModel's cost (the model
/// sums the same per-level terms itself). Every level is scored
/// against the full reference stream — outer levels really see only the
/// filtered misses of the level above, so their absolute terms are an
/// over-approximation, but the lattice collision structure (which pairs
/// alias, and where) is what the ranking needs and that is per-level
/// exact. Value-only, like LatticePrediction.
struct MachinePrediction {
  std::vector<MachineLevelPrediction> Levels;
  /// Sum over levels of Weight * PredictedMisses (resp. the conflict
  /// component) — the static analogue of the weighted simulation cost.
  double WeightedMisses = 0;
  double WeightedConflictMisses = 0;
  /// Same for every level (unscorability is a property of the nest, not
  /// the geometry); hoisted so callers need not pick a level.
  unsigned UnscoredNests = 0;
};

/// Per-level predictConflicts over every level of \p Machine.
MachinePrediction predictConflicts(const layout::DataLayout &DL,
                                   const MachineModel &Machine);
MachinePrediction predictConflicts(const layout::DataLayout &DL,
                                   const MachineModel &Machine,
                                   const std::vector<LoopGroup> &Groups,
                                   const std::vector<double> &Iterations);

} // namespace analysis
} // namespace padx

#endif // PADX_ANALYSIS_LATTICEPREDICTOR_H
