//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A memoizing manager for the analyses every padx consumer runs. Before
/// it existed, core/Padding, lint/Linter, search/CostModel and the
/// experiment harness each re-derived reference groups, safety flags and
/// conflict reports from scratch per call — the search engine recomputed
/// layout-independent analyses once per *candidate*. The manager caches:
///
///  - program-level results (reference groups, iteration counts, safety,
///    linear-algebra flags, uniform-reference percentage), computed once
///    per program — no layout or cache geometry involved;
///  - layout-dependent results (severe-conflict report, lattice
///    prediction), keyed by a fingerprint of (cache geometry,
///    base addresses, padded dimensions). A multi-level machine is
///    queried one level at a time, so one level's entry serves every
///    machine that has that level's geometry.
///
/// Every kind goes through one private routine, memo(), which owns the
/// whole caching policy: a local hit, else a shared hit (when a
/// SharedAnalysisCache is attached and the kind is value-only), else a
/// timed computation that is published back to the shared cache. A
/// kind's Seconds is its self time: a computation that queries another
/// kind (the lattice prediction needs the iteration counts) is not
/// charged for the nested one.
///
/// Invalidation contract (DESIGN.md section 11): the manager never
/// observes layout mutation. A caller that mutates a DataLayout in place
/// and re-queries under the same fingerprint would read stale results —
/// call invalidateLayoutResults() after mutating. Callers that only ever
/// query fresh DataLayout objects (the search engine: one object per
/// candidate) need no invalidation; distinct layouts have distinct
/// fingerprints. Program-level results survive invalidation by design —
/// that asymmetry is the point of the split.
///
/// Locking model (DESIGN.md section 12): one internal mutex guards the
/// result slots, the layout map with its kMaxLayoutEntries overflow
/// sweep, and every hit/miss/invalidated counter, so concurrent queries
/// against one manager cannot corrupt the cache, lose the sweep, or
/// drop counter updates. Public accessors take the lock once;
/// dependencies resolve through private *Locked helpers. What the lock
/// does NOT extend is reference lifetime: the validity rules below are
/// unchanged, so a thread must not hold a returned reference across
/// another thread's sweep or invalidation. The *intended* concurrency
/// model is therefore still one manager per request/thread — the padd
/// daemon gives every request its own manager and shares work through
/// an attached SharedAnalysisCache (immutable results behind
/// shared_ptr, sharded mutexes), which is where cross-request reuse
/// actually pays. stats() returns a live reference for the owning
/// thread; cross-thread observers use statsSnapshot(), which copies
/// under the lock.
///
/// Shared results are copied out, never aliased, and the shared cache
/// is only consulted when this manager's own caching is enabled —
/// EnableCache=false stays a true recompute-everything baseline.
///
/// Returned references are valid until the next invalidateLayoutResults()
/// or, for layout-keyed results, until the entry cap forces an eviction
/// sweep — so read a layout-keyed result before the next layout query.
/// With caching disabled (the benchmark baseline), every query
/// recomputes and a returned reference is only valid until the next
/// query of the same kind.
///
//===----------------------------------------------------------------------===//

#ifndef PADX_PIPELINE_ANALYSISMANAGER_H
#define PADX_PIPELINE_ANALYSISMANAGER_H

#include "analysis/ConflictReport.h"
#include "analysis/LatticePredictor.h"
#include "analysis/ReferenceGroups.h"
#include "analysis/Reuse.h"
#include "analysis/Safety.h"
#include "layout/DataLayout.h"
#include "machine/MachineModel.h"

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

namespace padx {
namespace pipeline {

class SharedAnalysisCache;

/// Every analysis the manager knows how to cache.
enum class AnalysisKind : unsigned {
  ReferenceGroups,
  IterationCounts,
  Safety,
  LinearAlgebra,
  UniformRefs,
  ConflictReport,
  LatticePrediction, ///< Keep last: it sizes kNumAnalysisKinds.
};
inline constexpr unsigned kNumAnalysisKinds =
    static_cast<unsigned>(AnalysisKind::LatticePrediction) + 1;

/// Stable lowercase-hyphen name, e.g. "reference-groups" (stats output).
const char *analysisKindName(AnalysisKind K);

/// Hit/miss accounting for one analysis kind. Seconds accumulates only
/// over actual computations (misses), as self time, so Seconds / Misses
/// is the mean cost of the analysis and Hits * (Seconds / Misses)
/// estimates the time the cache saved. SharedHits counts results served
/// from an attached SharedAnalysisCache — cross-request reuse, distinct
/// from both local hits and misses.
struct AnalysisCounters {
  uint64_t Hits = 0;
  uint64_t SharedHits = 0;
  uint64_t Misses = 0;
  uint64_t Invalidated = 0;
  double Seconds = 0;
};

struct AnalysisStats {
  std::array<AnalysisCounters, kNumAnalysisKinds> Kinds;
  /// Unscored nests (NestPrediction::Unscored) accumulated over every
  /// lattice prediction this manager *computed*, once per computed
  /// level — cache hits do not re-count. Zero predicted misses with a
  /// nonzero count here means "couldn't score", not "no conflicts".
  uint64_t PredictorUnscored = 0;

  const AnalysisCounters &of(AnalysisKind K) const {
    return Kinds[static_cast<unsigned>(K)];
  }
  uint64_t totalHits() const;
  uint64_t totalSharedHits() const;
  uint64_t totalMisses() const;
  uint64_t totalInvalidated() const;

  /// Pointwise sum (padlint aggregates per-file pipelines).
  void merge(const AnalysisStats &Other);
};

class AnalysisManager {
public:
  /// The manager keeps a reference to \p P, which must outlive it. With
  /// \p EnableCache false every query recomputes — the measured baseline
  /// for bench/analysis_cache and the reference result for the
  /// consistency tests.
  explicit AnalysisManager(const ir::Program &P, bool EnableCache = true);
  AnalysisManager(ir::Program &&, bool = true) = delete;

  const ir::Program &program() const { return *Prog; }
  bool cacheEnabled() const { return EnableCache; }

  /// Attaches the cross-request cache: local misses consult \p Shared
  /// (keyed by this program's fingerprint) and local computations are
  /// published back. \p Shared must outlive the manager. Fingerprinting
  /// prints the program once; attach before the first query.
  void attachSharedCache(SharedAnalysisCache *Shared);

  /// \name Program-level analyses (layout-independent)
  /// @{
  const std::vector<analysis::LoopGroup> &referenceGroups();
  /// Aligned with referenceGroups().
  const std::vector<double> &iterationCounts();
  const analysis::SafetyInfo &safety();
  const std::vector<bool> &linearAlgebraArrays();
  double percentUniformRefs();
  /// @}

  /// \name Layout-dependent analyses
  /// Keyed by (cache geometry, base addresses, padded dims). \p DL must
  /// view the manager's program.
  /// @{
  /// Severe entries only (SevereOnly=true), which is what the padding
  /// repair move and the lint rules consume.
  const std::vector<analysis::ConflictEntry> &
  severeConflicts(const layout::DataLayout &DL, const CacheConfig &Cache);
  /// The static miss model (analysis::predictConflicts): the
  /// simulation-free tier behind search pre-screening, the lint rules'
  /// severities and `padtool --estimate`. Multi-level consumers query it
  /// once per level.
  const analysis::LatticePrediction &
  latticePrediction(const layout::DataLayout &DL,
                    const CacheConfig &Cache);
  /// @}

  /// \name Un-memoized pass-throughs
  /// Kept only because perfbench/ calls them; they go with the next
  /// change to perfbench/ (ROADMAP item 4). Each computes on every call
  /// from the memoized reference groups (and iteration counts), has no
  /// cache slot or counters of its own, and returns by value.
  /// @{
  /// Reuse classes per loop group, aligned with referenceGroups(); the
  /// group pointers stay valid while those groups stay cached.
  std::vector<analysis::GroupReuse> reuse(const layout::DataLayout &DL,
                                          const CacheConfig &Cache);
  /// analysis::predictConflicts over every level of \p Machine.
  analysis::MachinePrediction
  machineLatticePrediction(const layout::DataLayout &DL,
                           const MachineModel &Machine);
  /// analysis::predictConflicts on one geometry. It neither reads nor
  /// fills the lattice-prediction slot, so perfbench's separate timing
  /// of latticePrediction() still sees a cold computation.
  analysis::LatticePrediction missEstimate(const layout::DataLayout &DL,
                                           const CacheConfig &Cache);
  /// @}

  /// Drops every layout-keyed result; program-level results stay. Call
  /// after mutating a DataLayout in place (lint --fix, manual base
  /// edits). Counts each dropped result as Invalidated.
  void invalidateLayoutResults();

  /// Live counters, for the owning thread (tests watch these update
  /// across queries). Cross-thread observers use statsSnapshot().
  const AnalysisStats &stats() const { return Stats; }
  /// Copy of the counters taken under the manager's lock — safe while
  /// other threads query this manager.
  AnalysisStats statsSnapshot() const;

  /// Cap on distinct layout fingerprints held at once. A hill-climbing
  /// search re-visits recent layouts but never needs an unbounded
  /// history; on overflow the whole layout cache is swept (counted as
  /// Invalidated), which is simpler than LRU and just as good for the
  /// access pattern.
  static constexpr size_t kMaxLayoutEntries = 128;

private:
  /// Results cached per layout fingerprint. Each slot is filled lazily
  /// on first query of that kind under that fingerprint.
  struct LayoutEntry {
    std::optional<std::vector<analysis::ConflictEntry>> Severe;
    std::optional<analysis::LatticePrediction> Lattice;
  };

  using LayoutKey = std::vector<int64_t>;
  static LayoutKey makeKey(const layout::DataLayout &DL,
                           const CacheConfig &Cache);

  /// The caching policy, the only place it is written down: returns
  /// \p Slot if it holds a result (a hit), else the shared cache's copy
  /// under \p SharedSlot (a shared hit; pass nullptr for kinds that carry
  /// IR pointers and so must stay local), else stores \p Compute()'s
  /// result in \p Slot, charges its self time to \p K and publishes a
  /// copy. \p Key is the layout key, null for program-level kinds.
  template <typename T, typename SharedSlotT, typename ComputeFn>
  const T &memo(AnalysisKind K, std::optional<T> &Slot, const LayoutKey *Key,
                SharedSlotT SharedSlot, ComputeFn Compute);

  /// \name Lock-held implementations.
  /// Public accessors take the lock once and forward here; computations
  /// resolve their dependencies through these without re-locking.
  /// @{
  const std::vector<analysis::LoopGroup> &referenceGroupsLocked();
  const std::vector<double> &iterationCountsLocked();
  LayoutEntry &layoutEntryLocked(const LayoutKey &Key);
  void invalidateLayoutResultsLocked();
  /// @}

  const ir::Program *Prog;
  bool EnableCache;
  AnalysisStats Stats;
  /// Wall time of the computations nested inside the one memo() is
  /// timing, subtracted from its kind's Seconds.
  double NestedSeconds = 0;

  /// Guards everything below plus Stats and NestedSeconds. See the
  /// locking model in the file comment.
  mutable std::mutex M;

  // Program-level slots. With caching disabled these are recomputed and
  // overwritten per query (distinct kinds never alias).
  std::optional<std::vector<analysis::LoopGroup>> Groups;
  std::optional<std::vector<double>> Iterations;
  std::optional<analysis::SafetyInfo> Safety;
  std::optional<std::vector<bool>> LinAlg;
  std::optional<double> UniformPct;

  std::map<LayoutKey, LayoutEntry> LayoutCache;
  LayoutEntry Scratch; // EnableCache == false

  SharedAnalysisCache *Shared = nullptr;
  uint64_t SharedFP = 0;
};

} // namespace pipeline
} // namespace padx

#endif // PADX_PIPELINE_ANALYSISMANAGER_H
