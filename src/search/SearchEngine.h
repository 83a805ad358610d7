//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Simulation-guided padding search: a greedy hill-climb with restarts
/// over the joint space of inter-variable base gaps and intra-variable
/// dimension pads. Candidates are seeded from the closed-form heuristics
/// (so the result is never worse than PAD), neighbors are proposed by
/// the CandidateGenerator, cheap static estimation prunes unpromising
/// ones, and the survivors are scored exactly by trace-driven simulation
/// — one candidate per task, concurrently, on a support::ThreadPool. A
/// per-search memo keyed on what replay reads, translated to a canonical
/// origin, lets a survivor that replays a whole-period shift of an
/// already scored layout reuse that score instead of simulating.
///
/// Determinism contract: for a fixed program, options and seed the
/// result is bit-identical for every thread count. All randomness runs
/// on the single-threaded generation side; parallel evaluations are
/// pure, keyed by submission index, and reduced in index order with ties
/// broken toward the lower index.
///
//===----------------------------------------------------------------------===//

#ifndef PADX_SEARCH_SEARCHENGINE_H
#define PADX_SEARCH_SEARCHENGINE_H

#include "machine/MachineModel.h"
#include "search/Candidate.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace padx {
namespace pipeline {
class PadPipeline;
} // namespace pipeline

namespace search {

struct SearchOptions {
  /// Machine model to optimize for. The climb ranks by the weighted
  /// per-level miss cost sum_l Weight_l * Misses_l, which on the
  /// default one-level machine is the plain miss count (--machine /
  /// --weights on the tools).
  MachineModel Machine = MachineModel::base16K();

  /// Maximum exact (simulation) evaluations — the search's time budget.
  /// Raised to the seed count when smaller: the baselines always run.
  unsigned EvalBudget = 48;
  /// Worker threads for candidate evaluation; 0 = hardware concurrency.
  unsigned Threads = 1;
  /// RNG seed for neighbor proposals and restart perturbations.
  uint64_t Seed = 0;

  /// Extra warm-start layouts, evaluated alongside the heuristic seeds
  /// (exempt from static pruning, like every seed). Each is projected
  /// into candidate coordinates and clamped to the safety analysis; a
  /// layout produced by a previous search on the same program projects
  /// losslessly, so chaining searches — e.g. re-optimizing an L1-only
  /// result under a multi-level objective — never returns a worse cost
  /// than the warm start.
  std::vector<layout::DataLayout> SeedLayouts;

  /// Wall-clock deadline in seconds (0 = none; +inf never expires). The
  /// seed evaluations always run — they carry the "never worse than
  /// PAD" guarantee — but the climb stops at the deadline and the
  /// best-so-far candidate is returned with a DeadlineExpired outcome.
  double DeadlineSeconds = 0;

  /// Optional cancellation token polled between evaluation batches. Set
  /// it to true from another thread (a signal handler, a serving
  /// front end shedding load) to stop the climb at the next batch
  /// boundary with a Cancelled outcome.
  const std::atomic<bool> *Cancel = nullptr;
};

/// Why the search stopped. Everything except Completed is a degraded
/// stop: the result is still valid (never worse than the PAD seed), the
/// climb just did not run to convergence.
enum class SearchOutcome {
  Completed,        ///< Converged: neighborhood exhausted or no knobs.
  BudgetExhausted,  ///< Used every exact evaluation the budget allowed.
  DeadlineExpired,  ///< Hit SearchOptions::DeadlineSeconds.
  Cancelled,        ///< The cancellation token was set.
  EvaluationFailed, ///< A cost-model task threw (e.g. out of memory).
};

const char *outcomeName(SearchOutcome O);

struct SearchResult {
  /// Winning candidate and its materialized layout.
  Candidate Best;
  layout::DataLayout BestLayout;

  /// Why the search stopped, with a human-readable reason in
  /// OutcomeDetail (e.g. "deadline of 0.5s expired after 12
  /// evaluations").
  SearchOutcome Outcome = SearchOutcome::Completed;
  std::string OutcomeDetail;

  /// Exact (simulated) scores: weighted per-level miss costs
  /// (sum_l Weight_l * Misses_l) — the quantity the climb ranks by —
  /// with the unweighted per-level counts in the Level* arrays below.
  /// On a unit-weight single-level machine the costs are miss counts.
  /// Accesses counts the first cache level.
  double BestMisses = 0;
  uint64_t Accesses = 0;
  double OriginalMisses = 0;
  double PadMisses = 0; ///< The PAD heuristic baseline.

  /// Per-level breakdowns, aligned with each other: level names from
  /// the machine model and unweighted simulated misses for the best,
  /// original and PAD layouts. Singleton vectors on a single-level
  /// machine.
  std::vector<std::string> LevelNames;
  std::vector<double> BestLevelMisses;
  std::vector<double> OriginalLevelMisses;
  std::vector<double> PadLevelMisses;
  /// Index into the Level* arrays of the first cache level — the level
  /// Accesses counts.
  unsigned FirstCacheLevel = 0;

  /// First-cache-level miss rates in percent: that level's unweighted
  /// misses over Accesses, so never above 100 whatever the weights.
  double bestPercent() const { return percent(BestLevelMisses); }
  double originalPercent() const { return percent(OriginalLevelMisses); }
  double padPercent() const { return percent(PadLevelMisses); }

  // Search statistics for the report.
  unsigned CandidatesGenerated = 0; ///< Proposed, including duplicates.
  unsigned DuplicatesSkipped = 0;
  unsigned PrunedStatic = 0; ///< Skipped on the static model's verdict.
  /// Exact scores the climb consumed, the budget's unit: every one
  /// counts, whether it was simulated or reused from an earlier layout
  /// of the same score key (SimulationCostModel::scoreKey).
  unsigned ExactEvaluations = 0;
  /// The simulations that actually ran: ExactEvaluations minus the
  /// scores reused within this search, because their layout replays a
  /// whole-period shift of one already scored.
  unsigned SimulatedEvaluations = 0;
  unsigned Rounds = 0;
  unsigned Restarts = 0;
  /// Candidates scored per exact evaluation: always 1, since the search
  /// replays one candidate at a time. Kept only because perfbench reads
  /// it for its search.batch_width metric.
  unsigned BatchWidth = 1;
  /// Wall-clock seconds spent inside exact-evaluation batches: score
  /// keys, memo lookups and the simulations that ran. ExactEvaluations
  /// over it is the candidates/sec the tools report, which counts reused
  /// scores as well, so it rises with the share of reused scores.
  double ExactEvalSeconds = 0;

  /// One line per accepted improvement, for --report style output.
  std::vector<std::string> Log;

  explicit SearchResult(layout::DataLayout Layout)
      : BestLayout(std::move(Layout)) {}

private:
  double percent(const std::vector<double> &LevelMisses) const {
    return Accesses == 0 || FirstCacheLevel >= LevelMisses.size()
               ? 0.0
               : 100.0 * LevelMisses[FirstCacheLevel] /
                     static_cast<double>(Accesses);
  }
};

/// Runs the search on \p P. \p P must outlive the result (the layout
/// references it). Builds a private memoizing pipeline and forwards to
/// the overload below.
SearchResult runSearch(const ir::Program &P, const SearchOptions &Opts);
SearchResult runSearch(ir::Program &&, const SearchOptions &) = delete;

/// As above through an instrumented pipeline over the same program: the
/// heuristic seeds, static pruning, and greedy repair all route through
/// \p PP.analysis(), and the climb is recorded as a "search" pass in
/// \p PP's stats. The manager is only ever touched from the calling
/// thread — the pool workers run the simulation model, which never uses
/// it — so the engine's determinism contract is unchanged.
SearchResult runSearch(const ir::Program &P, const SearchOptions &Opts,
                       pipeline::PadPipeline &PP);
SearchResult runSearch(ir::Program &&, const SearchOptions &,
                       pipeline::PadPipeline &) = delete;

} // namespace search
} // namespace padx

#endif // PADX_SEARCH_SEARCHENGINE_H
