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
/// — one candidate per task, concurrently, on a support::ThreadPool.
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

/// Two-tier candidate evaluation: statically score every proposed
/// neighbor with the lattice predictor and replay only the top fraction
/// through the simulator. Off keeps the classic slack-based pruning;
/// Auto enables pre-screening whenever the predictor can see the
/// program (it has analyzable references), falling back to Off
/// otherwise.
enum class PrescreenMode { Off, On, Auto };

const char *prescreenModeName(PrescreenMode M);

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
  /// (exempt from pre-screening, like every seed). Each is projected
  /// into candidate coordinates and clamped to the safety analysis; a
  /// layout produced by a previous search on the same program projects
  /// losslessly, so chaining searches — e.g. re-optimizing an L1-only
  /// result under a multi-level objective — never returns a worse cost
  /// than the warm start.
  std::vector<layout::DataLayout> SeedLayouts;

  /// Two-tier pre-screened evaluation (--prescreen on the tools): each
  /// round replays only the statically best-ranked half of its fresh
  /// candidates. The seed candidates are exempt — they always replay,
  /// preserving the "never worse than PAD" guarantee.
  PrescreenMode Prescreen = PrescreenMode::Off;

  /// Wall-clock deadline in seconds (0 = none). The seed evaluations
  /// always run — they carry the "never worse than PAD" guarantee — but
  /// the climb stops at the deadline and the best-so-far candidate is
  /// returned with a DeadlineExpired outcome.
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
  /// True when the two-tier pre-screen ran (Prescreen=On, or Auto with
  /// a predictor-visible program); PrescreenSkipped counts candidates
  /// it kept away from the simulator (a subset of PrunedStatic).
  bool PrescreenActive = false;
  unsigned PrescreenSkipped = 0;
  unsigned ExactEvaluations = 0;
  unsigned Rounds = 0;
  unsigned Restarts = 0;
  /// Candidates scored per exact evaluation: always 1, since the search
  /// replays one candidate at a time. Kept only because perfbench reads
  /// it for its search.batch_width metric.
  unsigned BatchWidth = 1;
  /// Wall-clock seconds spent inside exact-evaluation batches; with
  /// ExactEvaluations this yields the candidates/sec the tools report.
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
