//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "search/SearchEngine.h"

#include "pipeline/PadPipeline.h"
#include "search/CandidateGenerator.h"
#include "search/CostModel.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <limits>
#include <map>
#include <set>
#include <sstream>

using namespace padx;
using namespace padx::search;

namespace {

/// Consecutive rounds allowed to produce no evaluable candidate (all
/// duplicates) before the search concludes the neighborhood is
/// exhausted. Purely a liveness guard; budget is the real bound.
constexpr unsigned kMaxDryRounds = 16;
/// Neighbors proposed per hill-climb round.
constexpr unsigned kNeighborsPerRound = 8;
/// Rounds without improvement before restarting from a perturbed seed.
constexpr unsigned kMaxStaleRounds = 2;
/// Random moves applied to a seed on restart.
constexpr unsigned kRestartPerturbMoves = 3;
/// Prune candidates whose static estimate exceeds the incumbent's by
/// this factor before paying for simulation.
constexpr double kPruneSlack = 1.10;

} // namespace

const char *search::outcomeName(SearchOutcome O) {
  switch (O) {
  case SearchOutcome::Completed:
    return "completed";
  case SearchOutcome::BudgetExhausted:
    return "budget exhausted";
  case SearchOutcome::DeadlineExpired:
    return "deadline expired";
  case SearchOutcome::Cancelled:
    return "cancelled";
  case SearchOutcome::EvaluationFailed:
    return "evaluation failed";
  }
  return "unknown";
}

namespace {

/// The climb itself. Callers wrap this in a "search" pipeline pass; the
/// generator's seeds and the static pruner share \p PP's analysis
/// manager, while the simulation model (the only thing the pool touches)
/// stays manager-free.
SearchResult runSearchImpl(const ir::Program &P, const SearchOptions &Opts,
                           pipeline::PadPipeline &PP) {
  const MachineModel &Machine = Opts.Machine;
  CandidateGenerator Gen(P, Machine, PP);
  for (const layout::DataLayout &DL : Opts.SeedLayouts)
    Gen.addSeedLayout(DL);
  SimulationCostModel Exact(Machine);
  Exact.prepareReplay(P);
  StaticCostModel Static(Machine, PP.analysis());
  ThreadPool Pool(Opts.Threads);
  std::mt19937_64 Rng(Opts.Seed);

  const std::vector<Candidate> &Seeds = Gen.seeds();
  SearchResult R(materialize(P, Seeds[Gen.padSeedIndex()]));
  if (!Exact.usingReplay())
    R.Log.push_back("exact scores by the direct walk (replay declined: " +
                    Exact.replayDeclined() + ")");

  // Exact-scores a batch. A candidate whose score key this search has
  // already scored reuses that sample (equal keys replay the same
  // addresses up to a whole-period shift, which no level can tell
  // apart); the first candidate of each new key simulates on the pool,
  // one per task, and later ones of that key in the batch copy it. Keys
  // and the memo live on this thread only, and results land by
  // submission index, so reductions below are thread-count independent.
  // A reused score still counts as an exact evaluation.
  std::map<std::vector<int64_t>, CostSample> Memo;
  auto evaluateBatch = [&](const std::vector<Candidate> &Batch) {
    const auto Begin = std::chrono::steady_clock::now();
    std::vector<CostSample> Samples(Batch.size());
    std::vector<layout::DataLayout> Layouts;
    Layouts.reserve(Batch.size());
    std::vector<size_t> Simulate;
    std::map<std::vector<int64_t>, size_t> FirstOfKey;
    std::vector<std::pair<size_t, size_t>> Copies; // (to, from)
    for (size_t I = 0; I != Batch.size(); ++I) {
      Layouts.push_back(materialize(P, Batch[I]));
      std::vector<int64_t> Key = Exact.scoreKey(Layouts[I]);
      if (Key.empty()) {
        Simulate.push_back(I);
      } else if (auto It = Memo.find(Key); It != Memo.end()) {
        Samples[I] = It->second;
      } else if (auto [First, New] = FirstOfKey.emplace(std::move(Key), I);
                 New) {
        Simulate.push_back(I);
      } else {
        Copies.emplace_back(I, First->second);
      }
    }
    Pool.parallelFor(Simulate.size(), [&](size_t J) {
      Samples[Simulate[J]] = Exact.evaluate(Layouts[Simulate[J]]);
    });
    for (const auto &[To, From] : Copies)
      Samples[To] = Samples[From];
    for (const auto &[Key, I] : FirstOfKey)
      Memo.emplace(Key, Samples[I]);
    R.ExactEvaluations += static_cast<unsigned>(Batch.size());
    R.SimulatedEvaluations += static_cast<unsigned>(Simulate.size());
    R.ExactEvalSeconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      Begin)
            .count();
    return Samples;
  };

  std::set<std::string> Seen;
  for (const Candidate &S : Seeds)
    Seen.insert(S.key());

  unsigned Budget =
      std::max<unsigned>(Opts.EvalBudget,
                         static_cast<unsigned>(Seeds.size()));
  std::vector<CostSample> SeedSamples = evaluateBatch(Seeds);
  Budget -= static_cast<unsigned>(Seeds.size());

  R.Accesses = SeedSamples.front().Accesses;
  R.PadMisses = SeedSamples[Gen.padSeedIndex()].Cost;
  R.PadLevelMisses = SeedSamples[Gen.padSeedIndex()].LevelMisses;
  for (unsigned I = 0; I != Machine.numLevels(); ++I)
    R.LevelNames.push_back(Machine.levelName(I));
  R.FirstCacheLevel = Machine.firstCacheLevel();
  {
    Candidate Zero = zeroCandidate(P);
    auto It = std::find(Seeds.begin(), Seeds.end(), Zero);
    if (It == Seeds.end()) {
      // PAD was a no-op; seeds merged.
      R.OriginalMisses = R.PadMisses;
      R.OriginalLevelMisses = R.PadLevelMisses;
    } else {
      R.OriginalMisses = SeedSamples[It - Seeds.begin()].Cost;
      R.OriginalLevelMisses = SeedSamples[It - Seeds.begin()].LevelMisses;
    }
  }

  Candidate GlobalBest = Seeds.front();
  double GlobalBestCost = SeedSamples.front().Cost;
  std::vector<double> GlobalBestLevels = SeedSamples.front().LevelMisses;
  for (size_t I = 1; I != Seeds.size(); ++I)
    if (SeedSamples[I].Cost < GlobalBestCost) {
      GlobalBest = Seeds[I];
      GlobalBestCost = SeedSamples[I].Cost;
      GlobalBestLevels = SeedSamples[I].LevelMisses;
    }
  {
    std::ostringstream OS;
    OS << "seeds: original " << R.OriginalMisses << ", PAD "
       << R.PadMisses << " misses; climbing from " << GlobalBestCost;
    R.Log.push_back(OS.str());
  }

  Candidate Current = GlobalBest;
  double CurrentCost = GlobalBestCost;
  unsigned Stale = 0, DryRounds = 0;

  // Degradation machinery: the climb below may stop for reasons other
  // than convergence (deadline, cancellation, a throwing evaluation).
  // Every stop path keeps the best-so-far candidate — which includes the
  // already-evaluated PAD seed — so the result is always valid. The
  // deadline is compared as elapsed seconds in a double: turning it into
  // a clock time point overflows past 2^63 ns (about 292 years) and puts
  // a huge deadline in the past.
  using Clock = std::chrono::steady_clock;
  const bool HasDeadline = Opts.DeadlineSeconds > 0;
  const Clock::time_point ClimbStart = Clock::now();
  auto Stop = [&](SearchOutcome O, std::string Detail) {
    R.Outcome = O;
    R.OutcomeDetail = std::move(Detail);
    std::ostringstream OS;
    OS << "stopped (" << outcomeName(O) << "): " << R.OutcomeDetail;
    R.Log.push_back(OS.str());
  };

  bool Running = true;
  while (Running) {
    if (Budget == 0) {
      Stop(SearchOutcome::BudgetExhausted,
           "used all " + std::to_string(R.ExactEvaluations) +
               " exact evaluations");
      break;
    }
    if (DryRounds >= kMaxDryRounds) {
      Stop(SearchOutcome::Completed,
           "neighborhood exhausted after " +
               std::to_string(R.Rounds) + " rounds");
      break;
    }
    if (Opts.Cancel && Opts.Cancel->load(std::memory_order_relaxed)) {
      Stop(SearchOutcome::Cancelled,
           "cancellation requested after " +
               std::to_string(R.ExactEvaluations) + " evaluations");
      break;
    }
    if (HasDeadline &&
        std::chrono::duration<double>(Clock::now() - ClimbStart).count() >=
            Opts.DeadlineSeconds) {
      std::ostringstream OS;
      OS << "deadline of " << Opts.DeadlineSeconds << "s expired after "
         << R.ExactEvaluations << " evaluations";
      Stop(SearchOutcome::DeadlineExpired, OS.str());
      break;
    }
    try {
    ++R.Rounds;
    std::vector<Candidate> Proposed =
        Gen.neighbors(Current, Rng, kNeighborsPerRound);
    R.CandidatesGenerated += static_cast<unsigned>(Proposed.size());
    if (Proposed.empty()) {
      // Program has no padding-safe knobs at all.
      Stop(SearchOutcome::Completed, "no padding-safe knobs to explore");
      break;
    }

    std::vector<Candidate> Fresh;
    Fresh.reserve(Proposed.size());
    for (Candidate &C : Proposed) {
      if (Seen.insert(C.key()).second)
        Fresh.push_back(std::move(C));
      else
        ++R.DuplicatesSkipped;
    }

    if (Fresh.size() > 1) {
      // Rank by the cheap model first; only simulate candidates the
      // estimator does not consider clearly worse than the incumbent.
      // Runs on the generation thread: the static model's manager is
      // not thread-safe.
      double Incumbent =
          Static.evaluate(materialize(P, Current)).Cost;
      double Threshold = Incumbent * kPruneSlack;
      std::vector<double> Est(Fresh.size());
      for (size_t I = 0; I != Fresh.size(); ++I)
        Est[I] = Static.evaluate(materialize(P, Fresh[I])).Cost;
      size_t KeepMin =
          std::min_element(Est.begin(), Est.end()) - Est.begin();
      std::vector<Candidate> Kept;
      Kept.reserve(Fresh.size());
      for (size_t I = 0; I != Fresh.size(); ++I) {
        // Always keep the estimator's favorite so a round is never
        // pruned empty.
        if (I == KeepMin || Est[I] <= Threshold)
          Kept.push_back(std::move(Fresh[I]));
        else
          ++R.PrunedStatic;
      }
      Fresh = std::move(Kept);
    }

    if (Fresh.size() > Budget)
      Fresh.resize(Budget);
    if (Fresh.empty()) {
      ++DryRounds;
      ++Stale;
    } else {
      DryRounds = 0;
      // Replay the survivors and fold the round's best into the climb.
      std::vector<CostSample> Samples = evaluateBatch(Fresh);
      Budget -= static_cast<unsigned>(Fresh.size());
      size_t RoundBest = 0;
      for (size_t I = 1; I != Samples.size(); ++I)
        if (Samples[I].Cost < Samples[RoundBest].Cost)
          RoundBest = I;
      if (Samples[RoundBest].Cost >= CurrentCost) {
        ++Stale;
      } else {
        Stale = 0;
        Current = Fresh[RoundBest];
        CurrentCost = Samples[RoundBest].Cost;
        if (CurrentCost < GlobalBestCost) {
          GlobalBest = Current;
          GlobalBestCost = CurrentCost;
          GlobalBestLevels = Samples[RoundBest].LevelMisses;
          std::ostringstream OS;
          OS << "round " << R.Rounds << ": improved to "
             << GlobalBestCost << " misses (" << GlobalBest.key()
             << ")";
          R.Log.push_back(OS.str());
        }
      }
    }

    if (Stale > kMaxStaleRounds && Budget > 0) {
      // Local optimum: restart the climb from a perturbed heuristic
      // seed; the global best is kept aside.
      ++R.Restarts;
      Stale = 0;
      Current = Gen.perturb(Seeds[R.Restarts % Seeds.size()], Rng,
                            kRestartPerturbMoves);
      CurrentCost = std::numeric_limits<double>::infinity();
      if (Seen.insert(Current.key()).second && Budget > 0) {
        std::vector<CostSample> S = evaluateBatch({Current});
        Budget -= 1;
        CurrentCost = S.front().Cost;
        if (CurrentCost < GlobalBestCost) {
          GlobalBest = Current;
          GlobalBestCost = CurrentCost;
          GlobalBestLevels = S.front().LevelMisses;
        }
      }
    }
    } catch (const std::exception &E) {
      // A cost-model task died (bad_alloc, a sanitizer-adjacent logic
      // error surfaced as an exception, ...). Degrade to the best
      // candidate evaluated so far instead of tearing the caller down.
      Stop(SearchOutcome::EvaluationFailed, E.what());
      Running = false;
    }
  }

  R.Best = GlobalBest;
  R.BestMisses = GlobalBestCost;
  R.BestLevelMisses = std::move(GlobalBestLevels);
  R.BestLayout = materialize(P, GlobalBest);
  {
    std::ostringstream OS;
    OS << "done: " << R.ExactEvaluations << " exact scores ("
       << R.SimulatedEvaluations << " simulated), " << R.PrunedStatic
       << " pruned statically, " << R.DuplicatesSkipped << " duplicates, "
       << R.Restarts << " restarts; best " << GlobalBestCost << " vs PAD "
       << R.PadMisses << " misses";
    R.Log.push_back(OS.str());
  }
  return R;
}

} // namespace

SearchResult search::runSearch(const ir::Program &P,
                               const SearchOptions &Opts) {
  pipeline::PadPipeline PP(P);
  return runSearch(P, Opts, PP);
}

SearchResult search::runSearch(const ir::Program &P,
                               const SearchOptions &Opts,
                               pipeline::PadPipeline &PP) {
  return PP.run("search", [&] { return runSearchImpl(P, Opts, PP); });
}
