//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the AnalysisManager's memoization against recomputing every
/// analysis per candidate: the search's whole generation side — heuristic
/// seeding, neighbor proposal (whose greedy repair reads conflict
/// reports), and static cost estimation — is run twice over the same
/// deterministic candidate stream, once with the manager's cache on and
/// once with it off. The per-candidate costs are checked for bit-identity
/// (the cache is a speed knob, never an answer knob) and candidates per
/// second are reported both ways.
///
/// Usage: analysis_cache [--candidates N] [--cache BYTES] [--line BYTES]
///                       [--assoc K] [--seed S] [--guard X] [--json PATH]
///                       [kernel...]
/// Default kernel set: the Figure 16/17 sweep kernels.
///
/// Exit codes: 0 success; 1 usage error or the measured speedup fell
/// below --guard; 2 cached and uncached costs diverged (a correctness
/// bug, never acceptable).
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "pipeline/PadPipeline.h"
#include "search/CandidateGenerator.h"
#include "search/CostModel.h"
#include "support/JsonWriter.h"
#include "support/ParseInteger.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <random>
#include <string>
#include <vector>

using namespace padx;

namespace {

/// Neighbors proposed per greedy round; the repair candidate plus a few
/// random moves, like a small search round.
constexpr unsigned kRoundWidth = 6;

void usage() {
  std::fprintf(stderr,
               "usage: analysis_cache [--candidates N] [--cache BYTES] "
               "[--line BYTES]\n"
               "                      [--assoc K] [--seed S] [--guard X] "
               "[--json PATH]\n"
               "                      [kernel...]\n");
  std::exit(1);
}

/// One timed pass over \p P's candidate stream. Everything a search's
/// generation thread does is inside the clock — pipeline construction
/// (the heuristic seeds run through it), neighbor proposal, and static
/// evaluation — so the ratio is the end-to-end effect of the cache.
/// Returns the number of candidates evaluated; their costs land in
/// \p Costs in evaluation order for the cross-mode identity check.
uint64_t runMode(const ir::Program &P, const CacheConfig &Cache,
                 bool EnableCache, unsigned Candidates, uint64_t Seed,
                 std::vector<double> &Costs, double &Secs) {
  auto Start = std::chrono::steady_clock::now();
  pipeline::PadPipeline PP(P, EnableCache);
  const MachineModel Machine = MachineModel::singleLevel(Cache);
  search::CandidateGenerator Gen(P, Machine, PP);
  search::StaticCostModel Static(Machine, PP.analysis());
  std::mt19937_64 Rng(Seed);

  search::Candidate Current = Gen.seeds().front();
  uint64_t Evaluated = 0;
  while (Evaluated < Candidates) {
    std::vector<search::Candidate> Neigh =
        Gen.neighbors(Current, Rng, kRoundWidth);
    if (Neigh.empty())
      break; // No padding-safe knobs; the seed cost below still counts.
    size_t Best = 0;
    double BestCost = std::numeric_limits<double>::infinity();
    for (size_t I = 0; I != Neigh.size() && Evaluated < Candidates;
         ++I) {
      double Cost =
          Static.evaluate(search::materialize(P, Neigh[I])).Cost;
      Costs.push_back(Cost);
      ++Evaluated;
      if (Cost < BestCost) {
        BestCost = Cost;
        Best = I;
      }
    }
    Current = Neigh[Best];
  }
  if (Evaluated == 0) {
    // Immovable program: still score the seed so the modes compare work.
    Costs.push_back(
        Static.evaluate(search::materialize(P, Current)).Cost);
    Evaluated = 1;
  }
  Secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
             .count();
  return Evaluated;
}

struct KernelRow {
  std::string Name;
  uint64_t Candidates = 0;
  double CachedSecs = 0, UncachedSecs = 0;

  double speedup() const {
    return CachedSecs > 0 ? UncachedSecs / CachedSecs : 0.0;
  }
};

} // namespace

int main(int argc, char **argv) {
  unsigned Candidates = 256;
  CacheConfig Cache = CacheConfig::base16K();
  uint64_t Seed = 0;
  double Guard = 0;
  std::string JsonPath;
  std::vector<std::string> Selected;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc)
        usage();
      return argv[++I];
    };
    // The next argument as a whole decimal integer in [Min, Max].
    auto NextInt = [&]<typename T>(T Min, T Max) {
      return parseIntegerFlag(Arg, Next(), Min, Max, 1);
    };
    constexpr int64_t I64Max = std::numeric_limits<int64_t>::max();
    if (Arg == "--candidates")
      Candidates = NextInt(1u, std::numeric_limits<unsigned>::max());
    else if (Arg == "--cache")
      Cache.SizeBytes = NextInt(int64_t(1), I64Max);
    else if (Arg == "--line")
      Cache.LineBytes = NextInt(int64_t(1), I64Max);
    else if (Arg == "--assoc")
      Cache.Associativity = NextInt(0, std::numeric_limits<int>::max());
    else if (Arg == "--seed")
      Seed = NextInt(uint64_t(0), std::numeric_limits<uint64_t>::max());
    else if (Arg == "--guard")
      Guard = parseNumberFlag(Arg, Next(), /*ZeroAllowed=*/false, 1);
    else if (Arg == "--json")
      JsonPath = Next();
    else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return 1;
    } else
      Selected.push_back(Arg);
  }
  if (!Cache.isValid()) {
    std::fprintf(stderr, "error: invalid cache geometry\n");
    return 1;
  }

  std::vector<std::string> Names;
  if (!Selected.empty()) {
    for (const std::string &N : Selected) {
      if (!kernels::findKernel(N)) {
        std::fprintf(stderr, "error: unknown kernel '%s'\n", N.c_str());
        return 1;
      }
      Names.push_back(N);
    }
  } else {
    Names = bench::sweepKernels();
  }

  std::printf("analysis cache speedup (%s, %u candidates per kernel, "
              "seed %llu)\n\n",
              Cache.describe().c_str(), Candidates,
              static_cast<unsigned long long>(Seed));

  TableFormatter T({"Program", "Cands", "Off(s)", "On(s)", "Speedup"});
  std::vector<KernelRow> Rows;
  double TotalCached = 0, TotalUncached = 0;
  uint64_t TotalCands = 0;
  for (const std::string &Name : Names) {
    ir::Program P = kernels::makeKernel(Name);
    KernelRow Row;
    Row.Name = Name;
    std::vector<double> Uncached, Cached;
    // Uncached first: the cold mode sets the baseline, and any divergence
    // is reported against it.
    uint64_t NOff = runMode(P, Cache, /*EnableCache=*/false, Candidates,
                            Seed, Uncached, Row.UncachedSecs);
    uint64_t NOn = runMode(P, Cache, /*EnableCache=*/true, Candidates,
                           Seed, Cached, Row.CachedSecs);
    if (NOff != NOn || Uncached != Cached) {
      std::fprintf(stderr,
                   "error: %s: cached costs diverged from uncached "
                   "(%llu vs %llu candidates)\n",
                   Name.c_str(), static_cast<unsigned long long>(NOn),
                   static_cast<unsigned long long>(NOff));
      return 2;
    }
    Row.Candidates = NOn;
    T.beginRow();
    T.cell(kernels::findKernel(Name)->Display);
    T.cell(static_cast<int64_t>(Row.Candidates));
    T.cell(Row.UncachedSecs, 3);
    T.cell(Row.CachedSecs, 3);
    T.cell(Row.speedup(), 2);
    TotalCached += Row.CachedSecs;
    TotalUncached += Row.UncachedSecs;
    TotalCands += Row.Candidates;
    Rows.push_back(std::move(Row));
  }
  bench::printTable(T);

  double CachedCps =
      TotalCached > 0 ? static_cast<double>(TotalCands) / TotalCached : 0;
  double UncachedCps = TotalUncached > 0
                           ? static_cast<double>(TotalCands) / TotalUncached
                           : 0;
  double Speedup = TotalCached > 0 ? TotalUncached / TotalCached : 0;
  std::printf("\ncandidates/sec: %.0f with the manager's cache on, %.0f "
              "with it off (%.2fx)\n",
              CachedCps, UncachedCps, Speedup);
  std::printf("costs bit-identical across both modes for all %llu "
              "candidates\n",
              static_cast<unsigned long long>(TotalCands));

  if (!JsonPath.empty()) {
    std::ofstream OS(JsonPath);
    if (!OS) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   JsonPath.c_str());
      return 1;
    }
    support::JsonWriter J(OS);
    J.beginObject();
    J.field("bench", "analysis_cache");
    J.field("cache", Cache.describe());
    J.field("candidates", TotalCands);
    J.field("seed", Seed);
    J.field("cached_seconds", TotalCached);
    J.field("uncached_seconds", TotalUncached);
    J.field("cached_candidates_per_second", CachedCps);
    J.field("uncached_candidates_per_second", UncachedCps);
    J.field("speedup", Speedup);
    J.field("costs_identical", true);
    J.key("kernels");
    J.beginArray();
    for (const KernelRow &R : Rows) {
      J.beginObject();
      J.field("name", R.Name);
      J.field("candidates", R.Candidates);
      J.field("cached_seconds", R.CachedSecs);
      J.field("uncached_seconds", R.UncachedSecs);
      J.field("speedup", R.speedup());
      J.endObject();
    }
    J.endArray();
    J.endObject();
    OS << '\n';
    std::printf("json summary written to %s\n", JsonPath.c_str());
  }

  if (Guard > 0 && Speedup < Guard) {
    std::fprintf(stderr, "error: speedup %.2fx below the %.2fx guard\n",
                 Speedup, Guard);
    return 1;
  }
  return 0;
}
