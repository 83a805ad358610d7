//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Search-guided padding vs. the paper's PAD heuristic: miss rates per
/// kernel in the fig-bench table format, plus the search statistics
/// (exact scores spent, the simulations among them that actually ran,
/// candidates pruned) and total wall-clock time —
/// rerun with a different --threads to see the parallel evaluation
/// speedup.
///
/// Usage: search_vs_pad [--threads N] [--budget N] [--seed S]
///                      [--json PATH] [--all] [kernel...]
/// Default kernel set: the Figure 16/17 sweep kernels; --all runs every
/// registered program. PADX_CSV=1 emits CSV like the other benches;
/// --json additionally writes a machine-readable summary (wall time,
/// candidates per second, per-kernel miss rates) for CI trend tracking.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "search/SearchEngine.h"
#include "support/JsonWriter.h"
#include "support/ParseInteger.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>

using namespace padx;

namespace {

struct KernelRow {
  std::string Name;
  double OrigPct = 0, PadPct = 0, SearchPct = 0;
  unsigned Scores = 0, Sims = 0, Pruned = 0;
};

void usage() {
  std::fprintf(stderr,
               "usage: search_vs_pad [--threads N] [--budget N] "
               "[--seed S] [--json PATH] [--all] "
               "[kernel...]\n");
  std::exit(1);
}

} // namespace

int main(int argc, char **argv) {
  search::SearchOptions Opts;
  Opts.Threads = 0; // Hardware concurrency unless overridden.
  bool All = false;
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
    constexpr unsigned UMax = std::numeric_limits<unsigned>::max();
    if (Arg == "--threads")
      Opts.Threads = NextInt(0u, UMax);
    else if (Arg == "--budget")
      Opts.EvalBudget = NextInt(1u, UMax);
    else if (Arg == "--seed")
      Opts.Seed =
          NextInt(uint64_t(0), std::numeric_limits<uint64_t>::max());
    else if (Arg == "--json")
      JsonPath = Next();
    else if (Arg == "--all")
      All = true;
    else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return 1;
    } else
      Selected.push_back(Arg);
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
  } else if (All) {
    for (const auto &K : kernels::allKernels())
      Names.push_back(K.Name);
  } else {
    Names = bench::sweepKernels();
  }

  const std::string Cache = Opts.Machine.firstCache().describe();
  std::cout << "Search-guided padding vs PAD (" << Cache << ", budget "
            << Opts.EvalBudget << ", threads "
            << (Opts.Threads == 0 ? std::string("hw")
                                  : std::to_string(Opts.Threads))
            << ", seed " << Opts.Seed << ")\n\n";

  TableFormatter T({"Program", "Orig%", "Pad%", "Search%", "vsPad",
                    "Scores", "Sims", "Pruned"});
  double SumPad = 0, SumSearch = 0;
  uint64_t TotalScores = 0, TotalSims = 0;
  std::vector<KernelRow> Rows;
  auto Start = std::chrono::steady_clock::now();
  for (const std::string &Name : Names) {
    ir::Program P = kernels::makeKernel(Name);
    search::SearchResult R = search::runSearch(P, Opts);
    T.beginRow();
    T.cell(kernels::findKernel(Name)->Display);
    T.cell(R.originalPercent(), 2);
    T.cell(R.padPercent(), 2);
    T.cell(R.bestPercent(), 2);
    T.cell(R.padPercent() - R.bestPercent(), 2);
    T.cell(static_cast<int64_t>(R.ExactEvaluations));
    T.cell(static_cast<int64_t>(R.SimulatedEvaluations));
    T.cell(static_cast<int64_t>(R.PrunedStatic));
    SumPad += R.padPercent();
    SumSearch += R.bestPercent();
    TotalScores += R.ExactEvaluations;
    TotalSims += R.SimulatedEvaluations;
    Rows.push_back({Name, R.originalPercent(), R.padPercent(),
                    R.bestPercent(), R.ExactEvaluations,
                    R.SimulatedEvaluations, R.PrunedStatic});
  }
  auto End = std::chrono::steady_clock::now();
  double N = static_cast<double>(Names.size());
  T.beginRow();
  T.cell("AVERAGE");
  T.cell("");
  T.cell(SumPad / N, 2);
  T.cell(SumSearch / N, 2);
  T.cell((SumPad - SumSearch) / N, 2);
  T.cell("");
  T.cell("");
  T.cell("");
  bench::printTable(T);

  double Secs =
      std::chrono::duration<double>(End - Start).count();
  std::printf("\nwall clock: %.2fs for %zu kernels "
              "(candidate evaluation parallelized per kernel)\n",
              Secs, Names.size());
  std::printf("vsPad is percentage points of miss rate the search "
              "recovers beyond the PAD heuristic;\nby construction it "
              "is never negative (PAD seeds the search). Scores are the "
              "exact\nscores the budget spent, Sims the simulations among "
              "them that ran; the rest\nreused the score of a "
              "whole-period shift of a layout already scored.\n");

  if (!JsonPath.empty()) {
    std::ofstream OS(JsonPath);
    if (!OS) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   JsonPath.c_str());
      return 1;
    }
    support::JsonWriter J(OS);
    J.beginObject();
    J.field("bench", "search_vs_pad");
    J.field("cache", Cache);
    J.field("budget", Opts.EvalBudget);
    J.field("threads", Opts.Threads);
    J.field("seed", Opts.Seed);
    J.field("wall_seconds", Secs);
    J.field("exact_evaluations", TotalScores);
    J.field("simulated_evaluations", TotalSims);
    J.field("candidates_per_second",
            Secs > 0 ? static_cast<double>(TotalScores) / Secs : 0.0);
    J.field("avg_pad_miss_pct", SumPad / N);
    J.field("avg_search_miss_pct", SumSearch / N);
    J.key("kernels");
    J.beginArray();
    for (const KernelRow &R : Rows) {
      J.beginObject();
      J.field("name", R.Name);
      J.field("orig_miss_pct", R.OrigPct);
      J.field("pad_miss_pct", R.PadPct);
      J.field("best_miss_pct", R.SearchPct);
      J.field("exact_evaluations", R.Scores);
      J.field("simulated_evaluations", R.Sims);
      J.field("pruned_static", R.Pruned);
      J.endObject();
    }
    J.endArray();
    J.endObject();
    OS << '\n';
    std::printf("json summary written to %s\n", JsonPath.c_str());
  }
  return 0;
}
