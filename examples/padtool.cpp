//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// padtool — the source-to-source driver: parse a PadLang file (or a
/// built-in kernel), apply PADLITE or PAD for a given cache, print the
/// decision log and the transformed source, and optionally simulate
/// before/after miss rates.
///
/// Usage:
///   padtool [options] <file.pad>
///   padtool [options] --kernel <name> [--size N]
/// Options:
///   --cache BYTES   cache size in bytes (default 16384)
///   --line BYTES    line size in bytes (default 32)
///   --assoc K       associativity, 1 = direct mapped (default 1)
///   --machine M     multi-level machine: a preset (base16k, paper-l2,
///                   skylake, a64fx) or a spec like
///                   l1:32k/64/8,l2:1m/64/16,tlb:64/4k/4; overrides
///                   --cache/--line/--assoc
///   --weights W     per-level objective weights, e.g. l1=1,l2=8
///   --scheme NAME   pad | padlite | search (default pad)
///   --budget N      search: max exact (simulated) evaluations
///   --threads N     search: worker threads (0 = hardware)
///   --seed S        search: RNG seed (default 0)
///   --deadline SECS search: wall-clock limit; degrades to best-so-far
///   --prescreen on|off|auto  search: statically rank each round with
///                   the lattice predictor and replay only the top half
///                   (default off; auto engages when the predictor can
///                   analyze the program)
///   --analysis-cache on|off  memoize analysis results across passes
///                   (default on; off recomputes every query)
///   --max-footprint BYTES  resource limit on the layout's byte size
///   --max-accesses N       resource limit on simulated trace length
///   --emit          print the transformed PadLang source
///   --simulate      run the cache simulator on both layouts
///   --report        print the severe-conflict pairs before and after
///   --estimate      print the lattice-predicted miss rates (no simulation)
///   --stats         print per-pass timings and analysis-cache counters
///   --stats-json F  write the pipeline stats as JSON to F ('-' = stdout)
///   --list          list built-in kernels and exit
///
/// Exit codes: 0 success; 1 usage or unknown option/kernel; 2 the input
/// failed to parse or validate; 3 a resource limit was exceeded.
///
//===----------------------------------------------------------------------===//

#include "analysis/ConflictReport.h"
#include "core/Padding.h"
#include "exec/TraceRunner.h"
#include "experiments/Experiment.h"
#include "frontend/Parser.h"
#include "kernels/Kernels.h"
#include "layout/TransformedSource.h"
#include "pipeline/PadPipeline.h"
#include "search/SearchEngine.h"
#include "support/Guard.h"
#include "support/JsonWriter.h"
#include "support/MathExtras.h"
#include "support/ParseInteger.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

using namespace padx;

namespace {

/// Exit codes, also documented in --help: scripts driving padtool over
/// benchmark suites distinguish "bad input" from "input too big".
enum ExitCode {
  ExitSuccess = 0,
  ExitUsage = 1,         ///< Bad flags, unknown option or kernel.
  ExitBadInput = 2,      ///< Parse or validation failure.
  ExitResourceLimit = 3, ///< Footprint or trace limit exceeded.
};

void usage() {
  std::fprintf(stderr,
               "usage: padtool [--cache BYTES] [--line BYTES] "
               "[--assoc K]\n"
               "               [--machine PRESET|SPEC] "
               "[--weights l1=1,l2=8,...]\n"
               "               [--scheme pad|padlite|search] "
               "[--budget N] [--threads N]\n"
               "               [--seed S] [--deadline SECS]\n"
               "               [--prescreen on|off|auto] "
               "[--analysis-cache on|off]\n"
               "               [--max-footprint BYTES] "
               "[--max-accesses N]\n"
               "               [--emit] [--simulate] [--report] "
               "[--estimate]\n"
               "               [--stats] [--stats-json FILE]\n"
               "               (<file.pad> | --kernel NAME [--size N] | "
               "--list)\n"
               "exit codes: 0 success, 1 usage error, 2 parse/validate "
               "error,\n"
               "            3 resource limit exceeded\n");
}

/// Prints accumulated diagnostics to stderr, with source snippets and
/// carets when the source buffer is available.
void printDiags(const DiagnosticEngine &Diags, std::string_view Source,
                std::string_view Filename) {
  std::fprintf(stderr, "%s", Diags.render(Source, Filename).c_str());
}

/// Rejects impossible cache geometries with a diagnostic naming the
/// offending flag, instead of letting downstream modulo arithmetic
/// divide by zero or wrap.
bool validateGeometry(const CacheConfig &Cache, DiagnosticEngine &Diags) {
  auto Fail = [&](const char *Msg, long long V) {
    Diags.error({}, std::string(Msg) + " (got " + std::to_string(V) +
                        ")");
  };
  if (!isPowerOf2(Cache.SizeBytes))
    Fail("--cache must be a positive power of two", Cache.SizeBytes);
  if (!isPowerOf2(Cache.LineBytes))
    Fail("--line must be a positive power of two", Cache.LineBytes);
  if (Diags.hasErrors()) // Relative checks are meaningless on garbage.
    return false;
  if (Cache.LineBytes > Cache.SizeBytes)
    Fail("--line must not exceed --cache", Cache.LineBytes);
  if (Cache.Associativity > 1) {
    if (!isPowerOf2(Cache.Associativity))
      Fail("--assoc must be a power of two", Cache.Associativity);
    else if (Cache.Associativity > Cache.SizeBytes / Cache.LineBytes)
      Fail("--assoc * --line exceeds --cache; no such geometry exists",
           Cache.Associativity);
  }
  if (!Diags.hasErrors() && !Cache.isValid())
    Diags.error({}, "invalid cache geometry");
  return !Diags.hasErrors();
}

} // namespace

int main(int argc, char **argv) {
  CacheConfig Cache = CacheConfig::base16K();
  std::string MachineSpec, WeightsSpec;
  MachineModel Machine;
  bool Emit = false, Simulate = false, Report = false;
  bool Estimate = false, Stats = false;
  bool AnalysisCache = true;
  std::string StatsJsonFile;
  enum class SchemeKind { Pad, PadLite, Search };
  SchemeKind Scheme = SchemeKind::Pad;
  search::SearchOptions SearchOpts;
  ResourceLimits Limits;
  std::string File, Kernel;
  int64_t Size = 0;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc) {
        usage();
        std::exit(ExitUsage);
      }
      return argv[++I];
    };
    // The next argument as a whole decimal integer in [Min, Max].
    auto NextInt = [&]<typename T>(T Min, T Max) -> T {
      const char *Text = Next();
      if (std::optional<T> V = parseInteger<T>(Text, Min, Max))
        return *V;
      std::fprintf(stderr, "error: %s takes an integer in [%s, %s], "
                           "got '%s'\n",
                   Arg.c_str(), std::to_string(Min).c_str(),
                   std::to_string(Max).c_str(), Text);
      std::exit(ExitUsage);
    };
    constexpr int64_t I64Max = std::numeric_limits<int64_t>::max();
    constexpr unsigned UMax = std::numeric_limits<unsigned>::max();
    constexpr uint64_t U64Max = std::numeric_limits<uint64_t>::max();
    if (Arg == "--cache") {
      Cache.SizeBytes = NextInt(int64_t(1), I64Max);
    } else if (Arg == "--line") {
      Cache.LineBytes = NextInt(int64_t(1), I64Max);
    } else if (Arg == "--assoc") {
      Cache.Associativity = NextInt(0, std::numeric_limits<int>::max());
    } else if (Arg == "--machine") {
      MachineSpec = Next();
    } else if (Arg == "--weights") {
      WeightsSpec = Next();
    } else if (Arg == "--scheme") {
      std::string S = Next();
      if (S == "padlite") {
        Scheme = SchemeKind::PadLite;
      } else if (S == "search") {
        Scheme = SchemeKind::Search;
      } else if (S == "pad") {
        Scheme = SchemeKind::Pad;
      } else {
        std::fprintf(stderr, "error: unknown scheme '%s'\n", S.c_str());
        return ExitUsage;
      }
    } else if (Arg == "--budget") {
      SearchOpts.EvalBudget = NextInt(1u, UMax);
    } else if (Arg == "--threads") {
      SearchOpts.Threads = NextInt(0u, UMax);
    } else if (Arg == "--seed") {
      SearchOpts.Seed = NextInt(uint64_t(0), U64Max);
    } else if (Arg == "--deadline") {
      double Secs = std::atof(Next());
      if (Secs <= 0) {
        std::fprintf(stderr, "error: --deadline must be positive\n");
        return ExitUsage;
      }
      SearchOpts.DeadlineSeconds = Secs;
    } else if (Arg == "--prescreen" ||
               Arg.rfind("--prescreen=", 0) == 0) {
      std::string V =
          Arg == "--prescreen" ? std::string(Next()) : Arg.substr(12);
      if (V == "on") {
        SearchOpts.Prescreen = search::PrescreenMode::On;
      } else if (V == "off") {
        SearchOpts.Prescreen = search::PrescreenMode::Off;
      } else if (V == "auto") {
        SearchOpts.Prescreen = search::PrescreenMode::Auto;
      } else {
        std::fprintf(stderr,
                     "error: --prescreen takes 'on', 'off' or 'auto'\n");
        return ExitUsage;
      }
    } else if (Arg == "--analysis-cache" ||
               Arg.rfind("--analysis-cache=", 0) == 0) {
      std::string V = Arg == "--analysis-cache" ? std::string(Next())
                                                : Arg.substr(17);
      if (V == "on") {
        AnalysisCache = true;
      } else if (V == "off") {
        AnalysisCache = false;
      } else {
        std::fprintf(stderr,
                     "error: --analysis-cache takes 'on' or 'off'\n");
        return ExitUsage;
      }
    } else if (Arg == "--max-footprint") {
      Limits.MaxFootprintBytes = NextInt(int64_t(1), I64Max);
    } else if (Arg == "--max-accesses") {
      Limits.MaxTraceAccesses = NextInt(uint64_t(1), U64Max);
    } else if (Arg == "--emit") {
      Emit = true;
    } else if (Arg == "--simulate") {
      Simulate = true;
    } else if (Arg == "--report") {
      Report = true;
    } else if (Arg == "--estimate") {
      Estimate = true;
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (Arg == "--stats-json") {
      StatsJsonFile = Next();
    } else if (Arg == "--kernel") {
      Kernel = Next();
    } else if (Arg == "--size") {
      Size = NextInt(int64_t(0), I64Max);
    } else if (Arg == "--list") {
      for (const auto &K : kernels::allKernels())
        std::printf("%-14s %-10s %s\n", K.Name.c_str(),
                    K.Display.c_str(), K.Description.c_str());
      return ExitSuccess;
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return ExitSuccess;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      usage();
      return ExitUsage;
    } else {
      File = Arg;
    }
  }

  {
    DiagnosticEngine GeomDiags;
    if (!validateGeometry(Cache, GeomDiags)) {
      printDiags(GeomDiags, {}, {});
      return ExitUsage;
    }
  }
  {
    std::string MachineErr;
    if (!MachineModel::resolveFlags(MachineSpec, WeightsSpec, Cache,
                                    Machine, &MachineErr)) {
      std::fprintf(stderr, "error: %s\n", MachineErr.c_str());
      return ExitUsage;
    }
    if (Machine.Levels.empty())
      Machine = MachineModel::singleLevel(Cache);
    else
      Cache = Machine.firstCache();
  }
  // Multi-level runs print per-level sections; single-level runs (with
  // or without an explicit --machine) keep the pre-hierarchy output.
  const bool Multi = !Machine.isSingleLevel();
  if (File.empty() && Kernel.empty()) {
    usage();
    return ExitUsage;
  }

  // Load the program.
  std::optional<ir::Program> P;
  DiagnosticEngine Diags;
  std::string Source;
  if (!Kernel.empty()) {
    if (!kernels::findKernel(Kernel)) {
      std::fprintf(stderr, "error: unknown kernel '%s' (--list)\n",
                   Kernel.c_str());
      return ExitUsage;
    }
    P = kernels::makeKernel(Kernel, Size);
  } else {
    std::ifstream In(File);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n", File.c_str());
      return ExitUsage;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Source = Buf.str();
    P = frontend::parseProgram(Source, Diags);
    if (!P) {
      printDiags(Diags, Source, File);
      return ExitBadInput;
    }
    if (!Diags.diagnostics().empty()) // Surviving warnings/notes.
      printDiags(Diags, Source, File);
  }

  // Resource guard: the original layout's footprint bounds every padded
  // layout within a few percent, so check it up front and refuse inputs
  // that would make downstream passes allocate or simulate absurdly.
  {
    layout::DataLayout Orig = layout::originalLayout(*P);
    if (std::optional<std::string> Err =
            layout::checkFootprint(Orig, Limits.MaxFootprintBytes)) {
      DiagnosticEngine LimitDiags;
      LimitDiags.error({}, *Err);
      printDiags(LimitDiags, Source, File.empty() ? Kernel : File);
      return ExitResourceLimit;
    }
    // Same idea for the trace length: a truncated simulation would
    // print misleading miss rates, so refuse before any report output.
    if (Simulate && Limits.MaxTraceAccesses != 0) {
      exec::RunOptions RO;
      RO.MaxAccesses = Limits.MaxTraceAccesses;
      exec::TraceRunner Probe(*P, Orig, RO);
      exec::CountSink Count;
      if (Probe.run(Count) == exec::RunStatus::TraceLimitReached) {
        DiagnosticEngine LimitDiags;
        LimitDiags.error({}, "simulated trace exceeds the limit of " +
                                 std::to_string(Limits.MaxTraceAccesses) +
                                 " accesses");
        printDiags(LimitDiags, Source, File.empty() ? Kernel : File);
        return ExitResourceLimit;
      }
    }
  }

  const char *SchemeName = Scheme == SchemeKind::Pad       ? "PAD"
                           : Scheme == SchemeKind::PadLite ? "PADLITE"
                                                           : "SEARCH";
  std::printf("program '%s', %s: %s, scheme: %s\n", P->name().c_str(),
              Multi ? "machine" : "cache",
              Multi ? Machine.describe().c_str()
                    : Cache.describe().c_str(),
              SchemeName);

  // One instrumented pipeline per run: the scheme below, --estimate and
  // --stats all share its analysis manager.
  pipeline::PadPipeline PP(*P, AnalysisCache);

  // On a multi-level machine the conflict report runs once per
  // set-mapped cache level (TLBs and fully associative levels cannot
  // conflict by set index).
  auto ReportConflicts = [&](const layout::DataLayout &DL,
                             const char *What) {
    if (!Multi) {
      std::printf("severe conflicts %s:\n", What);
      analysis::printConflictReport(
          std::cout, analysis::reportConflicts(DL, Cache));
      return;
    }
    for (unsigned I = 0; I != Machine.numLevels(); ++I) {
      const CacheLevel &L = Machine.Levels[I];
      if (L.IsTlb || L.Geometry.Associativity == 0)
        continue;
      std::printf("severe conflicts %s (%s):\n", What,
                  Machine.levelName(I).c_str());
      analysis::printConflictReport(
          std::cout, analysis::reportConflicts(DL, L.Geometry));
    }
  };

  if (Report)
    ReportConflicts(layout::originalLayout(*P), "in the original layout");

  std::optional<layout::DataLayout> Final;
  std::optional<search::SearchResult> SearchRes;
  if (Scheme == SchemeKind::Search) {
    SearchOpts.Machine = Machine;
    search::SearchResult &SR =
        SearchRes.emplace(search::runSearch(*P, SearchOpts, PP));
    std::printf("  candidates: %u generated, %u pruned by the static "
                "model, %u duplicates\n",
                SR.CandidatesGenerated, SR.PrunedStatic,
                SR.DuplicatesSkipped);
    std::printf("  simulations: %u over %u rounds (%u restarts)\n",
                SR.ExactEvaluations, SR.Rounds, SR.Restarts);
    if (SR.PrescreenActive)
      std::printf("  prescreen: active, %u candidates kept from the "
                  "simulator by the lattice predictor\n",
                  SR.PrescreenSkipped);
    for (const std::string &Line : SR.Log)
      std::printf("  %s\n", Line.c_str());
    std::printf("  outcome: %s%s%s\n",
                search::outcomeName(SR.Outcome),
                SR.OutcomeDetail.empty() ? "" : " — ",
                SR.OutcomeDetail.c_str());
    if (Multi) {
      // BestMisses et al. are weighted costs on a multi-level machine;
      // the per-level arrays carry the unweighted counts.
      std::printf("  weighted cost: original %.0f, PAD %.0f, search "
                  "%.0f\n",
                  SR.OriginalMisses, SR.PadMisses, SR.BestMisses);
      for (size_t I = 0; I < SR.LevelNames.size(); ++I)
        std::printf("    %-6s misses: original %.0f, PAD %.0f, search "
                    "%.0f\n",
                    SR.LevelNames[I].c_str(),
                    I < SR.OriginalLevelMisses.size()
                        ? SR.OriginalLevelMisses[I]
                        : 0.0,
                    I < SR.PadLevelMisses.size() ? SR.PadLevelMisses[I]
                                                 : 0.0,
                    I < SR.BestLevelMisses.size() ? SR.BestLevelMisses[I]
                                                  : 0.0);
    } else {
      std::printf("  miss rate: original %.2f%%, PAD %.2f%%, search "
                  "%.2f%%\n",
                  SR.originalPercent(), SR.padPercent(),
                  SR.bestPercent());
    }
    Final = SR.BestLayout;
  } else {
    pad::PaddingResult R =
        Multi ? pad::applyPadding(*P, Machine,
                                  Scheme == SchemeKind::PadLite
                                      ? pad::PaddingScheme::padLite()
                                      : pad::PaddingScheme::pad(),
                                  PP)
              : (Scheme == SchemeKind::PadLite
                     ? pad::runPadLite(*P, Cache, PP)
                     : pad::runPad(*P, Cache, PP));
    const pad::PaddingStats &S = R.Stats;
    std::printf("  arrays: %u global, %u intra-safe, %u intra-padded "
                "(max +%lld, total +%lld elements)\n",
                S.GlobalArrays, S.ArraysSafe, S.ArraysPadded,
                static_cast<long long>(S.MaxIntraIncrElems),
                static_cast<long long>(S.TotalIntraIncrElems));
    std::printf("  inter-variable padding: %lld bytes, size increase "
                "%.3f%%\n",
                static_cast<long long>(S.InterPadBytes),
                S.PercentSizeIncrease);
    for (const std::string &Line : S.Log)
      std::printf("  %s\n", Line.c_str());
    Final = std::move(R.Layout);
  }

  if (Report)
    ReportConflicts(*Final, "after padding");

  if (Estimate) {
    // The lattice predictor, queried through the manager so that
    // --stats counts it.
    layout::DataLayout Orig = layout::originalLayout(*P);
    if (Multi) {
      for (unsigned I = 0; I != Machine.numLevels(); ++I) {
        const CacheLevel &L = Machine.Levels[I];
        if (L.IsTlb)
          continue;
        double Before = PP.analysis()
                            .latticePrediction(Orig, L.Geometry)
                            .predictedMissRatePercent();
        double After = PP.analysis()
                           .latticePrediction(*Final, L.Geometry)
                           .predictedMissRatePercent();
        std::printf("  predicted miss rate (%s): %.2f%% -> %.2f%% "
                    "(static estimate)\n",
                    Machine.levelName(I).c_str(), Before, After);
      }
    } else {
      double Before = PP.analysis()
                          .latticePrediction(Orig, Cache)
                          .predictedMissRatePercent();
      double After = PP.analysis()
                         .latticePrediction(*Final, Cache)
                         .predictedMissRatePercent();
      std::printf("  predicted miss rate: %.2f%% -> %.2f%% (static "
                  "estimate)\n",
                  Before, After);
    }
  }

  if (Simulate) {
    if (Multi) {
      expt::HierarchyMissResult Before = expt::measureHierarchy(
          *P, layout::originalLayout(*P), Machine);
      expt::HierarchyMissResult After =
          expt::measureHierarchy(*P, *Final, Machine);
      std::printf("  weighted cost: %.0f -> %.0f\n",
                  Before.weightedCost(), After.weightedCost());
      for (size_t I = 0; I < Before.Levels.size(); ++I)
        std::printf("    %-6s miss rate: %.2f%% -> %.2f%% "
                    "(%llu -> %llu misses)\n",
                    Before.Levels[I].Name.c_str(),
                    Before.Levels[I].percent(), After.Levels[I].percent(),
                    static_cast<unsigned long long>(
                        Before.Levels[I].Misses),
                    static_cast<unsigned long long>(
                        After.Levels[I].Misses));
    } else {
      expt::MissResult Before = expt::measureOriginal(*P, Cache);
      expt::MissResult After = expt::measureMissRate(*P, *Final, Cache);
      std::printf("  miss rate: %.2f%% -> %.2f%%\n", Before.percent(),
                  After.percent());
    }
  }

  if (Emit) {
    std::printf("\n# --- transformed source "
                "---------------------------------\n");
    layout::emitTransformedSource(std::cout, *Final);
  }

  if (Stats || !StatsJsonFile.empty()) {
    pipeline::PipelineStats PS = PP.stats();
    if (Stats)
      PS.printText(std::cout);
    if (!StatsJsonFile.empty()) {
      // On a search run the stats document gains a "search" sibling so
      // harnesses (ci.sh) can divide exact evaluations by wall time
      // into candidates/sec.
      std::function<void(support::JsonWriter &)> Extra =
          [&](support::JsonWriter &JW) {
            if (SearchRes) {
              JW.key("search");
              JW.beginObject();
              JW.field("exact_evaluations",
                       SearchRes->ExactEvaluations);
              JW.field("rounds", SearchRes->Rounds);
              JW.field("restarts", SearchRes->Restarts);
              JW.field("outcome",
                       search::outcomeName(SearchRes->Outcome));
              JW.field("prescreen_active", SearchRes->PrescreenActive);
              JW.field("prescreen_skipped",
                       SearchRes->PrescreenSkipped);
              JW.field("candidates_generated",
                       SearchRes->CandidatesGenerated);
              JW.endObject();
            }
            // The predictor's own counters as a headline section —
            // the same numbers live in the analysis-cache kinds array,
            // but harnesses watching the new tier shouldn't have to
            // index into it. A multi-level machine counts once per
            // level.
            const pipeline::AnalysisCounters &LC = PS.Analysis.of(
                pipeline::AnalysisKind::LatticePrediction);
            JW.key("lattice_predictor");
            JW.beginObject();
            JW.field("hits", static_cast<int64_t>(LC.Hits));
            JW.field("shared_hits",
                     static_cast<int64_t>(LC.SharedHits));
            JW.field("misses", static_cast<int64_t>(LC.Misses));
            JW.field("invalidated",
                     static_cast<int64_t>(LC.Invalidated));
            JW.field("seconds", LC.Seconds);
            JW.field("unscored_nests", static_cast<int64_t>(
                                           PS.Analysis.PredictorUnscored));
            JW.endObject();
            if (Multi) {
              // The hierarchy the run targeted, one entry per level, so
              // harnesses need not re-parse the spec grammar.
              JW.key("machine");
              JW.beginObject();
              JW.field("spec", Machine.spec());
              JW.field("fingerprint", static_cast<int64_t>(
                                          Machine.fingerprint()));
              JW.key("levels");
              JW.beginArray();
              for (unsigned I = 0; I != Machine.numLevels(); ++I) {
                const CacheLevel &L = Machine.Levels[I];
                JW.beginObject();
                JW.field("name", Machine.levelName(I));
                JW.field("size", L.Geometry.SizeBytes);
                JW.field("line", L.Geometry.LineBytes);
                JW.field("assoc",
                         static_cast<int64_t>(L.Geometry.Associativity));
                JW.field("weight", L.Weight);
                JW.field("tlb", L.IsTlb);
                JW.endObject();
              }
              JW.endArray();
              JW.endObject();
            }
          };
      if (StatsJsonFile == "-") {
        PS.writeJson(std::cout, Extra);
      } else {
        std::ofstream Out(StatsJsonFile);
        if (!Out) {
          std::fprintf(stderr, "error: cannot write '%s'\n",
                       StatsJsonFile.c_str());
          return ExitUsage;
        }
        PS.writeJson(Out, Extra);
      }
    }
  }
  return ExitSuccess;
}
