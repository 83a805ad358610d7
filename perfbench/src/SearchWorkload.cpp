//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// search-l1 and search-l2: a closed loop with one client and one search
/// in flight. An op parses seeded PadLang source, runs search::runSearch
/// with default options (one thread, budget 48) on base16k or paper-l2,
/// and emits the transformed source. Programs are corpus kernels at
/// seeded sizes, taken round-robin for a fixed number of rounds.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Census.h"
#include "HwCounters.h"

#include "frontend/Parser.h"
#include "kernels/Kernels.h"
#include "layout/TransformedSource.h"
#include "search/SearchEngine.h"

#include <algorithm>
#include <memory>
#include <optional>

using namespace padx;
using namespace padx::perfbench;

namespace {

/// Each kernel enters twice: at a fixed size with the power-of-two-like
/// extents the paper pads for (large, stable gains), and at a seeded odd
/// size from a band (odd extents rarely alias, so the seeded half moves
/// miss_ratio only a little between seeds). Sizes are chosen so one
/// default search takes roughly 20-500 ms on base16k (at their default
/// sizes mult, shal and swim take seconds), and the bands are narrow so
/// that a seed changes each program's cost by at most ~20%, which keeps
/// the heaviest programs, and with them latency_tail_ms, comparable
/// across seeds. The mix covers
/// the K-lane probes (<= 6 refs per innermost body: jacobi, mult, dgefa,
/// chol), the scalar lane loop (> 6: shal, expl, tomcatv), a
/// trace-declined indirect program (irr, direct walk) and triangular
/// nests the predictor leaves unscored (chol, dgefa, mult).
struct KernelBand {
  const char *Kernel;
  int64_t Fixed;
  int64_t Lo, Hi;
};
constexpr KernelBand kKernels[] = {
    {"jacobi", 256, 211, 223}, {"mult", 64, 53, 55},
    {"dgefa", 96, 85, 89},     {"chol", 96, 105, 111},
    {"irr", 5000, 4401, 4601}, {"shal", 96, 91, 97},
    {"expl", 64, 71, 77},      {"tomcatv", 64, 71, 77},
};
constexpr unsigned kSeededSizesPerKernel = 1;
/// Full round-robin passes over the program set per --seconds.
constexpr double kRoundsPerSecondL1 = 0.5;
constexpr double kRoundsPerSecondL2 = 0.4;
constexpr unsigned kSetupReps = 9;

struct SearchProgram {
  std::string Name;
  std::string Source;
  ProgramCensus Census;
};

std::vector<SearchProgram> makePrograms(uint64_t Seed) {
  Rng R(Seed * 0x51ed27ull + 1);
  std::vector<SearchProgram> Progs;
  auto Add = [&](const char *Kernel, int64_t N) {
    SearchProgram SP;
    SP.Name = std::string(Kernel) + std::to_string(N);
    SP.Source = kernels::kernelSource(Kernel, N);
    Progs.push_back(std::move(SP));
  };
  for (const KernelBand &B : kKernels)
    Add(B.Kernel, B.Fixed);
  for (unsigned S = 0; S != kSeededSizesPerKernel; ++S)
    for (const KernelBand &B : kKernels)
      Add(B.Kernel, R.range(B.Lo / 2, B.Hi / 2) * 2 + 1);
  return Progs;
}

std::unique_ptr<ir::Program> parse(const std::string &Source) {
  DiagnosticEngine Diags;
  std::optional<ir::Program> P = frontend::parseProgram(Source, Diags);
  if (!P)
    return nullptr;
  return std::make_unique<ir::Program>(std::move(*P));
}

/// Every deterministic number of one search, as one count-section line.
std::string countsOf(const search::SearchResult &R, uint64_t EmitHash) {
  std::string S = fmt("evals=%u candidates=%u duplicates=%u pruned=%u "
                      "rounds=%u restarts=%u batch=%u accesses=%llu "
                      "best=%.17g original=%.17g pad=%.17g",
                      R.ExactEvaluations, R.CandidatesGenerated,
                      R.DuplicatesSkipped, R.PrunedStatic, R.Rounds,
                      R.Restarts, R.BatchWidth,
                      static_cast<unsigned long long>(R.Accesses),
                      R.BestMisses, R.OriginalMisses, R.PadMisses);
  for (size_t I = 0; I != R.BestLevelMisses.size(); ++I)
    S += fmt(" %s=%.17g", R.LevelNames[I].c_str(), R.BestLevelMisses[I]);
  S += fmt(" emit=%016llx", static_cast<unsigned long long>(EmitHash));
  return S;
}

struct OpSample {
  unsigned Prog = 0;
  bool Ok = false;
  double Sec = 0;
  double Cpu = 0;
  std::string Counts;
  /// Traced twins only: the op span and its layers' self times.
  double OpSpan = 0, ParseSelf = 0, SearchSelf = 0, EmitSelf = 0;
  HwCounters::Reading Hw;
};

/// The first search of each program, kept for the oracle.
struct Kept {
  std::unique_ptr<ir::Program> P;
  std::optional<search::SearchResult> R;
};

struct LoopResult {
  std::vector<OpSample> Ops;
  double CpuSec = 0;
  SearchTotals Totals;
};

/// One op: parse, search, emit. With a recording \p Spans, every call
/// into padx sits in a span under the op's root span. The first result
/// of each program goes to \p Keep for the oracle.
OpSample runOp(const std::vector<SearchProgram> &Progs, unsigned I,
               const search::SearchOptions &SO, SpanRecorder &Spans,
               const HwCounters &Hw, std::vector<Kept> *Keep, Report &Rep,
               LoopResult &L) {
  OpSample S;
  S.Prog = I % Progs.size();
  const SearchProgram &SP = Progs[S.Prog];
  const size_t First = Spans.spans().size();
  std::unique_ptr<ir::Program> P;
  std::optional<search::SearchResult> R;
  double SearchSec = 0;
  const HwCounters::Reading H0 = Hw.read();
  const double Cpu0 = processCpuSeconds();
  const double T0 = nowSeconds();
  try {
    ScopedSpan Op(Spans, "op", I);
    {
      ScopedSpan Sp(Spans, "frontend.parse", I);
      P = parse(SP.Source);
    }
    if (!P)
      throw std::runtime_error("parse failed");
    {
      ScopedSpan Sp(Spans, "search", I);
      const double TS = nowSeconds();
      R.emplace(search::runSearch(*P, SO));
      SearchSec = nowSeconds() - TS;
    }
    std::string Out;
    {
      ScopedSpan Sp(Spans, "layout.emit", I);
      Out = layout::transformedSourceToString(R->BestLayout);
    }
    S.Ok = true;
    S.Counts = countsOf(*R, fnv1a(Out));
  } catch (const std::exception &E) {
    Rep.opFailed(fmt("op %u (%s): %s", I, SP.Name.c_str(), E.what()));
  }
  S.Sec = nowSeconds() - T0;
  S.Cpu = processCpuSeconds() - Cpu0;
  const HwCounters::Reading H1 = Hw.read();
  S.Hw = {H1.Instructions - H0.Instructions, H1.LlcMisses - H0.LlcMisses};
  ++Rep.Attempted;
  L.CpuSec += S.Cpu;

  if (Spans.enabled()) {
    std::vector<Span> Mine(Spans.spans().begin() + First,
                           Spans.spans().end());
    for (Span &Sp : Mine)
      if (Sp.Parent >= 0)
        Sp.Parent -= static_cast<int>(First);
    const std::vector<double> Self = selfTimes(Mine);
    for (size_t K = 0; K != Mine.size(); ++K) {
      const std::string Name = Mine[K].Name;
      if (Name == "op")
        S.OpSpan = Mine[K].duration();
      else if (Name == "frontend.parse")
        S.ParseSelf = Self[K];
      else if (Name == "search")
        S.SearchSelf = Self[K];
      else if (Name == "layout.emit")
        S.EmitSelf = Self[K];
    }
  }
  if (S.Ok) {
    L.Totals.add(*R, SearchSec, SP.Census.TraceDeclined);
    if (Keep && !(*Keep)[S.Prog].R) {
      (*Keep)[S.Prog].P = std::move(P);
      (*Keep)[S.Prog].R = std::move(R);
    }
  }
  return S;
}

std::vector<double> latenciesMs(const LoopResult &L) {
  std::vector<double> V;
  for (const OpSample &S : L.Ops)
    V.push_back(S.Sec * 1e3);
  return V;
}

double opsPerCpu(const LoopResult &L) {
  return L.CpuSec > 0 ? static_cast<double>(L.Ops.size()) / L.CpuSec : 0;
}

/// The loop's end-to-end figures with each op costed at its program's
/// fastest repetition: on a shared host single searches swing up to 2x
/// with memory-system contention, which the raw per-op figures (kept in
/// the report) carry and the filtered ones do not.
struct EndToEnd {
  double LatencyMs = 0;
  TailChoice Tail;
  double OpsPerCpu = 0;
};

EndToEnd endToEnd(const LoopResult &L) {
  std::vector<unsigned> Prog;
  std::vector<double> Cpu;
  for (const OpSample &S : L.Ops) {
    Prog.push_back(S.Prog);
    Cpu.push_back(S.Cpu);
  }
  const std::vector<double> Lat = groupMinimum(latenciesMs(L), Prog);
  double CpuSum = 0;
  for (double C : groupMinimum(Cpu, Prog))
    CpuSum += C;
  EndToEnd E;
  E.LatencyMs = median(Lat);
  E.Tail = tailPercentile(Lat);
  E.OpsPerCpu = CpuSum > 0 ? static_cast<double>(L.Ops.size()) / CpuSum : 0;
  return E;
}

/// Set-up, repeated kSetupReps times: input generation, parsing, trace
/// recording (the census) and a warm-up search of the shortest trace
/// replay accepts. The warm-up evaluates only the seed layouts: a full
/// search would make set-up mostly replay, whose speed swings with the
/// host's memory contention. Returns each repetition's seconds.
std::vector<double> setUp(const Options &O, const search::SearchOptions &SO,
                          std::vector<SearchProgram> &Progs,
                          CpuRotation &Cpus) {
  std::vector<double> Sec;
  for (unsigned Rep = 0; Rep != kSetupReps; ++Rep) {
    Cpus.next();
    const double T0 = nowSeconds();
    Progs = makePrograms(O.Seed);
    size_t Cheapest = 0;
    uint64_t Fewest = UINT64_MAX;
    for (size_t I = 0; I != Progs.size(); ++I) {
      std::unique_ptr<ir::Program> P = parse(Progs[I].Source);
      if (!P)
        throw std::runtime_error("generated program " + Progs[I].Name +
                                 " does not parse");
      const ProgramCensus &C = Progs[I].Census = censusOf(*P);
      if (!C.TraceDeclined && C.Accesses < Fewest) {
        Fewest = C.Accesses;
        Cheapest = I;
      }
    }
    std::unique_ptr<ir::Program> W = parse(Progs[Cheapest].Source);
    search::SearchOptions Warm = SO;
    Warm.EvalBudget = 1; // Raised to the seed count.
    search::SearchResult WR = search::runSearch(*W, Warm);
    layout::transformedSourceToString(WR.BestLayout);
    Sec.push_back(nowSeconds() - T0);
  }
  return Sec;
}

/// What the oracle found besides pass/fail.
struct OracleResult {
  double MissRatio = 0;
  double L1ForwardShare = 0;
};

/// Outside the timed window: every op on a program must repeat its first
/// op's counts, and each distinct result, re-scored with the direct walk,
/// must equal the reported best and original costs and per-level misses,
/// with the best no worse than PAD. Each op fails at most once; ops that
/// threw were counted when they did. Fills the count section.
OracleResult checkResults(const Options &O,
                          const std::vector<SearchProgram> &Progs,
                          const std::vector<Kept> &Keep,
                          const LoopResult &Main, const MachineModel &M,
                          Report &Rep) {
  std::vector<bool> Bad;
  for (const OpSample &S : Main.Ops)
    Bad.push_back(!S.Ok);
  for (size_t I = 0; I != Main.Ops.size(); ++I) {
    const OpSample &S = Main.Ops[I], &First = Main.Ops[S.Prog];
    if (!Bad[I] && First.Ok && S.Counts != First.Counts) {
      Bad[I] = true;
      Rep.opFailed(fmt("%s: search counts differ between ops: '%s' vs '%s'",
                       Progs[S.Prog].Name.c_str(), S.Counts.c_str(),
                       First.Counts.c_str()));
    }
  }
  auto FailProgram = [&](size_t Prog, const std::string &Why) {
    uint64_t N = 0;
    for (size_t I = 0; I != Main.Ops.size(); ++I)
      if (Main.Ops[I].Prog == Prog && !Bad[I]) {
        Bad[I] = true;
        ++N;
      }
    Rep.opFailed(Why, N);
  };

  std::vector<double> Ratios;
  double L1Misses = 0, L1Accesses = 0;
  Rep.count("workload", O.Workload);
  Rep.count("ops", static_cast<double>(Main.Ops.size()));
  for (size_t I = 0; I != Progs.size(); ++I) {
    const std::string Id = std::to_string(I);
    Rep.count("program." + Id, Progs[I].Name);
    if (!Keep[I].R) {
      Rep.count("search." + Id, "failed");
      continue;
    }
    const search::SearchResult &R = *Keep[I].R;
    Rep.count("search." + Id, Main.Ops[I].Counts);
    const SimCost Best = walkCost(R.BestLayout, M);
    const SimCost Orig = walkCost(layout::originalLayout(*Keep[I].P), M);
    Rep.count("walk." + Id,
              fmt("best=%.17g original=%.17g accesses=%llu", Best.Cost,
                  Orig.Cost, static_cast<unsigned long long>(Best.Accesses)));
    if (Best.Cost != R.BestMisses || Best.LevelMisses != R.BestLevelMisses ||
        Orig.Cost != R.OriginalMisses || Best.Accesses != R.Accesses)
      FailProgram(I, fmt("%s: direct walk best %.17g / original %.17g, "
                         "search reported %.17g / %.17g",
                         Progs[I].Name.c_str(), Best.Cost, Orig.Cost,
                         R.BestMisses, R.OriginalMisses));
    if (!(R.BestMisses <= R.PadMisses))
      FailProgram(I, fmt("%s: best %.17g is worse than PAD %.17g",
                         Progs[I].Name.c_str(), R.BestMisses, R.PadMisses));
    if (Orig.Cost > 0)
      Ratios.push_back(Best.Cost / Orig.Cost);
    L1Misses += Best.LevelMisses.front();
    L1Accesses += static_cast<double>(Best.Accesses);
  }
  OracleResult Res;
  Res.MissRatio = geomean(Ratios);
  Res.L1ForwardShare = L1Accesses > 0 ? L1Misses / L1Accesses : 0;
  Rep.count("miss_ratio", Res.MissRatio);
  return Res;
}

/// Per-program rows, the input census and the raw per-op figures.
void reportRows(const std::vector<SearchProgram> &Progs,
                const std::vector<Kept> &Keep, const LoopResult &Main,
                unsigned Rounds, bool PaperL2, const HwCounters &Hw,
                Report &Rep) {
  for (size_t I = 0; I != Progs.size(); ++I) {
    std::vector<double> Lat;
    for (const OpSample &S : Main.Ops)
      if (S.Prog == I)
        Lat.push_back(S.Sec * 1e3);
    const search::SearchResult *R = Keep[I].R ? &*Keep[I].R : nullptr;
    Rep.note(fmt("program %-12s median %8.2f ms  exact evals %3u  best %.17g"
                 "  original %.17g  accesses %.0f",
                 Progs[I].Name.c_str(), median(Lat),
                 R ? R->ExactEvaluations : 0u, R ? R->BestMisses : 0.0,
                 R ? R->OriginalMisses : 0.0,
                 static_cast<double>(Progs[I].Census.Accesses)));
  }
  for (size_t I = 0; I != Main.Ops.size(); ++I)
    Rep.detail(fmt("op %zu %s wall_ms %.4f cpu_ms %.4f", I,
                   Progs[Main.Ops[I].Prog].Name.c_str(),
                   Main.Ops[I].Sec * 1e3, Main.Ops[I].Cpu * 1e3));

  double Declined = 0, Wide = 0, Unscored = 0, Instr = 0, Llc = 0;
  for (const OpSample &S : Main.Ops) {
    const ProgramCensus &C = Progs[S.Prog].Census;
    Declined += C.TraceDeclined;
    Wide += C.wideBody();
    Unscored += C.unscored();
    Instr += static_cast<double>(S.Hw.Instructions);
    Llc += static_cast<double>(S.Hw.LlcMisses);
  }
  const double N = static_cast<double>(Main.Ops.size());
  Rep.note(fmt("census: trace declined %.3f, >%u refs per innermost body "
               "%.3f, predictor-unscored nests %.3f, fresh programs %.3f "
               "(each program repeats %u times), %s requests 1.000",
               Declined / N, kProbeMaxRefs, Wide / N, Unscored / N,
               static_cast<double>(Progs.size()) / N, Rounds,
               PaperL2 ? "machine (paper-l2)" : "single-level (base16k)"));
  Rep.note("hardware counters: " + Hw.status());
  if (Hw.available())
    Rep.note(fmt("hardware counters per op: %.0f instructions, %.0f LLC "
                 "misses",
                 Instr / N, Llc / N));
  const std::vector<double> Raw = latenciesMs(Main);
  Rep.note(fmt("raw per-op figures (host interference included): median "
               "%.4f ms, mean %.4f ms, tail %.4f ms, %.4f ops/cpu-s",
               median(Raw), mean(Raw), tailPercentile(Raw).Value,
               opsPerCpu(Main)));
}

/// The traced run's per-layer metrics: op layers from the traced twins,
/// idle layers and exec unit costs from outside probes.
void reportLayers(const Options &O, const std::vector<SearchProgram> &Progs,
                  const std::vector<Kept> &Keep, const LoopResult &Main,
                  const LoopResult &Traced, const OracleResult &Oracle,
                  const MachineModel &M, Report &Rep) {
  for (const OpSample &S : Traced.Ops)
    if (S.Ok && S.Counts != Main.Ops[S.Prog].Counts)
      Rep.opFailed(fmt("%s: traced search counts differ from untraced",
                       Progs[S.Prog].Name.c_str()));

  LayerProbe LP;
  std::vector<std::string> Sources;
  for (size_t I = 0; I != Progs.size(); ++I) {
    Sources.push_back(Progs[I].Source);
    if (!Keep[I].R)
      continue;
    const ir::Program &P = *Keep[I].P;
    LP.analysis(P, M);
    LP.lint(P, Progs[I].Source, M);
    std::vector<layout::DataLayout> Seeds;
    Seeds.push_back(layout::originalLayout(P));
    Seeds.push_back(LP.pad(P, M, /*Lite=*/false));
    Seeds.push_back(LP.pad(P, M, /*Lite=*/true));
    Seeds.push_back(Keep[I].R->BestLayout);
    LP.exec(P, Seeds);
  }
  reportProbe(LP, Rep);
  reportServerProbe(probeServer(Sources, M, socketPath(O)), Rep);
  Traced.Totals.report(Rep);

  double Parse = 0, Emit = 0, Search = 0, OpSpan = 0, Source = 0;
  for (const OpSample &S : Traced.Ops) {
    Parse += S.ParseSelf;
    Emit += S.EmitSelf;
    Search += S.SearchSelf;
    OpSpan += S.OpSpan;
    Source += static_cast<double>(Progs[S.Prog].Source.size()) / 1024.0;
  }
  const double N = static_cast<double>(Traced.Ops.size());
  Rep.metric("frontend.parse_ms", Parse * 1e3 / N, "ms");
  Rep.metric("frontend.source_kb", Source / N, "KiB");
  // Search ops never consult the daemon's cross-request cache.
  Rep.metric("pipeline.shared_hit_rate", 0, "1");
  Rep.metric("pipeline.shared_evicted", 0, "count");
  Rep.metric("layout.emit_ms", Emit * 1e3 / N, "ms");
  Rep.metric("cachesim.l1_forward_share", Oracle.L1ForwardShare, "1");

  const EndToEnd U = endToEnd(Main), T = endToEnd(Traced);
  const double Unattributed = (OpSpan - Parse - Emit - Search) * 1e3 / N;
  Rep.metric("trace.op_ms", OpSpan * 1e3 / N, "ms");
  Rep.metric("trace.unattributed_ms", Unattributed, "ms");
  Rep.metric("trace.overhead_latency_ms", T.LatencyMs - U.LatencyMs, "ms");
  Rep.metric("trace.overhead_ops_per_cpu_s", T.OpsPerCpu - U.OpsPerCpu,
             "1/s");
  const SearchTotals &ST = Traced.Totals;
  Rep.note(fmt("traced: op span %.3f ms = parse %.3f + search bookkeeping "
               "%.3f + exact eval %.3f + emit %.3f + unattributed %.4f; "
               "tracing overhead %.3f ms latency, %.4f ops/cpu-s",
               OpSpan * 1e3 / N, Parse * 1e3 / N,
               (Search - ST.ExactSec) * 1e3 / N, ST.ExactSec * 1e3 / N,
               Emit * 1e3 / N, Unattributed, T.LatencyMs - U.LatencyMs,
               T.OpsPerCpu - U.OpsPerCpu));
  Rep.note(fmt("batched replay: %.2f exact evals per round against a batch "
               "width of %.0f lanes; exec unit costs %.3f ns/access in ops, "
               "batch %.3f ns/lane-access, sequential %.3f, walk %.3f",
               ST.Evals / (ST.Rounds + ST.Searches), ST.Batch,
               nsPer(ST.ExactSec, ST.SimAccesses),
               Rep.metricValue("exec.batch_ns_per_lane_access"),
               Rep.metricValue("exec.seq_ns_per_access"),
               Rep.metricValue("exec.walk_ns_per_access")));
  Rep.note("idle layers (analysis, core, lint, server) are timed from "
           "outside on each distinct program");
}

} // namespace

int padx::perfbench::runSearchWorkload(const Options &O, bool PaperL2) {
  Report Rep;
  const MachineModel M =
      PaperL2 ? MachineModel::paperL2() : singleLevelMachine();
  search::SearchOptions SO;
  if (PaperL2)
    SO.Machine = M;

  // Set-up repetitions and ops rotate over the CPUs, one at a time.
  CpuRotation Cpus;
  std::vector<SearchProgram> Progs;
  const std::vector<double> SetupSec = setUp(O, SO, Progs, Cpus);

  const unsigned Rounds = std::max<unsigned>(
      1, static_cast<unsigned>(
             O.Seconds * (PaperL2 ? kRoundsPerSecondL2 : kRoundsPerSecondL1) +
             0.5));
  const unsigned NumOps = Rounds * static_cast<unsigned>(Progs.size());

  // The timed window. A traced run follows each op with its traced
  // twin, so both passes see the same host conditions and their
  // difference is the tracing overhead.
  HwCounters Hw(/*Inherit=*/false);
  SpanRecorder NoSpans(false), Spans(O.Trace);
  std::vector<Kept> Keep(Progs.size());
  LoopResult Main, Traced;
  for (unsigned I = 0; I != NumOps; ++I) {
    // An extra step per round, so each program visits every CPU.
    if (I != 0 && I % Progs.size() == 0)
      Cpus.next();
    Cpus.next();
    Main.Ops.push_back(runOp(Progs, I, SO, NoSpans, Hw, &Keep, Rep, Main));
    if (O.Trace)
      Traced.Ops.push_back(
          runOp(Progs, I, SO, Spans, Hw, nullptr, Rep, Traced));
  }
  Cpus.release(); // The probes below start daemon threads.

  const OracleResult Oracle = checkResults(O, Progs, Keep, Main, M, Rep);
  reportRows(Progs, Keep, Main, Rounds, PaperL2, Hw, Rep);
  const EndToEnd E2E = endToEnd(Main);
  Rep.note(fmt("latency_ms and latency_tail_ms cost each op at its "
               "program's fastest of %u repetitions; latency_tail_ms is "
               "p%.2f of %zu ops (%zu samples beyond)",
               Rounds, E2E.Tail.Percentile, Main.Ops.size(),
               E2E.Tail.Beyond));
  Rep.note(fmt("setup repetitions: %u, median %.4f s", kSetupReps,
               median(SetupSec)));

  if (O.Trace) {
    writeSpans(O, Spans.spans());
    reportLayers(O, Progs, Keep, Main, Traced, Oracle, M, Rep);
  }
  else
    reportEndToEnd(Rep, E2E.LatencyMs, E2E.Tail.Value, E2E.OpsPerCpu,
                   median(SetupSec), Oracle.MissRatio);
  return Rep.finish(O);
}
