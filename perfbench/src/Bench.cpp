//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "cachesim/CacheHierarchy.h"
#include "cachesim/CacheSim.h"
#include "exec/MultiTraceReplayer.h"
#include "exec/RecordedTrace.h"
#include "exec/Trace.h"
#include "exec/TraceRunner.h"
#include "lint/Linter.h"
#include "lint/Output.h"
#include "pipeline/PadPipeline.h"
#include "search/SearchEngine.h"
#include "support/JsonWriter.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace padx;
using namespace padx::perfbench;

std::string padx::perfbench::fmt(const char *Format, ...) {
  va_list Args, Copy;
  va_start(Args, Format);
  va_copy(Copy, Args);
  int N = std::vsnprintf(nullptr, 0, Format, Copy);
  va_end(Copy);
  std::string Out(N > 0 ? static_cast<size_t>(N) : 0, '\0');
  std::vsnprintf(Out.data(), Out.size() + 1, Format, Args);
  va_end(Args);
  return Out;
}

void Report::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  for (Metric &M : Metrics)
    if (M.Name == Name) {
      M.Value = Value;
      M.Unit = Unit;
      return;
    }
  Metrics.push_back({Name, Value, Unit});
}

double Report::metricValue(const std::string &Name) const {
  for (const Metric &M : Metrics)
    if (M.Name == Name)
      return M.Value;
  return 0;
}

void Report::count(const std::string &Key, const std::string &Value) {
  Counts.push_back(Key + " " + Value);
}

void Report::count(const std::string &Key, double Value) {
  count(Key, fmt("%.17g", Value));
}

void Report::opFailed(const std::string &Why, uint64_t Ops) {
  Failed += Ops;
  Failures.push_back(Why);
}

void Report::checkFailed(const std::string &Why) {
  Correct = false;
  Failures.push_back(Why);
}

int Report::finish(const Options &O) {
  std::string Section;
  for (const std::string &C : Counts)
    Section += C + "\n";
  const uint64_t Digest = fnv1a(Section);

  // The count section must repeat exactly for a seed: the first correct
  // run at a seed stores it, every later run (traced or not) compares.
  const std::string Stem = O.StateDir + "/" + O.Workload + "-seed" +
                           std::to_string(O.Seed) + "-s" +
                           std::to_string(O.Seconds);
  const std::string CountsPath = Stem + ".counts";
  std::string Stored;
  bool HaveStored = false;
  {
    std::ifstream In(CountsPath, std::ios::binary);
    if (In) {
      std::ostringstream SS;
      SS << In.rdbuf();
      Stored = SS.str();
      HaveStored = true;
    }
  }
  if (HaveStored && Stored != Section) {
    std::istringstream A(Stored), B(Section);
    std::string LA, LB;
    unsigned Line = 1;
    while (true) {
      bool GA = static_cast<bool>(std::getline(A, LA));
      bool GB = static_cast<bool>(std::getline(B, LB));
      if (!GA || !GB || LA != LB) {
        checkFailed(fmt("count section differs from the stored run at "
                        "seed %llu, line %u: stored '%s', now '%s'",
                        static_cast<unsigned long long>(O.Seed), Line,
                        GA ? LA.c_str() : "<end>",
                        GB ? LB.c_str() : "<end>"));
        break;
      }
      ++Line;
    }
  }
  const bool AllCorrect = Correct && Failed == 0;
  if (!HaveStored && AllCorrect) {
    std::ofstream Out(CountsPath, std::ios::binary);
    Out << Section;
  }
  note(fmt("count section: %zu values, digest %016llx (%s)", Counts.size(),
           static_cast<unsigned long long>(Digest),
           HaveStored  ? "compared with the stored run at this seed"
           : AllCorrect ? "stored as the reference for this seed"
                        : "not stored: this run failed"));

  {
    std::ofstream Out(Stem + (O.Trace ? "-trace1" : "-trace0") +
                          ".report",
                      std::ios::binary);
    for (const std::string &N : Notes)
      Out << N << "\n";
    for (const std::string &F : Failures)
      Out << "FAIL " << F << "\n";
    for (const std::string &D : Details)
      Out << D << "\n";
    Out << "# count section\n" << Section;
  }

  for (const std::string &N : Notes)
    std::cout << N << "\n";
  size_t Shown = 0;
  for (const std::string &F : Failures) {
    if (++Shown > 20) {
      std::cout << "FAIL ... " << Failures.size() - 20 << " more\n";
      break;
    }
    std::cout << "FAIL " << F << "\n";
  }

  std::ostringstream OS;
  support::JsonWriter JW(OS);
  JW.beginObject();
  JW.field("correct", AllCorrect);
  JW.field("attempted", Attempted);
  JW.field("failed", Failed);
  JW.key("metrics");
  JW.beginObject();
  for (const Metric &M : Metrics) {
    JW.key(M.Name);
    JW.beginObject();
    JW.field("value", M.Value);
    JW.field("unit", M.Unit);
    JW.endObject();
  }
  JW.endObject();
  JW.endObject();
  std::cout << OS.str() << std::endl;
  return 0;
}

void padx::perfbench::writeSpans(const Options &O,
                                 const std::vector<Span> &Spans) {
  std::ofstream Out(O.StateDir + "/" + O.Workload + "-seed" +
                        std::to_string(O.Seed) + "-s" +
                        std::to_string(O.Seconds) + ".spans",
                    std::ios::binary);
  Out << "op\tname\tstart_s\tend_s\tparent\tself_s\n";
  const std::vector<double> Self = selfTimes(Spans);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out << fmt("%u\t%s\t%.9f\t%.9f\t%d\t%.9f\n", S.Op, S.Name, S.Start,
               S.End, S.Parent, Self[I]);
  }
}

SimCost padx::perfbench::walkCost(const layout::DataLayout &DL,
                                  const MachineModel &M) {
  SimCost S;
  exec::TraceRunner Runner(DL.program(), DL);
  if (M.isSingleLevel()) {
    sim::CacheSim Sim(M.firstCache());
    exec::CacheSimSink Sink(Sim);
    Runner.run(Sink);
    double Misses = static_cast<double>(Sim.stats().Misses);
    S.Cost = M.Levels.front().Weight * Misses;
    S.LevelMisses = {Misses};
    S.Accesses = Sim.stats().Accesses;
    return S;
  }
  sim::CacheHierarchy H(M);
  exec::HierarchySink Sink(H);
  Runner.run(Sink);
  S.Accesses = H.stats(H.firstCacheLevel()).Accesses;
  for (unsigned I = 0; I != H.numLevels(); ++I) {
    double Misses = static_cast<double>(H.stats(I).Misses);
    S.LevelMisses.push_back(Misses);
    S.Cost += H.level(I).Weight * Misses;
  }
  return S;
}

MachineModel padx::perfbench::singleLevelMachine() {
  return MachineModel::singleLevel(CacheConfig::base16K());
}

CpuRotation::CpuRotation() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return;
  for (int C = 0; C != CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Set))
      Cpus.push_back(C);
}

CpuRotation::~CpuRotation() { release(); }

void CpuRotation::release() {
  if (Cpus.size() < 2)
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int C : Cpus)
    CPU_SET(C, &Set);
  sched_setaffinity(0, sizeof(Set), &Set);
}

void CpuRotation::next() {
  if (Cpus.size() < 2)
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpus[Next], &Set);
  Next = (Next + 1) % Cpus.size();
  sched_setaffinity(0, sizeof(Set), &Set);
}

std::string padx::perfbench::socketPath(const Options &O) {
  return O.StateDir + "/padd-" + std::to_string(::getpid()) + ".sock";
}

void LayerProbe::analysis(const ir::Program &P, const MachineModel &M) {
  pipeline::PadPipeline PP(P);
  pipeline::AnalysisManager &AM = PP.analysis();
  const layout::DataLayout DL = layout::originalLayout(P);
  const CacheConfig C = M.firstCache();
  const double T0 = nowSeconds();
  AM.referenceGroups();
  const double T1 = nowSeconds();
  AM.iterationCounts();
  const double T2 = nowSeconds();
  AM.safety();
  AM.linearAlgebraArrays();
  AM.percentUniformRefs();
  AM.reuse(DL, C);
  AM.missEstimate(DL, C);
  const double T3 = nowSeconds();
  AM.severeConflicts(DL, C);
  const double T4 = nowSeconds();
  if (M.isSingleLevel())
    AM.latticePrediction(DL, C);
  else
    AM.machineLatticePrediction(DL, M);
  const double T5 = nowSeconds();
  ++AnalysisPrograms;
  AnalysisColdSec += T5 - T0;
  IterationCountsSec += T2 - T1;
  ConflictReportSec += T4 - T3;
  LatticeSec += T5 - T4;
}

pad::PaddingResult padx::perfbench::runPadding(const ir::Program &P,
                                              const MachineModel &M,
                                              bool Lite,
                                              pipeline::PadPipeline &PP) {
  if (M.isSingleLevel())
    return Lite ? pad::runPadLite(P, M.firstCache(), PP)
                : pad::runPad(P, M.firstCache(), PP);
  return pad::applyPadding(P, M,
                           Lite ? pad::PaddingScheme::padLite()
                                : pad::PaddingScheme::pad(),
                           PP);
}

layout::DataLayout LayerProbe::pad(const ir::Program &P,
                                   const MachineModel &M, bool Lite) {
  pipeline::PadPipeline PP(P);
  const double T0 = nowSeconds();
  pad::PaddingResult R = runPadding(P, M, Lite, PP);
  ++PadCalls;
  PadSec += nowSeconds() - T0;
  return std::move(R.Layout);
}

void LayerProbe::lint(const ir::Program &P, const std::string &Source,
                      const MachineModel &M) {
  pipeline::PadPipeline PP(P);
  const layout::DataLayout DL = layout::originalLayout(P);
  lint::LintOptions LO;
  LO.Cache = M.firstCache();
  if (!M.isSingleLevel())
    LO.Machine = M;
  lint::Linter L(LO);
  const double T0 = nowSeconds();
  lint::LintResult Res = L.run(DL, PP);
  const double T1 = nowSeconds();
  std::string Text = lint::renderText(Res, DL, Source, P.name() + ".pad");
  const double T2 = nowSeconds();
  ++LintPrograms;
  LintRulesSec += T1 - T0;
  LintRenderSec += T2 - T1;
  LintFindings += Res.Findings.size();
  LintReportBytes += Text.size();
}

void LayerProbe::exec(const ir::Program &P,
                      const std::vector<layout::DataLayout> &Layouts) {
  const CacheConfig C = CacheConfig::base16K();
  double T0 = nowSeconds();
  std::unique_ptr<exec::RecordedTrace> T = exec::RecordedTrace::record(P);
  RecordSec += nowSeconds() - T0;
  ++ExecPrograms;

  {
    sim::CacheSim Sim(C);
    exec::CacheSimSink Sink(Sim);
    exec::TraceRunner Runner(P, Layouts.front());
    T0 = nowSeconds();
    Runner.run(Sink);
    WalkSec += nowSeconds() - T0;
    WalkAccesses += static_cast<double>(Sim.stats().Accesses);
  }
  if (!T)
    return; // Declined: every evaluation is the walk above.
  const double N = static_cast<double>(T->numAccesses());

  constexpr unsigned K = exec::MultiTraceReplayer::kMaxLanes;
  std::vector<layout::DataLayout> Lanes;
  for (unsigned I = 0; I != K; ++I)
    Lanes.push_back(Layouts[I % Layouts.size()]);
  std::vector<sim::CacheStats> Stats(K);
  exec::MultiTraceReplayer Batch(*T, C);
  T0 = nowSeconds();
  Batch.replay(Lanes, Stats);
  BatchSec += nowSeconds() - T0;
  BatchLaneAccesses += K * N;

  exec::TraceReplayer Seq(*T);
  sim::CacheSim Sim(C);
  T0 = nowSeconds();
  for (const layout::DataLayout &DL : Layouts) {
    Sim.reset();
    Seq.replay(DL, Sim);
  }
  SeqSec += nowSeconds() - T0;
  SeqAccesses += static_cast<double>(Layouts.size()) * N;

  exec::TraceReplayer HierSeq(*T);
  sim::CacheHierarchy H(MachineModel::paperL2());
  T0 = nowSeconds();
  for (const layout::DataLayout &DL : Layouts) {
    H.reset();
    HierSeq.replay(DL, H);
  }
  HierSec += nowSeconds() - T0;
  HierAccesses += static_cast<double>(Layouts.size()) * N;
}

void padx::perfbench::reportProbe(const LayerProbe &LP, Report &R) {
  const double Progs = LP.AnalysisPrograms;
  auto PerProg = [&](double Sec) { return Progs ? Sec * 1e3 / Progs : 0; };
  R.metric("analysis.cold_ms", PerProg(LP.AnalysisColdSec), "ms");
  R.metric("analysis.iteration_counts_ms", PerProg(LP.IterationCountsSec),
           "ms");
  R.metric("analysis.conflict_report_ms", PerProg(LP.ConflictReportSec),
           "ms");
  R.metric("analysis.lattice_ms", PerProg(LP.LatticeSec), "ms");
  R.metric("core.pad_ms", perCall(LP.PadSec, LP.PadCalls), "ms");
  R.metric("lint.rules_ms", perCall(LP.LintRulesSec, LP.LintPrograms),
           "ms");
  R.metric("lint.render_ms", perCall(LP.LintRenderSec, LP.LintPrograms),
           "ms");
  const double LintN = LP.LintPrograms ? LP.LintPrograms : 1;
  R.metric("lint.findings", static_cast<double>(LP.LintFindings) / LintN,
           "count");
  R.metric("lint.report_kb",
           static_cast<double>(LP.LintReportBytes) / 1024.0 / LintN, "KiB");
  R.metric("exec.record_ms", perCall(LP.RecordSec, LP.ExecPrograms), "ms");
  R.metric("exec.batch_ns_per_lane_access",
           nsPer(LP.BatchSec, LP.BatchLaneAccesses), "ns");
  R.metric("exec.seq_ns_per_access", nsPer(LP.SeqSec, LP.SeqAccesses),
           "ns");
  R.metric("exec.walk_ns_per_access", nsPer(LP.WalkSec, LP.WalkAccesses),
           "ns");
  R.metric("cachesim.hier_ns_per_access", nsPer(LP.HierSec, LP.HierAccesses),
           "ns");
}

void SearchTotals::add(const search::SearchResult &R, double Sec,
                       bool TraceDeclined) {
  ++Searches;
  Evals += R.ExactEvaluations;
  Candidates += R.CandidatesGenerated;
  Duplicates += R.DuplicatesSkipped;
  Pruned += R.PrunedStatic;
  Rounds += R.Rounds;
  Restarts += R.Restarts;
  for (const std::string &L : R.Log)
    Improvements += L.find(": improved to ") != std::string::npos;
  Batch = std::max<double>(Batch, R.BatchWidth);
  Declined += TraceDeclined;
  SearchSec += Sec;
  ExactSec += R.ExactEvalSeconds;
  SimAccesses += static_cast<double>(R.ExactEvaluations) *
                 static_cast<double>(R.Accesses);
}

void SearchTotals::report(Report &R) const {
  const double N = Searches ? Searches : 1;
  R.metric("search.bookkeeping_ms", (SearchSec - ExactSec) * 1e3 / N, "ms");
  R.metric("search.exact_evals", Evals / N, "count");
  R.metric("search.candidates", Candidates / N, "count");
  R.metric("search.duplicates", Duplicates / N, "count");
  R.metric("search.pruned", Pruned / N, "count");
  R.metric("search.rounds", Rounds / N, "count");
  R.metric("search.restarts", Restarts / N, "count");
  // One seed batch plus one batch per round: how full each replay batch
  // runs against search.batch_width lanes.
  R.metric("search.evals_per_round", Evals / (Rounds + Searches), "count");
  R.metric("search.batch_width", Batch, "count");
  R.metric("search.improve_rate", Evals > 0 ? Improvements / Evals : 0, "1");
  R.metric("exec.exact_eval_ms", ExactSec * 1e3 / N, "ms");
  R.metric("exec.sim_accesses", SimAccesses / N, "count");
  R.metric("exec.ns_per_access", nsPer(ExactSec, SimAccesses), "ns");
  R.metric("exec.declined_share", Declined / N, "1");
}

void padx::perfbench::reportEndToEnd(Report &R, double LatencyMs,
                                     double TailMs, double OpsPerCpu,
                                     double SetupSec, double MissRatio) {
  R.metric("latency_ms", LatencyMs, "ms");
  R.metric("latency_tail_ms", TailMs, "ms");
  R.metric("ops_per_cpu_s", OpsPerCpu, "1/s");
  R.metric("setup_s", SetupSec, "s");
  R.metric("miss_ratio", MissRatio, "1");
  R.metric("success_rate",
           1.0 - static_cast<double>(R.Failed) /
                     static_cast<double>(std::max<uint64_t>(1, R.Attempted)),
           "1");
  R.metric("peak_rss_mb", peakRssMiB(), "MiB");
}
