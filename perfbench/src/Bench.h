//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing of the padx benchmark: command-line options, the
/// report (metrics, notes, count section, result line), simulation
/// helpers for the oracles, and the per-layer probes that time padx's
/// public functions from outside.
///
//===----------------------------------------------------------------------===//

#ifndef PADX_PERFBENCH_BENCH_H
#define PADX_PERFBENCH_BENCH_H

#include "Arith.h"

#include "core/Padding.h"
#include "layout/DataLayout.h"
#include "machine/MachineModel.h"

#include <cstdint>
#include <string>
#include <vector>

namespace padx {
namespace search {
struct SearchResult;
} // namespace search

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  unsigned Seconds = 10;
  bool Trace = false;
  /// Where count sections and full reports persist between runs.
  std::string StateDir = ".bench_build/perfbench/state";
};

/// Everything one run prints. Metrics keep insertion order; the count
/// section holds only values that must repeat exactly for a seed.
class Report {
public:
  void metric(const std::string &Name, double Value,
              const std::string &Unit);
  double metricValue(const std::string &Name) const;

  /// A human-readable line printed before the result line.
  void note(const std::string &Line) { Notes.push_back(Line); }
  /// A line for the report file only (per-op rows).
  void detail(const std::string &Line) { Details.push_back(Line); }
  /// One deterministic count: "key value".
  void count(const std::string &Key, const std::string &Value);
  void count(const std::string &Key, double Value);

  /// \p Ops ops failed (exception, bad reply, oracle mismatch).
  void opFailed(const std::string &Why, uint64_t Ops = 1);
  /// A benchmark-level check failed (count section disagreement).
  void checkFailed(const std::string &Why);

  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  /// Compares the count section with the one stored for this seed (and
  /// stores it when none is), writes the full report, prints notes and
  /// the result line. Returns the process exit code.
  int finish(const Options &O);

private:
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Metric> Metrics;
  std::vector<std::string> Notes;
  std::vector<std::string> Details;
  std::vector<std::string> Counts;
  std::vector<std::string> Failures;
  bool Correct = true;
};

std::string fmt(const char *Format, ...)
    __attribute__((format(printf, 1, 2)));

/// Writes the traced run's spans, one per line (op, name, start, end,
/// parent index, self time; seconds), next to the count section.
void writeSpans(const Options &O, const std::vector<Span> &Spans);

/// An exact simulation result: weighted cost (misses on one level), the
/// unweighted per-level misses, and first-level accesses.
struct SimCost {
  double Cost = 0;
  std::vector<double> LevelMisses;
  uint64_t Accesses = 0;
};

/// The direct walk: exec::TraceRunner into sim::CacheSim (one level) or
/// sim::CacheHierarchy — independent of the recorded-trace replayers the
/// search scores candidates with.
SimCost walkCost(const layout::DataLayout &DL, const MachineModel &M);

/// PAD or PADLITE the way padd's pad ops run it: runPad / runPadLite on
/// a single level, applyPadding on a multi-level machine.
pad::PaddingResult runPadding(const ir::Program &P, const MachineModel &M,
                              bool Lite, pipeline::PadPipeline &PP);

/// Per-layer probe sums, each layer's public function timed from outside
/// per distinct program. Workloads report these for layers their ops
/// leave idle and for the exec unit costs.
struct LayerProbe {
  unsigned AnalysisPrograms = 0;
  double AnalysisColdSec = 0, IterationCountsSec = 0,
         ConflictReportSec = 0, LatticeSec = 0;

  unsigned PadCalls = 0;
  double PadSec = 0;

  unsigned LintPrograms = 0;
  double LintRulesSec = 0, LintRenderSec = 0;
  uint64_t LintFindings = 0, LintReportBytes = 0;

  unsigned ExecPrograms = 0;
  double RecordSec = 0;
  double BatchSec = 0, SeqSec = 0, WalkSec = 0, HierSec = 0;
  double BatchLaneAccesses = 0, SeqAccesses = 0, WalkAccesses = 0,
         HierAccesses = 0;

  /// Cold analyses on a fresh pipeline: every AnalysisManager accessor
  /// the pad, lint and search layers use, for the original layout.
  void analysis(const ir::Program &P, const MachineModel &M);
  /// runPadding on a fresh pipeline; returns the padded layout.
  layout::DataLayout pad(const ir::Program &P, const MachineModel &M,
                         bool Lite);
  /// Linter::run and renderText on the original layout.
  void lint(const ir::Program &P, const std::string &Source,
            const MachineModel &M);
  /// Trace record and the three replay paths plus the hierarchy on
  /// \p Layouts (cycled to fill 16 batch lanes).
  void exec(const ir::Program &P,
            const std::vector<layout::DataLayout> &Layouts);
};

/// Metric helpers shared by the workloads.
inline double perCall(double Sec, unsigned Calls) {
  return Calls ? Sec * 1e3 / Calls : 0;
}
inline double nsPer(double Sec, double Accesses) {
  return Accesses > 0 ? Sec * 1e9 / Accesses : 0;
}

/// Reports every per-layer metric the probe covers. Workloads then
/// overwrite the ones their ops measure directly.
void reportProbe(const LayerProbe &LP, Report &R);

/// Search and exec figures summed over runSearch calls.
struct SearchTotals {
  double Searches = 0, Evals = 0, Candidates = 0, Duplicates = 0,
         Pruned = 0, Rounds = 0, Restarts = 0, Improvements = 0,
         Batch = 0, Declined = 0;
  double SearchSec = 0, ExactSec = 0, SimAccesses = 0;

  /// One search that took \p Sec of wall time.
  void add(const search::SearchResult &R, double Sec, bool TraceDeclined);
  /// search.* and the per-search exec.* metrics, averaged per search.
  void report(Report &R) const;
};

/// The end-to-end metrics every workload prints, plus success_rate and
/// peak_rss_mb, which the report and the process already know.
void reportEndToEnd(Report &R, double LatencyMs, double TailMs,
                    double OpsPerCpu, double SetupSec, double MissRatio);

/// Moves the calling thread to the next CPU of its allowed set on each
/// next() call, round-robin, and restores the original set on release()
/// or when destroyed. A single-threaded loop that rotates this way samples every
/// CPU's neighbours instead of whichever CPU the scheduler kept it on:
/// on a shared host one CPU can run the replay probe at half the speed
/// of another for tens of seconds.
class CpuRotation {
public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;

  void next();
  /// Back to the original CPU set; threads started later inherit it.
  void release();

private:
  std::vector<int> Cpus;
  size_t Next = 0;
};

/// The single-level request machine on the wire: base16k.
MachineModel singleLevelMachine();

/// A private unix socket for the in-process daemon, under the state
/// directory (relative, so the path stays short).
std::string socketPath(const Options &O);

/// Pad requests for \p Sources through an in-process PaddServer (round
/// trips) and through RequestHandler::handleLine (handler time); wire
/// time is their difference. Sums over requests.
struct ServerProbe {
  unsigned Requests = 0;
  double HandlerSec = 0;
  double WireSec = 0;
  double ResponseBytes = 0;
  double PeakQueue = 0;
  double Shed = 0;
};
ServerProbe probeServer(const std::vector<std::string> &Sources,
                        const MachineModel &M, const std::string &SocketPath);
void reportServerProbe(const ServerProbe &P, Report &R);

int runSearchWorkload(const Options &O, bool PaperL2);
int runDaemonWorkload(const Options &O);

} // namespace perfbench
} // namespace padx

#endif // PADX_PERFBENCH_BENCH_H
