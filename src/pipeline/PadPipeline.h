//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instrumented pass sequence every padx consumer runs through. A
/// PadPipeline owns one AnalysisManager for one program and wraps each
/// logical phase (safety, intra-padding, base assignment, each lint
/// rule, candidate search) in a named, wall-clock-timed pass record.
/// runPad/runPadLite, lint::Linter, search::runSearch and the experiment
/// harness all accept a pipeline instead of hand-rolling their call
/// chains; padtool/padlint surface the records via --stats and
/// --stats-json.
///
/// Stats are snapshotted into a PipelineStats value that merges across
/// pipelines (padlint aggregates one pipeline per linted file), prints as
/// text, and serializes as the JSON shape ci.sh validates:
///
///   {"pipeline": {"passes": [{"name", "runs", "seconds"}...],
///                 "analysis_cache": {"enabled", "hits", "misses",
///                                    "invalidated", "kinds": [...]}}}
///
//===----------------------------------------------------------------------===//

#ifndef PADX_PIPELINE_PADPIPELINE_H
#define PADX_PIPELINE_PADPIPELINE_H

#include "pipeline/AnalysisManager.h"

#include <chrono>
#include <functional>
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace padx {
namespace support {
class JsonWriter;
} // namespace support
namespace pipeline {

/// Accumulated record of one named pass.
struct PassRecord {
  std::string Name;
  uint64_t Runs = 0;
  double Seconds = 0;
};

/// A mergeable, serializable snapshot of a pipeline's instrumentation.
struct PipelineStats {
  std::vector<PassRecord> Passes;
  AnalysisStats Analysis;
  bool CacheEnabled = true;

  /// Folds \p Other in: same-named passes accumulate, new names append
  /// in \p Other's order.
  void merge(const PipelineStats &Other);

  /// Human-readable table (padtool/padlint --stats).
  void printText(std::ostream &OS) const;

  /// The {"pipeline": ...} document (--stats-json). Emits a complete
  /// JSON object; callers wrap nothing around it. \p Extra, when
  /// non-null, is invoked after the "pipeline" member with the writer
  /// positioned at the top level, so callers can append sibling
  /// sections (padtool adds a "search" object with the search counters) —
  /// it must emit zero or more complete key/value members.
  void writeJson(std::ostream &OS,
                 const std::function<void(support::JsonWriter &)>
                     &Extra = nullptr) const;
};

class PadPipeline {
public:
  /// One pipeline per program. \p P must outlive the pipeline; with
  /// \p EnableAnalysisCache false the manager recomputes every query
  /// (benchmark baseline).
  explicit PadPipeline(const ir::Program &P,
                       bool EnableAnalysisCache = true)
      : AM(P, EnableAnalysisCache) {}
  PadPipeline(ir::Program &&, bool = true) = delete;

  /// As above with a cross-request SharedAnalysisCache attached: local
  /// misses consult \p Shared and local computations are published
  /// back. The padd daemon builds every request pipeline this way.
  /// \p Shared must outlive the pipeline; nullptr degrades to the
  /// plain constructor.
  PadPipeline(const ir::Program &P, bool EnableAnalysisCache,
              SharedAnalysisCache *Shared)
      : AM(P, EnableAnalysisCache) {
    if (Shared)
      AM.attachSharedCache(Shared);
  }
  PadPipeline(ir::Program &&, bool, SharedAnalysisCache *) = delete;

  AnalysisManager &analysis() { return AM; }
  const ir::Program &program() const { return AM.program(); }

  /// Runs \p F as the pass \p Name, accumulating wall time and run count
  /// under that name, and forwards F's return value (references pass
  /// through unchanged — passes routinely return manager-owned results).
  template <typename Fn>
  decltype(auto) run(const std::string &Name, Fn &&F) {
    auto Start = std::chrono::steady_clock::now();
    if constexpr (std::is_void_v<std::invoke_result_t<Fn &&>>) {
      std::forward<Fn>(F)();
      recordPass(Name, elapsedSince(Start));
    } else {
      decltype(auto) R = std::forward<Fn>(F)();
      recordPass(Name, elapsedSince(Start));
      return R;
    }
  }

  const std::vector<PassRecord> &passes() const { return Passes; }

  /// Snapshot of pass records + the manager's counters.
  PipelineStats stats() const;

private:
  static double
  elapsedSince(std::chrono::steady_clock::time_point Start) {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - Start)
        .count();
  }
  void recordPass(const std::string &Name, double Seconds);

  AnalysisManager AM;
  std::vector<PassRecord> Passes;
};

} // namespace pipeline
} // namespace padx

#endif // PADX_PIPELINE_PADPIPELINE_H
