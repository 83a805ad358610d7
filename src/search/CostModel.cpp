//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "search/CostModel.h"

#include "analysis/LatticePredictor.h"
#include "cachesim/CacheHierarchy.h"
#include "exec/Trace.h"
#include "exec/TraceRunner.h"
#include "pipeline/AnalysisManager.h"

#include <cassert>
#include <numeric>
#include <optional>

using namespace padx;
using namespace padx::search;

namespace {

/// Per-thread evaluation state. The recorded trace is shared read-only;
/// the replayer (whose stride-delta caches are mutable) and the machine's
/// simulator are per worker. Keyed by the trace's process-unique id and
/// by machine, so pool threads that outlive one search re-initialize
/// cleanly for the next; the shared_ptr keeps the keyed trace alive for
/// as long as the worker holds it.
struct WorkerState {
  std::shared_ptr<const exec::RecordedTrace> Trace;
  std::optional<exec::TraceReplayer> Replayer;
  /// Reset between evaluations.
  std::optional<sim::CacheHierarchy> Hier;
};

thread_local WorkerState Worker;

/// The sample a simulated hierarchy leaves: weighted cost plus the
/// unweighted per-level misses.
CostSample sampleOf(const sim::CacheHierarchy &H) {
  CostSample S;
  S.Accesses = H.stats(H.firstCacheLevel()).Accesses;
  S.LevelMisses.reserve(H.numLevels());
  for (unsigned I = 0; I != H.numLevels(); ++I) {
    double Misses = static_cast<double>(H.stats(I).Misses);
    S.LevelMisses.push_back(Misses);
    S.Cost += H.level(I).Weight * Misses;
  }
  return S;
}

} // namespace

void SimulationCostModel::prepareReplay(const ir::Program &P) {
  WhyNot.clear();
  Trace = exec::RecordedTrace::record(P, exec::RunOptions(), &WhyNot);
}

CostSample SimulationCostModel::evaluate(
    const layout::DataLayout &DL) const {
  if (!Worker.Hier || Worker.Hier->machine() != Machine)
    Worker.Hier.emplace(Machine);
  else
    Worker.Hier->reset();
  sim::CacheHierarchy &H = *Worker.Hier;
  if (Trace && &DL.program() == &Trace->program()) {
    if (!Worker.Trace || Worker.Trace->id() != Trace->id()) {
      Worker.Trace = Trace;
      Worker.Replayer.emplace(*Trace);
    }
    Worker.Replayer->replay(DL, H);
  } else {
    exec::HierarchySink Sink(H);
    exec::TraceRunner(DL.program(), DL).run(Sink);
  }
  return sampleOf(H);
}

std::vector<int64_t>
SimulationCostModel::scoreKey(const layout::DataLayout &DL) const {
  if (!Trace || &DL.program() != &Trace->program())
    return {};
  int64_t Period = 1;
  for (const CacheLevel &L : Machine.Levels)
    Period = std::lcm(Period, L.Geometry.LineBytes);
  return Trace->addressKey(DL, Period);
}

CostSample StaticCostModel::evaluate(const layout::DataLayout &DL) const {
  assert(&DL.program() == &AM.program() &&
         "layout of a program the manager does not analyze");
  CostSample S;
  S.LevelMisses.reserve(Machine.numLevels());
  for (const CacheLevel &L : Machine.Levels) {
    // Fold each level in before querying the next: a later query may
    // sweep the manager's layout cache and take this entry with it.
    const analysis::LatticePrediction &P =
        AM.latticePrediction(DL, L.Geometry);
    S.Cost += L.Weight * P.PredictedMisses;
    S.LevelMisses.push_back(P.PredictedMisses);
    if (S.Accesses == 0 && !L.IsTlb)
      S.Accesses = static_cast<uint64_t>(P.PredictedAccesses);
  }
  return S;
}
