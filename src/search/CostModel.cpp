//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "search/CostModel.h"

#include "analysis/LatticePredictor.h"
#include "cachesim/CacheHierarchy.h"
#include "cachesim/CacheSim.h"
#include "exec/Trace.h"
#include "exec/TraceRunner.h"
#include "pipeline/AnalysisManager.h"

#include <optional>

using namespace padx;
using namespace padx::search;

namespace {

/// Per-thread replay state. The recorded trace is shared read-only; the
/// replayer (whose stride-delta caches are mutable) and the simulator
/// are per worker. Keyed by the trace's process-unique id so pool
/// threads that outlive one search re-initialize cleanly for the next;
/// the shared_ptr keeps the keyed trace alive for as long as the worker
/// holds it.
struct ReplayWorkerState {
  std::shared_ptr<const exec::RecordedTrace> Trace;
  std::optional<exec::TraceReplayer> Replayer;
  /// Single-cache-level machines probe one packed CacheSim ...
  std::optional<sim::CacheSim> Sim;
  CacheConfig SimConfig;
  /// ... multi-level ones a hierarchy, keyed by machine. Either is
  /// reset between evaluations.
  std::optional<sim::CacheHierarchy> Hier;
  MachineModel HierMachine;
};

thread_local ReplayWorkerState Worker;

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
  Trace = exec::RecordedTrace::record(P);
}

CostSample SimulationCostModel::evaluate(
    const layout::DataLayout &DL) const {
  const bool Replay = Trace && &DL.program() == &Trace->program();
  if (Replay && (!Worker.Trace || Worker.Trace->id() != Trace->id())) {
    Worker.Trace = Trace;
    Worker.Replayer.emplace(*Trace);
  }
  if (!Machine.isSingleLevel()) {
    if (!Replay) {
      sim::CacheHierarchy H(Machine);
      exec::HierarchySink Sink(H);
      exec::TraceRunner(DL.program(), DL).run(Sink);
      return sampleOf(H);
    }
    if (!Worker.Hier || Worker.HierMachine != Machine) {
      Worker.Hier.emplace(Machine);
      Worker.HierMachine = Machine;
    } else {
      Worker.Hier->reset();
    }
    Worker.Replayer->replay(DL, *Worker.Hier);
    return sampleOf(*Worker.Hier);
  }
  // One unit-weight level keeps this path's cost exactly the miss count.
  const CacheLevel &L1 = Machine.Levels.front();
  auto SampleOf = [&](const sim::CacheSim &Sim) {
    double Misses = static_cast<double>(Sim.stats().Misses);
    return CostSample{L1.Weight * Misses, Sim.stats().Accesses, {Misses}};
  };
  if (!Replay) {
    sim::CacheSim Sim(L1.Geometry);
    exec::CacheSimSink Sink(Sim);
    exec::TraceRunner(DL.program(), DL).run(Sink);
    return SampleOf(Sim);
  }
  if (!Worker.Sim || Worker.SimConfig != L1.Geometry) {
    Worker.Sim.emplace(L1.Geometry);
    Worker.SimConfig = L1.Geometry;
  } else {
    Worker.Sim->reset();
  }
  Worker.Replayer->replay(DL, *Worker.Sim);
  return SampleOf(*Worker.Sim);
}

CostSample StaticCostModel::evaluate(const layout::DataLayout &DL) const {
  const bool Memo = AM && &DL.program() == &AM->program();
  std::vector<analysis::LoopGroup> Groups;
  std::vector<double> Iterations;
  if (!Memo) {
    Groups = analysis::collectLoopGroups(DL.program());
    Iterations = analysis::countGroupIterations(Groups);
  }
  CostSample S;
  S.LevelMisses.reserve(Machine.numLevels());
  for (const CacheLevel &L : Machine.Levels) {
    // Fold each level in before querying the next: a later query may
    // sweep the manager's layout cache and take this entry with it.
    std::optional<analysis::LatticePrediction> Local;
    const analysis::LatticePrediction &P =
        Memo ? AM->latticePrediction(DL, L.Geometry)
             : Local.emplace(analysis::predictConflicts(DL, L.Geometry,
                                                        Groups, Iterations));
    S.Cost += L.Weight * P.PredictedMisses;
    S.LevelMisses.push_back(P.PredictedMisses);
    if (S.Accesses == 0 && !L.IsTlb)
      S.Accesses = static_cast<uint64_t>(P.PredictedAccesses);
  }
  return S;
}
