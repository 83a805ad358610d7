//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two cost models the search engine ranks layout candidates with:
/// a layout goes in, a lower-is-better score comes out. The cheap one
/// (the static lattice predictor) prunes and pre-screens candidates on
/// the generation thread; the exact one (trace-driven simulation)
/// accepts them, one candidate per call, concurrently from the
/// engine's thread pool. Both take the machine they score for as a
/// MachineModel — a single cache level is just a one-level machine.
///
//===----------------------------------------------------------------------===//

#ifndef PADX_SEARCH_COSTMODEL_H
#define PADX_SEARCH_COSTMODEL_H

#include "exec/RecordedTrace.h"
#include "layout/DataLayout.h"
#include "machine/MachineModel.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace padx {
namespace pipeline {
class AnalysisManager;
} // namespace pipeline

namespace search {

/// Score of one evaluation; Cost is the ranking key — the weighted
/// per-level miss sum sum_l Weight_l * Misses_l (estimated or
/// simulated), which on a single unit-weight level is just the miss
/// count. Accesses is the first cache level's access count. LevelMisses
/// holds the unweighted per-level miss counts, aligned with
/// MachineModel::Levels.
struct CostSample {
  double Cost = 0;
  uint64_t Accesses = 0;
  std::vector<double> LevelMisses;
};

/// The oracle: simulates the layout's full reference trace. Cost =
/// simulated (weighted) misses. Exact and deterministic.
///
/// By default every evaluation re-walks the IR (a whole program
/// execution). prepareReplay() records the program's layout-independent
/// access stream once; evaluations of that program's layouts then
/// replay the recorded stream through a per-worker cache simulator — a
/// tight remap-and-probe loop instead of the walk — with bit-identical
/// statistics. Programs the recorder declines (indirect subscripts)
/// keep the direct path transparently.
/// A single-cache-level machine replays into the packed one-level
/// CacheSim probe; a multi-level one replays through a CacheHierarchy,
/// forwarding only first-level misses.
class SimulationCostModel {
public:
  explicit SimulationCostModel(const MachineModel &Machine)
      : Machine(Machine) {}

  /// Records \p P's access stream for replay-based evaluation. \p P
  /// must outlive the model. No-op (direct tracing stays) when the
  /// stream cannot be recorded; usingReplay() tells which happened.
  void prepareReplay(const ir::Program &P);
  void prepareReplay(ir::Program &&) = delete;
  bool usingReplay() const { return Trace != nullptr; }

  /// Scores \p DL (lower is better). Thread-safe: the search engine
  /// invokes it concurrently on distinct layouts.
  CostSample evaluate(const layout::DataLayout &DL) const;

private:
  MachineModel Machine;
  /// Shared read-only across the thread pool's workers; each worker
  /// keeps its own TraceReplayer and simulator (thread-local).
  std::shared_ptr<const exec::RecordedTrace> Trace;
};

/// The pruner: the analytic associativity-lattice conflict predictor
/// (analysis::predictConflicts). Cost = predicted misses — the reuse
/// floor plus lattice-attributed conflict volume. Orders of magnitude
/// cheaper than simulation and good at ranking, which is what pruning
/// and pre-screening need; bench/model_accuracy cross-validates the
/// ranking against the simulator.
///
/// With an AnalysisManager attached, estimates route through it: the
/// layout-independent inputs (reference groups, iteration counts) are
/// computed once per search instead of once per candidate, and repeated
/// estimates of the same layout hit the manager's cache outright. The
/// manager is not thread-safe, so an attached model is not either — the
/// search engine only ever calls it from the single-threaded generation
/// side, never from the pool.
/// Every machine takes one path: each level's prediction (the manager's
/// memoized per-geometry entry when attached, read in place) adds
/// Weight * PredictedMisses to Cost, so a one-level machine is just the
/// one-iteration case, and one level's entry serves every machine that
/// shares its geometry.
class StaticCostModel {
public:
  explicit StaticCostModel(const MachineModel &Machine,
                           pipeline::AnalysisManager *AM = nullptr)
      : Machine(Machine), AM(AM) {}

  CostSample evaluate(const layout::DataLayout &DL) const;
  std::string name() const { return "static-estimate"; }

private:
  MachineModel Machine;
  /// Optional memoization; used only when it manages DL's program.
  pipeline::AnalysisManager *AM;
};

} // namespace search
} // namespace padx

#endif // PADX_SEARCH_COSTMODEL_H
