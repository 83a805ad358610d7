//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two cost models the search engine ranks layout candidates with:
/// a layout goes in, a lower-is-better score comes out. The cheap one
/// (the static lattice predictor) prunes candidates on the generation
/// thread; the exact one (trace-driven simulation)
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
/// replay the recorded stream — a tight remap-and-probe loop instead of
/// the walk — with bit-identical statistics. Programs the recorder
/// declines (an index subscript outside its declared table, a trace
/// over the storage cap) keep the direct path with the same results,
/// and replayDeclined() names why. Either way the simulator is one
/// per-worker CacheHierarchy of the machine; replay probes its first
/// cache level and forwards only that level's misses, and a one-level
/// machine replays exactly as a bare CacheSim would.
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
  /// The recorder's one-line reason when prepareReplay() was declined,
  /// else empty.
  const std::string &replayDeclined() const { return WhyNot; }

  /// Scores \p DL (lower is better). Thread-safe: the search engine
  /// invokes it concurrently on distinct layouts.
  CostSample evaluate(const layout::DataLayout &DL) const;

  /// \p DL's RecordedTrace::addressKey at the machine's period, the
  /// largest line or page size over its levels (all powers of two, so
  /// their lcm). Layouts with equal non-empty keys evaluate to equal
  /// samples: shifting every address by a multiple of the period moves
  /// each level's line l to l + c for one c, which permutes sets one to
  /// one and keeps equal lines equal, and every level starts empty, so
  /// each level sees the same hits, misses and write-backs. Empty when
  /// replay was declined (the walk's IndirectOutOfRange stop depends on
  /// padded index-array lengths) or the trace touches no array; an empty
  /// key matches nothing.
  std::vector<int64_t> scoreKey(const layout::DataLayout &DL) const;

private:
  MachineModel Machine;
  /// Shared read-only across the thread pool's workers; each worker
  /// keeps its own TraceReplayer and CacheHierarchy (thread-local).
  std::shared_ptr<const exec::RecordedTrace> Trace;
  std::string WhyNot;
};

/// The pruner: the analytic associativity-lattice conflict predictor
/// (analysis::predictConflicts). Cost = predicted misses — the reuse
/// floor plus lattice-attributed conflict volume. Orders of magnitude
/// cheaper than simulation and good at ranking, which is what pruning
/// needs; bench/model_accuracy cross-validates the ranking against the
/// simulator.
///
/// Estimates route through the search's AnalysisManager: the
/// layout-independent inputs (reference groups, iteration counts) are
/// computed once per search instead of once per candidate, and repeated
/// estimates of the same layout hit the manager's cache outright. The
/// manager is not thread-safe, so the model is not either — the search
/// engine only ever calls it from the single-threaded generation side,
/// never from the pool. Every machine takes one path: each level's
/// memoized per-geometry prediction, read in place, adds
/// Weight * PredictedMisses to Cost, so a one-level machine is just the
/// one-iteration case, and one level's entry serves every machine that
/// shares its geometry.
class StaticCostModel {
public:
  /// \p AM must outlive the model; every layout evaluated must belong
  /// to \p AM's program.
  StaticCostModel(const MachineModel &Machine, pipeline::AnalysisManager &AM)
      : Machine(Machine), AM(AM) {}

  CostSample evaluate(const layout::DataLayout &DL) const;

private:
  MachineModel Machine;
  pipeline::AnalysisManager &AM;
};

} // namespace search
} // namespace padx

#endif // PADX_SEARCH_COSTMODEL_H
