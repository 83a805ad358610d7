//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Kept only for perfbench's per-layer exec probe, which names this
/// class. padx has one replay engine, the sequential TraceReplayer
/// (DESIGN.md section 9); this shim scores each layout through it into
/// one reset CacheSim. Search, lint and padd never run it.
///
//===----------------------------------------------------------------------===//

#ifndef PADX_EXEC_MULTITRACEREPLAYER_H
#define PADX_EXEC_MULTITRACEREPLAYER_H

#include "cachesim/CacheSim.h"
#include "exec/RecordedTrace.h"
#include "layout/DataLayout.h"
#include "machine/CacheConfig.h"

#include <span>

namespace padx {
namespace exec {

class MultiTraceReplayer {
public:
  /// Layouts perfbench's probe hands replay() per call.
  static constexpr unsigned kMaxLanes = 16;

  MultiTraceReplayer(const RecordedTrace &Trace, const CacheConfig &Config)
      : Trace(Trace), Replayer(Trace), Sim(Config) {}

  /// Scores Layouts[i] into Stats[i] (Stats.size() >= Layouts.size())
  /// and returns the trace's record status.
  RunStatus replay(std::span<const layout::DataLayout> Layouts,
                   std::span<sim::CacheStats> Stats) {
    for (size_t I = 0; I != Layouts.size(); ++I) {
      Sim.reset();
      Replayer.replay(Layouts[I], Sim);
      Stats[I] = Sim.stats();
    }
    return Trace.recordStatus();
  }

private:
  const RecordedTrace &Trace;
  TraceReplayer Replayer;
  sim::CacheSim Sim;
};

} // namespace exec
} // namespace padx

#endif // PADX_EXEC_MULTITRACEREPLAYER_H
