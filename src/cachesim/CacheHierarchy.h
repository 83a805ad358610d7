//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Multi-level cache simulation over a MachineModel: accesses probe L1;
/// L1 misses probe L2, and so on down the non-TLB chain (mostly-
/// inclusive fill — every inner-level miss allocates in each level it
/// probes on the way down; there is no back-invalidation). Fill is
/// line-size-aware: each level probes with its own line size, so two
/// adjacent L1-line misses that share one longer L2 line cost a single
/// L2 miss. TLB levels sit beside the chain and are probed once per
/// page spanned by every access, independent of cache hits.
///
/// HierarchyClassifier runs the same propagation over per-level
/// MissClassifiers: level k+1 classifies exactly the accesses whose
/// line missed level k's target cache, giving a per-level three-Cs
/// breakdown — the number bench/multilevel uses to show an L1-only pad
/// regressing L2 conflict misses.
///
//===----------------------------------------------------------------------===//

#ifndef PADX_CACHESIM_CACHEHIERARCHY_H
#define PADX_CACHESIM_CACHEHIERARCHY_H

#include "cachesim/CacheSim.h"
#include "cachesim/MissClassifier.h"
#include "machine/MachineModel.h"

#include <vector>

namespace padx {
namespace sim {

class CacheHierarchy {
public:
  /// Builds one CacheSim per level of \p Machine (innermost first).
  /// Requires at least one non-TLB level.
  explicit CacheHierarchy(const MachineModel &Machine);

  /// One access: stops at the first cache level that hits; misses
  /// propagate to the next. Write-backs are counted per level
  /// (dirty-eviction traffic between levels is not re-injected — the
  /// usual simplification for miss-rate studies, which write-back
  /// traffic does not affect). TLB levels are probed per page spanned
  /// regardless of cache outcome.
  void access(int64_t Addr, int64_t Size, bool IsWrite);

  unsigned numLevels() const {
    return static_cast<unsigned>(Sims.size());
  }
  const CacheStats &stats(unsigned Level) const {
    return Sims[Level].stats();
  }
  const CacheLevel &level(unsigned Level) const {
    return Machine.Levels[Level];
  }
  const MachineModel &machine() const { return Machine; }

  /// Raw simulator of one level — the trace replayer probes the first
  /// cache level itself, settles its stats in bulk, and hands only its
  /// misses to forwardMiss.
  CacheSim &sim(unsigned Level) { return Sims[Level]; }

  /// Index (into levels) of the innermost non-TLB level.
  unsigned firstCacheLevel() const { return Chain.front(); }

  /// Replay hook: one line (addressed in bytes, at the first cache
  /// level's granularity) already missed the first cache level; probe
  /// the rest of the chain until a level hits. Mirrors the tail of
  /// access().
  void forwardMiss(int64_t LineAddr, bool IsWrite) {
    for (size_t I = 1; I < Chain.size(); ++I)
      if (Sims[Chain[I]].accessLine(LineAddr, IsWrite))
        return;
  }

  /// Replay hook: probe every TLB level for the page containing
  /// \p Addr. Replayed accesses are element-sized and never span pages
  /// (pages are >= the element size), so one probe per access suffices.
  void probeTlbs(int64_t Addr, bool IsWrite) {
    for (unsigned I : Tlbs)
      Sims[I].accessLine(Addr, IsWrite);
  }

  bool hasTlb() const { return !Tlbs.empty(); }

  /// Accesses that missed every cache level: the outermost level sees
  /// exactly the misses of the level inside it, so these are its misses.
  uint64_t memoryAccesses() const { return stats(Chain.back()).Misses; }

  void reset();

private:
  MachineModel Machine;
  std::vector<CacheSim> Sims;
  /// Indices of non-TLB levels, in chain order, then of TLB levels.
  std::vector<unsigned> Chain;
  std::vector<unsigned> Tlbs;
};

/// Per-level three-Cs classification for a machine: a MissClassifier
/// per level, chained so level k+1 sees exactly the lines that missed
/// level k's target cache. TLB levels classify every access at page
/// granularity.
class HierarchyClassifier {
public:
  explicit HierarchyClassifier(const MachineModel &Machine);

  void access(int64_t Addr, int64_t Size, bool IsWrite);

  unsigned numLevels() const {
    return static_cast<unsigned>(Levels.size());
  }
  const MissBreakdown &breakdown(unsigned Level) const {
    return Levels[Level].breakdown();
  }
  const MachineModel &machine() const { return Machine; }

  void reset();

private:
  MachineModel Machine;
  std::vector<MissClassifier> Levels;
  std::vector<unsigned> Chain;
  std::vector<unsigned> Tlbs;
};

} // namespace sim
} // namespace padx

#endif // PADX_CACHESIM_CACHEHIERARCHY_H
