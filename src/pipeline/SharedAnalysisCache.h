//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cross-request analysis cache behind the padd daemon. An
/// AnalysisManager memoizes within one request (one program, one
/// thread); a SharedAnalysisCache memoizes *across* requests and
/// threads, keyed by a 64-bit fingerprint of the program's canonical
/// printed form plus — for layout-dependent results — the same
/// (geometry, per-array base + dims) fingerprint the manager uses. A
/// daemon serving the same programs repeatedly hits warm analyses on
/// every request after the first, which is the point of running padx as
/// a long-lived service.
///
/// Locking model: the cache is sharded kNumShards ways by key hash;
/// each shard holds its own mutex and maps. Results are immutable once
/// published and held by shared_ptr — a reader that obtained a result
/// keeps it alive even if an eviction sweep or another publisher
/// replaces the entry concurrently, so no reference ever dangles.
/// Hit/miss/eviction counters are relaxed atomics (they feed stats, not
/// control flow). Publishing the same key twice is benign: last writer
/// wins, both values are correct (analyses are deterministic functions
/// of the key).
///
/// Capacity: at most MaxLayoutEntries layout entries live at once,
/// enforced per shard; an overflowing shard is swept wholesale, which
/// matches the manager's own sweep policy and keeps the hot path to one
/// map lookup under one uncontended mutex. Program-level entries are
/// tiny and capped at kMaxProgramEntries the same way.
///
/// Fingerprint collisions (two distinct programs hashing equal) would
/// alias cache lines; with a 64-bit FNV-1a over the printed source the
/// chance is negligible at any realistic corpus size (~2^-32 at four
/// billion distinct programs).
///
//===----------------------------------------------------------------------===//

#ifndef PADX_PIPELINE_SHAREDANALYSISCACHE_H
#define PADX_PIPELINE_SHAREDANALYSISCACHE_H

#include "pipeline/AnalysisManager.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace padx {
namespace ir {
class Program;
} // namespace ir

namespace pipeline {

/// FNV-1a of the program's canonical printed form. Stable across
/// processes and runs; two textually identical programs share analyses.
uint64_t fingerprintProgram(const ir::Program &P);

/// Counts for one analysis kind in the shared cache. Plain values —
/// snapshot() materializes these from the live atomics.
struct SharedCacheCounters {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

struct SharedCacheStats {
  /// Indexed by AnalysisKind (pipeline/AnalysisManager.h).
  std::array<SharedCacheCounters, kNumAnalysisKinds> Kinds;
  uint64_t Evicted = 0;
  uint64_t ProgramEntries = 0;
  uint64_t LayoutEntries = 0;

  uint64_t totalHits() const;
  uint64_t totalMisses() const;
  /// Hits / (Hits + Misses); 0 when idle. The daemon's headline
  /// cross-request number and bench/server_throughput's --guard metric.
  double hitRate() const;
};

class SharedAnalysisCache {
public:
  template <typename T> using Ptr = std::shared_ptr<const T>;
  using LayoutKey = std::vector<int64_t>;

  /// Per-program-fingerprint slots, filled lazily per kind.
  ///
  /// Only *value-only* analysis results live here. ReferenceGroups
  /// (analysis::LoopGroup) carries raw pointers into one specific
  /// ir::Program instance; two textually identical programs parsed by
  /// two requests are distinct objects, and the first request's IR dies
  /// with its arena — a shared pointer-carrying result would dangle (or
  /// worse, silently alias the next request's IR at recycled
  /// addresses). That kind stays strictly request-local in the
  /// AnalysisManager.
  struct ProgramSlots {
    Ptr<std::vector<double>> Iterations;
    Ptr<analysis::SafetyInfo> Safety;
    Ptr<std::vector<bool>> LinAlg;
    Ptr<double> UniformPct;
  };
  /// Per-(program, geometry, layout) slots. Same rule: Severe and
  /// Lattice are strings and numbers only. A multi-level machine's
  /// lattice predictions live here one level at a time.
  struct LayoutSlots {
    Ptr<std::vector<analysis::ConflictEntry>> Severe;
    Ptr<analysis::LatticePrediction> Lattice;
  };

  explicit SharedAnalysisCache(size_t MaxLayoutEntries = 4096)
      : MaxLayoutEntries(MaxLayoutEntries ? MaxLayoutEntries : 1) {}

  SharedAnalysisCache(const SharedAnalysisCache &) = delete;
  SharedAnalysisCache &operator=(const SharedAnalysisCache &) = delete;

  /// \name Typed get/put for program-level and layout-level slots.
  /// get returns nullptr on miss (counted against \p Kind); put
  /// publishes an immutable result (never fails, last writer wins).
  /// @{
  template <typename T>
  Ptr<T> getProgram(uint64_t FP, Ptr<T> ProgramSlots::*Slot,
                    AnalysisKind Kind) {
    Shard &S = programShard(FP);
    Ptr<T> R;
    {
      std::lock_guard<std::mutex> L(S.M);
      auto It = S.Programs.find(FP);
      if (It != S.Programs.end())
        R = It->second.*Slot;
    }
    count(Kind, R != nullptr);
    return R;
  }

  template <typename T>
  void putProgram(uint64_t FP, Ptr<T> ProgramSlots::*Slot, Ptr<T> V) {
    Shard &S = programShard(FP);
    std::lock_guard<std::mutex> L(S.M);
    if (S.Programs.size() >= kMaxProgramEntries / kNumShards &&
        !S.Programs.count(FP)) {
      Evictions.fetch_add(S.Programs.size(),
                          std::memory_order_relaxed);
      S.Programs.clear();
    }
    S.Programs[FP].*Slot = std::move(V);
  }

  template <typename T>
  Ptr<T> getLayout(uint64_t FP, const LayoutKey &Key,
                   Ptr<T> LayoutSlots::*Slot, AnalysisKind Kind) {
    Shard &S = layoutShard(FP, Key);
    Ptr<T> R;
    {
      std::lock_guard<std::mutex> L(S.M);
      auto It = S.Layouts.find({FP, Key});
      if (It != S.Layouts.end())
        R = It->second.*Slot;
    }
    count(Kind, R != nullptr);
    return R;
  }

  template <typename T>
  void putLayout(uint64_t FP, const LayoutKey &Key,
                 Ptr<T> LayoutSlots::*Slot, Ptr<T> V) {
    Shard &S = layoutShard(FP, Key);
    std::lock_guard<std::mutex> L(S.M);
    if (S.Layouts.size() >= MaxLayoutEntries / kNumShards + 1 &&
        !S.Layouts.count({FP, Key})) {
      Evictions.fetch_add(S.Layouts.size(), std::memory_order_relaxed);
      S.Layouts.clear();
    }
    S.Layouts[{FP, Key}].*Slot = std::move(V);
  }
  /// @}

  /// Consistent-enough snapshot for stats reporting: counters are read
  /// relaxed, entry counts under the shard locks.
  SharedCacheStats snapshot() const;

  /// Drops every entry (tests; a daemon "flush" would land here).
  /// Readers holding shared_ptrs are unaffected.
  void clear();

  static constexpr size_t kNumShards = 16;
  static constexpr size_t kMaxProgramEntries = 1024;

private:
  struct Shard {
    mutable std::mutex M;
    std::map<uint64_t, ProgramSlots> Programs;
    std::map<std::pair<uint64_t, LayoutKey>, LayoutSlots> Layouts;
  };

  static uint64_t hashKey(uint64_t FP, const LayoutKey &Key) {
    uint64_t H = 1469598103934665603ULL ^ FP;
    for (int64_t V : Key) {
      H ^= static_cast<uint64_t>(V);
      H *= 1099511628211ULL;
    }
    return H;
  }

  Shard &programShard(uint64_t FP) {
    return Shards[FP % kNumShards];
  }
  const Shard &programShard(uint64_t FP) const {
    return Shards[FP % kNumShards];
  }
  Shard &layoutShard(uint64_t FP, const LayoutKey &Key) {
    return Shards[hashKey(FP, Key) % kNumShards];
  }

  void count(AnalysisKind Kind, bool Hit) {
    auto &C = Counters[static_cast<unsigned>(Kind)];
    (Hit ? C.Hits : C.Misses).fetch_add(1, std::memory_order_relaxed);
  }

  struct AtomicCounters {
    std::atomic<uint64_t> Hits{0};
    std::atomic<uint64_t> Misses{0};
  };

  size_t MaxLayoutEntries;
  std::array<Shard, kNumShards> Shards;
  std::array<AtomicCounters, kNumAnalysisKinds> Counters;
  std::atomic<uint64_t> Evictions{0};
};

} // namespace pipeline
} // namespace padx

#endif // PADX_PIPELINE_SHAREDANALYSISCACHE_H
