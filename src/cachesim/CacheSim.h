//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Trace-driven cache simulator standing in for the paper's SHADE setup:
/// a single-level, write-allocate, write-back cache with LRU replacement
/// and configurable size / line size / associativity (1 = direct mapped,
/// 0 = fully associative). Fully-associative simulation uses an O(1)
/// hash-map LRU so that classifying misses against a
/// same-capacity fully-associative cache stays cheap.
///
//===----------------------------------------------------------------------===//

#ifndef PADX_CACHESIM_CACHESIM_H
#define PADX_CACHESIM_CACHESIM_H

#include "machine/CacheConfig.h"
#include "support/Compiler.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace padx {
namespace sim {

struct CacheStats {
  uint64_t Accesses = 0;
  uint64_t Misses = 0;
  uint64_t Reads = 0;
  uint64_t Writes = 0;
  uint64_t WriteBacks = 0;

  uint64_t hits() const { return Accesses - Misses; }
  double missRate() const {
    return Accesses == 0
               ? 0.0
               : static_cast<double>(Misses) /
                     static_cast<double>(Accesses);
  }
};

class CacheSim {
public:
  explicit CacheSim(const CacheConfig &Config);

  const CacheConfig &config() const { return Config; }
  const CacheStats &stats() const { return Stats; }

  /// Simulates one access of \p Size bytes at byte address \p Addr
  /// (accesses spanning multiple lines touch each line once). Returns
  /// true if every touched line hit.
  bool access(int64_t Addr, int64_t Size, bool IsWrite);

  /// Single-line access of the line containing \p Addr. Returns true on
  /// hit. This is the hot path used by the trace generator and the
  /// trace replayer for line-aligned element accesses; it is defined
  /// inline (below) so replay loops compile down to the probe itself.
  bool accessLine(int64_t Addr, bool IsWrite) {
    ++Stats.Accesses;
    if (IsWrite)
      ++Stats.Writes;
    else
      ++Stats.Reads;
    bool Hit = probeLine(Addr, IsWrite);
    Stats.Misses += !Hit;
    return Hit;
  }

  /// accessLine without any per-access tallies except write-backs
  /// (those depend on cache state at eviction time). The trace replayer
  /// knows every block's access and write counts up front and keeps its
  /// own hit/miss count in a register, so it probes with this and
  /// settles the statistics in bulk via addAccessCounts/addMisses.
  /// Using probeLine without those calls leaves stats() inconsistent.
  bool probeLine(int64_t Addr, bool IsWrite) {
    int64_t LineAddr = Addr >> LineShift;
    return FullyAssoc ? accessFullyAssoc(LineAddr, IsWrite)
                      : accessSetAssoc(LineAddr, IsWrite);
  }

  /// Bulk side of probeLine: credits \p Reads + \p Writes accesses.
  void addAccessCounts(uint64_t Reads, uint64_t Writes) {
    Stats.Accesses += Reads + Writes;
    Stats.Reads += Reads;
    Stats.Writes += Writes;
  }
  void addMisses(uint64_t N) { Stats.Misses += N; }
  void addWriteBacks(uint64_t N) { Stats.WriteBacks += N; }

  /// True when the geometry runs on the packed one-word-per-set
  /// direct-mapped state below.
  bool isDirectMapped() const { return !FullyAssoc && Ways == 1; }

  /// Raw plumbing for the trace replayer's register-resident probe loop
  /// (valid only when isDirectMapped()). Going through probeLine, every
  /// store to the set array forces the compiler to reload the geometry
  /// members — an int64 store may alias them as far as TBAA knows — so
  /// the replayer copies these into locals and probes the array
  /// directly, settling statistics afterwards through addAccessCounts /
  /// addMisses / addWriteBacks. The packing invariant lives in
  /// accessSetAssoc; keep the two in sync.
  int64_t *directLines() { return DirectLine.data(); }
  int64_t directSetMask() const { return NumSets - 1; }
  unsigned lineShiftLog2() const { return LineShift; }
  unsigned setShiftLog2() const { return SetShift; }

  /// One probe against an externalized packed direct-mapped set array
  /// (a CacheSim's directLines()), for the trace replayer's single-level
  /// and hierarchy hot loops. \p Set and \p Key are precomputed by the
  /// caller from its register-resident geometry:
  ///   LineAddr = Addr >> lineShiftLog2()
  ///   Set      = LineAddr & directSetMask()
  ///   Key      = ((LineAddr >> setShiftLog2()) << 2) | 1
  /// \p WriteBit must be 0 or 1. Returns true on hit and accumulates
  /// evicted-dirty write-backs into \p WriteBacks; the caller settles
  /// bulk statistics afterwards (addAccessCounts / addMisses /
  /// addWriteBacks). This mirrors the Ways == 1 branch of accessSetAssoc
  /// bit-for-bit — including the skipped store on read hits, which keeps
  /// repeated probes of a hot set off the store-to-load forwarding path —
  /// and is the single definition both replay loops inline, so the packing
  /// invariant lives in exactly two places: accessSetAssoc and here.
  static PADX_ALWAYS_INLINE bool
  probeDirectLane(int64_t *PADX_RESTRICT Lines, int64_t Set, int64_t Key,
                  int64_t WriteBit, uint64_t &WriteBacks) {
    const int64_t P = Lines[Set];
    if (PADX_LIKELY((P | 2) == (Key | 2))) {
      if (WriteBit)
        Lines[Set] = P | 2;
      return true;
    }
    WriteBacks += (P >> 1) & 1;
    Lines[Set] = Key | (WriteBit << 1);
    return false;
  }

  /// Empties the cache and zeroes statistics.
  void reset();

private:
  bool accessSetAssoc(int64_t LineAddr, bool IsWrite) {
    // NumSets is a power of two; when NumSets == 1 the mask is zero and
    // the tag is the full line address.
    int64_t Set = LineAddr & (NumSets - 1);
    int64_t Tag = LineAddr >> SetShift;

    // Direct mapped (the paper's base configuration): one way means no
    // replacement decision, so the whole set state packs into a single
    // word — (tag << 2) | (dirty << 1) | valid — and the probe is one
    // load and one compare. Tags may be negative (traces can address
    // below a base), which is why valid gets an explicit bit instead of
    // a sentinel tag.
    if (Ways == 1) {
      int64_t &P = DirectLine[static_cast<size_t>(Set)];
      const int64_t Key = (Tag << 2) | 1;
      if ((P | 2) == (Key | 2)) {
        // Store only when the dirty bit actually changes: read hits are
        // the bulk of every trace, and skipping their read-modify-write
        // keeps repeated probes of a hot set from serializing on
        // store-to-load forwarding.
        if (IsWrite)
          P |= 2;
        return true;
      }
      Stats.WriteBacks += (P >> 1) & 1;
      P = Key | (static_cast<int64_t>(IsWrite) << 1);
      return false;
    }

    Entry *SetBase = &Entries[static_cast<size_t>(Set) * Ways];
    ++Clock;

    // Element-granularity traces touch the same line several times in a
    // row, so probe the most-recently-hit way of this set first.
    uint32_t &Mru = MruWay[static_cast<size_t>(Set)];
    Entry &Hot = SetBase[Mru];
    if (Hot.Valid && Hot.Tag == Tag) {
      Hot.Stamp = Clock;
      Hot.Dirty |= IsWrite;
      return true;
    }

    Entry *Victim = SetBase;
    for (int W = 0; W != Ways; ++W) {
      Entry &E = SetBase[W];
      if (E.Valid && E.Tag == Tag) {
        E.Stamp = Clock;
        E.Dirty |= IsWrite;
        Mru = static_cast<uint32_t>(W);
        return true;
      }
      if (!E.Valid) {
        Victim = &E;
        // Keep scanning: a later way may still hold the tag.
      } else if (Victim->Valid && E.Stamp < Victim->Stamp) {
        Victim = &E;
      }
    }
    if (Victim->Valid && Victim->Dirty)
      ++Stats.WriteBacks;
    Victim->Valid = true;
    Victim->Tag = Tag;
    Victim->Stamp = Clock;
    Victim->Dirty = IsWrite;
    Mru = static_cast<uint32_t>(Victim - SetBase);
    return false;
  }

  bool accessFullyAssoc(int64_t LineAddr, bool IsWrite);

  CacheConfig Config;
  CacheStats Stats;

  // Geometry, precomputed.
  unsigned LineShift = 0;
  unsigned SetShift = 0;
  int64_t NumSets = 0;
  int Ways = 0;
  bool FullyAssoc = false;

  // Set-associative storage: per (set, way) entries, LRU by stamp.
  struct Entry {
    int64_t Tag = -1;
    uint64_t Stamp = 0;
    bool Valid = false;
    bool Dirty = false;
  };
  std::vector<Entry> Entries;
  /// Per-set most-recently-hit way, probed first. Deliberately a full
  /// uint32_t: a narrower type silently truncates way indices once the
  /// associativity exceeds its range, making the MRU probe alias the
  /// wrong way (regression-tested against fully-associative LRU).
  std::vector<uint32_t> MruWay;
  /// Direct-mapped storage: one packed word per set, see accessSetAssoc.
  /// Zero (valid bit clear) is the empty state.
  std::vector<int64_t> DirectLine;
  uint64_t Clock = 0;

  // Fully-associative storage: hash-map LRU with an intrusive list over a
  // node pool.
  struct Node {
    int64_t Line = 0;
    uint32_t Prev = 0;
    uint32_t Next = 0;
    bool Dirty = false;
  };
  std::vector<Node> Nodes;
  std::unordered_map<int64_t, uint32_t> NodeOf;
  uint32_t Head = kNull; ///< Most recently used.
  uint32_t Tail = kNull; ///< Least recently used.
  uint32_t NumNodes = 0;
  int64_t Capacity = 0; ///< Lines.
  static constexpr uint32_t kNull = 0xffffffffu;

  void listUnlink(uint32_t N);
  void listPushFront(uint32_t N);
};

} // namespace sim
} // namespace padx

#endif // PADX_CACHESIM_CACHESIM_H
