//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Record-once / replay-many trace evaluation (DESIGN.md section 9).
///
/// Padding transformations never change a program's iteration space:
/// which logical array element each reference touches is invariant
/// across every candidate layout; only the mapping from logical element
/// to byte address moves. RecordedTrace exploits that by walking the
/// program once and storing the access stream in a layout-independent,
/// block-compressed SoA form: every innermost loop execution becomes one
/// block holding, per static reference, the starting per-dimension
/// logical indices; the per-iteration index deltas are static per
/// reference and shared by all blocks of that loop. TraceReplayer then
/// maps a candidate DataLayout to one affine remap per array slot
/// (base + sum(index_k * padded stride_k) + elem * elemsize) and streams
/// the decoded blocks straight into the cache simulator's inlined
/// accessLine — the per-candidate cost drops from a full IR walk with
/// affine re-evaluation to one add per access.
///
/// Recording declines programs whose streams are not layout-invariant
/// or not compressible: indirect (index-array) subscripts, scalar-ref
/// emission, and pathologically block-heavy traces. Callers fall back
/// to a fresh TraceRunner in that case; replayed and direct statistics
/// are bit-identical whenever record() succeeds.
///
//===----------------------------------------------------------------------===//

#ifndef PADX_EXEC_RECORDEDTRACE_H
#define PADX_EXEC_RECORDEDTRACE_H

#include "cachesim/CacheSim.h"
#include "exec/Trace.h"
#include "exec/TraceRunner.h"
#include "ir/Program.h"
#include "layout/DataLayout.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace padx {
namespace exec {

class TraceRecorder;
class TraceReplayer;

class RecordedTrace {
public:
  /// Walks \p P once and records its access stream. Returns nullptr when
  /// the program uses features replay cannot remap layout-independently
  /// (indirect subscripts, RunOptions::EmitScalarRefs) or the stream is
  /// too block-heavy to be worth compressing; \p WhyNot, when non-null,
  /// receives a one-line reason. \p P must outlive the trace.
  /// RunOptions::MaxAccesses truncates the recording exactly where a
  /// direct TraceRunner would stop.
  static std::unique_ptr<RecordedTrace>
  record(const ir::Program &P, const RunOptions &Options = RunOptions(),
         std::string *WhyNot = nullptr);
  static std::unique_ptr<RecordedTrace> record(ir::Program &&,
                                               const RunOptions &,
                                               std::string *) = delete;

  const ir::Program &program() const { return *Prog; }

  /// Total accesses one replay emits.
  uint64_t numAccesses() const { return NumAccesses; }
  /// Ok, or TraceLimitReached when MaxAccesses cut the recording short.
  RunStatus recordStatus() const { return Status; }

  /// Compression statistics (tests, reports).
  size_t numBlocks() const { return Blocks.size(); }
  size_t numPatterns() const { return Patterns.size(); }
  size_t storageBytes() const;

  /// Process-unique identity, so per-thread replayers can cache state
  /// keyed by trace without risking stale pointer reuse.
  uint64_t id() const { return Id; }

private:
  friend class TraceRecorder;
  friend class TraceReplayer;

  RecordedTrace() = default;

  /// One static array reference of a pattern. Rank consecutive entries
  /// of Deltas starting at DeltaIndex hold the per-iteration change of
  /// each logical dimension index; block starts use the same layout.
  struct Ref {
    uint32_t ArrayId = 0;
    uint32_t Rank = 0;
    uint32_t DeltaIndex = 0;
    int32_t ElemSize = 0;
    bool IsWrite = false;
  };

  /// The static reference sequence of one innermost loop body (or a
  /// single straight-line assignment). Blocks instantiate a pattern with
  /// concrete start indices and an iteration count.
  struct Pattern {
    uint32_t RefBegin = 0;
    uint32_t RefEnd = 0;
    uint32_t StartsPerIter = 0; ///< Sum of ranks over the refs.
  };

  struct Block {
    uint32_t PatternIndex = 0;
    uint64_t Count = 0;      ///< Iterations of the pattern.
    uint64_t StartIndex = 0; ///< Into Starts: StartsPerIter values.
  };

  const ir::Program *Prog = nullptr;
  RunStatus Status = RunStatus::Ok;
  uint64_t NumAccesses = 0;
  uint64_t Id = 0;

  std::vector<Ref> Refs;
  std::vector<int64_t> Deltas;
  std::vector<Pattern> Patterns;
  std::vector<Block> Blocks;
  std::vector<int64_t> Starts;
};

/// Streams a RecordedTrace through a cache simulator (or any sink) under
/// a concrete candidate layout. Not thread-safe; give each worker its
/// own replayer (the trace itself is shared read-only). A replayer
/// caches the per-reference byte deltas it derives from a layout's
/// strides, so consecutive candidates that only move base addresses
/// (inter-variable padding) skip the per-slot remap rebuild entirely.
class TraceReplayer {
public:
  explicit TraceReplayer(const RecordedTrace &Trace);

  /// Replays into \p Sim via the inlined accessLine hot path (element
  /// accesses that may straddle lines take the general access() route).
  /// Returns the trace's record status. \p DL must be a layout of the
  /// recorded program with all bases assigned.
  RunStatus replay(const layout::DataLayout &DL, sim::CacheSim &Sim);

  /// Replays the exact (Addr, Size, IsWrite) event stream into \p Sink —
  /// the slow path used by equivalence tests.
  RunStatus replay(const layout::DataLayout &DL, TraceSink &Sink);

  /// Replays into a multi-level hierarchy: the first cache level runs
  /// the same fast inlined probe as the single-level overload (packed
  /// direct-mapped lane when the geometry allows, bulk-settled stats),
  /// and only the filtered misses walk the outer levels through
  /// CacheHierarchy::forwardMiss. TLB levels are probed per access.
  /// Statistics are bit-identical to streaming the trace through
  /// CacheHierarchy::access.
  RunStatus replay(const layout::DataLayout &DL,
                   sim::CacheHierarchy &H);

  /// Rebuilds the per-slot remaps for \p DL without streaming anything.
  /// replay() does this implicitly; calling prepare() first lets
  /// benchmarks attribute remap-rebuild time separately from the probe
  /// stream (the implicit rebuild inside the following replay then
  /// takes the all-cached fast path).
  void prepare(const layout::DataLayout &DL) { updateRemaps(DL); }

  /// Observable remap-cache behaviour, for tests and benchmarks. A slot
  /// rebuild recomputes one array's per-ref byte deltas; an inter-only
  /// candidate sequence (bases move, strides do not) must show zero slot
  /// rebuilds after the first layout.
  struct RemapStats {
    uint64_t Calls = 0;        ///< updateRemaps invocations (replays).
    uint64_t SlotRebuilds = 0; ///< Slots whose strides changed.
    uint64_t RefDeltaRebuilds = 0; ///< Individual per-ref recomputes.
  };
  const RemapStats &remapStats() const { return Remaps; }

private:
  struct SlotRemap {
    int64_t Base = 0;
    std::vector<int64_t> StrideBytes; ///< Per dimension.
    bool Cached = false;
  };

  /// Streams every block; Probe(Addr, RefIndex) per access, and
  /// BlockFn(PatternIndex, Count) once per block for callers that settle
  /// bulk statistics blockwise.
  template <typename ProbeFn, typename BlockFn>
  void replayImpl(ProbeFn &&Probe, BlockFn &&PerBlock);
  void updateRemaps(const layout::DataLayout &DL);

  const RecordedTrace &T;
  std::vector<SlotRemap> Slots;
  RemapStats Remaps;
  /// CSR index from array slot to the trace refs that touch it, so a
  /// dirty slot rebuilds exactly its own refs instead of the rebuild
  /// loop scanning the whole ref table: SlotRefs[SlotRefBegin[Id] ..
  /// SlotRefBegin[Id + 1]) are the indices into RecordedTrace::Refs
  /// whose ArrayId == Id.
  std::vector<uint32_t> SlotRefBegin;
  std::vector<uint32_t> SlotRefs;
  /// Per RecordedTrace::Ref: byte delta per pattern iteration under the
  /// current layout (reused while the slot's strides are unchanged).
  std::vector<int64_t> RefDeltaBytes;
  /// Scratch, sized to the widest pattern: current byte address per ref.
  std::vector<int64_t> AddrScratch;
  /// Per ref, its IsWrite flag densely packed — the hot loop reads one
  /// byte instead of pulling in the whole Ref record.
  std::vector<uint8_t> RefWrite;
  /// Per pattern, writes per iteration; with the pattern's ref count
  /// this settles a block's access/read/write tallies in O(1).
  std::vector<uint32_t> PatternWrites;
};

} // namespace exec
} // namespace padx

#endif // PADX_EXEC_RECORDEDTRACE_H
