//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates the data reference stream of a program under a given data
/// layout — padx's replacement for the paper's SHADE-based tracing. Loop
/// nests are compiled once into slot-indexed affine address functions and
/// then walked; assignments emit their reads (in order) followed by the
/// write. Scalar references are register-promoted by default, matching
/// what any optimizing compiler does to the paper's kernels.
///
//===----------------------------------------------------------------------===//

#ifndef PADX_EXEC_TRACERUNNER_H
#define PADX_EXEC_TRACERUNNER_H

#include "exec/Trace.h"
#include "ir/Program.h"
#include "layout/DataLayout.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace padx {
namespace exec {

struct RunOptions {
  /// Emit accesses for rank-0 (scalar) variables. Off by default: scalars
  /// live in registers inside loops.
  bool EmitScalarRefs = false;
  /// Stop after this many accesses (0 = unlimited). A runaway loop nest
  /// then ends in a clean TraceLimitReached status instead of pinning a
  /// worker for hours.
  uint64_t MaxAccesses = 0;
};

/// How a trace walk ended.
enum class RunStatus {
  Ok,                 ///< The whole program was walked.
  TraceLimitReached,  ///< Stopped early at RunOptions::MaxAccesses.
  IndirectOutOfRange, ///< An index-array subscript left the array.
};

/// The contents of index array \p V over its first \p Length elements:
/// identity arrays hold lb + i at element i, random ones the seeded
/// uniform sequence in [RandomMin, RandomMax]. Each value depends only
/// on its position, so every prefix is the same whatever \p Length is:
/// the walk fills the padded length, a recording the declared one.
std::vector<int32_t> indexArrayValues(const ir::ArrayVariable &V,
                                      int64_t Length);

class TraceRunner {
public:
  /// Compiles \p P against \p DL (which must have all bases assigned).
  /// Both must outlive the runner.
  TraceRunner(const ir::Program &P, const layout::DataLayout &DL,
              const RunOptions &Options = RunOptions());
  ~TraceRunner();

  TraceRunner(const TraceRunner &) = delete;
  TraceRunner &operator=(const TraceRunner &) = delete;

  /// Walks the whole program once, pushing every access into \p Sink.
  /// Returns TraceLimitReached when the walk was cut short by
  /// RunOptions::MaxAccesses.
  RunStatus run(TraceSink &Sink);

  /// Number of accesses one run() emits (saturates at
  /// RunOptions::MaxAccesses when a limit is set). Computed
  /// analytically — per statement, references times the product of
  /// enclosing trip counts, with saturating arithmetic — so it costs
  /// O(loop structure) instead of a second full walk. Loops whose inner
  /// bounds depend on their variable (triangular nests) iterate only
  /// that level; programs with indirect subscripts fall back to a
  /// counting walk, because an out-of-range index truncates the trace
  /// in a way no closed form predicts.
  uint64_t countAccesses();

  /// The pre-analytic implementation: a full counting run(). Kept as the
  /// debug cross-check countAccesses() is tested against.
  uint64_t countAccessesByWalking();

private:
  struct Impl;
  std::unique_ptr<Impl> P;
};

} // namespace exec
} // namespace padx

#endif // PADX_EXEC_TRACERUNNER_H
