//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Input census: the program properties padx branches on, read from
/// the IR and the public analyses, so the benchmark can state what share
/// of its ops takes each path.
///
//===----------------------------------------------------------------------===//

#ifndef PADX_PERFBENCH_CENSUS_H
#define PADX_PERFBENCH_CENSUS_H

#include "ir/Program.h"

#include <cstdint>
#include <string>

namespace padx {
namespace perfbench {

/// The batched replayer's one-zmm and two-zmm probes take patterns of at
/// most this many references; wider innermost bodies run the scalar lane
/// loop (exec/MultiTraceReplayer.cpp, kZmmMaxRefs).
inline constexpr unsigned kProbeMaxRefs = 6;

struct ProgramCensus {
  /// RecordedTrace::record declined the program (indirect subscripts,
  /// scalar refs), so every exact evaluation takes the direct walk.
  bool TraceDeclined = false;
  std::string DeclineReason;
  /// Most references in one assignment, and in one replay pattern (an
  /// innermost loop's whole body, or one assignment elsewhere).
  unsigned MaxRefsPerStmt = 0;
  unsigned MaxRefsPerBody = 0;
  /// Loop nests the lattice predictor leaves unscored: a zero iteration
  /// count (NestPrediction::Unscored) or a pair of analyzable array
  /// references whose address distance varies with a loop index, which
  /// the lattice test skips (triangular nests such as CHOL and DGEFA).
  unsigned UnscoredNests = 0;
  unsigned Nests = 0;
  /// Accesses one simulation of the program emits.
  uint64_t Accesses = 0;

  bool wideBody() const { return MaxRefsPerBody > kProbeMaxRefs; }
  bool unscored() const { return UnscoredNests > 0; }
};

/// Classifies \p P. Records the trace (the same call the search's cost
/// model makes) to learn whether replay declines it; a nonzero
/// \p RecordLimit stops the recording after that many accesses, which
/// still sees every structural reason to decline (indirect subscripts,
/// scalar refs).
ProgramCensus censusOf(const ir::Program &P, uint64_t RecordLimit = 0);

} // namespace perfbench
} // namespace padx

#endif // PADX_PERFBENCH_CENSUS_H
