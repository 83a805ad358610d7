//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "Census.h"

#include "analysis/ConflictDistance.h"
#include "analysis/ReferenceGroups.h"
#include "exec/RecordedTrace.h"
#include "exec/TraceRunner.h"
#include "layout/DataLayout.h"
#include "pipeline/PadPipeline.h"

#include <algorithm>

using namespace padx;
using namespace padx::perfbench;

namespace {

/// Walks a statement list. The recorder makes one pattern of an innermost
/// loop's whole body and one of every other assignment.
void countRefs(const std::vector<ir::Stmt> &Body, bool InLoop,
               ProgramCensus &C) {
  unsigned BodyRefs = 0;
  bool HasLoop = false;
  for (const ir::Stmt &S : Body) {
    if (const auto *A = std::get_if<ir::Assign>(&S)) {
      unsigned N = static_cast<unsigned>(A->Refs.size());
      C.MaxRefsPerStmt = std::max(C.MaxRefsPerStmt, N);
      BodyRefs += N;
    } else {
      HasLoop = true;
      countRefs(std::get<std::unique_ptr<ir::Loop>>(S)->Body, true, C);
    }
  }
  C.MaxRefsPerBody = std::max(
      C.MaxRefsPerBody, InLoop && !HasLoop ? BodyRefs : C.MaxRefsPerStmt);
}

bool hasNonUniformPair(const layout::DataLayout &DL,
                       const analysis::LoopGroup &G) {
  const ir::Program &P = DL.program();
  for (size_t I = 0; I != G.Refs.size(); ++I) {
    const ir::ArrayRef &A = *G.Refs[I].Ref;
    if (!A.isAffine() || P.array(A.ArrayId).isScalar())
      continue;
    for (size_t J = I + 1; J != G.Refs.size(); ++J) {
      const ir::ArrayRef &B = *G.Refs[J].Ref;
      if (!B.isAffine() || P.array(B.ArrayId).isScalar())
        continue;
      if (!analysis::iterationDistanceBytes(DL, A, B))
        return true;
    }
  }
  return false;
}

} // namespace

ProgramCensus padx::perfbench::censusOf(const ir::Program &P,
                                        uint64_t RecordLimit) {
  ProgramCensus C;
  countRefs(P.body(), /*InLoop=*/false, C);

  exec::RunOptions RO;
  RO.MaxAccesses = RecordLimit;
  C.TraceDeclined =
      exec::RecordedTrace::record(P, RO, &C.DeclineReason) == nullptr;
  layout::DataLayout DL = layout::originalLayout(P);
  C.Accesses = exec::TraceRunner(P, DL).countAccesses();

  pipeline::PadPipeline PP(P);
  const std::vector<analysis::LoopGroup> &Groups =
      PP.analysis().referenceGroups();
  const std::vector<double> &Iterations = PP.analysis().iterationCounts();
  C.Nests = static_cast<unsigned>(Groups.size());
  for (size_t I = 0; I != Groups.size(); ++I)
    if (Iterations[I] == 0 || hasNonUniformPair(DL, Groups[I]))
      ++C.UnscoredNests;
  return C;
}
