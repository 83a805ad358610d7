//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "analysis/Reuse.h"

#include <cstdlib>

using namespace padx;
using namespace padx::analysis;

GroupReuse analysis::analyzeReuse(const layout::DataLayout &DL,
                                  const LoopGroup &Group,
                                  int64_t LineBytes) {
  return analyzeReuse(Group, linearizeGroup(DL, Group), LineBytes);
}

GroupReuse analysis::analyzeReuse(const LoopGroup &Group,
                                  const std::vector<LinearForm> &Forms,
                                  int64_t LineBytes) {
  GroupReuse Result;
  Result.Group = &Group;
  int64_t Step = std::llabs(Group.Innermost->Step);

  for (size_t I = 0, E = Group.Refs.size(); I != E; ++I) {
    RefReuse RR;
    RR.Ref = Group.Refs[I].Ref;
    RR.Leader = I;

    if (!Forms[I].Affine) {
      RR.Unanalyzable = true;
      Result.Refs.push_back(RR);
      continue;
    }

    // Self reuse: derivative of the byte address w.r.t. the innermost
    // index times the loop step.
    int64_t Coeff = Forms[I].CoeffBytes.back() * Step;
    RR.StrideBytes = Coeff;
    if (Coeff == 0)
      RR.Self = SelfReuse::Temporal;
    else if (std::llabs(Coeff) < LineBytes)
      RR.Self = SelfReuse::Spatial;
    else
      RR.Self = SelfReuse::None;

    // Group reuse: trail the earliest reference within a line. Writes
    // participate like reads (write-allocate cache).
    for (size_t J = 0; J != I; ++J) {
      const RefReuse &Prev = Result.Refs[J];
      if (Prev.Unanalyzable)
        continue;
      std::optional<int64_t> Dist = constantDistance(Forms[I], Forms[J]);
      if (!Dist)
        continue;
      if (*Dist == 0) {
        RR.Leader = Prev.Leader;
        RR.GroupTemporal = true;
        break;
      }
      if (std::llabs(*Dist) < LineBytes) {
        RR.Leader = Prev.Leader;
        RR.GroupSpatial = true;
        break;
      }
    }
    Result.Refs.push_back(RR);
  }
  return Result;
}
