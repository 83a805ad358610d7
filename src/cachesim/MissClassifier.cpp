//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "cachesim/MissClassifier.h"

using namespace padx;
using namespace padx::sim;

bool MissClassifier::accessLine(int64_t Addr, bool IsWrite) {
  ++Breakdown.Accesses;
  int64_t Line = Addr >> Target.lineShiftLog2();
  bool FirstTouch = Touched.insert(Line).second;
  bool TargetHit = Target.accessLine(Addr, IsWrite);
  bool FullyHit = Fully.accessLine(Addr, IsWrite);
  if (TargetHit) {
    ++Breakdown.Hits;
    return true;
  }
  if (FirstTouch)
    ++Breakdown.Compulsory;
  else if (!FullyHit)
    ++Breakdown.Capacity;
  else
    ++Breakdown.Conflict;
  return false;
}

bool MissClassifier::access(int64_t Addr, int64_t Size, bool IsWrite) {
  // Lines are numbered by arithmetic shifts, as in CacheSim, so an
  // address below zero falls in the line that holds it.
  const unsigned LineShift = Target.lineShiftLog2();
  const int64_t Last = (Addr + Size - 1) >> LineShift;
  bool AllHit = true;
  for (int64_t L = Addr >> LineShift; L <= Last; ++L)
    AllHit &= accessLine(L << LineShift, IsWrite);
  return AllHit;
}

void MissClassifier::reset() {
  Target.reset();
  Fully.reset();
  Touched.clear();
  Breakdown = MissBreakdown();
}
