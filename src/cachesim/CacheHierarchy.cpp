//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "cachesim/CacheHierarchy.h"

#include <cassert>

using namespace padx;
using namespace padx::sim;

namespace {

void splitLevels(const MachineModel &Machine,
                 std::vector<unsigned> &Chain,
                 std::vector<unsigned> &Tlbs) {
  for (unsigned I = 0; I < Machine.numLevels(); ++I)
    (Machine.Levels[I].IsTlb ? Tlbs : Chain).push_back(I);
  assert(!Chain.empty() && "hierarchy needs at least one cache level");
}

} // namespace

CacheHierarchy::CacheHierarchy(const MachineModel &Machine)
    : Machine(Machine) {
  assert(!Machine.Levels.empty() &&
         "hierarchy needs at least one level");
  Sims.reserve(Machine.Levels.size());
  for (const CacheLevel &L : Machine.Levels)
    Sims.emplace_back(L.Geometry);
  splitLevels(Machine, Chain, Tlbs);
}

void CacheHierarchy::access(int64_t Addr, int64_t Size, bool IsWrite) {
  // TLB levels translate the whole access: probe once per page spanned,
  // independent of how the cache chain fares. Pages and lines are
  // numbered by arithmetic shifts, as in CacheSim, so an address below
  // zero falls in the page or line that holds it.
  for (unsigned I : Tlbs) {
    const unsigned PageShift = Sims[I].lineShiftLog2();
    const int64_t Last = (Addr + Size - 1) >> PageShift;
    for (int64_t Pg = Addr >> PageShift; Pg <= Last; ++Pg)
      Sims[I].accessLine(Pg << PageShift, IsWrite);
  }

  // Split at the innermost cache level's line granularity so per-level
  // propagation stays line-by-line; each deeper level re-derives its
  // own (longer) line from the address, which is what makes the fill
  // line-size-aware.
  const unsigned LineShift = Sims[Chain.front()].lineShiftLog2();
  const int64_t Last = (Addr + Size - 1) >> LineShift;
  for (int64_t L = Addr >> LineShift; L <= Last; ++L) {
    const int64_t LineAddr = L << LineShift;
    if (!Sims[Chain.front()].accessLine(LineAddr, IsWrite))
      forwardMiss(LineAddr, IsWrite);
  }
}

void CacheHierarchy::reset() {
  for (CacheSim &Level : Sims)
    Level.reset();
}

HierarchyClassifier::HierarchyClassifier(const MachineModel &Machine)
    : Machine(Machine) {
  assert(!Machine.Levels.empty() &&
         "hierarchy needs at least one level");
  Levels.reserve(Machine.Levels.size());
  for (const CacheLevel &L : Machine.Levels)
    Levels.emplace_back(L.Geometry);
  splitLevels(Machine, Chain, Tlbs);
}

void HierarchyClassifier::access(int64_t Addr, int64_t Size,
                                 bool IsWrite) {
  for (unsigned I : Tlbs)
    Levels[I].access(Addr, Size, IsWrite);

  const unsigned LineShift =
      Levels[Chain.front()].target().lineShiftLog2();
  const int64_t Last = (Addr + Size - 1) >> LineShift;
  for (int64_t L = Addr >> LineShift; L <= Last; ++L) {
    const int64_t LineAddr = L << LineShift;
    for (unsigned I : Chain)
      if (Levels[I].accessLine(LineAddr, IsWrite))
        break;
  }
}

void HierarchyClassifier::reset() {
  for (MissClassifier &L : Levels)
    L.reset();
}
