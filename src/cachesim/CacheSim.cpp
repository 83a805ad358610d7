//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "cachesim/CacheSim.h"

#include "support/MathExtras.h"

#include <algorithm>
#include <cassert>
#include <ostream>

using namespace padx;
using namespace padx::sim;

std::ostream &padx::sim::operator<<(std::ostream &OS, const CacheStats &S) {
  return OS << "{accesses " << S.Accesses << ", misses " << S.Misses
            << ", reads " << S.Reads << ", writes " << S.Writes
            << ", write-backs " << S.WriteBacks << "}";
}

CacheSim::CacheSim(const CacheConfig &Config) : Config(Config) {
  assert(Config.isValid() && "invalid cache configuration");
  LineShift = log2OfPow2(Config.LineBytes);
  FullyAssoc = Config.Associativity == 0;
  if (FullyAssoc) {
    Capacity = Config.numLines();
    Nodes.resize(static_cast<size_t>(Capacity));
    NodeOf.reserve(static_cast<size_t>(Capacity) * 2);
  } else {
    Ways = Config.Associativity;
    NumSets = Config.numSets();
    SetShift = log2OfPow2(NumSets);
    if (Ways == 1) {
      DirectLine.assign(static_cast<size_t>(NumSets), 0);
    } else {
      Entries.resize(static_cast<size_t>(NumSets) * Ways);
      MruWay.assign(static_cast<size_t>(NumSets), 0);
    }
  }
}

void CacheSim::reset() {
  Stats = CacheStats();
  Clock = 0;
  for (Entry &E : Entries)
    E = Entry();
  std::fill(MruWay.begin(), MruWay.end(), 0);
  std::fill(DirectLine.begin(), DirectLine.end(), 0);
  NodeOf.clear();
  Head = Tail = kNull;
  NumNodes = 0;
}

bool CacheSim::access(int64_t Addr, int64_t Size, bool IsWrite) {
  assert(Size > 0 && "access size must be positive");
  int64_t FirstLine = Addr >> LineShift;
  int64_t LastLine = (Addr + Size - 1) >> LineShift;
  bool AllHit = true;
  for (int64_t Line = FirstLine; Line <= LastLine; ++Line)
    AllHit &= accessLine(Line << LineShift, IsWrite);
  return AllHit;
}

// accessLine and accessSetAssoc live in the header so the trace
// generator's and replayer's probe loops inline them.

void CacheSim::listUnlink(uint32_t N) {
  Node &Nd = Nodes[N];
  if (Nd.Prev != kNull)
    Nodes[Nd.Prev].Next = Nd.Next;
  else
    Head = Nd.Next;
  if (Nd.Next != kNull)
    Nodes[Nd.Next].Prev = Nd.Prev;
  else
    Tail = Nd.Prev;
}

void CacheSim::listPushFront(uint32_t N) {
  Node &Nd = Nodes[N];
  Nd.Prev = kNull;
  Nd.Next = Head;
  if (Head != kNull)
    Nodes[Head].Prev = N;
  Head = N;
  if (Tail == kNull)
    Tail = N;
}

bool CacheSim::accessFullyAssoc(int64_t LineAddr, bool IsWrite) {
  auto It = NodeOf.find(LineAddr);
  if (It != NodeOf.end()) {
    uint32_t N = It->second;
    Nodes[N].Dirty |= IsWrite;
    if (Head != N) {
      listUnlink(N);
      listPushFront(N);
    }
    return true;
  }
  uint32_t N;
  if (NumNodes < Capacity) {
    N = NumNodes++;
  } else {
    // Evict the LRU line.
    N = Tail;
    if (Nodes[N].Dirty)
      ++Stats.WriteBacks;
    NodeOf.erase(Nodes[N].Line);
    listUnlink(N);
  }
  Nodes[N].Line = LineAddr;
  Nodes[N].Dirty = IsWrite;
  listPushFront(N);
  NodeOf.emplace(LineAddr, N);
  return false;
}
