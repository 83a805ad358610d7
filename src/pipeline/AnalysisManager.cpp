//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "pipeline/AnalysisManager.h"

#include "analysis/LinearAlgebra.h"
#include "analysis/UniformRefs.h"
#include "pipeline/SharedAnalysisCache.h"

#include <chrono>
#include <memory>
#include <type_traits>
#include <utility>

using namespace padx;
using namespace padx::pipeline;

const char *pipeline::analysisKindName(AnalysisKind K) {
  switch (K) {
  case AnalysisKind::ReferenceGroups:
    return "reference-groups";
  case AnalysisKind::IterationCounts:
    return "iteration-counts";
  case AnalysisKind::Safety:
    return "safety";
  case AnalysisKind::LinearAlgebra:
    return "linear-algebra";
  case AnalysisKind::UniformRefs:
    return "uniform-refs";
  case AnalysisKind::ConflictReport:
    return "conflict-report";
  case AnalysisKind::LatticePrediction:
    return "lattice-prediction";
  }
  return "unknown";
}

uint64_t AnalysisStats::totalHits() const {
  uint64_t N = 0;
  for (const AnalysisCounters &C : Kinds)
    N += C.Hits;
  return N;
}

uint64_t AnalysisStats::totalSharedHits() const {
  uint64_t N = 0;
  for (const AnalysisCounters &C : Kinds)
    N += C.SharedHits;
  return N;
}

uint64_t AnalysisStats::totalMisses() const {
  uint64_t N = 0;
  for (const AnalysisCounters &C : Kinds)
    N += C.Misses;
  return N;
}

uint64_t AnalysisStats::totalInvalidated() const {
  uint64_t N = 0;
  for (const AnalysisCounters &C : Kinds)
    N += C.Invalidated;
  return N;
}

void AnalysisStats::merge(const AnalysisStats &Other) {
  for (unsigned I = 0; I != kNumAnalysisKinds; ++I) {
    Kinds[I].Hits += Other.Kinds[I].Hits;
    Kinds[I].SharedHits += Other.Kinds[I].SharedHits;
    Kinds[I].Misses += Other.Kinds[I].Misses;
    Kinds[I].Invalidated += Other.Kinds[I].Invalidated;
    Kinds[I].Seconds += Other.Kinds[I].Seconds;
  }
  PredictorUnscored += Other.PredictorUnscored;
}

AnalysisManager::AnalysisManager(const ir::Program &P, bool EnableCache)
    : Prog(&P), EnableCache(EnableCache) {}

void AnalysisManager::attachSharedCache(SharedAnalysisCache *S) {
  std::lock_guard<std::mutex> L(M);
  Shared = S;
  SharedFP = S ? fingerprintProgram(*Prog) : 0;
}

AnalysisStats AnalysisManager::statsSnapshot() const {
  std::lock_guard<std::mutex> L(M);
  return Stats;
}

template <typename T, typename SharedSlotT, typename ComputeFn>
const T &AnalysisManager::memo(AnalysisKind K, std::optional<T> &Slot,
                               const LayoutKey *Key, SharedSlotT SharedSlot,
                               ComputeFn Compute) {
  // LoopGroup holds raw pointers into *this* manager's ir::Program,
  // which another request's manager (a different Program instance,
  // possibly already destroyed) must never observe; such kinds pass no
  // shared slot.
  constexpr bool Shareable = !std::is_null_pointer_v<SharedSlotT>;
  constexpr bool ProgramLevel = std::is_same_v<
      SharedSlotT,
      SharedAnalysisCache::Ptr<T> SharedAnalysisCache::ProgramSlots::*>;
  AnalysisCounters &C = Stats.Kinds[static_cast<unsigned>(K)];
  if (EnableCache && Slot) {
    ++C.Hits;
    return *Slot;
  }
  const bool UseShared = EnableCache && Shared;
  if constexpr (Shareable) {
    if (UseShared) {
      SharedAnalysisCache::Ptr<T> Hit;
      if constexpr (ProgramLevel)
        Hit = Shared->getProgram(SharedFP, SharedSlot, K);
      else
        Hit = Shared->getLayout(SharedFP, *Key, SharedSlot, K);
      if (Hit) {
        ++C.SharedHits;
        Slot = *Hit;
        return *Slot;
      }
    }
  }

  ++C.Misses;
  const double Outer = std::exchange(NestedSeconds, 0.0);
  const auto Start = std::chrono::steady_clock::now();
  // Assign rather than emplace: with caching disabled a caller may
  // still hold a reference to the previous result of this slot.
  Slot = Compute();
  const double Elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - Start)
                             .count();
  C.Seconds += Elapsed - NestedSeconds;
  NestedSeconds = Outer + Elapsed;

  if constexpr (Shareable) {
    if (UseShared) {
      auto Copy = std::make_shared<const T>(*Slot);
      if constexpr (ProgramLevel)
        Shared->putProgram(SharedFP, SharedSlot, std::move(Copy));
      else
        Shared->putLayout(SharedFP, *Key, SharedSlot, std::move(Copy));
    }
  }
  return *Slot;
}

const std::vector<analysis::LoopGroup> &
AnalysisManager::referenceGroupsLocked() {
  return memo(AnalysisKind::ReferenceGroups, Groups, nullptr, nullptr,
              [&] { return analysis::collectLoopGroups(*Prog); });
}

const std::vector<analysis::LoopGroup> &
AnalysisManager::referenceGroups() {
  std::lock_guard<std::mutex> L(M);
  return referenceGroupsLocked();
}

const std::vector<double> &AnalysisManager::iterationCountsLocked() {
  return memo(AnalysisKind::IterationCounts, Iterations, nullptr,
              &SharedAnalysisCache::ProgramSlots::Iterations, [&] {
                return analysis::countGroupIterations(
                    referenceGroupsLocked());
              });
}

const std::vector<double> &AnalysisManager::iterationCounts() {
  std::lock_guard<std::mutex> L(M);
  return iterationCountsLocked();
}

const analysis::SafetyInfo &AnalysisManager::safety() {
  std::lock_guard<std::mutex> L(M);
  return memo(AnalysisKind::Safety, Safety, nullptr,
              &SharedAnalysisCache::ProgramSlots::Safety,
              [&] { return analysis::analyzeSafety(*Prog); });
}

const std::vector<bool> &AnalysisManager::linearAlgebraArrays() {
  std::lock_guard<std::mutex> L(M);
  return memo(AnalysisKind::LinearAlgebra, LinAlg, nullptr,
              &SharedAnalysisCache::ProgramSlots::LinAlg,
              [&] { return analysis::detectLinearAlgebraArrays(*Prog); });
}

double AnalysisManager::percentUniformRefs() {
  std::lock_guard<std::mutex> L(M);
  return memo(AnalysisKind::UniformRefs, UniformPct, nullptr,
              &SharedAnalysisCache::ProgramSlots::UniformPct,
              [&] { return analysis::percentUniformRefs(*Prog); });
}

AnalysisManager::LayoutKey
AnalysisManager::makeKey(const layout::DataLayout &DL,
                         const CacheConfig &Cache) {
  LayoutKey Key;
  Key.reserve(3 + 2 * DL.numArrays());
  Key.push_back(Cache.SizeBytes);
  Key.push_back(Cache.LineBytes);
  Key.push_back(Cache.Associativity);
  for (unsigned Id = 0, E = DL.numArrays(); Id != E; ++Id) {
    const layout::ArrayLayout &L = DL.layout(Id);
    Key.push_back(L.BaseAddr);
    for (int64_t D : L.Dims)
      Key.push_back(D);
  }
  return Key;
}

AnalysisManager::LayoutEntry &
AnalysisManager::layoutEntryLocked(const LayoutKey &Key) {
  if (!EnableCache)
    return Scratch;
  if (LayoutCache.size() >= kMaxLayoutEntries && !LayoutCache.count(Key))
    invalidateLayoutResultsLocked();
  return LayoutCache[Key];
}

// The layout-keyed computations below query only program-level kinds,
// which never touch the layout map, so the entry they fill stays put.

const std::vector<analysis::ConflictEntry> &
AnalysisManager::severeConflicts(const layout::DataLayout &DL,
                                 const CacheConfig &Cache) {
  std::lock_guard<std::mutex> L(M);
  const LayoutKey Key = makeKey(DL, Cache);
  return memo(AnalysisKind::ConflictReport, layoutEntryLocked(Key).Severe,
              &Key, &SharedAnalysisCache::LayoutSlots::Severe, [&] {
                return analysis::reportConflicts(DL, Cache,
                                                 referenceGroupsLocked(),
                                                 /*SevereOnly=*/true);
              });
}

const analysis::LatticePrediction &
AnalysisManager::latticePrediction(const layout::DataLayout &DL,
                                   const CacheConfig &Cache) {
  std::lock_guard<std::mutex> L(M);
  const LayoutKey Key = makeKey(DL, Cache);
  return memo(AnalysisKind::LatticePrediction,
              layoutEntryLocked(Key).Lattice, &Key,
              &SharedAnalysisCache::LayoutSlots::Lattice, [&] {
                const auto &G = referenceGroupsLocked();
                analysis::LatticePrediction P = analysis::predictConflicts(
                    DL, Cache, G, iterationCountsLocked());
                Stats.PredictorUnscored += P.UnscoredNests;
                return P;
              });
}

std::vector<analysis::GroupReuse>
AnalysisManager::reuse(const layout::DataLayout &DL,
                       const CacheConfig &Cache) {
  std::lock_guard<std::mutex> L(M);
  std::vector<analysis::GroupReuse> R;
  for (const analysis::LoopGroup &Group : referenceGroupsLocked())
    R.push_back(analysis::analyzeReuse(DL, Group, Cache.LineBytes));
  return R;
}

analysis::MachinePrediction
AnalysisManager::machineLatticePrediction(const layout::DataLayout &DL,
                                          const MachineModel &Machine) {
  std::lock_guard<std::mutex> L(M);
  const auto &G = referenceGroupsLocked();
  return analysis::predictConflicts(DL, Machine, G, iterationCountsLocked());
}

analysis::LatticePrediction
AnalysisManager::missEstimate(const layout::DataLayout &DL,
                              const CacheConfig &Cache) {
  std::lock_guard<std::mutex> L(M);
  const auto &G = referenceGroupsLocked();
  return analysis::predictConflicts(DL, Cache, G, iterationCountsLocked());
}

void AnalysisManager::invalidateLayoutResultsLocked() {
  auto Drop = [&](AnalysisKind K, bool Held) {
    Stats.Kinds[static_cast<unsigned>(K)].Invalidated += Held;
  };
  for (const auto &[Key, E] : LayoutCache) {
    Drop(AnalysisKind::ConflictReport, E.Severe.has_value());
    Drop(AnalysisKind::LatticePrediction, E.Lattice.has_value());
  }
  LayoutCache.clear();
}

void AnalysisManager::invalidateLayoutResults() {
  std::lock_guard<std::mutex> L(M);
  invalidateLayoutResultsLocked();
}
