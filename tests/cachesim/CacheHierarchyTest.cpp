//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "cachesim/CacheHierarchy.h"

#include "gtest/gtest.h"

using namespace padx;
using namespace padx::sim;

namespace {

MachineModel twoLevel() {
  return MachineModel{
      {CacheConfig{1024, 32, 1}, CacheConfig{8 * 1024, 32, 1}}};
}

} // namespace

TEST(CacheHierarchy, L1HitStopsPropagation) {
  CacheHierarchy H(twoLevel());
  H.access(0, 8, false); // cold: misses both levels
  H.access(0, 8, false); // L1 hit
  EXPECT_EQ(H.stats(0).Accesses, 2u);
  EXPECT_EQ(H.stats(0).Misses, 1u);
  EXPECT_EQ(H.stats(1).Accesses, 1u);
  EXPECT_EQ(H.stats(1).Misses, 1u);
  EXPECT_EQ(H.memoryAccesses(), 1u);
}

TEST(CacheHierarchy, L2CatchesL1Conflicts) {
  CacheHierarchy H(twoLevel());
  // Two lines conflicting in the 1K L1 but distinct sets in the 8K L2.
  for (int Round = 0; Round < 5; ++Round) {
    H.access(0, 8, false);
    H.access(1024, 8, false);
  }
  // L1 ping-pongs: every access misses.
  EXPECT_EQ(H.stats(0).Misses, 10u);
  // L2 serves everything after the two cold misses.
  EXPECT_EQ(H.stats(1).Misses, 2u);
  EXPECT_EQ(H.memoryAccesses(), 2u);
}

TEST(CacheHierarchy, SingleLevelBehavesLikeCacheSim) {
  MachineModel M = MachineModel::singleLevel(CacheConfig::base16K());
  CacheHierarchy H(M);
  CacheSim Ref(CacheConfig::base16K());
  for (int64_t I = 0; I < 1000; ++I) {
    int64_t Addr = (I * 4096 + I % 7 * 8) % (1 << 20);
    H.access(Addr, 8, I % 3 == 0);
    Ref.access(Addr, 8, I % 3 == 0);
  }
  EXPECT_EQ(H.stats(0).Accesses, Ref.stats().Accesses);
  EXPECT_EQ(H.stats(0).Misses, Ref.stats().Misses);
  EXPECT_EQ(H.memoryAccesses(), Ref.stats().Misses);
}

TEST(CacheHierarchy, Reset) {
  CacheHierarchy H(twoLevel());
  H.access(0, 8, true);
  H.reset();
  EXPECT_EQ(H.stats(0).Accesses, 0u);
  EXPECT_EQ(H.stats(1).Accesses, 0u);
  EXPECT_EQ(H.memoryAccesses(), 0u);
}

TEST(CacheHierarchy, StraddlingAccessCountsPerLine) {
  CacheHierarchy H(twoLevel());
  H.access(28, 8, false); // two lines at L1 granularity
  EXPECT_EQ(H.stats(0).Accesses, 2u);
  EXPECT_EQ(H.memoryAccesses(), 2u);
}

TEST(CacheHierarchy, MostlyInclusiveFill) {
  // Every inner-level miss allocates in each level it probes on the
  // way down, so a line that entered L1 is also in L2: evicting it
  // from L1 (via an L1 set conflict) and re-touching it must hit L2,
  // never memory.
  CacheHierarchy H(twoLevel());
  H.access(0, 8, false);    // cold, fills L1 and L2
  H.access(1024, 8, false); // evicts line 0 from L1, fills L2
  H.access(0, 8, false);    // L1 miss, L2 hit (inclusion)
  EXPECT_EQ(H.stats(1).Misses, 2u); // only the two cold lines
  EXPECT_EQ(H.memoryAccesses(), 2u);
}

TEST(HierarchyClassifier, PerLevelThreeCs) {
  // Two lines that collide in the direct-mapped 1K L1 but live in
  // distinct sets of the 8K L2: L1 classifies the ping-pong as
  // conflict misses, while L2 — seeing exactly the lines that missed
  // L1 — records nothing beyond its two compulsory fills.
  HierarchyClassifier C(twoLevel());
  for (int Round = 0; Round < 5; ++Round) {
    C.access(0, 8, false);
    C.access(1024, 8, false);
  }
  const MissBreakdown &L1 = C.breakdown(0);
  EXPECT_EQ(L1.Compulsory, 2u);
  EXPECT_EQ(L1.Conflict, 8u); // everything after the cold fills
  EXPECT_EQ(L1.Capacity, 0u);
  const MissBreakdown &L2 = C.breakdown(1);
  EXPECT_EQ(L2.Accesses, 10u); // the L1 misses, nothing else
  EXPECT_EQ(L2.Compulsory, 2u);
  EXPECT_EQ(L2.Conflict, 0u);
  EXPECT_EQ(L2.Capacity, 0u);
}

TEST(HierarchyClassifier, OuterLevelConflictsAreLocal) {
  // The mirror image: lines 0 and 8K share an L2 set (8K cache,
  // direct-mapped) but distinct L1 sets (1K cache) — with an L1 small
  // enough that both keep missing it, the ping-pong classifies as L2
  // conflict misses.
  MachineModel M{{CacheConfig{64, 32, 1}, CacheConfig{8 * 1024, 32, 1}}};
  HierarchyClassifier C(M);
  for (int Round = 0; Round < 5; ++Round) {
    C.access(0, 8, false);
    C.access(32, 8, false);       // evicts line 0 from the 2-line L1
    C.access(8 * 1024, 8, false); // L2-conflicts with line 0
    C.access(32 + 64, 8, false);  // evicts line 8K's L1 slot
  }
  const MissBreakdown &L2 = C.breakdown(1);
  EXPECT_EQ(L2.Compulsory, 4u);
  EXPECT_GT(L2.Conflict, 0u);
  // Lines 0 and 8K alias in L2; the interleaved fillers do not.
  EXPECT_EQ(C.breakdown(0).Capacity + C.breakdown(0).Conflict +
                C.breakdown(0).Compulsory,
            C.breakdown(1).Accesses);
}

TEST(CacheHierarchy, AddressesBelowZeroFallInTheLineThatHoldsThem) {
  // A subscript below its array's lower bound can address below the
  // first base, which is 0. Byte -24 lies in line -1 ([-32, -1]), and
  // [-8, 7] spans lines -1 and 0: every simulator must number lines by
  // flooring, as CacheSim does and the trace replayer does, never by
  // truncating toward zero.
  const CacheConfig L1{1024, 32, 1};
  MachineModel M{{L1, CacheConfig{8 * 1024, 64, 1},
                  CacheConfig{64 * 4096, 4096, 4}}};
  M.Levels[2].IsTlb = true;
  CacheSim Flat(L1);
  CacheHierarchy H(M);
  MissClassifier Single(L1);
  HierarchyClassifier C(M);
  for (auto [Addr, Size] : {std::pair<int64_t, int64_t>{-24, 8}, {-8, 16}}) {
    Flat.access(Addr, Size, false);
    H.access(Addr, Size, false);
    Single.access(Addr, Size, false);
    C.access(Addr, Size, false);
  }
  EXPECT_EQ(Flat.stats().Accesses, 3u);
  EXPECT_EQ(Flat.stats().Misses, 2u);
  EXPECT_EQ(H.stats(0), Flat.stats());
  EXPECT_EQ(H.stats(1).Misses, 2u); // 64 B lines -1 and 0
  EXPECT_EQ(H.stats(2).Accesses, 3u); // page -1 twice, page 0 once
  EXPECT_EQ(H.stats(2).Misses, 2u);
  EXPECT_EQ(Single.breakdown().Accesses, 3u);
  EXPECT_EQ(Single.breakdown().Compulsory, 2u);
  EXPECT_EQ(C.breakdown(0).Accesses, 3u);
  EXPECT_EQ(C.breakdown(0).Compulsory, 2u);
  EXPECT_EQ(C.breakdown(1).Compulsory, 2u);
}
