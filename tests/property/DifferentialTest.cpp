//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential tests over generated programs: padx counts misses
/// several ways — the direct walk, replay of the recorded trace into a
/// CacheSim, and replay into a CacheHierarchy — and they must agree bit
/// for bit. The programs come from the property generator with one-level
/// index-array subscripts switched on, so gathered refs are covered too;
/// each is scored under its original layout, PAD's layout and one seeded
/// random candidate. The first test scores one cache level (the paper's
/// direct-mapped 16K cache and a 2-way one); the second scores
/// multi-level machines, with a TLB beside the chain, an 8-way first
/// level and 256 B lines, level by level against the walk. The third
/// checks the static analyses' pair distances (the paper's Expression
/// (1)) against addresses computed element by element. The fourth pins
/// the invariance the search's score memo rests on: moving every base
/// by a multiple of the machine's period, or growing last dims in place,
/// changes no statistic and no address key, while moves and pads that
/// replay can see change the key.
///
//===----------------------------------------------------------------------===//

#include "analysis/ConflictDistance.h"
#include "cachesim/CacheHierarchy.h"
#include "core/Padding.h"
#include "exec/RecordedTrace.h"
#include "ir/Validator.h"
#include "kernels/Kernels.h"
#include "machine/MachineModel.h"
#include "search/Candidate.h"
#include "tests/property/RandomProgram.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <array>
#include <random>
#include <set>

using namespace padx;

namespace {

/// Fixed, so the tests' cost and coverage never drift.
constexpr uint64_t kSamples = 48;
/// Caps every walk and recording; most samples run to completion under
/// it, the rest also cover truncation.
constexpr uint64_t kMaxAccesses = uint64_t(1) << 17;

constexpr const char *kLayoutNames[] = {"original", "pad", "random"};

exec::RunOptions cappedRun() {
  exec::RunOptions Run;
  Run.MaxAccesses = kMaxAccesses;
  return Run;
}

/// One random candidate: column pads of 0..8 elements on every
/// dimension and gaps of 0..64 elements before every array.
layout::DataLayout randomCandidate(const ir::Program &P, uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::uniform_int_distribution<int64_t> Pad(0, 8), Gap(0, 64);
  search::Candidate C = search::zeroCandidate(P);
  for (unsigned A = 0; A != C.DimPads.size(); ++A) {
    for (int64_t &D : C.DimPads[A])
      D = Pad(Rng);
    C.GapBytes[A] = Gap(Rng) * P.array(A).ElemSize;
  }
  return search::materialize(P, C);
}

/// A sample's three layouts, in kLayoutNames order.
std::array<layout::DataLayout, 3> sampleLayouts(const ir::Program &P,
                                                uint64_t Seed) {
  return {layout::originalLayout(P),
          pad::runPad(P, CacheConfig::base16K()).Layout,
          randomCandidate(P, Seed)};
}

/// Sample program \p Seed: the generator's output with one-level
/// index-array subscripts switched on.
ir::Program sampleProgram(uint64_t Seed) {
  padx::testing::RandomProgramOptions GenOpts;
  GenOpts.IndirectSubscripts = true;
  return padx::testing::generateRandomProgram(Seed, GenOpts);
}

::testing::AssertionResult validates(const ir::Program &P) {
  DiagnosticEngine Diags;
  if (ir::validate(P, Diags))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << Diags.str();
}

/// Generates each sample program, records it under the cap and calls
/// Body(Seed, P, Trace, Layouts) with its three layouts, in
/// kLayoutNames order.
template <typename BodyFn> void forEachSample(BodyFn &&Body) {
  for (uint64_t Seed = 1; Seed <= kSamples; ++Seed) {
    ir::Program P = sampleProgram(Seed);
    ASSERT_TRUE(validates(P)) << "seed " << Seed;
    std::string WhyNot;
    auto T = exec::RecordedTrace::record(P, cappedRun(), &WhyNot);
    // The generator keeps every index subscript inside its table.
    ASSERT_NE(T, nullptr) << "seed " << Seed << ": " << WhyNot;
    const auto Layouts = sampleLayouts(P, Seed);
    Body(Seed, P, *T, Layouts.data());
  }
}

/// Byte address of \p R at one point of its nest: the subscripts are
/// evaluated with \p Point's value for each nest variable and the
/// element is located by DataLayout::addressOf, so this shares no code
/// with the analysis' linear forms.
int64_t addressAt(const layout::DataLayout &DL, const ir::ArrayRef &R,
                  const std::vector<const ir::Loop *> &Nest,
                  const std::vector<int64_t> &Point) {
  auto Env = [&](const std::string &Var) {
    for (size_t K = 0; K != Nest.size(); ++K)
      if (Nest[K]->IndexVar == Var)
        return Point[K];
    ADD_FAILURE() << "subscript names '" << Var << "' outside its nest";
    return int64_t(0);
  };
  std::vector<int64_t> Indices;
  for (const ir::AffineExpr &S : R.Subscripts)
    Indices.push_back(S.evaluate(Env));
  return DL.addressOf(R.ArrayId, Indices);
}

/// Checks every reference pair of every loop group of \p DL's program:
/// the pair's distance, from the group's linear forms and from
/// iterationDistanceBytes, must equal the difference of the two
/// addresses at the zero point and at three seeded points of the nest,
/// and must be std::nullopt exactly when those differences disagree.
/// Returns the number of pairs with a constant distance.
unsigned checkPairDistances(const std::string &Context,
                            const layout::DataLayout &DL, uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::uniform_int_distribution<int64_t> Value(-1000, 1000);
  unsigned Constant = 0;
  for (const analysis::LoopGroup &G :
       analysis::collectLoopGroups(DL.program())) {
    const std::vector<analysis::LinearForm> Forms =
        analysis::linearizeGroup(DL, G);
    std::vector<std::vector<int64_t>> Points(
        4, std::vector<int64_t>(G.Nest.size(), 0));
    for (size_t Pt = 1; Pt != Points.size(); ++Pt)
      for (int64_t &V : Points[Pt])
        V = Value(Rng);
    for (size_t I = 0; I != G.Refs.size(); ++I) {
      for (size_t J = I + 1; J != G.Refs.size(); ++J) {
        const ir::ArrayRef &R1 = *G.Refs[I].Ref, &R2 = *G.Refs[J].Ref;
        const std::string Where = Context + " loop " +
                                  G.Innermost->IndexVar + " refs " +
                                  std::to_string(I) + "," +
                                  std::to_string(J);
        std::optional<int64_t> Dist =
            analysis::constantDistance(Forms[I], Forms[J]);
        EXPECT_EQ(Dist, analysis::iterationDistanceBytes(DL, R1, R2))
            << Where;
        if (!R1.isAffine() || !R2.isAffine()) {
          EXPECT_FALSE(Dist) << Where << ": an indirect ref";
          continue;
        }
        std::vector<int64_t> Diffs;
        for (const std::vector<int64_t> &Point : Points)
          Diffs.push_back(addressAt(DL, R1, G.Nest, Point) -
                          addressAt(DL, R2, G.Nest, Point));
        const bool Agree =
            std::all_of(Diffs.begin(), Diffs.end(),
                        [&](int64_t D) { return D == Diffs.front(); });
        EXPECT_EQ(Dist.has_value(), Agree) << Where;
        if (Dist && Agree) {
          EXPECT_EQ(*Dist, Diffs.front()) << Where;
          ++Constant;
        }
      }
    }
  }
  return Constant;
}

/// The single-level geometries of the first test as one-level machines,
/// then the hierarchies of the second.
std::vector<MachineModel> oracleMachines() {
  std::vector<MachineModel> Machines = {
      MachineModel::singleLevel(CacheConfig::base16K()),
      MachineModel::singleLevel(CacheConfig{16 * 1024, 32, 2})};
  for (const char *Spec : {"paper-l2", "skylake", "a64fx",
                           "l1:16k/32/1,l2:64k/64/1,tlb:64/4k/4"}) {
    MachineModel M;
    std::string Error;
    EXPECT_TRUE(MachineModel::parse(Spec, M, &Error)) << Spec << ": "
                                                      << Error;
    Machines.push_back(std::move(M));
  }
  return Machines;
}

/// The machine's period: its largest line or page size. Every size is a
/// power of two, so each is a divisor of it.
int64_t periodOf(const MachineModel &M) {
  int64_t Period = 1;
  for (const CacheLevel &L : M.Levels)
    Period = std::max(Period, L.Geometry.LineBytes);
  return Period;
}

/// \p DL with every base, scalars and unreferenced arrays included,
/// moved by \p Bytes.
layout::DataLayout shifted(const layout::DataLayout &DL, int64_t Bytes) {
  layout::DataLayout Out = DL;
  for (unsigned Id = 0; Id != Out.numArrays(); ++Id)
    Out.layout(Id).BaseAddr += Bytes;
  return Out;
}

/// Ids of the arrays some statement of \p P references, index arrays
/// included.
std::set<unsigned> referencedArrays(const ir::Program &P) {
  std::set<unsigned> Ids;
  P.forEachAssign([&](const ir::Assign &A,
                      const std::vector<const ir::Loop *> &) {
    for (const ir::ArrayRef &R : A.Refs) {
      Ids.insert(R.ArrayId);
      if (R.IndirectDim >= 0)
        Ids.insert(R.IndexArrayId);
    }
  });
  return Ids;
}

/// Every statistic a walk of \p DL leaves in \p H: per-level stats and
/// the accesses that missed every cache level.
struct WalkStats {
  std::vector<sim::CacheStats> Levels;
  uint64_t Memory = 0;
  bool operator==(const WalkStats &RHS) const = default;
};

WalkStats walkStats(sim::CacheHierarchy &H, const ir::Program &P,
                    const layout::DataLayout &DL) {
  H.reset();
  exec::HierarchySink Sink(H);
  exec::TraceRunner(P, DL, cappedRun()).run(Sink);
  WalkStats W;
  for (unsigned I = 0; I != H.numLevels(); ++I)
    W.Levels.push_back(H.stats(I));
  W.Memory = H.memoryAccesses();
  return W;
}

} // namespace

TEST(Differential, WalkReplayAndHierarchyAgreeOnGeneratedPrograms) {
  const exec::RunOptions Run = cappedRun();
  const CacheConfig Geometries[] = {CacheConfig::base16K(),
                                    CacheConfig{16 * 1024, 32, 2}};
  uint64_t Gathered = 0;
  forEachSample([&](uint64_t Seed, const ir::Program &P,
                    const exec::RecordedTrace &T,
                    const layout::DataLayout *Layouts) {
    Gathered += T.numGatheredRefs();
    exec::TraceReplayer Replayer(T);
    for (const CacheConfig &Cfg : Geometries) {
      sim::CacheHierarchy H(MachineModel::singleLevel(Cfg));
      for (unsigned L = 0; L != 3; ++L) {
        const std::string Context = "seed " + std::to_string(Seed) + " " +
                                    kLayoutNames[L] + " " + Cfg.describe();
        sim::CacheSim Walk(Cfg);
        exec::CacheSimSink Sink(Walk);
        const exec::RunStatus Status =
            exec::TraceRunner(P, Layouts[L], Run).run(Sink);

        sim::CacheSim Replay(Cfg);
        EXPECT_EQ(Replayer.replay(Layouts[L], Replay), Status) << Context;
        EXPECT_EQ(Replay.stats(), Walk.stats()) << Context << " replay";

        H.reset();
        EXPECT_EQ(Replayer.replay(Layouts[L], H), Status) << Context;
        ASSERT_EQ(H.numLevels(), 1u);
        EXPECT_EQ(H.stats(0), Walk.stats()) << Context << " hierarchy";
      }
    }
  });
  // The samples must actually exercise gathered refs.
  EXPECT_GT(Gathered, kSamples / 2);
}

TEST(Differential, HierarchyReplayMatchesTheWalkOnEveryMachineShape) {
  const exec::RunOptions Run = cappedRun();
  // Direct-mapped L1 and L2 with longer L2 lines; an 8-way L1 under
  // two outer levels and a TLB; 256 B lines; and a TLB beside a
  // direct-mapped chain.
  const char *Specs[] = {"paper-l2", "skylake", "a64fx",
                         "l1:16k/32/1,l2:64k/64/1,tlb:64/4k/4"};
  std::vector<MachineModel> Machines;
  for (const char *Spec : Specs) {
    MachineModel M;
    std::string Error;
    ASSERT_TRUE(MachineModel::parse(Spec, M, &Error)) << Spec << ": "
                                                      << Error;
    Machines.push_back(std::move(M));
  }
  // One walked and one replayed hierarchy per machine, reset per layout.
  std::vector<sim::CacheHierarchy> Walks, Replays;
  for (const MachineModel &M : Machines) {
    Walks.emplace_back(M);
    Replays.emplace_back(M);
  }
  forEachSample([&](uint64_t Seed, const ir::Program &P,
                    const exec::RecordedTrace &T,
                    const layout::DataLayout *Layouts) {
    exec::TraceReplayer Replayer(T);
    for (size_t M = 0; M != Machines.size(); ++M) {
      sim::CacheHierarchy &Walk = Walks[M], &Replay = Replays[M];
      for (unsigned L = 0; L != 3; ++L) {
        const std::string Context = "seed " + std::to_string(Seed) + " " +
                                    kLayoutNames[L] + " " + Specs[M];
        Walk.reset();
        exec::HierarchySink Sink(Walk);
        const exec::RunStatus Status =
            exec::TraceRunner(P, Layouts[L], Run).run(Sink);

        Replay.reset();
        EXPECT_EQ(Replayer.replay(Layouts[L], Replay), Status) << Context;
        for (unsigned I = 0; I != Walk.numLevels(); ++I)
          EXPECT_EQ(Replay.stats(I), Walk.stats(I))
              << Context << " level " << Machines[M].levelName(I);
        EXPECT_EQ(Replay.memoryAccesses(), Walk.memoryAccesses())
            << Context;
      }
    }
  });
}

TEST(Differential, PairDistancesMatchAddressDifferences) {
  // Generated programs under their three sample layouts, then every
  // corpus kernel under its original and PAD layouts.
  unsigned Constant = 0;
  for (uint64_t Seed = 1; Seed <= kSamples; ++Seed) {
    ir::Program P = sampleProgram(Seed);
    ASSERT_TRUE(validates(P)) << "seed " << Seed;
    const auto Layouts = sampleLayouts(P, Seed);
    for (unsigned L = 0; L != 3; ++L)
      Constant += checkPairDistances(
          "seed " + std::to_string(Seed) + " " + kLayoutNames[L],
          Layouts[L], Seed * 3 + L);
  }
  for (const kernels::KernelInfo &K : kernels::allKernels()) {
    ir::Program P = kernels::makeKernel(K.Name);
    Constant += checkPairDistances(K.Name + " original",
                                   layout::originalLayout(P), 1);
    Constant += checkPairDistances(
        K.Name + " pad", pad::runPad(P, CacheConfig::base16K()).Layout, 2);
  }
  // The pairs must actually include constant distances.
  EXPECT_GT(Constant, 1000u);
}

TEST(Differential, ShiftingByThePeriodKeepsEveryStatistic) {
  const std::vector<MachineModel> Machines = oracleMachines();
  std::vector<sim::CacheHierarchy> Walks;
  for (const MachineModel &M : Machines)
    Walks.emplace_back(M);
  unsigned PadsChecked = 0;
  forEachSample([&](uint64_t Seed, const ir::Program &P,
                    const exec::RecordedTrace &T,
                    const layout::DataLayout *Layouts) {
    const std::set<unsigned> Referenced = referencedArrays(P);
    for (size_t M = 0; M != Machines.size(); ++M) {
      sim::CacheHierarchy &H = Walks[M];
      const int64_t Period = periodOf(Machines[M]);
      const unsigned First = Machines[M].firstCacheLevel();
      const int64_t Line = Machines[M].Levels[First].Geometry.LineBytes;
      uint64_t FirstAccesses = 0;
      for (unsigned L = 0; L != 3; ++L) {
        const std::string Context = "seed " + std::to_string(Seed) + " " +
                                    kLayoutNames[L] + " " +
                                    Machines[M].spec();
        const layout::DataLayout &DL = Layouts[L];
        const WalkStats Stats = walkStats(H, P, DL);
        const std::vector<int64_t> Key = T.addressKey(DL, Period);
        ASSERT_FALSE(Key.empty()) << Context;

        // Padding never changes the access count.
        if (L == 0)
          FirstAccesses = Stats.Levels[First].Accesses;
        EXPECT_EQ(Stats.Levels[First].Accesses, FirstAccesses) << Context;

        // Whole-period shifts: same statistics, same key.
        for (int64_t Periods : {1, 3}) {
          const layout::DataLayout Moved = shifted(DL, Periods * Period);
          EXPECT_EQ(walkStats(H, P, Moved), Stats)
              << Context << " shifted by " << Periods << " periods";
          EXPECT_EQ(T.addressKey(Moved, Period), Key)
              << Context << " shifted by " << Periods << " periods";
        }

        // No stride reads a last dim: growing every one in place, bases
        // unchanged, is invisible to the walk and to the key.
        layout::DataLayout Grown = DL;
        for (unsigned Id = 0; Id != Grown.numArrays(); ++Id)
          if (!Grown.layout(Id).Dims.empty())
            Grown.layout(Id).Dims.back() += 3;
        EXPECT_EQ(walkStats(H, P, Grown), Stats) << Context << " grown";
        EXPECT_EQ(T.addressKey(Grown, Period), Key) << Context << " grown";

        // What replay can see changes the key: a shift by half a
        // first-level line (still element-aligned), and a one-element
        // pad of any dim but the last of a referenced array.
        ASSERT_EQ((Line / 2) % 8, 0) << Context;
        EXPECT_NE(T.addressKey(shifted(DL, Line / 2), Period), Key)
            << Context << " shifted by half a line";
        for (unsigned Id : Referenced) {
          for (size_t D = 0; D + 1 < DL.layout(Id).Dims.size(); ++D) {
            layout::DataLayout Padded = DL;
            ++Padded.layout(Id).Dims[D];
            EXPECT_NE(T.addressKey(Padded, Period), Key)
                << Context << " " << P.array(Id).Name << " dim " << D
                << " padded";
            ++PadsChecked;
          }
        }
      }
    }
  });
  // The samples must include referenced arrays of rank 2 and above.
  EXPECT_GT(PadsChecked, kSamples);
}
