//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "analysis/LatticePredictor.h"

#include "analysis/ConflictDistance.h"
#include "analysis/PadConditions.h"
#include "analysis/Reuse.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <utility>

using namespace padx;
using namespace padx::analysis;

namespace {

/// Union-find over one group's reference indices.
class RefClusters {
public:
  explicit RefClusters(size_t N) : Parent(N) {
    for (size_t I = 0; I != N; ++I)
      Parent[I] = I;
  }
  size_t find(size_t I) {
    while (Parent[I] != I) {
      Parent[I] = Parent[Parent[I]];
      I = Parent[I];
    }
    return I;
  }
  void merge(size_t A, size_t B) { Parent[find(A)] = find(B); }

private:
  std::vector<size_t> Parent;
};

/// One colliding edge, lifted to the endpoints' reuse-class leaders.
struct ClassEdge {
  size_t LeaderA; ///< LeaderA < LeaderB (class leader ref indices).
  size_t LeaderB;
  int64_t DistanceBytes;
  int64_t LatticeDistanceBytes;
};

/// Baseline misses/iteration of a reuse-class leader, conflicts aside.
double baseMissPerIteration(const RefReuse &RR, int64_t Ls) {
  switch (RR.Self) {
  case SelfReuse::Temporal:
    return 0.0;
  case SelfReuse::Spatial:
    return static_cast<double>(std::llabs(RR.StrideBytes)) /
           static_cast<double>(Ls);
  case SelfReuse::None:
    return 1.0;
  }
  return 1.0;
}

} // namespace

LatticePrediction
analysis::predictConflicts(const layout::DataLayout &DL,
                           const CacheConfig &Cache) {
  std::vector<LoopGroup> Groups = collectLoopGroups(DL.program());
  return predictConflicts(DL, Cache, Groups,
                          countGroupIterations(Groups));
}

LatticePrediction
analysis::predictConflicts(const layout::DataLayout &DL,
                           const CacheConfig &Cache,
                           const std::vector<LoopGroup> &Groups,
                           const std::vector<double> &Iterations) {
  const ir::Program &P = DL.program();
  int64_t Ls = Cache.LineBytes;
  int64_t Cs = Cache.waySpanBytes();
  // Lines a set can retain; a cluster with more reuse classes thrashes.
  unsigned SetCapacity =
      Cache.Associativity > 1
          ? static_cast<unsigned>(Cache.Associativity)
          : 1;
  LatticePrediction Total;

  for (size_t GI = 0, GE = Groups.size(); GI != GE; ++GI) {
    const LoopGroup &G = Groups[GI];
    double GroupIterations = Iterations[GI];
    if (GroupIterations == 0) {
      // A zero iteration count leaves nothing to score. Emit an
      // explicit unscored row instead of silently dropping the nest, so
      // a zero total is distinguishable from "no conflicts".
      NestPrediction NP;
      NP.LoopVar = G.Innermost->IndexVar;
      NP.Unscored = true;
      for (const RefInstance &GR : G.Refs)
        if (!P.array(GR.Ref->ArrayId).isScalar())
          ++NP.RefsPerIteration;
      ++Total.UnscoredNests;
      Total.Nests.push_back(std::move(NP));
      continue;
    }

    GroupReuse Reuse = analyzeReuse(DL, G, Ls);
    size_t N = G.Refs.size();

    // A reference participates in the lattice test only if it generates
    // traffic (non-scalar) and linearizes (analyzable).
    std::vector<bool> Eligible(N, false);
    for (size_t I = 0; I != N; ++I)
      Eligible[I] = !P.array(G.Refs[I].Ref->ArrayId).isScalar() &&
                    !Reuse.Refs[I].Unanalyzable;

    // Every ref of a reuse class touches the same line, so classes are
    // pre-merged before collision edges union clusters together.
    RefClusters Clusters(N);
    for (size_t I = 0; I != N; ++I)
      if (Eligible[I])
        Clusters.merge(I, Reuse.Refs[I].Leader);

    // Collision scan: the pair's constant address difference is the one
    // nonzero point of its address-difference lattice; it collides when
    // its shortest vector into the set-mapping lattice Cs*Z is under a
    // line while the raw difference spans at least one. Same-class
    // pairs never pass (group reuse keeps them within a line).
    std::vector<ClassEdge> Edges;
    if (Cache.Associativity != 0) {
      for (size_t I = 0; I != N; ++I) {
        if (!Eligible[I])
          continue;
        for (size_t J = I + 1; J != N; ++J) {
          if (!Eligible[J] ||
              Reuse.Refs[I].Leader == Reuse.Refs[J].Leader)
            continue;
          std::optional<int64_t> Dist = iterationDistanceBytes(
              DL, *G.Refs[I].Ref, *G.Refs[J].Ref);
          if (!Dist || !isSevereDistance(*Dist, Cs, Ls))
            continue;
          Clusters.merge(I, J);
          size_t LA = Reuse.Refs[I].Leader;
          size_t LB = Reuse.Refs[J].Leader;
          Edges.push_back({std::min(LA, LB), std::max(LA, LB), *Dist,
                           conflictDistance(*Dist, Cs)});
        }
      }
    }

    // Fold duplicate class pairs (several ref pairs of the same two
    // classes collide together) and tally cluster occupancy.
    std::sort(Edges.begin(), Edges.end(),
              [](const ClassEdge &A, const ClassEdge &B) {
                return std::tie(A.LeaderA, A.LeaderB) <
                       std::tie(B.LeaderA, B.LeaderB);
              });
    Edges.erase(std::unique(Edges.begin(), Edges.end(),
                            [](const ClassEdge &A, const ClassEdge &B) {
                              return A.LeaderA == B.LeaderA &&
                                     A.LeaderB == B.LeaderB;
                            }),
                Edges.end());

    // Distinct reuse classes per cluster, and whether it has an edge.
    std::map<size_t, unsigned> ClusterClasses;
    for (size_t I = 0; I != N; ++I)
      if (Eligible[I] && Reuse.Refs[I].Leader == I)
        ++ClusterClasses[Clusters.find(I)];
    std::vector<bool> InEdge(N, false);
    for (const ClassEdge &E : Edges)
      InEdge[E.LeaderA] = InEdge[E.LeaderB] = true;

    // Conflict charge per class leader: a leader in an overflowing
    // cluster loses its reuse entirely — the partners flush its line
    // before the next touch — so it pays the rest of a full miss.
    std::vector<double> Base(N, 0), Delta(N, 0);
    std::vector<unsigned> Degree(N, 0);
    bool Thrashing = false;
    for (size_t I = 0; I != N; ++I) {
      if (!Eligible[I] || Reuse.Refs[I].Leader != I)
        continue;
      Base[I] = baseMissPerIteration(Reuse.Refs[I], Ls);
      if (InEdge[I] &&
          ClusterClasses[Clusters.find(I)] > SetCapacity) {
        Delta[I] = std::max(0.0, 1.0 - Base[I]);
        Thrashing = true;
      }
    }
    for (const ClassEdge &E : Edges) {
      ++Degree[E.LeaderA];
      ++Degree[E.LeaderB];
    }

    NestPrediction NP;
    NP.LoopVar = G.Innermost->IndexVar;
    NP.Iterations = GroupIterations;
    NP.Thrashing = Thrashing;
    for (size_t I = 0; I != N; ++I) {
      const RefReuse &RR = Reuse.Refs[I];
      const ir::ArrayRef &R = *G.Refs[I].Ref;
      if (P.array(R.ArrayId).isScalar())
        continue; // register-promoted, as in the trace generator
      if (RR.Unanalyzable) {
        // Indirect reference: one sequential index-array read plus an
        // effectively random target access, which misses with
        // probability ~ (target footprint / cache) once the target is
        // warm. It never joins a cluster: its difference lattice is not
        // constant.
        double Footprint =
            static_cast<double>(DL.sizeBytes(R.ArrayId));
        double TargetMiss = std::min(
            1.0, Footprint / static_cast<double>(Cache.SizeBytes));
        NP.RefsPerIteration += 2;
        NP.BaseMissesPerIteration +=
            TargetMiss + 4.0 / static_cast<double>(Ls);
        continue;
      }
      ++NP.RefsPerIteration;
      if (RR.Leader != I)
        continue; // follower: its leader pays
      NP.BaseMissesPerIteration += Base[I];
      NP.ConflictMissesPerIteration += Delta[I];
    }

    // Attribute the nest's conflict volume back to array pairs: each
    // class edge takes its endpoints' charges split across their
    // collision degrees, so the rows sum exactly to the nest total.
    std::map<std::pair<unsigned, unsigned>, PairConflict> PairRows;
    for (const ClassEdge &E : Edges) {
      double Share =
          Delta[E.LeaderA] / static_cast<double>(Degree[E.LeaderA]) +
          Delta[E.LeaderB] / static_cast<double>(Degree[E.LeaderB]);
      if (Share == 0)
        continue; // cluster fits in its set: contention, no thrash
      unsigned A = G.Refs[E.LeaderA].Ref->ArrayId;
      unsigned B = G.Refs[E.LeaderB].Ref->ArrayId;
      if (A > B)
        std::swap(A, B);
      PairConflict &Row = PairRows[{A, B}];
      if (Row.Collisions == 0) {
        Row.ArrayA = A;
        Row.ArrayB = B;
        Row.NameA = P.array(A).Name;
        Row.NameB = P.array(B).Name;
        Row.LoopVar = NP.LoopVar;
        // Direction is meaningless once the pair is canonically
        // ordered; report magnitudes.
        Row.DistanceBytes = std::llabs(E.DistanceBytes);
        Row.LatticeDistanceBytes = std::llabs(E.LatticeDistanceBytes);
      }
      ++Row.Collisions;
      Row.PredictedConflictMisses += GroupIterations * Share;
    }
    for (auto &[Key, Row] : PairRows)
      Total.Pairs.push_back(std::move(Row));

    Total.PredictedAccesses += GroupIterations * NP.RefsPerIteration;
    Total.PredictedMisses +=
        GroupIterations *
        (NP.BaseMissesPerIteration + NP.ConflictMissesPerIteration);
    Total.PredictedConflictMisses +=
        GroupIterations * NP.ConflictMissesPerIteration;
    Total.Nests.push_back(std::move(NP));
  }
  return Total;
}

MachinePrediction
analysis::predictConflicts(const layout::DataLayout &DL,
                           const MachineModel &Machine) {
  std::vector<LoopGroup> Groups = collectLoopGroups(DL.program());
  return predictConflicts(DL, Machine, Groups,
                          countGroupIterations(Groups));
}

MachinePrediction
analysis::predictConflicts(const layout::DataLayout &DL,
                           const MachineModel &Machine,
                           const std::vector<LoopGroup> &Groups,
                           const std::vector<double> &Iterations) {
  MachinePrediction MP;
  MP.Levels.reserve(Machine.numLevels());
  for (unsigned I = 0; I < Machine.numLevels(); ++I) {
    const CacheLevel &L = Machine.Levels[I];
    MachineLevelPrediction LP;
    LP.Level = Machine.levelName(I);
    LP.IsTlb = L.IsTlb;
    LP.Weight = L.Weight;
    LP.Prediction =
        predictConflicts(DL, L.Geometry, Groups, Iterations);
    MP.WeightedMisses += L.Weight * LP.Prediction.PredictedMisses;
    MP.WeightedConflictMisses +=
        L.Weight * LP.Prediction.PredictedConflictMisses;
    MP.UnscoredNests = LP.Prediction.UnscoredNests;
    MP.Levels.push_back(std::move(LP));
  }
  return MP;
}
