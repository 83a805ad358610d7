//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "tests/property/RandomProgram.h"

#include "ir/Builder.h"

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

using namespace padx;
using namespace padx::ir;

namespace {

struct Generator {
  std::mt19937_64 Rng;
  ProgramBuilder PB;
  testing::RandomProgramOptions Opts;
  /// Per array: dimension sizes (element units).
  std::vector<std::vector<int64_t>> Shapes;
  std::vector<unsigned> Ids;
  /// Index arrays by the extent their values cover.
  std::map<int64_t, unsigned> IndexArrays;

  Generator(uint64_t Seed, const testing::RandomProgramOptions &Opts)
      : Rng(Seed), PB("random" + std::to_string(Seed)), Opts(Opts) {}

  int64_t pick(int64_t Lo, int64_t Hi) {
    std::uniform_int_distribution<int64_t> D(Lo, Hi);
    return D(Rng);
  }

  std::vector<int64_t> randomShape() {
    unsigned Rank = static_cast<unsigned>(pick(1, 3));
    std::vector<int64_t> Dims;
    // First dimension: sized so whole arrays are 1K..64K bytes —
    // commensurate with the caches the properties test against.
    Dims.push_back(pick(16, 1024));
    for (unsigned D = 1; D < Rank; ++D)
      Dims.push_back(pick(8, 64));
    return Dims;
  }

  void makeArrays() {
    unsigned Count = static_cast<unsigned>(pick(2, 6));
    for (unsigned I = 0; I != Count; ++I) {
      std::vector<int64_t> Dims;
      // Reuse an existing shape 60% of the time: equal-size variables
      // are the paper's conflict-prone case.
      if (!Shapes.empty() && pick(0, 9) < 6)
        Dims = Shapes[static_cast<size_t>(pick(0, Shapes.size() - 1))];
      else
        Dims = randomShape();
      Shapes.push_back(Dims);
      ArrayVariable V;
      V.Name = "V" + std::to_string(I);
      V.ElemSize = pick(0, 4) == 0 ? 4 : 8;
      V.DimSizes = Dims;
      V.LowerBounds.assign(Dims.size(), 1);
      Ids.push_back(PB.addArray(std::move(V)));
    }
  }

  /// Builds a reference to \p Array using the innermost rank() loop
  /// variables (names "i0".."iD"), offset by -1/0/+1 where the loop
  /// bounds leave room.
  ArrayRef makeRef(size_t Array, unsigned Depth, bool Write) {
    const std::vector<int64_t> &Dims = Shapes[Array];
    std::vector<AffineExpr> Subs;
    for (unsigned D = 0; D < Dims.size(); ++D) {
      // Dimension D uses loop variable "iD"; "i0" is the innermost loop,
      // so the contiguous dimension is walked by the innermost loop as
      // in Fortran codes.
      int64_t Off = pick(-1, 1);
      Subs.push_back(
          AffineExpr::index("i" + std::to_string(D), 1, Off));
    }
    (void)Depth;
    ArrayRef R = Write ? PB.write(Ids[Array], std::move(Subs))
                       : PB.read(Ids[Array], std::move(Subs));
    if (Opts.IndirectSubscripts && pick(0, 3) == 0) {
      // The dimension's subscript becomes the offset into an index
      // array of the same extent whose values stay inside it.
      const unsigned D = static_cast<unsigned>(pick(0, Dims.size() - 1));
      R.IndirectDim = static_cast<int>(D);
      R.IndexArrayId = indexArray(Dims[D]);
    }
    return R;
  }

  /// The index array covering extent \p N: N ints, random over [1, N]
  /// (three in four) or identity.
  unsigned indexArray(int64_t N) {
    auto It = IndexArrays.find(N);
    if (It != IndexArrays.end())
      return It->second;
    ArrayVariable V;
    V.Name = "IDX" + std::to_string(IndexArrays.size());
    V.ElemSize = 4;
    V.DimSizes = {N};
    V.LowerBounds = {1};
    if (pick(0, 3) == 0) {
      V.Init = ArrayInitKind::Identity;
    } else {
      V.Init = ArrayInitKind::Random;
      V.RandomMin = 1;
      V.RandomMax = N;
      V.RandomSeed = static_cast<uint64_t>(pick(1, 1 << 20));
    }
    const unsigned Id = PB.addArray(std::move(V));
    IndexArrays.emplace(N, Id);
    return Id;
  }

  Program build() {
    makeArrays();
    unsigned MaxRank = 0;
    for (const auto &S : Shapes)
      MaxRank = std::max<unsigned>(MaxRank, S.size());
    unsigned Nests = static_cast<unsigned>(pick(1, 3));
    for (unsigned N = 0; N != Nests; ++N) {
      unsigned Depth = static_cast<unsigned>(pick(MaxRank, 3));
      // Loop d (0 = outermost name suffix Depth-1... naming: variable
      // "iK" is the loop at depth K counted from the innermost being 0).
      // Bounds: 2 .. min extent over dimensions this variable indexes,
      // minus 1 (room for +/-1 offsets).
      std::vector<int64_t> MaxTrip(Depth, 64);
      for (size_t A = 0; A != Shapes.size(); ++A)
        for (unsigned D = 0; D < Shapes[A].size(); ++D)
          MaxTrip[D] = std::min(MaxTrip[D], Shapes[A][D] - 1);
      // Outermost first: loops named from the outside in so the ref
      // builder can address "i0" as innermost.
      for (unsigned L = Depth; L-- > 0;) {
        // Keep traces small: cap trip counts.
        int64_t Hi = std::min<int64_t>(MaxTrip[L], L == 0 ? 512 : 24);
        PB.beginLoop("i" + std::to_string(L), 2, std::max<int64_t>(2, Hi));
      }
      unsigned Stmts = static_cast<unsigned>(pick(1, 3));
      for (unsigned S = 0; S != Stmts; ++S) {
        std::vector<ArrayRef> Refs;
        unsigned Reads = static_cast<unsigned>(pick(1, 3));
        auto eligible = [&](size_t A) {
          return Shapes[A].size() <= Depth;
        };
        std::vector<size_t> Pool;
        for (size_t A = 0; A != Shapes.size(); ++A)
          if (eligible(A))
            Pool.push_back(A);
        if (Pool.empty())
          continue;
        for (unsigned R = 0; R != Reads; ++R)
          Refs.push_back(makeRef(
              Pool[static_cast<size_t>(pick(0, Pool.size() - 1))],
              Depth, false));
        Refs.push_back(makeRef(
            Pool[static_cast<size_t>(pick(0, Pool.size() - 1))], Depth,
            true));
        PB.assign(std::move(Refs));
      }
      for (unsigned L = 0; L != Depth; ++L)
        PB.endLoop();
    }
    return PB.take();
  }
};

} // namespace

ir::Program
padx::testing::generateRandomProgram(uint64_t Seed,
                                     const RandomProgramOptions &Opts) {
  return Generator(Seed, Opts).build();
}
