//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "analysis/ConflictDistance.h"

#include "support/MathExtras.h"

#include <algorithm>
#include <cassert>

using namespace padx;
using namespace padx::analysis;

namespace {

constexpr size_t kNoSlot = static_cast<size_t>(-1);

/// The one definition of a reference's byte address:
///   Base + ElemSize * sum_d (subscript_d - lowerbound_d) * stride_d,
/// with stride_d the product of the padded sizes of the dimensions below
/// d, as a form over \p NumVars variables. \p SlotOf maps a subscript
/// variable to its index, or kNoSlot when it has none.
template <typename SlotFn>
LinearForm linearize(const layout::DataLayout &DL, const ir::ArrayRef &R,
                     int64_t Base, size_t NumVars, SlotFn SlotOf) {
  LinearForm F;
  if (!R.isAffine())
    return F;
  const ir::ArrayVariable &V = DL.program().array(R.ArrayId);
  F.Affine = true;
  F.ConstBytes = Base;
  F.CoeffBytes.assign(NumVars, 0);
  int64_t StrideBytes = V.ElemSize;
  for (unsigned D = 0, E = static_cast<unsigned>(R.Subscripts.size());
       D != E; ++D) {
    const ir::AffineExpr &S = R.Subscripts[D];
    F.ConstBytes += (S.constantPart() - V.LowerBounds[D]) * StrideBytes;
    for (const ir::AffineTerm &T : S.terms()) {
      size_t K = SlotOf(T.Var);
      if (K == kNoSlot)
        return LinearForm();
      F.CoeffBytes[K] += T.Coeff * StrideBytes;
    }
    StrideBytes *= DL.dimSize(R.ArrayId, D);
  }
  return F;
}

} // namespace

std::vector<LinearForm>
analysis::linearizeGroup(const layout::DataLayout &DL, const LoopGroup &G) {
  const size_t Depth = G.Nest.size();
  // Innermost first, so a name bound twice resolves as scoping would.
  auto SlotOf = [&](const std::string &Var) {
    for (size_t K = Depth; K-- != 0;)
      if (G.Nest[K]->IndexVar == Var)
        return K;
    return kNoSlot;
  };
  std::vector<LinearForm> Forms;
  Forms.reserve(G.Refs.size());
  for (const RefInstance &RI : G.Refs)
    Forms.push_back(linearize(DL, *RI.Ref,
                              DL.layout(RI.Ref->ArrayId).BaseAddr, Depth,
                              SlotOf));
  return Forms;
}

std::optional<int64_t> analysis::constantDistance(const LinearForm &A,
                                                  const LinearForm &B) {
  if (!A.Affine || !B.Affine || A.CoeffBytes != B.CoeffBytes)
    return std::nullopt;
  return A.ConstBytes - B.ConstBytes;
}

std::optional<int64_t>
analysis::iterationDistanceBytes(const layout::DataLayout &DL,
                                 const ir::ArrayRef &R1,
                                 const ir::ArrayRef &R2, int64_t Base1,
                                 int64_t Base2) {
  if (!R1.isAffine() || !R2.isAffine())
    return std::nullopt;
  // Both forms range over every variable either reference names.
  std::vector<const std::string *> Vars;
  for (const ir::ArrayRef *R : {&R1, &R2})
    for (const ir::AffineExpr &S : R->Subscripts)
      for (const ir::AffineTerm &T : S.terms())
        if (std::none_of(Vars.begin(), Vars.end(),
                         [&](const std::string *V) { return *V == T.Var; }))
          Vars.push_back(&T.Var);
  auto SlotOf = [&](const std::string &Var) {
    for (size_t K = 0; K != Vars.size(); ++K)
      if (*Vars[K] == Var)
        return K;
    return kNoSlot;
  };
  return constantDistance(linearize(DL, R1, Base1, Vars.size(), SlotOf),
                          linearize(DL, R2, Base2, Vars.size(), SlotOf));
}

std::optional<int64_t>
analysis::iterationDistanceBytes(const layout::DataLayout &DL,
                                 const ir::ArrayRef &R1,
                                 const ir::ArrayRef &R2) {
  int64_t Base1 = DL.layout(R1.ArrayId).BaseAddr;
  int64_t Base2 = DL.layout(R2.ArrayId).BaseAddr;
  assert(Base1 != layout::ArrayLayout::kUnassigned &&
         Base2 != layout::ArrayLayout::kUnassigned &&
         "iterationDistanceBytes requires assigned bases");
  return iterationDistanceBytes(DL, R1, R2, Base1, Base2);
}

int64_t analysis::conflictDistance(int64_t DistanceBytes,
                                   int64_t CacheBytes) {
  return distanceToMultiple(DistanceBytes, CacheBytes);
}
