//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The rule catalog (DESIGN.md section 10). Each rule encodes one pad
/// condition of the paper as an independent diagnostic:
///
///   base-proximity             InterPadLite  (Figure 5, Lite condition)
///   pathological-leading-dim   LinPad1       (2*L_s divides Col_s)
///   conflict-pair              InterPad / IntraPad (Expr. (1), (2))
///   self-interference          LinPad2       (FirstConflict < j*)
///   predicted-conflict-volume  associativity-lattice miss prediction
///   unsafe-to-fix              Section 4.1 safety (meta-rule)
///
/// Fix-its are found by re-checking the rule's own condition on trial
/// layouts — the smallest pad that clears the condition is the one
/// recommended — so "applying the fix-it removes the finding on re-lint"
/// holds by construction, and the simulator cross-validation tests only
/// have to confirm the misses are real.
///
//===----------------------------------------------------------------------===//

#include "lint/Rule.h"

#include "analysis/ConflictDistance.h"
#include "analysis/PadConditions.h"
#include "ir/Printer.h"
#include "support/MathExtras.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <set>
#include <sstream>

using namespace padx;
using namespace padx::lint;

const char *lint::severityName(Severity S) {
  switch (S) {
  case Severity::Info:
    return "info";
  case Severity::Warning:
    return "warning";
  case Severity::Error:
    return "error";
  }
  return "unknown";
}

std::string FixIt::describe(const ir::Program &P,
                            int64_t CurrentDimElems) const {
  std::ostringstream OS;
  switch (K) {
  case Kind::None:
    return "no safe fix";
  case Kind::IntraPad:
    if (Dim == 0)
      OS << "grow the leading dimension";
    else
      OS << "grow dimension " << Dim;
    OS << " of '" << P.array(ArrayId).Name << "' from " << CurrentDimElems
       << " to " << (CurrentDimElems + PadElems) << " elements (+"
       << PadElems << ")";
    break;
  case Kind::InterGap:
    OS << "insert a " << GapBytes << "-byte gap before '"
       << P.array(ArrayId).Name << "'";
    break;
  }
  return OS.str();
}

namespace {

std::string renderRef(const ir::Program &P, const ir::ArrayRef &R) {
  std::ostringstream OS;
  ir::printRef(OS, P, R);
  return OS.str();
}

/// Severity of a conflict living in loop(s) named \p LoopVar: Error when
/// the predicted misses of the thrashing nests over those loops reach a
/// quarter of all predicted accesses (the conflict dominates the
/// program), Warning otherwise. A pair that shares a set without
/// overflowing it thrashes nothing, so on a set-associative level it
/// stays a Warning.
Severity severityForLoop(const LintContext &Ctx,
                         const std::string &LoopVar) {
  double Attributed = 0;
  for (const analysis::NestPrediction &N : Ctx.Prediction.Nests)
    if (N.LoopVar == LoopVar && N.Thrashing)
      Attributed += N.Iterations * (N.BaseMissesPerIteration +
                                    N.ConflictMissesPerIteration);
  double Total = Ctx.Prediction.PredictedAccesses;
  return (Total > 0 && Attributed / Total >= 0.25) ? Severity::Error
                                                   : Severity::Warning;
}

/// First reference to \p Id in program order, for anchoring shape rules
/// when the declaration carries no location (programmatic IR).
SourceLocation firstRefLoc(const ir::Program &P, unsigned Id) {
  SourceLocation Loc;
  P.forEachAssign([&](const ir::Assign &A,
                      const std::vector<const ir::Loop *> &) {
    if (Loc.isValid())
      return;
    for (const ir::ArrayRef &R : A.Refs)
      if (R.ArrayId == Id && R.Loc.isValid()) {
        Loc = R.Loc;
        return;
      }
  });
  return Loc;
}

/// Declaration anchor with reference fallback.
SourceLocation declLoc(const ir::Program &P, unsigned Id) {
  const SourceLocation &L = P.array(Id).Loc;
  return L.isValid() ? L : firstRefLoc(P, Id);
}

/// Smallest pad in [1, Bound] of dimension \p Dim of \p Id for which
/// \p StillFires(trial layout) is false; 0 when none clears the
/// condition. Trial layouts keep stale base addresses — callers' checks
/// must not read them (intra conditions are shape-only).
template <typename Pred>
int64_t minIntraPadClearing(const layout::DataLayout &DL, unsigned Id,
                            unsigned Dim, int64_t Bound,
                            const Pred &StillFires) {
  for (int64_t K = 1; K <= Bound; ++K) {
    layout::DataLayout Trial = DL;
    Trial.layout(Id).Dims[Dim] += K;
    if (!StillFires(Trial))
      return K;
  }
  return 0;
}

/// Per-dimension pad bound, matching PaddingScheme::MaxIntraPadPerDim's
/// default: generous enough for every condition (LinPad2 terminates
/// within 2*L_s elements per the paper).
constexpr int64_t kMaxIntraPad = 64;

//===----------------------------------------------------------------------===//
// R1: base-proximity (InterPadLite)
//===----------------------------------------------------------------------===//

class BaseProximityRule : public Rule {
public:
  std::string_view id() const override { return "base-proximity"; }
  std::string_view summary() const override {
    return "equal-size arrays whose base addresses nearly coincide "
           "modulo the cache size walk the same sets in lockstep";
  }
  std::string_view paperCondition() const override {
    return "InterPadLite (Fig. 5): |base_A - base_B| mod C_s within M "
           "lines of 0 for equal-size arrays";
  }

  void check(const LintContext &Ctx,
             std::vector<Finding> &Findings) const override {
    const ir::Program &P = Ctx.program();
    const CacheConfig &C = Ctx.Cache;
    int64_t Cs = C.waySpanBytes();
    const int64_t MinSepLines = 4; // Paper Section 4.3.
    for (unsigned A = 0, E = Ctx.DL.numArrays(); A != E; ++A) {
      if (P.array(A).isScalar())
        continue;
      for (unsigned B = A + 1; B != E; ++B) {
        if (P.array(B).isScalar())
          continue;
        // The later-placed array is the one a gap can move without
        // shifting the other.
        unsigned Early = A, Late = B;
        if (Ctx.DL.layout(Early).BaseAddr > Ctx.DL.layout(Late).BaseAddr)
          std::swap(Early, Late);
        int64_t Need = analysis::interPadLiteNeededPad(
            Ctx.DL.layout(Late).BaseAddr, Ctx.DL.sizeBytes(Late),
            Ctx.DL.layout(Early).BaseAddr, Ctx.DL.sizeBytes(Early), C,
            MinSepLines);
        if (Need == 0)
          continue;

        const analysis::LoopGroup *Shared = sharedGroup(Ctx, A, B);
        Finding F;
        F.RuleId = std::string(id());
        F.Sev = Shared ? Severity::Warning : Severity::Info;
        F.ArrayId = Late;
        F.Loc = declLoc(P, Late);
        F.RelatedLoc = declLoc(P, Early);
        F.Key = "'" + P.array(Early).Name + "' ~ '" +
                P.array(Late).Name + "'";
        int64_t Rem = floorMod(Ctx.DL.layout(Late).BaseAddr -
                                   Ctx.DL.layout(Early).BaseAddr,
                               Cs);
        std::ostringstream OS;
        OS << "equal-size arrays '" << P.array(Early).Name << "' and '"
           << P.array(Late).Name << "' (" << Ctx.DL.sizeBytes(Late)
           << " bytes) have base addresses only "
           << distanceToMultiple(Rem, Cs)
           << " bytes apart modulo the cache size " << Cs
           << (Shared ? "; they are accessed in the same loop and evict "
                        "each other's lines in lockstep"
                      : "; if walked in lockstep they would evict each "
                        "other's lines");
        F.Message = OS.str();

        int64_t Align = P.array(Late).ElemSize;
        F.Fix.K = FixIt::Kind::InterGap;
        F.Fix.ArrayId = Late;
        F.Fix.GapBytes = ceilDiv(Need, Align) * Align;
        if (!Ctx.Safety.CanMoveBase[Late]) {
          F.Fix = FixIt();
          F.FixBlockedBySafety = true;
        }
        Findings.push_back(std::move(F));
      }
    }
  }

private:
  /// First loop group referencing both arrays, if any.
  static const analysis::LoopGroup *
  sharedGroup(const LintContext &Ctx, unsigned A, unsigned B) {
    for (const analysis::LoopGroup &G : Ctx.Groups) {
      bool HasA = false, HasB = false;
      for (const analysis::RefInstance &RI : G.Refs) {
        HasA |= RI.Ref->ArrayId == A;
        HasB |= RI.Ref->ArrayId == B;
      }
      if (HasA && HasB)
        return &G;
    }
    return nullptr;
  }
};

//===----------------------------------------------------------------------===//
// R2: pathological-leading-dim (LinPad1)
//===----------------------------------------------------------------------===//

class PathologicalLeadingDimRule : public Rule {
public:
  std::string_view id() const override {
    return "pathological-leading-dim";
  }
  std::string_view summary() const override {
    return "a column size that is a multiple of twice the line size "
           "makes whole columns recur on identical cache sets";
  }
  std::string_view paperCondition() const override {
    return "LinPad1: 2*L_s divides Col_s";
  }

  void check(const LintContext &Ctx,
             std::vector<Finding> &Findings) const override {
    const ir::Program &P = Ctx.program();
    for (unsigned Id = 0, E = Ctx.DL.numArrays(); Id != E; ++Id) {
      if (P.array(Id).rank() < 2)
        continue;
      if (!analysis::linPad1Condition(Ctx.DL, Id, Ctx.Cache))
        continue;
      Finding F;
      F.RuleId = std::string(id());
      // Only arrays with detected linear-algebra access patterns walk
      // columns a varying distance apart; for anything else the shared
      // sets are harmless unless another rule fires, so this stays a
      // heads-up.
      F.Sev = Ctx.LinAlgArrays[Id] ? Severity::Warning : Severity::Info;
      F.ArrayId = Id;
      F.Loc = declLoc(P, Id);
      F.Key = "'" + P.array(Id).Name + "'";
      std::ostringstream OS;
      OS << "leading dimension of '" << P.array(Id).Name << "' spans "
         << Ctx.DL.columnElems(Id) * P.array(Id).ElemSize
         << " bytes, a multiple of twice the " << Ctx.Cache.LineBytes
         << "B line: every column starts on the same set parity"
         << (Ctx.LinAlgArrays[Id]
                 ? " and the array is accessed across varying column "
                   "distances"
                 : "");
      F.Message = OS.str();

      int64_t K = minIntraPadClearing(
          Ctx.DL, Id, 0, kMaxIntraPad,
          [&](const layout::DataLayout &Trial) {
            return analysis::linPad1Condition(Trial, Id, Ctx.Cache);
          });
      if (K != 0 && Ctx.Safety.CanPadIntra[Id]) {
        F.Fix.K = FixIt::Kind::IntraPad;
        F.Fix.ArrayId = Id;
        F.Fix.Dim = 0;
        F.Fix.PadElems = K;
      } else if (K != 0) {
        F.FixBlockedBySafety = true;
      }
      Findings.push_back(std::move(F));
    }
  }
};

//===----------------------------------------------------------------------===//
// R3: conflict-pair (InterPad / IntraPad)
//===----------------------------------------------------------------------===//

class ConflictPairRule : public Rule {
public:
  std::string_view id() const override { return "conflict-pair"; }
  std::string_view summary() const override {
    return "two uniformly generated references contend for the same "
           "cache line on every iteration of their loop";
  }
  std::string_view paperCondition() const override {
    return "InterPad / IntraPad (Expr. (1), (2)): linearized distance "
           "folded mod C_s below L_s";
  }

  void check(const LintContext &Ctx,
             std::vector<Finding> &Findings) const override {
    int64_t Cs = Ctx.Cache.waySpanBytes();
    int64_t Ls = Ctx.Cache.LineBytes;
    for (const analysis::LoopGroup &G : Ctx.Groups) {
      for (size_t I = 0, E = G.Refs.size(); I != E; ++I) {
        const ir::ArrayRef &R1 = *G.Refs[I].Ref;
        for (size_t J = I + 1; J != E; ++J) {
          const ir::ArrayRef &R2 = *G.Refs[J].Ref;
          // The exact predicate core's InterPad placement pads on.
          std::optional<int64_t> Dist =
              analysis::severePairDistance(Ctx.DL, R1, R2, Ctx.Cache);
          if (!Dist)
            continue;
          Findings.push_back(
              makeFinding(Ctx, G, R1, R2, *Dist, Cs, Ls));
        }
      }
    }
  }

private:
  Finding makeFinding(const LintContext &Ctx,
                      const analysis::LoopGroup &G,
                      const ir::ArrayRef &R1, const ir::ArrayRef &R2,
                      int64_t Dist, int64_t Cs, int64_t Ls) const {
    const ir::Program &P = Ctx.program();
    bool SameArray = R1.ArrayId == R2.ArrayId;
    Finding F;
    F.RuleId = std::string(id());
    F.Sev = severityForLoop(Ctx, G.Innermost->IndexVar);
    F.Loc = R1.Loc;
    F.RelatedLoc = R2.Loc;
    F.Key = "loop " + G.Innermost->IndexVar + ": " + renderRef(P, R1) +
            " ~ " + renderRef(P, R2);
    std::ostringstream OS;
    OS << "'" << renderRef(P, R1) << "' and '" << renderRef(P, R2)
       << "' are " << Dist << " bytes apart on every iteration of loop "
       << G.Innermost->IndexVar << " (conflict distance "
       << analysis::conflictDistance(Dist, Cs) << "B < " << Ls
       << "B line): each access evicts the other's cache line"
       << (SameArray ? " within '" + P.array(R1.ArrayId).Name + "'" : "");
    F.Message = OS.str();

    if (SameArray) {
      unsigned Id = R1.ArrayId;
      F.ArrayId = Id;
      // Expression (2): bases cancel, so trial layouts with stale bases
      // are sound here.
      int64_t K = minIntraPadClearing(
          Ctx.DL, Id, 0, kMaxIntraPad,
          [&](const layout::DataLayout &Trial) {
            std::optional<int64_t> D =
                analysis::iterationDistanceBytes(Trial, R1, R2, 0, 0);
            return D && analysis::isSevereDistance(*D, Cs, Ls);
          });
      if (K != 0 && Ctx.Safety.CanPadIntra[Id]) {
        F.Fix.K = FixIt::Kind::IntraPad;
        F.Fix.ArrayId = Id;
        F.Fix.Dim = 0;
        F.Fix.PadElems = K;
      } else if (K != 0) {
        F.FixBlockedBySafety = true;
      }
      return F;
    }

    // Different arrays: move the later-placed one; a gap before the
    // earlier one would shift both and leave their distance unchanged.
    unsigned Late = R1.ArrayId, Other = R2.ArrayId;
    if (Ctx.DL.layout(Late).BaseAddr < Ctx.DL.layout(Other).BaseAddr)
      std::swap(Late, Other);
    F.ArrayId = Late;
    int64_t Align = P.array(Late).ElemSize;
    int64_t Sign = R1.ArrayId == Late ? 1 : -1;
    for (int64_t Gap = Align; Gap <= Cs; Gap += Align) {
      int64_t Moved = Dist + Sign * Gap;
      if (!analysis::isSevereDistance(Moved, Cs, Ls)) {
        if (Ctx.Safety.CanMoveBase[Late]) {
          F.Fix.K = FixIt::Kind::InterGap;
          F.Fix.ArrayId = Late;
          F.Fix.GapBytes = Gap;
        } else {
          F.FixBlockedBySafety = true;
        }
        break;
      }
    }
    return F;
  }
};

//===----------------------------------------------------------------------===//
// R4: self-interference (LinPad2)
//===----------------------------------------------------------------------===//

class SelfInterferenceRule : public Rule {
public:
  std::string_view id() const override { return "self-interference"; }
  std::string_view summary() const override {
    return "columns of a linear-algebra array conflict at a separation "
           "smaller than the reuse window";
  }
  std::string_view paperCondition() const override {
    return "LinPad2 (Fig. 4): FirstConflict(C_s, Col_s, L_s) < j*";
  }

  void check(const LintContext &Ctx,
             std::vector<Finding> &Findings) const override {
    const ir::Program &P = Ctx.program();
    const int64_t JStarCap = 129; // Paper's base j*.
    for (unsigned Id = 0, E = Ctx.DL.numArrays(); Id != E; ++Id) {
      const ir::ArrayVariable &V = P.array(Id);
      if (V.rank() < 2 || !Ctx.LinAlgArrays[Id])
        continue;
      // One evaluation supplies both the verdict and the quantities the
      // message reports — the rule can no longer drift from core's
      // LinPad2 decision.
      analysis::LinPad2Eval Ev =
          analysis::evalLinPad2(Ctx.DL, Id, Ctx.Cache, JStarCap);
      if (!Ev.Fires)
        continue;

      Finding F;
      F.RuleId = std::string(id());
      F.Sev = Severity::Warning;
      F.ArrayId = Id;
      F.Loc = declLoc(P, Id);
      F.RelatedLoc = divergingRefLoc(Ctx, Id);
      F.Key = "'" + V.Name + "'";
      std::ostringstream OS;
      OS << "'" << V.Name << "' is accessed across varying column "
         << "distances and columns only " << Ev.FirstConflict
         << " apart already collide (FirstConflict " << Ev.FirstConflict
         << " < j* " << Ev.JStar << " at column size " << Ev.ColElems
         << " elements)";
      F.Message = OS.str();

      int64_t K = minIntraPadClearing(
          Ctx.DL, Id, 0, kMaxIntraPad,
          [&](const layout::DataLayout &Trial) {
            return analysis::linPad2Condition(Trial, Id, Ctx.Cache,
                                              JStarCap);
          });
      if (K != 0 && Ctx.Safety.CanPadIntra[Id]) {
        F.Fix.K = FixIt::Kind::IntraPad;
        F.Fix.ArrayId = Id;
        F.Fix.Dim = 0;
        F.Fix.PadElems = K;
      } else if (K != 0) {
        F.FixBlockedBySafety = true;
      }
      Findings.push_back(std::move(F));
    }
  }

private:
  /// Location of a reference whose column subscript diverges from a
  /// sibling's — the access that makes the array linear-algebra.
  static SourceLocation divergingRefLoc(const LintContext &Ctx,
                                        unsigned Id) {
    for (const analysis::LoopGroup &G : Ctx.Groups)
      for (const analysis::RefInstance &RI : G.Refs) {
        const ir::ArrayRef &R = *RI.Ref;
        if (R.ArrayId == Id && R.isAffine() && R.Subscripts.size() >= 2 &&
            R.Loc.isValid())
          return R.Loc;
      }
    return {};
  }
};

//===----------------------------------------------------------------------===//
// R5: predicted-conflict-volume (associativity-lattice prediction)
//===----------------------------------------------------------------------===//

class PredictedConflictVolumeRule : public Rule {
public:
  std::string_view id() const override {
    return "predicted-conflict-volume";
  }
  std::string_view summary() const override {
    return "the analytic lattice predictor attributes a concrete "
           "conflict-miss volume to this array pair";
  }
  std::string_view paperCondition() const override {
    return "associativity-lattice model: constant pair distance within "
           "one line of the set-mapping lattice C_s*Z, cluster "
           "overflowing the set";
  }

  /// Unlike the distance rules above, severity here is quantitative:
  /// the share of all predicted accesses this pair's conflict volume
  /// consumes decides Error (>= 25%), Warning (> 2%) or Info.
  void check(const LintContext &Ctx,
             std::vector<Finding> &Findings) const override {
    const ir::Program &P = Ctx.program();
    double Total = Ctx.Prediction.PredictedAccesses;
    for (const analysis::PairConflict &Pair : Ctx.Prediction.Pairs) {
      if (Pair.PredictedConflictMisses <= 0 || Total <= 0)
        continue;
      double Share = Pair.PredictedConflictMisses / Total;
      Finding F;
      F.RuleId = std::string(id());
      F.Sev = Share >= 0.25  ? Severity::Error
              : Share > 0.02 ? Severity::Warning
                             : Severity::Info;
      F.ArrayId = Pair.ArrayB;
      F.Loc = declLoc(P, Pair.ArrayB);
      if (Pair.ArrayA != Pair.ArrayB)
        F.RelatedLoc = declLoc(P, Pair.ArrayA);
      F.Key = "loop " + Pair.LoopVar + ": '" + Pair.NameA + "' ~ '" +
              Pair.NameB + "'";
      std::ostringstream OS;
      OS << "lattice predictor attributes "
         << llround(Pair.PredictedConflictMisses)
         << " conflict misses (" << std::fixed << std::setprecision(1)
         << 100.0 * Share << "% of all predicted accesses) to "
         << (Pair.ArrayA == Pair.ArrayB
                 ? "'" + Pair.NameA + "' interfering with itself"
                 : "'" + Pair.NameA + "' ~ '" + Pair.NameB + "'")
         << " in loop " << Pair.LoopVar << ": their constant distance "
         << Pair.DistanceBytes << "B lands "
         << Pair.LatticeDistanceBytes
         << "B from the set-mapping lattice, under the "
         << Ctx.Cache.LineBytes << "B line";
      F.Message = OS.str();
      // No fix-it: the distance rules above already propose the pad or
      // gap that clears the underlying condition — this rule exists to
      // rank pairs by predicted impact.
      Findings.push_back(std::move(F));
    }
  }
};

//===----------------------------------------------------------------------===//
// R6: unsafe-to-fix (safety meta-rule)
//===----------------------------------------------------------------------===//

class UnsafeToFixRule : public Rule {
public:
  std::string_view id() const override { return "unsafe-to-fix"; }
  std::string_view summary() const override {
    return "a severe conflict exists but the implied padding would "
           "change a layout observable elsewhere";
  }
  std::string_view paperCondition() const override {
    return "Section 4.1: parameters, storage association and frozen "
           "common blocks may not be padded or moved";
  }

  /// Meta-rule: runs after the condition rules and reports every
  /// warning-or-higher finding whose fix the safety analysis vetoed,
  /// once per offending array.
  void check(const LintContext &Ctx,
             std::vector<Finding> &Findings) const override {
    const ir::Program &P = Ctx.program();
    std::set<unsigned> Reported;
    size_t NumIn = Findings.size();
    for (size_t I = 0; I != NumIn; ++I) {
      const Finding &Cause = Findings[I];
      if (Cause.Sev < Severity::Warning || !Cause.FixBlockedBySafety)
        continue;
      if (!Reported.insert(Cause.ArrayId).second)
        continue;
      const ir::ArrayVariable &V = P.array(Cause.ArrayId);
      Finding F;
      F.RuleId = std::string(id());
      F.Sev = Severity::Warning;
      F.ArrayId = Cause.ArrayId;
      F.Loc = Cause.Loc;
      F.RelatedLoc = Cause.RelatedLoc;
      F.Key = "'" + V.Name + "' (" + Cause.RuleId + ")";
      std::string Why =
          V.IsParameter ? "a formal parameter whose caller owns the "
                          "allocation"
          : V.HasStorageAssociation
              ? "storage-associated; other code aliases its layout"
          : !V.CommonBlock.empty()
              ? "a member of frozen common block '" + V.CommonBlock + "'"
              : "layout-frozen";
      F.Message = "severe conflict involves '" + V.Name +
                  "' (see " + Cause.RuleId + "), but '" + V.Name +
                  "' is " + Why + ": padding it would be unsound — fix "
                  "the layout at the allocation site or relax the "
                  "attribute";
      Findings.push_back(std::move(F));
    }
  }
};

} // namespace

const std::vector<const Rule *> &lint::allRules() {
  static const BaseProximityRule R1;
  static const PathologicalLeadingDimRule R2;
  static const ConflictPairRule R3;
  static const SelfInterferenceRule R4;
  static const PredictedConflictVolumeRule R5;
  static const UnsafeToFixRule R6;
  static const std::vector<const Rule *> Rules = {&R1, &R2, &R3,
                                                  &R4, &R5, &R6};
  return Rules;
}

const Rule *lint::findRule(std::string_view Id) {
  for (const Rule *R : allRules())
    if (R->id() == Id)
      return R;
  return nullptr;
}
