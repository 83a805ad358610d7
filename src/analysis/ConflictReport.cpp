//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "analysis/ConflictReport.h"

#include "analysis/ConflictDistance.h"
#include "analysis/ReferenceGroups.h"
#include "ir/Printer.h"

#include <cstdlib>
#include <sstream>

using namespace padx;
using namespace padx::analysis;

static std::string renderRef(const ir::Program &P, const ir::ArrayRef &R) {
  std::ostringstream OS;
  ir::printRef(OS, P, R);
  return OS.str();
}

std::vector<ConflictEntry>
analysis::reportConflicts(const layout::DataLayout &DL,
                          const CacheConfig &Cache, bool SevereOnly) {
  return reportConflicts(DL, Cache, collectLoopGroups(DL.program()),
                         SevereOnly);
}

std::vector<ConflictEntry>
analysis::reportConflicts(const layout::DataLayout &DL,
                          const CacheConfig &Cache,
                          const std::vector<LoopGroup> &Groups,
                          bool SevereOnly) {
  const ir::Program &P = DL.program();
  int64_t Cs = Cache.waySpanBytes();
  int64_t Ls = Cache.LineBytes;
  std::vector<ConflictEntry> Entries;

  for (const LoopGroup &G : Groups) {
    std::vector<LinearForm> Forms = linearizeGroup(DL, G);
    for (size_t I = 0, E = G.Refs.size(); I != E; ++I) {
      for (size_t J = I + 1; J != E; ++J) {
        std::optional<int64_t> Dist = constantDistance(Forms[I], Forms[J]);
        if (!Dist)
          continue;
        int64_t CD = conflictDistance(*Dist, Cs);
        bool Severe = std::llabs(*Dist) >= Ls && CD < Ls;
        if (SevereOnly && !Severe)
          continue;
        // Render only the entries kept: the search's repair asks for a
        // severe-only report every round.
        const ir::ArrayRef &R1 = *G.Refs[I].Ref;
        const ir::ArrayRef &R2 = *G.Refs[J].Ref;
        ConflictEntry CE;
        CE.LoopVar = G.Innermost->IndexVar;
        CE.Ref1 = renderRef(P, R1);
        CE.Ref2 = renderRef(P, R2);
        CE.Loc1 = R1.Loc;
        CE.Loc2 = R2.Loc;
        CE.Array1 = R1.ArrayId;
        CE.Array2 = R2.ArrayId;
        CE.SameArray = R1.ArrayId == R2.ArrayId;
        CE.DistanceBytes = *Dist;
        CE.ConflictDistance = CD;
        CE.Severe = Severe;
        Entries.push_back(std::move(CE));
      }
    }
  }
  return Entries;
}

unsigned analysis::countSevereConflicts(const layout::DataLayout &DL,
                                        const CacheConfig &Cache) {
  return static_cast<unsigned>(
      reportConflicts(DL, Cache, /*SevereOnly=*/true).size());
}

void analysis::printConflictReport(
    std::ostream &OS, const std::vector<ConflictEntry> &Entries) {
  if (Entries.empty()) {
    OS << "no conflicting reference pairs\n";
    return;
  }
  for (const ConflictEntry &E : Entries) {
    OS << "  loop " << E.LoopVar << ": " << E.Ref1;
    if (E.Loc1.isValid())
      OS << " (" << E.Loc1.Line << ':' << E.Loc1.Column << ')';
    OS << " vs " << E.Ref2;
    if (E.Loc2.isValid())
      OS << " (" << E.Loc2.Line << ':' << E.Loc2.Column << ')';
    OS << "  distance " << E.DistanceBytes << "B, conflict distance "
       << E.ConflictDistance << "B"
       << (E.SameArray ? " [same array]" : "")
       << (E.Severe ? " [SEVERE]" : "") << '\n';
  }
}
