//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "search/CandidateGenerator.h"

#include "analysis/ConflictReport.h"
#include "core/Padding.h"
#include "pipeline/AnalysisManager.h"
#include "pipeline/PadPipeline.h"
#include "support/MathExtras.h"

#include <algorithm>
#include <cassert>
#include <tuple>

using namespace padx;
using namespace padx::search;

namespace {

/// Per-dimension ceiling on intra pads the moves may reach; matches the
/// default PaddingScheme::MaxIntraPadPerDim so heuristic seeds are never
/// clamped.
constexpr int64_t kMaxPadElems = 64;

/// Largest way span among the machine's set-mapped cache levels: the
/// gap-move ceiling. Fully-associative levels map no sets, and TLB way
/// spans would blow the footprint for page-granular wins the gap moves
/// cannot reliably land anyway.
int64_t gapCeiling(const MachineModel &Machine) {
  int64_t Max = Machine.firstCache().waySpanBytes();
  for (const CacheLevel &L : Machine.Levels)
    if (!L.IsTlb && L.Geometry.Associativity != 0)
      Max = std::max(Max, L.Geometry.waySpanBytes());
  return Max;
}

} // namespace

CandidateGenerator::CandidateGenerator(const ir::Program &P,
                                       const MachineModel &Machine,
                                       pipeline::PadPipeline &PP)
    : Prog(P), Cache(Machine.firstCache()), Machine(Machine),
      GapCeiling(gapCeiling(Machine)), AM(PP.analysis()),
      Safety(PP.analysis().safety()), MaxPadElems(kMaxPadElems) {
  assert(&PP.analysis().program() == &P &&
         "pipeline built over a different program");
  initKnobs();
  initSeeds(pad::runPad(P, Cache, PP).Layout,
            pad::runPadLite(P, Cache, PP).Layout);
  addMachineSeeds(PP);
}

void CandidateGenerator::addMachineSeeds(pipeline::PadPipeline &PP) {
  if (Machine.isSingleLevel())
    return;
  Candidate C = project(
      pad::applyPadding(Prog, Machine, pad::PaddingScheme::pad(), PP)
          .Layout);
  if (std::find(Seeds.begin(), Seeds.end(), C) == Seeds.end())
    Seeds.push_back(std::move(C));
}

void CandidateGenerator::addSeedLayout(const layout::DataLayout &DL) {
  Candidate C = project(DL);
  clamp(C);
  if (std::find(Seeds.begin(), Seeds.end(), C) == Seeds.end())
    Seeds.push_back(std::move(C));
}

void CandidateGenerator::initKnobs() {
  for (unsigned Id = 0; Id != Prog.arrays().size(); ++Id) {
    const ir::ArrayVariable &V = Prog.array(Id);
    if (!V.isScalar() && Safety.CanPadIntra[Id])
      PaddableArrays.push_back(Id);
    // Gap moves on scalars are pointless: scalar references are
    // register-promoted out of the trace, so a scalar's gap only shifts
    // the variables after it — which their own gap moves already cover.
    if (!V.isScalar() && Safety.CanMoveBase[Id])
      MovableVars.push_back(Id);
  }
}

void CandidateGenerator::initSeeds(const layout::DataLayout &PadLayout,
                                   const layout::DataLayout &LiteLayout) {
  // Seed order matters: the engine breaks cost ties by lowest candidate
  // index, and the PAD baseline goes first so "no worse than PAD" holds
  // even when the search finds nothing better.
  Seeds.push_back(project(PadLayout));
  PadSeed = 0;
  std::vector<Candidate> Extra;
  Extra.push_back(zeroCandidate(Prog));
  Extra.push_back(project(LiteLayout));
  for (Candidate &C : Extra)
    if (std::find(Seeds.begin(), Seeds.end(), C) == Seeds.end())
      Seeds.push_back(std::move(C));
}

void CandidateGenerator::clamp(Candidate &C) const {
  int64_t MaxGap = GapCeiling;
  for (unsigned Id = 0; Id != Prog.arrays().size(); ++Id) {
    const ir::ArrayVariable &V = Prog.array(Id);
    bool Paddable = !V.isScalar() && Safety.CanPadIntra[Id];
    for (int64_t &Pad : C.DimPads[Id]) {
      if (!Paddable)
        Pad = 0;
      Pad = std::clamp<int64_t>(Pad, 0, MaxPadElems);
    }
    bool Movable = !V.isScalar() && Safety.CanMoveBase[Id];
    int64_t &Gap = C.GapBytes[Id];
    if (!Movable)
      Gap = 0;
    Gap = std::clamp<int64_t>(Gap, 0, MaxGap);
    // Keep bases element-aligned without ceilDiv surprises downstream.
    Gap -= Gap % V.ElemSize;
  }
}

bool CandidateGenerator::randomMove(Candidate &C,
                                    std::mt19937_64 &Rng) const {
  if (PaddableArrays.empty() && MovableVars.empty())
    return false;
  bool PadMove;
  if (PaddableArrays.empty())
    PadMove = false;
  else if (MovableVars.empty())
    PadMove = true;
  else
    PadMove = (Rng() & 1) == 0;

  if (PadMove) {
    unsigned Id = PaddableArrays[Rng() % PaddableArrays.size()];
    int64_t LineElems =
        std::max<int64_t>(1, Cache.LineBytes / Prog.array(Id).ElemSize);
    const int64_t Steps[] = {1,  2,  3,         LineElems,
                             -1, -2, -3,        -LineElems};
    int64_t Delta = Steps[Rng() % std::size(Steps)];
    C.DimPads[Id][0] += Delta;
  } else {
    unsigned Id = MovableVars[Rng() % MovableVars.size()];
    int64_t Lines = static_cast<int64_t>(Rng() % 4) + 1;
    int64_t Delta = Lines * Cache.LineBytes;
    if (Rng() & 1)
      Delta = -Delta;
    C.GapBytes[Id] += Delta;
  }
  clamp(C);
  return true;
}

bool CandidateGenerator::repairWorstConflict(Candidate &C) const {
  const std::vector<analysis::ConflictEntry> &Entries =
      AM.severeConflicts(materialize(Prog, C), Cache);
  if (Entries.empty())
    return false;
  // Worst pair: smallest conflict distance, ties broken by array id so
  // the chosen repair — and with it the whole candidate stream — is
  // stable regardless of report order. (Keying on ConflictDistance alone
  // left the winner to whichever tied entry the report listed first.)
  auto TieKey = [](const analysis::ConflictEntry &E) {
    return std::make_tuple(E.ConflictDistance,
                           std::min(E.Array1, E.Array2),
                           std::max(E.Array1, E.Array2));
  };
  const analysis::ConflictEntry *Worst = &Entries.front();
  for (const analysis::ConflictEntry &E : Entries)
    if (TieKey(E) < TieKey(*Worst))
      Worst = &E;

  if (Worst->SameArray) {
    // Same-array conflicts are a column-size problem: perturb the
    // contiguous dimension. Half a line of elements breaks the paper's
    // pathological column alignments without exploding the footprint.
    unsigned Id = Worst->Array1;
    if (Prog.array(Id).isScalar() || !Safety.CanPadIntra[Id])
      return false;
    int64_t LineElems =
        std::max<int64_t>(1, Cache.LineBytes / Prog.array(Id).ElemSize);
    C.DimPads[Id][0] += std::max<int64_t>(1, LineElems / 2);
  } else {
    // Cross-array conflict: slide the later-placed variable one line
    // forward. One move rarely fixes everything; later rounds re-repair.
    unsigned Id = std::max(Worst->Array1, Worst->Array2);
    if (!Safety.CanMoveBase[Id] || Prog.array(Id).isScalar())
      Id = std::min(Worst->Array1, Worst->Array2);
    if (!Safety.CanMoveBase[Id] || Prog.array(Id).isScalar())
      return false;
    C.GapBytes[Id] += Cache.LineBytes;
  }
  clamp(C);
  return true;
}

std::vector<Candidate>
CandidateGenerator::neighbors(const Candidate &C, std::mt19937_64 &Rng,
                              unsigned Count) const {
  std::vector<Candidate> Out;
  Out.reserve(Count);
  Candidate Repaired = C;
  if (Count != 0 && repairWorstConflict(Repaired) && !(Repaired == C))
    Out.push_back(std::move(Repaired));
  while (Out.size() < Count) {
    Candidate N = C;
    if (!randomMove(N, Rng))
      break; // Nothing mutable in this program.
    Out.push_back(std::move(N));
  }
  return Out;
}

Candidate CandidateGenerator::perturb(const Candidate &C,
                                      std::mt19937_64 &Rng,
                                      unsigned Moves) const {
  Candidate N = C;
  for (unsigned I = 0; I != Moves; ++I)
    if (!randomMove(N, Rng))
      break;
  return N;
}
