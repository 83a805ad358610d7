//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Proposes layout candidates for the search engine. Seeds come from the
/// closed-form heuristics (original, PADLITE, PAD — projected losslessly
/// into candidate coordinates); neighbors of a candidate come from three
/// move kinds: nudging one array's column pad, nudging one variable's
/// base gap by line multiples, and a greedy repair that reads the
/// ConflictReport of the materialized layout and pushes apart the worst
/// remaining severe pair. Every move respects the paper's safety
/// analysis: arrays that cannot be intra-padded keep their declared
/// dimensions, variables whose base cannot move keep gap 0.
///
//===----------------------------------------------------------------------===//

#ifndef PADX_SEARCH_CANDIDATEGENERATOR_H
#define PADX_SEARCH_CANDIDATEGENERATOR_H

#include "analysis/Safety.h"
#include "machine/MachineModel.h"
#include "search/Candidate.h"

#include <random>
#include <vector>

namespace padx {
namespace pipeline {
class PadPipeline;
class AnalysisManager;
} // namespace pipeline

namespace search {

class CandidateGenerator {
public:
  /// Analyzes \p P once (safety, heuristic seeds) through \p PP, an
  /// instrumented pipeline over the same program: safety comes from
  /// \p PP.analysis(), the heuristic seeds run through \p PP (their
  /// passes show up in its stats), and the greedy repair reads memoized
  /// conflict reports. Moves and repair run at the first cache level's
  /// geometry, gap moves may reach the largest level's way span, and on
  /// a multi-level machine the seed set additionally carries the
  /// multi-level PAD projection (applyPadding over every level). The
  /// PAD baseline seed stays first either way. \p P and \p PP must
  /// outlive the generator, and \p PP is only touched from the thread
  /// calling neighbors()/perturb() — the manager is not thread-safe.
  CandidateGenerator(const ir::Program &P, const MachineModel &Machine,
                     pipeline::PadPipeline &PP);
  CandidateGenerator(ir::Program &&, const MachineModel &,
                     pipeline::PadPipeline &) = delete;

  /// Deterministic seed candidates, deduplicated, PAD's projection
  /// first: the packed original, the paper's PAD and PADLITE layouts.
  const std::vector<Candidate> &seeds() const { return Seeds; }

  /// Appends \p DL as an extra warm-start seed (projected into candidate
  /// coordinates and clamped to the safety analysis, so an unsafe pad or
  /// base move in \p DL is dropped rather than proposed). Layouts that
  /// came out of a previous search over the same program project
  /// losslessly; the engine then never returns a worse cost than theirs
  /// (SearchOptions::SeedLayouts).
  void addSeedLayout(const layout::DataLayout &DL);

  /// Index into seeds() of the PAD heuristic's layout — the baseline the
  /// search must never lose to.
  size_t padSeedIndex() const { return PadSeed; }

  /// Proposes up to \p Count neighbors of \p C: one greedy repair of the
  /// worst severe conflict (when any remain), the rest random single
  /// moves drawn from \p Rng. Deterministic given the Rng state. May
  /// return duplicates of earlier proposals; the engine dedups.
  std::vector<Candidate> neighbors(const Candidate &C,
                                   std::mt19937_64 &Rng,
                                   unsigned Count) const;

  /// Applies \p Moves random moves to \p C (restart perturbation).
  Candidate perturb(const Candidate &C, std::mt19937_64 &Rng,
                    unsigned Moves) const;

  const analysis::SafetyInfo &safety() const { return Safety; }

private:
  /// Constructor steps: the knob lists, then the deduplicated
  /// heuristic seeds (PAD's projection first).
  void initKnobs();
  void initSeeds(const layout::DataLayout &PadLayout,
                 const layout::DataLayout &LiteLayout);
  /// One random move (column-pad tweak or gap tweak) in place; returns
  /// false if the program offers no mutable knob.
  bool randomMove(Candidate &C, std::mt19937_64 &Rng) const;
  /// Greedy repair of the worst severe conflict of materialize(C);
  /// returns false if the layout has none.
  bool repairWorstConflict(Candidate &C) const;
  void clamp(Candidate &C) const;

  /// Multi-level extra seed, called after initSeeds.
  void addMachineSeeds(pipeline::PadPipeline &PP);

  const ir::Program &Prog;
  CacheConfig Cache; ///< First cache level (move granularity).
  MachineModel Machine;
  int64_t GapCeiling = 0; ///< Largest cache level's way span.
  pipeline::AnalysisManager &AM;
  analysis::SafetyInfo Safety;
  std::vector<Candidate> Seeds;
  size_t PadSeed = 0;
  /// Arrays eligible for column-pad moves / variables for gap moves.
  std::vector<unsigned> PaddableArrays;
  std::vector<unsigned> MovableVars;
  int64_t MaxPadElems = 0; ///< Per-dimension intra-pad ceiling.
};

} // namespace search
} // namespace padx

#endif // PADX_SEARCH_CANDIDATEGENERATOR_H
