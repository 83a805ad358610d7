//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lint pass manager: precomputes the shared analysis context
/// (safety, linear-algebra flags, loop groups, lattice prediction), runs
/// every registered rule in order, and returns findings ranked most
/// severe first. A fully associative cache cannot produce conflict
/// misses, so linting one yields no findings by definition.
///
/// applyFix() turns a finding's fix-it into a concrete layout, which is
/// how the validation tests close the loop: lint, fix, re-lint, and the
/// finding must be gone while the simulated access stream stays
/// bit-identical in length and order.
///
//===----------------------------------------------------------------------===//

#ifndef PADX_LINT_LINTER_H
#define PADX_LINT_LINTER_H

#include "layout/DataLayout.h"
#include "lint/Finding.h"
#include "machine/MachineModel.h"
#include "pipeline/PadPipeline.h"

#include <utility>
#include <vector>

namespace padx {
namespace lint {

struct LintOptions {
  LintOptions() = default;
  LintOptions(CacheConfig Cache) : Cache(Cache) {}
  LintOptions(MachineModel Machine) : Machine(std::move(Machine)) {}

  CacheConfig Cache = CacheConfig::base16K();

  /// Machine model to lint against. Empty (the default) means the
  /// single level \p Cache — the pre-hierarchy behavior, byte-identical
  /// output. With levels set, every set-mapped cache level is linted
  /// (TLB and fully-associative levels cannot produce set conflicts the
  /// rules reason about); a defect found at several levels is reported
  /// once, at the innermost, and findings first surfacing at an outer
  /// level carry its name in Finding::Level.
  MachineModel Machine;

  /// The machine the linter effectively runs on.
  MachineModel machine() const {
    return Machine.Levels.empty() ? MachineModel::singleLevel(Cache)
                                  : Machine;
  }
};

struct LintResult {
  /// Ranked: Error, then Warning, then Info; source order within a
  /// severity.
  std::vector<Finding> Findings;

  /// Highest severity among unsuppressed findings; Info when empty.
  Severity maxSeverity() const;
  unsigned count(Severity S) const;
  unsigned numSuppressed() const;
};

class Linter {
public:
  explicit Linter(LintOptions Options = LintOptions())
      : Options(Options) {}

  /// Lints the original (packed, unpadded) layout of \p P.
  LintResult run(const ir::Program &P) const;

  /// Lints an explicit layout (all bases assigned). Used to re-lint
  /// fixed or already-padded layouts.
  LintResult run(const layout::DataLayout &DL) const;

  /// As above through an instrumented pipeline over the same program:
  /// the shared context comes from \p PP.analysis() (free when the
  /// program was already padded or searched through \p PP), and every
  /// rule runs as a timed "lint:<rule-id>" pass. The no-pipeline
  /// overload builds a throwaway pipeline and forwards here.
  LintResult run(const layout::DataLayout &DL,
                 pipeline::PadPipeline &PP) const;

private:
  LintOptions Options;
};

/// Applies one fix-it to a sequentially packed layout: an IntraPad grows
/// the dimension and re-packs base addresses; an InterGap shifts the
/// target array and everything placed at or after it. The input program
/// is never modified — like the padding passes, fixes live entirely in
/// the layout.
layout::DataLayout applyFix(const layout::DataLayout &DL,
                            const FixIt &Fix);

} // namespace lint
} // namespace padx

#endif // PADX_LINT_LINTER_H
