//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lint findings: a source-anchored defect report produced by one lint
/// rule, carrying a severity derived from the lattice predictor, a
/// stable fingerprint key for baseline suppression, and — where the
/// implied transformation is safe — a concrete machine-applicable fix-it
/// (an intra-variable pad or an inter-variable gap). Findings are what
/// the text, JSON and SARIF back ends render and what the simulator
/// cross-validation tests hold against CacheSim.
///
//===----------------------------------------------------------------------===//

#ifndef PADX_LINT_FINDING_H
#define PADX_LINT_FINDING_H

#include "ir/Program.h"
#include "support/SourceLocation.h"

#include <cstdint>
#include <string>

namespace padx {
namespace lint {

/// Ranked severities. Info findings are shape heuristics that may not
/// correspond to measurable misses; Warning and above are backed by the
/// paper's pad conditions and are cross-validated against the cache
/// simulator in tests.
enum class Severity { Info, Warning, Error };

const char *severityName(Severity S);

/// A machine-applicable layout change that clears the finding.
struct FixIt {
  enum class Kind {
    None,     ///< No safe fix exists (see Finding::FixBlockedBySafety).
    IntraPad, ///< Grow dimension Dim of ArrayId by PadElems elements.
    InterGap, ///< Insert GapBytes bytes before ArrayId's base address.
  };

  Kind K = Kind::None;
  unsigned ArrayId = 0;
  unsigned Dim = 0;
  int64_t PadElems = 0;
  int64_t GapBytes = 0;

  bool isValid() const { return K != Kind::None; }

  /// One-line human rendering, e.g.
  /// "pad dimension 1 of 'A' from 384 to 385 elements (+1)".
  std::string describe(const ir::Program &P,
                       int64_t CurrentDimElems) const;
};

/// One reported layout defect.
struct Finding {
  /// Registry id of the producing rule, e.g. "conflict-pair".
  std::string RuleId;
  Severity Sev = Severity::Warning;
  /// Primary source anchor: a conflicting reference or the declaration
  /// of the offending array. Invalid for programmatically built IR.
  SourceLocation Loc;
  /// Secondary anchor (the partner reference of a pair), when any.
  SourceLocation RelatedLoc;
  /// Diagnostic text, lowercase start, no trailing period.
  std::string Message;
  /// Stable fingerprint component: rule-specific, built from array
  /// names / rendered references / loop variables — never from line
  /// numbers, so baselines survive unrelated edits.
  std::string Key;
  /// Cache level the finding was detected at, when linting a
  /// multi-level machine model ("l2", "l3", ...). Empty on a
  /// single-level machine — the pre-hierarchy output stays unchanged —
  /// and for findings already reported at an inner level (the linter
  /// keeps the innermost level's copy). Not part of the baseline
  /// fingerprint: a finding is the same defect at whatever level it
  /// surfaces.
  std::string Level;
  /// Primary array the finding is about (the one a fix would change).
  unsigned ArrayId = 0;
  FixIt Fix;
  /// True when a fix exists in principle but the safety analysis forbids
  /// it (parameter / storage-associated array). The unsafe-to-fix
  /// meta-rule turns this into a companion finding.
  bool FixBlockedBySafety = false;
  /// Set by baseline filtering; suppressed findings render as SARIF
  /// suppressions and do not count toward the exit code.
  bool Suppressed = false;
};

} // namespace lint
} // namespace padx

#endif // PADX_LINT_FINDING_H
