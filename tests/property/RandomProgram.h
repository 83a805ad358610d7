//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded random PadLang program generator for property tests. Generated
/// programs are valid by construction: subscripts map dimension d to the
/// d-th innermost loop variable with a small offset, loop bounds stay
/// inside every referenced array's extent, and shapes repeat with high
/// probability so conforming (conflict-prone) array pairs are common.
///
//===----------------------------------------------------------------------===//

#ifndef PADX_TESTS_PROPERTY_RANDOMPROGRAM_H
#define PADX_TESTS_PROPERTY_RANDOMPROGRAM_H

#include "ir/Program.h"

#include <cstdint>

namespace padx {
namespace testing {

struct RandomProgramOptions {
  /// Route about one ref in four through a one-level index-array
  /// subscript: one of its dimensions reads a rank-1 int array (seeded
  /// random values over that dimension's extent, or identity) at the
  /// dimension's own loop variable. Off by default, and off draws
  /// nothing extra, so existing seeds keep their programs.
  bool IndirectSubscripts = false;
};

/// Generates a random program from \p Seed. Same seed and options, same
/// program.
ir::Program generateRandomProgram(uint64_t Seed,
                                  const RandomProgramOptions &Opts = {});

} // namespace testing
} // namespace padx

#endif // PADX_TESTS_PROPERTY_RANDOMPROGRAM_H
