//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Portable compiler-hint macros for the simulation hot paths. The probe
/// loops in cachesim/ and exec/ run billions of iterations per search;
/// telling the compiler which side of a branch is cold (a cache miss, a
/// degenerate geometry) keeps the hot side fall-through and the cold
/// side out of the fetch stream. Everything here degrades to a no-op on
/// compilers without the builtin, so the hints are never load-bearing
/// for correctness.
///
//===----------------------------------------------------------------------===//

#ifndef PADX_SUPPORT_COMPILER_H
#define PADX_SUPPORT_COMPILER_H

#if defined(__GNUC__) || defined(__clang__)
/// Branch-probability hints. Use on conditions that are overwhelmingly
/// one-sided in practice (hit-rate checks, error paths), not on 60/40
/// branches where a wrong hint costs more than no hint.
#define PADX_LIKELY(x) (__builtin_expect(!!(x), 1))
#define PADX_UNLIKELY(x) (__builtin_expect(!!(x), 0))
/// Forces inlining of small probe helpers the optimizer may otherwise
/// leave out-of-line at -O2 when they are instantiated many times.
#define PADX_ALWAYS_INLINE inline __attribute__((always_inline))
/// The same for a lambda, written after its parameter list. The trace
/// replayer's probe lambdas need it: each is called from every unrolled
/// slot of the width-specialized loops, and past the inliner's growth
/// limits an outlined probe costs a call per simulated access.
#define PADX_INLINE_LAMBDA __attribute__((always_inline))
/// No-alias qualifier for the packed direct-mapped set array the trace
/// replayer probes (CacheSim::probeDirectLane): it never overlaps the
/// write-back counter the probe updates, and saying so lets the
/// compiler keep that counter in a register across set-array stores.
#define PADX_RESTRICT __restrict__
#else
#define PADX_LIKELY(x) (x)
#define PADX_UNLIKELY(x) (x)
#define PADX_ALWAYS_INLINE inline
#define PADX_INLINE_LAMBDA
#define PADX_RESTRICT
#endif

#endif // PADX_SUPPORT_COMPILER_H
