//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own arithmetic, kept free of padx so its unit tests
/// pin it directly: order statistics, the tail-percentile rule, the
/// geometric mean of ratios, span self time, and the FNV-1a digest of
/// the count section.
///
//===----------------------------------------------------------------------===//

#ifndef PADX_PERFBENCH_ARITH_H
#define PADX_PERFBENCH_ARITH_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace padx {
namespace perfbench {

/// Median of \p V (mean of the two middle values for even sizes); 0 for
/// an empty vector.
double median(std::vector<double> V);

/// Arithmetic mean; 0 for an empty vector.
double mean(const std::vector<double> &V);

/// The tail latency the benchmark reports: the highest nearest-rank
/// percentile that still leaves \p MinBeyond samples above it. With n
/// samples that is rank n - MinBeyond (1-based), i.e. percentile
/// 100 * (n - MinBeyond) / n. Fewer than MinBeyond + 1 samples fall back
/// to rank 1 (the minimum), with Beyond reporting how many samples
/// actually lie above it.
struct TailChoice {
  double Percentile = 0; ///< In percent, e.g. 97.5.
  size_t Rank = 0;       ///< 1-based nearest rank into the sorted samples.
  size_t Beyond = 0;     ///< Samples strictly after Rank.
  double Value = 0;
};
TailChoice tailPercentile(std::vector<double> V, size_t MinBeyond = 10);

/// Replaces every sample by the smallest sample of its group (\p Group[I]
/// names sample I's group). Applied to ops grouped by program, each op
/// keeps one value, its program's fastest repetition, so op-count
/// statistics (median, tail rank) still apply while swings the host
/// imposes on single repetitions drop out.
std::vector<double> groupMinimum(const std::vector<double> &V,
                                 const std::vector<unsigned> &Group);

/// Geometric mean of strictly positive \p Ratios; 0 when empty or when
/// any ratio is not positive.
double geomean(const std::vector<double> &Ratios);

/// One timed region of the traced run. Parent is the index of the
/// enclosing span in the same vector, -1 for a root.
struct Span {
  const char *Name = "";
  double Start = 0;
  double End = 0;
  int Parent = -1;
  uint32_t Op = 0;

  double duration() const { return End - Start; }
};

/// Self time of every span: its duration minus the durations of its
/// direct children. Children are found through Parent, so nested,
/// back-to-back and interleaved siblings are all handled.
std::vector<double> selfTimes(const std::vector<Span> &Spans);

/// Records spans in memory with a stack of open spans for parenting.
/// Disabled recorders accept every call and record nothing.
class SpanRecorder {
public:
  explicit SpanRecorder(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  /// Opens a span under the innermost open one; returns its index (or
  /// -1 when disabled). \p Name must outlive the recorder.
  int open(const char *Name, uint32_t Op);
  void close(int Index);

  const std::vector<Span> &spans() const { return Spans; }

private:
  bool Enabled;
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// RAII span on a recorder.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder &R, const char *Name, uint32_t Op)
      : R(R), Index(R.open(Name, Op)) {}
  ~ScopedSpan() { R.close(Index); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanRecorder &R;
  int Index;
};

/// Monotonic seconds since an arbitrary process-wide epoch.
double nowSeconds();

/// Process CPU seconds (user + sys, every thread).
double processCpuSeconds();

/// Peak resident set of this process image in MiB (VmHWM).
double peakRssMiB();

/// 64-bit FNV-1a over \p Data, continuing from \p Hash.
uint64_t fnv1a(std::string_view Data,
               uint64_t Hash = 0xcbf29ce484222325ull);

/// splitmix64: the benchmark's only random source, so a seed fixes
/// every generated input.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// Uniform integer in [Lo, Hi].
  int64_t range(int64_t Lo, int64_t Hi);
  /// True with probability \p P.
  bool chance(double P);

private:
  uint64_t State;
};

} // namespace perfbench
} // namespace padx

#endif // PADX_PERFBENCH_ARITH_H
