//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Optional hardware counters (retired instructions, last-level cache
/// misses) through perf_event_open. Kernels without a PMU, or sandboxes
/// that forbid the syscall, make the probe report "unavailable" with
/// the errno; the benchmark carries on without counters.
///
//===----------------------------------------------------------------------===//

#ifndef PADX_PERFBENCH_HWCOUNTERS_H
#define PADX_PERFBENCH_HWCOUNTERS_H

#include <cstdint>
#include <string>

namespace padx {
namespace perfbench {

class HwCounters {
public:
  /// Opens both counters for the calling thread; with \p Inherit, also
  /// for threads it creates afterwards (the daemon's workers).
  explicit HwCounters(bool Inherit);
  ~HwCounters();
  HwCounters(const HwCounters &) = delete;
  HwCounters &operator=(const HwCounters &) = delete;

  bool available() const { return InstrFd >= 0 && LlcFd >= 0; }
  /// "available", or "unavailable: <syscall> errno N (NAME)".
  const std::string &status() const { return Status; }

  struct Reading {
    uint64_t Instructions = 0;
    uint64_t LlcMisses = 0;
  };
  /// Current totals; zeros when unavailable.
  Reading read() const;

private:
  int InstrFd = -1;
  int LlcFd = -1;
  std::string Status;
};

} // namespace perfbench
} // namespace padx

#endif // PADX_PERFBENCH_HWCOUNTERS_H
