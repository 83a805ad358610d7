//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "HwCounters.h"

#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

using namespace padx::perfbench;

namespace {

int openCounter(uint64_t Config, bool Inherit, int &Err) {
  perf_event_attr A;
  std::memset(&A, 0, sizeof(A));
  A.size = sizeof(A);
  A.type = PERF_TYPE_HARDWARE;
  A.config = Config;
  A.exclude_kernel = 1;
  A.exclude_hv = 1;
  A.inherit = Inherit ? 1 : 0;
  long Fd = syscall(SYS_perf_event_open, &A, 0 /*this process*/,
                    -1 /*any cpu*/, -1 /*no group*/, 0);
  Err = Fd < 0 ? errno : 0;
  return static_cast<int>(Fd);
}

const char *errnoName(int E) {
  switch (E) {
  case ENOENT:
    return "ENOENT";
  case ENODEV:
    return "ENODEV";
  case EACCES:
    return "EACCES";
  case EPERM:
    return "EPERM";
  case ENOSYS:
    return "ENOSYS";
  case EINVAL:
    return "EINVAL";
  case EOPNOTSUPP:
    return "EOPNOTSUPP";
  default:
    return "errno";
  }
}

} // namespace

HwCounters::HwCounters(bool Inherit) {
  int Err = 0;
  InstrFd = openCounter(PERF_COUNT_HW_INSTRUCTIONS, Inherit, Err);
  if (InstrFd >= 0)
    LlcFd = openCounter(PERF_COUNT_HW_CACHE_MISSES, Inherit, Err);
  if (available()) {
    Status = "available";
    return;
  }
  Status = "unavailable: perf_event_open errno " + std::to_string(Err) +
           " (" + errnoName(Err) + ")";
  if (InstrFd >= 0)
    close(InstrFd);
  InstrFd = LlcFd = -1;
}

HwCounters::~HwCounters() {
  if (InstrFd >= 0)
    close(InstrFd);
  if (LlcFd >= 0)
    close(LlcFd);
}

HwCounters::Reading HwCounters::read() const {
  Reading R;
  if (!available())
    return R;
  uint64_t V = 0;
  if (::read(InstrFd, &V, sizeof(V)) == sizeof(V))
    R.Instructions = V;
  if (::read(LlcFd, &V, sizeof(V)) == sizeof(V))
    R.LlcMisses = V;
  return R;
}
