//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// padx_perfbench: one workload per invocation.
///
/// Usage: padx_perfbench --workload search-l1|search-l2|daemon-mix
///                       --seed N --seconds S --trace 0|1
///                       [--state-dir DIR]
///
/// Prints a human-readable report, then as its last line one JSON object
/// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
/// with --trace 0, the per-layer metrics with --trace 1. Exit codes: 0
/// when a result line was printed (correctness is in the line), 1 when
/// the run broke off before it could print one, 2 on a usage error.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdlib>
#include <exception>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

using namespace padx::perfbench;

namespace {

int usage(const std::string &Why) {
  std::cerr << "padx_perfbench: " << Why << "\n"
            << "usage: padx_perfbench --workload "
               "search-l1|search-l2|daemon-mix --seed N --seconds S "
               "--trace 0|1 [--state-dir DIR]\n";
  return 2;
}

bool parseUnsigned(const char *Text, uint64_t &Out) {
  char *End = nullptr;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (!*Text || *End || Text[0] == '-')
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return usage("missing value for " + Arg);
    const char *Val = Argv[++I];
    uint64_t N = 0;
    if (Arg == "--workload") {
      O.Workload = Val;
      HaveWorkload = true;
    } else if (Arg == "--seed") {
      if (!parseUnsigned(Val, N))
        return usage("bad --seed");
      O.Seed = N;
    } else if (Arg == "--seconds") {
      if (!parseUnsigned(Val, N) || N == 0 || N > 600)
        return usage("bad --seconds");
      O.Seconds = static_cast<unsigned>(N);
    } else if (Arg == "--trace") {
      if (std::strcmp(Val, "0") && std::strcmp(Val, "1"))
        return usage("--trace takes 0 or 1");
      O.Trace = Val[0] == '1';
    } else if (Arg == "--state-dir") {
      O.StateDir = Val;
    } else {
      return usage("unknown argument " + Arg);
    }
  }
  if (!HaveWorkload)
    return usage("--workload is required");
  std::error_code EC;
  std::filesystem::create_directories(O.StateDir, EC);
  if (EC)
    return usage("cannot create --state-dir " + O.StateDir + ": " +
                 EC.message());
  try {
    if (O.Workload == "search-l1")
      return runSearchWorkload(O, /*PaperL2=*/false);
    if (O.Workload == "search-l2")
      return runSearchWorkload(O, /*PaperL2=*/true);
    if (O.Workload == "daemon-mix")
      return runDaemonWorkload(O);
  } catch (const std::exception &E) {
    std::cerr << "padx_perfbench: " << E.what() << "\n";
    return 1;
  }
  return usage("unknown workload " + O.Workload);
}
