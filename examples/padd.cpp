//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// padd — the long-lived padx daemon. Serves pad, padlite, lint and
/// search requests as newline-delimited JSON over a unix-domain socket
/// (protocol in src/server/Protocol.h, architecture in DESIGN.md
/// section 12), sharing analysis results across requests through one
/// SharedAnalysisCache and bounding each request with a memory budget,
/// footprint/trace quotas and an optional deadline.
///
/// Usage:
///   padd --socket PATH [options]
/// Options:
///   --socket PATH          unix socket path (required)
///   --threads N            worker threads (default 0 = hardware)
///   --max-frame BYTES      inbound frame cap (default 4 MiB)
///   --memory-budget BYTES  default per-request arena budget
///                          (default 256 MiB)
///   --max-footprint BYTES  default footprint quota (default 1 TiB)
///   --max-accesses N       default trace quota (default unlimited)
///   --max-queue N          shed requests past N queued across all
///                          connections (default 512, 0 = unlimited)
///   --max-inflight N       per-connection in-flight cap
///                          (default 64, 0 = unlimited)
///   --drain-ms MS          default graceful-drain deadline
///                          (default 5000)
///
/// The daemon prints one "padd listening on PATH (N workers)" line to
/// stdout once ready (scripts wait for it), then serves until SIGINT
/// (immediate stop), SIGTERM (graceful drain: stop accepting, finish
/// in-flight work, flush responses), or a {"op":"shutdown"} request
/// ({"mode":"drain","drain_ms":MS} selects the graceful path).
///
/// Fault injection (chaos testing): when PADX_FAULT_SPEC is set in the
/// environment, deterministic seeded faults (PADX_FAULT_SEED, default 1)
/// fire inside the arena, socket and deadline layers
/// (support/FaultInjection.h). A malformed spec or seed exits 1.
///
/// Exit codes: 0 clean shutdown (including forced-but-flushed drains);
/// 1 usage or startup failure.
///
//===----------------------------------------------------------------------===//

#include "server/Server.h"
#include "support/FaultInjection.h"
#include "support/ParseInteger.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

using namespace padx;

namespace {

std::atomic<bool> SignalStop{false};
std::atomic<int> SignalNo{0};

void onSignal(int Sig) {
  SignalNo.store(Sig, std::memory_order_release);
  SignalStop.store(true, std::memory_order_release);
}

void usage() {
  std::fprintf(stderr,
               "usage: padd --socket PATH [--threads N] "
               "[--max-frame BYTES]\n"
               "            [--memory-budget BYTES] "
               "[--max-footprint BYTES]\n"
               "            [--max-accesses N] [--max-queue N]\n"
               "            [--max-inflight N] [--drain-ms MS]\n");
}

} // namespace

int main(int argc, char **argv) {
  server::ServerOptions Opts;
  Opts.SocketPath.clear();

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc) {
        usage();
        std::exit(1);
      }
      return argv[++I];
    };
    // The next argument as a whole decimal integer in [Min, Max].
    auto NextInt = [&]<typename T>(T Min, T Max) -> T {
      const char *Text = Next();
      if (std::optional<T> V = parseInteger<T>(Text, Min, Max))
        return *V;
      std::fprintf(stderr, "error: %s takes an integer in [%s, %s], "
                           "got '%s'\n",
                   Arg.c_str(), std::to_string(Min).c_str(),
                   std::to_string(Max).c_str(), Text);
      std::exit(1);
    };
    constexpr unsigned UMax = std::numeric_limits<unsigned>::max();
    constexpr size_t SizeMax = std::numeric_limits<size_t>::max();
    if (Arg == "--socket") {
      Opts.SocketPath = Next();
    } else if (Arg == "--threads") {
      Opts.Threads = NextInt(0u, UMax);
    } else if (Arg == "--max-frame") {
      Opts.MaxFrameBytes = NextInt(size_t(1), SizeMax);
    } else if (Arg == "--memory-budget") {
      Opts.RequestMemoryBudget = NextInt(size_t(1), SizeMax);
    } else if (Arg == "--max-footprint") {
      Opts.Limits.MaxFootprintBytes =
          NextInt(int64_t(1), std::numeric_limits<int64_t>::max());
    } else if (Arg == "--max-accesses") {
      Opts.Limits.MaxTraceAccesses =
          NextInt(uint64_t(0), std::numeric_limits<uint64_t>::max());
    } else if (Arg == "--max-queue") {
      Opts.MaxQueueDepth = NextInt(size_t(0), SizeMax);
    } else if (Arg == "--max-inflight") {
      Opts.MaxConnInFlight = NextInt(0u, UMax);
    } else if (Arg == "--drain-ms") {
      double Ms = std::atof(Next());
      if (Ms <= 0) {
        std::fprintf(stderr, "error: --drain-ms must be positive\n");
        return 1;
      }
      Opts.DrainDeadlineMs = Ms;
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      usage();
      return 1;
    }
  }
  if (Opts.SocketPath.empty()) {
    usage();
    return 1;
  }

  // Signals before start(): a SIGTERM in the listen/accept startup
  // window must already hit the drain path, and SIGPIPE must be
  // ignored before the first client can hang up mid-response.
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  std::signal(SIGPIPE, SIG_IGN);

  {
    std::string FaultDesc, FaultErr;
    if (support::fault::configureFromEnv(&FaultDesc, &FaultErr)) {
      std::fprintf(stderr, "padd fault injection active: %s\n",
                   FaultDesc.c_str());
    } else if (!FaultErr.empty()) {
      std::fprintf(stderr, "error: %s\n", FaultErr.c_str());
      return 1;
    }
  }

  server::PaddServer Srv(std::move(Opts));
  std::string Err;
  if (!Srv.start(&Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }

  std::printf("padd listening on %s (%u workers)\n",
              Srv.options().SocketPath.c_str(), Srv.numWorkers());
  std::fflush(stdout);

  Srv.wait(&SignalStop);

  // SIGTERM and {"op":"shutdown","mode":"drain"} take the graceful
  // path: finish what is in flight and flush every response before
  // tearing the connections down. SIGINT and mode "now" stop hard.
  bool WantDrain = SignalNo.load(std::memory_order_acquire) == SIGTERM ||
                   Srv.handler().drainRequested();
  if (WantDrain) {
    double DrainMs = Srv.handler().requestedDrainMs();
    if (DrainMs <= 0)
      DrainMs = Srv.options().DrainDeadlineMs;
    std::printf("padd draining (deadline %.0f ms)\n", DrainMs);
    std::fflush(stdout);
    bool Clean = Srv.drain(DrainMs);
    std::printf("padd drain %s\n",
                Clean ? "complete" : "deadline reached, forcing close");
    std::fflush(stdout);
  }
  Srv.stop();

  const server::ServerLoadStats &Load = Srv.loadStats();
  pipeline::SharedCacheStats S = Srv.sharedCache().snapshot();
  std::printf("padd stopped: %llu requests (%llu failed, %llu shed), "
              "shared cache %.0f%% hit rate\n",
              static_cast<unsigned long long>(
                  Srv.handler().requestsServed()),
              static_cast<unsigned long long>(
                  Srv.handler().requestsFailed()),
              static_cast<unsigned long long>(
                  Load.ShedQueueFull.load(std::memory_order_relaxed) +
                  Load.ShedConnCap.load(std::memory_order_relaxed)),
              100.0 * S.hitRate());
  return 0;
}
