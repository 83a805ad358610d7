//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes one padd request against the shared server state. The
/// handler is the protocol-independent core of the daemon: the socket
/// layer (Server.h) hands it frames, tests and the throughput benchmark
/// call it in-process, and both get byte-identical responses.
///
/// Per-request discipline (the daemon's quota story):
///
///  - every request runs inside its own support::Arena, budgeted by the
///    request's `memory_budget` (or the server default); the parsed
///    program and pipeline live in the arena and an overrun surfaces as
///    a structured resource_exhausted error, never an OOM;
///  - footprint and trace-length quotas reuse the ResourceLimits
///    semantics of the CLI tools;
///  - a `deadline_ms` is checked between phases for the cheap ops and
///    wired into SearchOptions::DeadlineSeconds for the search op,
///    which degrades to a `partial` response carrying the best-so-far
///    layout (SearchOutcome semantics), not an error;
///  - the server's stop flag doubles as the searches' cancel token, so
///    shutdown sheds in-flight climbs at the next batch boundary.
///
/// Result payloads embed the exact strings the CLI tools print — the
/// transformed source (padtool --emit) and the lint report in the
/// requested format (padlint --format) — so "daemon equals CLI" is a
/// string comparison, which the equivalence tests and ci.sh perform.
///
/// Thread safety: handle() may be called concurrently from any number
/// of pool workers. All shared state is the SharedAnalysisCache (safe,
/// sharded) and the atomic request counters.
///
//===----------------------------------------------------------------------===//

#ifndef PADX_SERVER_REQUESTHANDLER_H
#define PADX_SERVER_REQUESTHANDLER_H

#include "pipeline/SharedAnalysisCache.h"
#include "server/Protocol.h"
#include "support/Guard.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace padx {
namespace server {

struct ServerOptions {
  std::string SocketPath = "padd.sock";
  /// Worker threads; 0 = ThreadPool::defaultThreadCount().
  unsigned Threads = 0;
  /// Frame cap for the newline-delimited protocol (both directions are
  /// lines; only inbound is enforced here).
  size_t MaxFrameBytes = 4u << 20;
  /// Default per-request arena budget when the request names none.
  size_t RequestMemoryBudget = size_t(256) << 20;
  /// Default footprint / trace quotas (request fields override).
  ResourceLimits Limits;

  /// Admission control: cap on requests queued or running across all
  /// connections. Past it the server sheds with a structured
  /// `overloaded` error instead of queueing unboundedly. 0 = unlimited.
  size_t MaxQueueDepth = 512;
  /// Per-connection in-flight cap, so one pipelining client cannot
  /// monopolize the pool. Excess requests are shed the same way.
  /// 0 = unlimited.
  unsigned MaxConnInFlight = 64;
  /// Default drain deadline for SIGTERM / `shutdown {"mode":"drain"}`
  /// when the request does not name one.
  double DrainDeadlineMs = 5000;
};

/// Load/robustness counters owned by PaddServer and surfaced through
/// the stats and health ops. All fields are monotonic counters or
/// gauges updated with relaxed atomics — observability, not
/// synchronization.
struct ServerLoadStats {
  std::atomic<uint64_t> QueueDepth{0};     ///< Queued + running now.
  std::atomic<uint64_t> PeakQueueDepth{0};
  std::atomic<uint64_t> ShedQueueFull{0};  ///< Global-depth sheds.
  std::atomic<uint64_t> ShedConnCap{0};    ///< Per-connection sheds.
  std::atomic<uint64_t> ResponsesDropped{0}; ///< Writes to vanished peers.
  std::atomic<uint64_t> FramesTooLarge{0};
  std::atomic<uint64_t> ConnectionsOpen{0};
  std::atomic<uint64_t> ConnectionsTotal{0};
  /// EWMA of handler service time in microseconds; feeds the
  /// retry_after_ms hint.
  std::atomic<uint64_t> AvgServiceUs{0};
  std::atomic<bool> Draining{false};
};

class RequestHandler {
public:
  /// Error codes with a dedicated counter, in taxonomy order.
  static constexpr const char *kCountedCodes[] = {
      kErrParse,          kErrInvalidRequest,   kErrInvalidProgram,
      kErrResourceExhausted, kErrDeadlineExceeded, kErrFrameTooLarge,
      kErrOverloaded,     kErrInternal,
  };
  static constexpr unsigned kNumCountedCodes = 8;

  /// \p Shared and (if non-null) \p Cancel and \p Load must outlive the
  /// handler. \p Cancel is polled by in-flight searches — the server
  /// passes its stop flag. \p Load, when provided, is surfaced by the
  /// stats and health ops.
  RequestHandler(const ServerOptions &Opts,
                 pipeline::SharedAnalysisCache &Shared,
                 const std::atomic<bool> *Cancel = nullptr,
                 const ServerLoadStats *Load = nullptr)
      : Opts(Opts), Shared(Shared), Cancel(Cancel), Load(Load) {}

  /// Parses and executes one frame; returns the response line (no
  /// trailing newline). Never throws.
  std::string handleLine(std::string_view Line);

  /// Executes an already-parsed request. Never throws.
  std::string handle(const Request &R);

  /// True once a shutdown request was served; the socket layer watches
  /// this to stop the daemon.
  bool shutdownRequested() const {
    return Shutdown.load(std::memory_order_acquire);
  }
  /// True when the shutdown asked for mode=drain rather than an
  /// immediate stop.
  bool drainRequested() const {
    return DrainReq.load(std::memory_order_acquire);
  }
  /// The drain_ms the shutdown request named; 0 = use the server
  /// default.
  double requestedDrainMs() const {
    return DrainMs.load(std::memory_order_acquire);
  }

  uint64_t requestsServed() const {
    return Served.load(std::memory_order_relaxed);
  }
  uint64_t requestsFailed() const {
    return Failed.load(std::memory_order_relaxed);
  }
  /// Lattice-predictor nests the daemon could not score (silent-zero
  /// rows), accumulated across every program-carrying request whose
  /// pipeline computed a prediction. Surfaced by the stats op.
  uint64_t predictorUnscored() const {
    return PredUnscored.load(std::memory_order_relaxed);
  }

  /// Counts one error of \p Code in the per-code taxonomy counters.
  /// Public because the socket layer produces two codes itself
  /// (overloaded on shed, frame_too_large) and the taxonomy should
  /// count them all in one place.
  void noteError(std::string_view Code);
  uint64_t errorCount(std::string_view Code) const;

  const ServerOptions &options() const { return Opts; }
  pipeline::SharedAnalysisCache &sharedCache() { return Shared; }

private:
  std::string dispatch(const Request &R);
  /// errorResponse + noteError in one step; every handler-generated
  /// error goes through here.
  std::string countedError(int64_t Id, const char *Code,
                           const std::string &Message);

  ServerOptions Opts;
  pipeline::SharedAnalysisCache &Shared;
  const std::atomic<bool> *Cancel;
  const ServerLoadStats *Load;
  std::atomic<bool> Shutdown{false};
  std::atomic<bool> DrainReq{false};
  std::atomic<double> DrainMs{0};
  std::atomic<uint64_t> Served{0};
  std::atomic<uint64_t> Failed{0};
  std::atomic<uint64_t> PredUnscored{0};
  std::atomic<uint64_t> ErrorCounts[kNumCountedCodes] = {};
};

} // namespace server
} // namespace padx

#endif // PADX_SERVER_REQUESTHANDLER_H
