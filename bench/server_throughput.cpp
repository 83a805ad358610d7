//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the padd daemon end to end: an in-process PaddServer on a
/// private unix socket, N concurrent closed-loop clients each sending
/// request/response round trips over the wire, per-request latency
/// recorded client-side. Reports requests/second, p50/p99 latency and
/// the cross-request shared-cache hit rate (from the daemon's own stats
/// op), and can enforce both as CI guards: --guard sets a hit-rate
/// floor, --baseline compares p99 against a previously written
/// BENCH_server.json.
///
/// Usage: server_throughput [--clients N] [--requests N] [--op OP]
///                          [--budget N]
///                          [--json PATH] [--guard RATE]
///                          [--baseline PATH] [--p99-slack X]
///                          [--open-loop RPS] [--queue N] [--inflight N]
///                          [--p99-limit MS] [--min-shed N]
///                          [kernel...]
/// Default kernel set: the Figure 16/17 sweep kernels, round-robined
/// across requests so repeats hit warm analyses.
///
/// --op search exercises the daemon's candidate-search path: --budget
/// sets the per-request evaluation budget. The report and JSON gain the
/// evaluated-candidate total and candidates/sec — the daemon-side
/// search throughput.
///
/// --open-loop RPS switches to overload mode: senders offer requests at
/// a fixed aggregate rate regardless of completions (the honest way to
/// measure an overloaded server — a closed loop self-throttles and can
/// never overrun it). Every offered request must still get exactly one
/// reply: `ok` (accepted) or a structured `overloaded` shed. The report
/// adds shed rate and p99-of-accepted; --queue/--inflight set the
/// daemon's admission limits, --p99-limit bounds accepted-request p99
/// in ms (with --baseline, accepted p99 is guarded against the
/// closed-loop baseline's p99_ms x slack), and --min-shed asserts the
/// offered rate actually pushed the daemon into shedding.
///
/// Exit codes: 0 success; 1 usage error, hit rate below --guard, shed
/// count below --min-shed, or p99 past its bound; 2 a request failed,
/// got no reply, or a connection broke (a correctness bug, never
/// acceptable — overload must shed, not drop).
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "ir/Printer.h"
#include "server/Server.h"
#include "support/Json.h"
#include "support/JsonWriter.h"
#include "support/ParseInteger.h"
#include "support/Socket.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace padx;

namespace {

using Clock = std::chrono::steady_clock;

void usage() {
  std::fprintf(stderr,
               "usage: server_throughput [--clients N] [--requests N] "
               "[--op OP]\n"
               "                         [--budget N]\n"
               "                         [--json PATH] [--guard RATE]\n"
               "                         [--baseline PATH] "
               "[--p99-slack X]\n"
               "                         [--open-loop RPS] [--queue N] "
               "[--inflight N]\n"
               "                         [--p99-limit MS] [--min-shed N] "
               "[kernel...]\n");
  std::exit(1);
}

std::string quantile(std::vector<double> &Sorted, double Q,
                     double *Out) {
  if (Sorted.empty()) {
    *Out = 0;
    return "0";
  }
  size_t I = std::min(Sorted.size() - 1,
                      static_cast<size_t>(Q * Sorted.size()));
  *Out = Sorted[I];
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.3f", *Out);
  return Buf;
}

/// One closed-loop client: request, wait, record, repeat. Closed loops
/// measure honest per-request latency — the daemon is never asked for
/// more concurrency than the client count. Search replies additionally
/// feed the evaluated-candidate tally (result.exact_evaluations),
/// parsed after the latency stamp so client-side JSON work never
/// inflates the measurement.
void runClient(const std::string &SocketPath,
               const std::vector<std::string> &Frames, unsigned Requests,
               unsigned Offset, std::vector<double> &LatenciesMs,
               std::atomic<unsigned> &Errors, bool ParseSearch,
               uint64_t &Candidates) {
  std::string Err;
  support::FileDescriptor Fd = support::connectUnix(SocketPath, &Err);
  if (!Fd.valid()) {
    Errors.fetch_add(Requests);
    return;
  }
  support::LineReader Reader(Fd.get(), 64u << 20);
  std::string Line;
  LatenciesMs.reserve(Requests);
  for (unsigned I = 0; I != Requests; ++I) {
    const std::string &Frame = Frames[(Offset + I) % Frames.size()];
    auto Start = Clock::now();
    if (!support::sendAll(Fd.get(), Frame, &Err) ||
        Reader.readLine(Line, &Err) !=
            support::LineReader::Status::Line) {
      Errors.fetch_add(1);
      return;
    }
    LatenciesMs.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - Start)
            .count());
    if (Line.find("\"ok\":true") == std::string::npos) {
      Errors.fetch_add(1);
    } else if (ParseSearch) {
      std::optional<support::JsonValue> Doc = support::parseJson(Line);
      const support::JsonValue *Res =
          Doc && Doc->isObject() ? Doc->find("result") : nullptr;
      if (Res && Res->isObject())
        Candidates +=
            static_cast<uint64_t>(Res->getInt("exact_evaluations", 0));
    }
  }
}

/// Per-connection tally for the open-loop mode. A sender thread paces
/// frames onto the socket without waiting; a receiver thread matches
/// replies by id. Send timestamps are atomics because the receiver
/// reads slot I only after the server echoed id I, which the C++
/// memory model does not know is "after" the sender's store.
struct OpenLoopClient {
  std::vector<std::string> Frames;
  std::vector<std::atomic<int64_t>> SendNs;
  std::vector<double> AcceptedMs;
  unsigned Accepted = 0;
  uint64_t Candidates = 0; ///< Search only: sum of exact_evaluations.
  unsigned Shed = 0;
  unsigned OtherErrors = 0;
  unsigned Unanswered = 0;
  bool ConnectionDropped = false;
};

/// Offers frames at a fixed interval, deaf to completions: the defining
/// property of an open loop. Sleeps against an absolute schedule so a
/// slow send() does not silently lower the offered rate.
void openLoopSender(int Fd, OpenLoopClient &C, double IntervalNs,
                    Clock::time_point Epoch) {
  std::string Err;
  for (size_t I = 0; I != C.Frames.size(); ++I) {
    auto Due =
        Epoch + std::chrono::nanoseconds(
                    static_cast<int64_t>(IntervalNs * static_cast<double>(I)));
    std::this_thread::sleep_until(Due);
    C.SendNs[I].store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - Epoch)
                          .count(),
                      std::memory_order_release);
    if (!support::sendAll(Fd, C.Frames[I], &Err)) {
      C.ConnectionDropped = true;
      return;
    }
  }
}

/// Collects exactly one reply per offered frame and classifies it:
/// accepted (`ok`), shed (structured `overloaded`), or other. Replies
/// may arrive out of order (the pool races), so matching is by id.
void openLoopReceiver(int Fd, OpenLoopClient &C,
                      Clock::time_point Epoch) {
  support::LineReader Reader(Fd, 64u << 20);
  std::string Line, Err;
  size_t Expected = C.Frames.size();
  C.AcceptedMs.reserve(Expected);
  for (size_t N = 0; N != Expected; ++N) {
    if (Reader.readLine(Line, &Err) !=
        support::LineReader::Status::Line) {
      C.ConnectionDropped = true;
      C.Unanswered = static_cast<unsigned>(Expected - N);
      return;
    }
    int64_t NowNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - Epoch)
                        .count();
    std::optional<support::JsonValue> Doc = support::parseJson(Line);
    int64_t Id = Doc && Doc->isObject() ? Doc->getInt("id", -1) : -1;
    if (Id < 0 || static_cast<size_t>(Id) >= Expected) {
      ++C.OtherErrors;
      continue;
    }
    if (Doc->getBool("ok", false)) {
      ++C.Accepted;
      C.AcceptedMs.push_back(
          static_cast<double>(NowNs -
                              C.SendNs[static_cast<size_t>(Id)].load(
                                  std::memory_order_acquire)) /
          1e6);
      if (const support::JsonValue *Res = Doc->find("result");
          Res && Res->isObject())
        C.Candidates +=
            static_cast<uint64_t>(Res->getInt("exact_evaluations", 0));
      continue;
    }
    const support::JsonValue *E = Doc->find("error");
    if (E && E->getString("code", "") == "overloaded")
      ++C.Shed;
    else
      ++C.OtherErrors;
  }
}

/// The overload harness: Clients connections, each with a sender pacing
/// at OfferedRps/Clients and a receiver collecting one reply per frame.
/// The invariant under test is the daemon's overload contract — every
/// offered request gets exactly one reply, `ok` or a structured shed,
/// and never a dropped connection.
int runOpenLoop(server::PaddServer &Srv,
                const std::function<std::string(int64_t, size_t)> &MakeFrame,
                const std::vector<std::string> &Names,
                const std::string &OpName, unsigned Clients,
                unsigned Requests, double OfferedRps,
                const std::string &JsonPath,
                const std::string &BaselinePath, double P99Slack,
                double P99LimitMs, int64_t MinShed) {
  std::vector<OpenLoopClient> Cs(Clients);
  std::vector<support::FileDescriptor> Fds(Clients);
  for (unsigned C = 0; C != Clients; ++C) {
    Cs[C].Frames.reserve(Requests);
    for (unsigned I = 0; I != Requests; ++I)
      Cs[C].Frames.push_back(MakeFrame(
          static_cast<int64_t>(I), (C * Requests + I) % Names.size()));
    Cs[C].SendNs = std::vector<std::atomic<int64_t>>(Requests);
    std::string Err;
    Fds[C] = support::connectUnix(Srv.options().SocketPath, &Err);
    if (!Fds[C].valid()) {
      std::fprintf(stderr, "error: connect failed: %s\n", Err.c_str());
      return 2;
    }
  }

  double IntervalNs = 1e9 * static_cast<double>(Clients) / OfferedRps;
  auto Epoch = Clock::now();
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != Clients; ++C) {
    // Phase-shift each sender by C/OfferedRps so the aggregate stream
    // is evenly spaced, not Clients-sized bursts.
    auto MyEpoch =
        Epoch + std::chrono::nanoseconds(
                    static_cast<int64_t>(IntervalNs * C / Clients));
    Threads.emplace_back([&, C, MyEpoch] {
      openLoopSender(Fds[C].get(), Cs[C], IntervalNs, MyEpoch);
    });
    Threads.emplace_back(
        [&, C] { openLoopReceiver(Fds[C].get(), Cs[C], Epoch); });
  }
  for (std::thread &T : Threads)
    T.join();
  double Secs =
      std::chrono::duration<double>(Clock::now() - Epoch).count();

  const server::ServerLoadStats &Load = Srv.loadStats();
  uint64_t SrvShedQueue = Load.ShedQueueFull.load();
  uint64_t SrvShedConn = Load.ShedConnCap.load();
  uint64_t SrvDropped = Load.ResponsesDropped.load();
  pipeline::SharedCacheStats Cache = Srv.sharedCache().snapshot();
  Srv.stop();

  uint64_t Accepted = 0, Shed = 0, Other = 0, Unanswered = 0;
  uint64_t Candidates = 0;
  bool Dropped = false;
  std::vector<double> AcceptedMs;
  for (const OpenLoopClient &C : Cs) {
    Accepted += C.Accepted;
    Candidates += C.Candidates;
    Shed += C.Shed;
    Other += C.OtherErrors;
    Unanswered += C.Unanswered;
    Dropped = Dropped || C.ConnectionDropped;
    AcceptedMs.insert(AcceptedMs.end(), C.AcceptedMs.begin(),
                      C.AcceptedMs.end());
  }
  std::sort(AcceptedMs.begin(), AcceptedMs.end());
  uint64_t Offered = static_cast<uint64_t>(Clients) * Requests;
  double ShedRate =
      Offered ? static_cast<double>(Shed) / static_cast<double>(Offered)
              : 0;
  double P50 = 0, P99 = 0;
  quantile(AcceptedMs, 0.50, &P50);
  quantile(AcceptedMs, 0.99, &P99);

  std::printf("server overload: op=%s, open loop at %.0f req/s "
              "(%u clients x %u requests over %zu kernels)\n\n",
              OpName.c_str(), OfferedRps, Clients, Requests,
              Names.size());
  TableFormatter T({"Metric", "Value"});
  T.beginRow();
  T.cell("offered requests");
  T.cell(static_cast<int64_t>(Offered));
  T.beginRow();
  T.cell("offered rate (req/s)");
  T.cell(OfferedRps, 1);
  T.beginRow();
  T.cell("wall seconds");
  T.cell(Secs, 3);
  T.beginRow();
  T.cell("accepted (ok)");
  T.cell(static_cast<int64_t>(Accepted));
  T.beginRow();
  T.cell("shed (overloaded)");
  T.cell(static_cast<int64_t>(Shed));
  T.beginRow();
  T.cell("shed rate");
  T.cell(ShedRate, 3);
  T.beginRow();
  T.cell("p50 accepted (ms)");
  T.cell(P50, 3);
  T.beginRow();
  T.cell("p99 accepted (ms)");
  T.cell(P99, 3);
  T.beginRow();
  T.cell("server sheds (queue/conn)");
  T.cell(std::to_string(SrvShedQueue) + "/" +
         std::to_string(SrvShedConn));
  if (OpName == "search") {
    T.beginRow();
    T.cell("candidates evaluated");
    T.cell(static_cast<int64_t>(Candidates));
    T.beginRow();
    T.cell("candidates/sec");
    T.cell(Secs > 0 ? static_cast<double>(Candidates) / Secs : 0, 1);
  }
  bench::printTable(T);

  if (!JsonPath.empty()) {
    std::ofstream OS(JsonPath);
    if (!OS) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   JsonPath.c_str());
      return 1;
    }
    support::JsonWriter J(OS);
    J.beginObject();
    J.field("bench", "server_throughput");
    J.field("mode", "open_loop");
    J.field("op", OpName);
    J.field("clients", static_cast<int64_t>(Clients));
    J.field("requests_per_client", static_cast<int64_t>(Requests));
    J.field("offered_rps", OfferedRps);
    J.field("total_requests", Offered);
    J.field("seconds", Secs);
    J.field("accepted", Accepted);
    J.field("shed", Shed);
    J.field("shed_rate", ShedRate);
    J.field("errors", Other + Unanswered);
    J.field("p50_accepted_ms", P50);
    J.field("p99_accepted_ms", P99);
    J.field("server_shed_queue_full", SrvShedQueue);
    J.field("server_shed_conn_cap", SrvShedConn);
    J.field("server_responses_dropped", SrvDropped);
    J.field("shared_cache_hit_rate", Cache.hitRate());
    if (OpName == "search") {
      J.field("candidates", Candidates);
      J.field("candidates_per_second",
              Secs > 0 ? static_cast<double>(Candidates) / Secs : 0);
    }
    J.endObject();
    OS << '\n';
    std::printf("\njson summary written to %s\n", JsonPath.c_str());
  }

  // Correctness first: overload must shed, never break the contract.
  if (Dropped || Other != 0 || Unanswered != 0 ||
      Accepted + Shed != Offered) {
    std::fprintf(stderr,
                 "error: overload contract broken: %llu offered, %llu "
                 "accepted, %llu shed, %llu other errors, %llu "
                 "unanswered%s\n",
                 static_cast<unsigned long long>(Offered),
                 static_cast<unsigned long long>(Accepted),
                 static_cast<unsigned long long>(Shed),
                 static_cast<unsigned long long>(Other),
                 static_cast<unsigned long long>(Unanswered),
                 Dropped ? ", connection dropped" : "");
    return 2;
  }
  if (MinShed > 0 && Shed < static_cast<uint64_t>(MinShed)) {
    std::fprintf(stderr,
                 "error: only %llu sheds (expected >= %lld): the "
                 "offered rate did not overload the daemon\n",
                 static_cast<unsigned long long>(Shed),
                 static_cast<long long>(MinShed));
    return 1;
  }
  if (P99LimitMs > 0 && P99 > P99LimitMs) {
    std::fprintf(stderr,
                 "error: accepted-request p99 %.3f ms past the %.3f ms "
                 "limit\n",
                 P99, P99LimitMs);
    return 1;
  }
  if (!BaselinePath.empty()) {
    std::ifstream In(BaselinePath);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    std::optional<support::JsonValue> B = support::parseJson(Buf.str());
    if (!In || !B || !B->isObject()) {
      std::fprintf(stderr, "error: cannot parse baseline '%s'\n",
                   BaselinePath.c_str());
      return 1;
    }
    double BaseP99 = B->getDouble("p99_ms", 0);
    if (BaseP99 > 0 && P99 > BaseP99 * P99Slack) {
      std::fprintf(stderr,
                   "error: accepted p99 %.3f ms past the closed-loop "
                   "baseline %.3f ms x %.1f slack\n",
                   P99, BaseP99, P99Slack);
      return 1;
    }
    std::printf("accepted p99 %.3f ms within baseline %.3f ms x %.1f "
                "slack\n",
                P99, BaseP99, P99Slack);
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  unsigned Clients = 4;
  unsigned Requests = 64;
  std::string OpName = "padlite";
  std::string JsonPath, BaselinePath;
  double Guard = 0;
  double P99Slack = 5.0;
  double OpenLoopRps = 0;
  double P99LimitMs = 0;
  int64_t Queue = -1, Inflight = -1, MinShed = 0;
  int64_t Budget = 0; // search op; 0 = omit.
  std::vector<std::string> Selected;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc)
        usage();
      return argv[++I];
    };
    // The next argument as a whole decimal integer in [Min, Max], or a
    // finite number > 0.
    auto NextInt = [&]<typename T>(T Min, T Max) {
      return parseIntegerFlag(Arg, Next(), Min, Max, 1);
    };
    auto NextPositive = [&] {
      return parseNumberFlag(Arg, Next(), /*ZeroAllowed=*/false, 1);
    };
    constexpr unsigned UMax = std::numeric_limits<unsigned>::max();
    constexpr int64_t I64Max = std::numeric_limits<int64_t>::max();
    if (Arg == "--clients")
      Clients = NextInt(1u, UMax);
    else if (Arg == "--requests")
      Requests = NextInt(1u, UMax);
    else if (Arg == "--op")
      OpName = Next();
    else if (Arg == "--budget")
      Budget = NextInt(int64_t(1), int64_t(UMax));
    else if (Arg == "--json")
      JsonPath = Next();
    else if (Arg == "--guard")
      Guard = NextPositive();
    else if (Arg == "--baseline")
      BaselinePath = Next();
    else if (Arg == "--p99-slack")
      P99Slack = NextPositive();
    else if (Arg == "--open-loop")
      OpenLoopRps = NextPositive();
    else if (Arg == "--queue")
      Queue = NextInt(int64_t(0), I64Max);
    else if (Arg == "--inflight")
      Inflight = NextInt(int64_t(0), I64Max);
    else if (Arg == "--p99-limit")
      P99LimitMs = NextPositive();
    else if (Arg == "--min-shed")
      MinShed = NextInt(int64_t(0), I64Max);
    else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return 1;
    } else
      Selected.push_back(Arg);
  }
  if (OpName != "pad" && OpName != "padlite" && OpName != "lint" &&
      OpName != "search" && OpName != "ping") {
    std::fprintf(stderr, "error: unsupported op '%s'\n", OpName.c_str());
    return 1;
  }

  std::vector<std::string> Names =
      Selected.empty() ? bench::sweepKernels() : Selected;

  std::vector<std::string> Sources;
  for (const std::string &Name : Names) {
    if (!kernels::findKernel(Name)) {
      std::fprintf(stderr, "error: unknown kernel '%s'\n", Name.c_str());
      return 1;
    }
    Sources.push_back(ir::programToString(kernels::makeKernel(Name)));
  }
  auto makeFrame = [&](int64_t Id, size_t Kernel) {
    std::ostringstream OS;
    support::JsonWriter JW(OS);
    JW.beginObject();
    JW.field("id", Id);
    JW.field("op", OpName);
    if (OpName != "ping") {
      JW.field("source", Sources[Kernel]);
      JW.field("filename", Names[Kernel] + ".pad");
      JW.field("emit", false);
    }
    if (OpName == "search" && Budget > 0)
      JW.field("budget", Budget);
    JW.endObject();
    return OS.str() + "\n";
  };

  // Pre-render one frame per kernel; clients round-robin through them,
  // so after the first lap every analysis is a shared-cache hit.
  std::vector<std::string> Frames;
  for (size_t K = 0; K != Names.size(); ++K)
    Frames.push_back(makeFrame(static_cast<int64_t>(K), K));

  char SockBuf[96];
  std::snprintf(SockBuf, sizeof(SockBuf),
                "/tmp/padx_bench_%ld.sock", static_cast<long>(::getpid()));
  server::ServerOptions Opts;
  Opts.SocketPath = SockBuf;
  if (Queue >= 0)
    Opts.MaxQueueDepth = static_cast<uint64_t>(Queue);
  if (Inflight >= 0)
    Opts.MaxConnInFlight = static_cast<uint64_t>(Inflight);
  server::PaddServer Srv(std::move(Opts));
  std::string Err;
  if (!Srv.start(&Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }

  if (OpenLoopRps > 0)
    return runOpenLoop(Srv, makeFrame, Names, OpName, Clients, Requests,
                       OpenLoopRps, JsonPath, BaselinePath, P99Slack,
                       P99LimitMs, MinShed);

  std::vector<std::vector<double>> PerClient(Clients);
  std::vector<uint64_t> PerClientCandidates(Clients, 0);
  std::atomic<unsigned> Errors{0};
  const bool IsSearch = OpName == "search";
  auto Start = Clock::now();
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != Clients; ++C)
    Threads.emplace_back([&, C] {
      runClient(Srv.options().SocketPath, Frames, Requests,
                C * Requests, PerClient[C], Errors, IsSearch,
                PerClientCandidates[C]);
    });
  for (std::thread &T : Threads)
    T.join();
  double Secs =
      std::chrono::duration<double>(Clock::now() - Start).count();

  pipeline::SharedCacheStats S = Srv.sharedCache().snapshot();
  Srv.stop();

  std::vector<double> All;
  for (const std::vector<double> &L : PerClient)
    All.insert(All.end(), L.begin(), L.end());
  std::sort(All.begin(), All.end());

  uint64_t Total = All.size();
  double Rps = Secs > 0 ? static_cast<double>(Total) / Secs : 0;
  uint64_t Candidates = 0;
  for (unsigned C = 0; C != Clients; ++C)
    Candidates += PerClientCandidates[C];
  double CandPerSec =
      Secs > 0 ? static_cast<double>(Candidates) / Secs : 0;
  double P50 = 0, P99 = 0;
  quantile(All, 0.50, &P50);
  quantile(All, 0.99, &P99);
  double HitRate = S.hitRate();

  std::printf("server throughput: op=%s, %u clients x %u requests over "
              "%zu kernels\n\n",
              OpName.c_str(), Clients, Requests, Names.size());
  TableFormatter T({"Metric", "Value"});
  T.beginRow();
  T.cell("requests completed");
  T.cell(static_cast<int64_t>(Total));
  T.beginRow();
  T.cell("wall seconds");
  T.cell(Secs, 3);
  T.beginRow();
  T.cell("requests/sec");
  T.cell(Rps, 1);
  T.beginRow();
  T.cell("p50 latency (ms)");
  T.cell(P50, 3);
  T.beginRow();
  T.cell("p99 latency (ms)");
  T.cell(P99, 3);
  T.beginRow();
  T.cell("shared-cache hit rate");
  T.cell(HitRate, 3);
  if (IsSearch) {
    T.beginRow();
    T.cell("candidates evaluated");
    T.cell(static_cast<int64_t>(Candidates));
    T.beginRow();
    T.cell("candidates/sec");
    T.cell(CandPerSec, 1);
  }
  bench::printTable(T);

  if (!JsonPath.empty()) {
    std::ofstream OS(JsonPath);
    if (!OS) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   JsonPath.c_str());
      return 1;
    }
    support::JsonWriter J(OS);
    J.beginObject();
    J.field("bench", "server_throughput");
    J.field("op", OpName);
    J.field("clients", static_cast<int64_t>(Clients));
    J.field("requests_per_client", static_cast<int64_t>(Requests));
    J.field("total_requests", Total);
    J.field("seconds", Secs);
    J.field("requests_per_second", Rps);
    J.field("p50_ms", P50);
    J.field("p99_ms", P99);
    J.field("shared_cache_hit_rate", HitRate);
    J.field("shared_cache_hits", S.totalHits());
    J.field("shared_cache_misses", S.totalMisses());
    if (IsSearch) {
      J.field("candidates", Candidates);
      J.field("candidates_per_second", CandPerSec);
    }
    J.field("errors", static_cast<uint64_t>(Errors.load()));
    J.endObject();

    OS << '\n';
    std::printf("\njson summary written to %s\n", JsonPath.c_str());
  }

  if (Errors.load() != 0) {
    std::fprintf(stderr, "error: %u requests failed\n", Errors.load());
    return 2;
  }
  if (Guard > 0 && HitRate < Guard) {
    std::fprintf(stderr,
                 "error: shared-cache hit rate %.3f below the %.3f "
                 "guard\n",
                 HitRate, Guard);
    return 1;
  }
  if (!BaselinePath.empty()) {
    std::ifstream In(BaselinePath);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    std::optional<support::JsonValue> B = support::parseJson(Buf.str());
    if (!In || !B || !B->isObject()) {
      std::fprintf(stderr, "error: cannot parse baseline '%s'\n",
                   BaselinePath.c_str());
      return 1;
    }
    double BaseP99 = B->getDouble("p99_ms", 0);
    if (BaseP99 > 0 && P99 > BaseP99 * P99Slack) {
      std::fprintf(stderr,
                   "error: p99 %.3f ms regressed past baseline "
                   "%.3f ms x %.1f slack\n",
                   P99, BaseP99, P99Slack);
      return 1;
    }
    std::printf("p99 %.3f ms within baseline %.3f ms x %.1f slack\n",
                P99, BaseP99, P99Slack);
  }
  return 0;
}
