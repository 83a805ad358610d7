//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The chaos sweep: the full fuzz corpus driven through a live padd
/// server by the retrying client while seeded faults fire in the
/// arena and socket layers — short writes, torn reads, spurious
/// EINTR/EAGAIN, hard connection errors, injected allocation failures
/// and refused connects. The invariants under fire:
///
///  - no crash and no hang (a watchdog aborts the test if the sweep
///    wedges);
///  - every request ends in exactly one final outcome: a structured
///    response or a clean transport error after the retry budget;
///  - a successful response carries a bit-identical payload to the
///    fault-free run (modulo the nondeterministic "stats" timings);
///  - a failed response carries a code from the documented taxonomy.
///
/// The fault seed comes from PADX_FAULT_SEED (default 1) and is logged
/// on entry, so any failure replays exactly: same seed, same faults.
/// ci.sh runs this suite under ASan and TSan with three fixed seeds;
/// tier-1 runs it at the default seed.
///
//===----------------------------------------------------------------------===//

#include "server/Client.h"

#include "pipeline/SharedAnalysisCache.h"
#include "server/RequestHandler.h"
#include "server/Server.h"
#include "support/FaultInjection.h"
#include "support/Json.h"
#include "support/JsonWriter.h"

#include "gtest/gtest.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace padx;
using namespace padx::server;

namespace {

/// Aborts the process if the test wedges: a hang under injected faults
/// must fail loudly, not eat the CI timeout.
class Watchdog {
public:
  explicit Watchdog(int Seconds)
      : Thread([this, Seconds] {
          std::unique_lock<std::mutex> L(M);
          if (!Cv.wait_for(L, std::chrono::seconds(Seconds),
                           [this] { return Disarmed; })) {
            std::fprintf(stderr,
                         "ChaosTest watchdog: no progress in %d s — "
                         "aborting\n",
                         Seconds);
            std::abort();
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> L(M);
      Disarmed = true;
    }
    Cv.notify_all();
    Thread.join();
  }

private:
  std::mutex M;
  std::condition_variable Cv;
  bool Disarmed = false;
  std::thread Thread;
};

std::string uniqueSocketPath() {
  static std::atomic<unsigned> Counter{0};
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "/tmp/padx_chaos_%ld_%u.sock",
                static_cast<long>(::getpid()), Counter.fetch_add(1));
  return Buf;
}

std::uint64_t chaosSeed() {
  if (const char *S = std::getenv("PADX_FAULT_SEED"))
    return std::strtoull(S, nullptr, 10);
  return 1;
}

std::vector<std::filesystem::path> corpusFiles() {
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry :
       std::filesystem::directory_iterator(PADX_CORPUS_DIR))
    if (Entry.path().extension() == ".pad")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  EXPECT_FALSE(Files.empty()) << "corpus missing at " PADX_CORPUS_DIR;
  return Files;
}

std::string slurp(const std::filesystem::path &File) {
  std::ifstream In(File);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

std::string buildFrame(int64_t Id, const std::string &Op,
                       const std::string &Source,
                       const std::string &Filename) {
  std::ostringstream OS;
  support::JsonWriter JW(OS);
  JW.beginObject();
  JW.field("id", Id);
  JW.field("op", Op);
  JW.field("source", Source);
  JW.field("filename", Filename);
  JW.endObject();
  return OS.str();
}

/// Drops the trailing "stats" member (per-request pipeline timings,
/// nondeterministic by nature); everything through "result" is
/// deterministic, which is what bit-identity means here.
std::string stripStats(const std::string &Response) {
  size_t Pos = Response.rfind(",\"stats\":");
  if (Pos == std::string::npos)
    return Response;
  return Response.substr(0, Pos) + "}";
}

bool isTaxonomyCode(const std::string &Code) {
  for (const char *Known : RequestHandler::kCountedCodes)
    if (Code == Known)
      return true;
  return false;
}

} // namespace

TEST(Chaos, CorpusSweepUnderInjectedFaults) {
  const std::uint64_t Seed = chaosSeed();
  std::printf("ChaosTest: PADX_FAULT_SEED=%llu (replay failures with "
              "this seed)\n",
              static_cast<unsigned long long>(Seed));
  Watchdog Dog(/*Seconds=*/240);

  // Fault-free expected responses first: one handler, same options the
  // server will use, stats stripped.
  std::vector<std::filesystem::path> Files = corpusFiles();
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.Threads = 2;

  std::vector<std::string> Frames;
  std::vector<std::string> Expected;
  {
    pipeline::SharedAnalysisCache Shared;
    RequestHandler H(Opts, Shared);
    int64_t Id = 0;
    for (const char *Op : {"pad", "lint"}) {
      for (const auto &File : Files) {
        std::string Frame =
            buildFrame(Id++, Op, slurp(File), File.filename().string());
        Expected.push_back(stripStats(H.handleLine(Frame)));
        Frames.push_back(std::move(Frame));
      }
    }
  }

  // Arm the faults before the server starts; every site is in play.
  // arena_alloc is per-allocation (thousands per request), so its rate
  // sits far below the transport sites'.
  support::fault::Config C;
  C.Seed = Seed;
  ASSERT_TRUE(C.parseSpec("send_short=0.10,send_eintr=0.10,"
                          "recv_short=0.10,recv_eintr=0.10,"
                          "recv_eagain=0.10,send_error=0.05,"
                          "recv_error=0.05,connect_error=0.25,"
                          "arena_alloc=0.0005"));
  support::fault::ScopedFaultConfig Scope(C);

  unsigned AnsweredOk = 0, AnsweredError = 0, Transport = 0;
  {
    PaddServer Srv(Opts);
    std::string Err;
    ASSERT_TRUE(Srv.start(&Err)) << Err;

    ClientOptions CO;
    CO.SocketPath = Opts.SocketPath;
    CO.JitterSeed = Seed;
    CO.MaxAttempts = 10;
    CO.MaxConnectAttempts = 10;
    CO.BaseBackoffMs = 1;
    CO.MaxBackoffMs = 50;
    // Injected send_error can eat a response on the server side; the
    // response timeout is what turns that into a resend instead of a
    // hang.
    CO.ResponseTimeoutMs = 2000;
    Client Cli(CO);
    std::vector<ClientReply> Replies;
    Cli.run(Frames, Replies, &Err);
    ASSERT_EQ(Replies.size(), Frames.size());

    for (size_t I = 0; I != Replies.size(); ++I) {
      const ClientReply &R = Replies[I];
      SCOPED_TRACE("request " + std::to_string(I) + " (seed " +
                   std::to_string(Seed) + ")");
      if (!R.Answered) {
        // Exactly-one-outcome, branch two: a clean transport error
        // with a reason — never an empty or duplicated outcome.
        EXPECT_FALSE(R.TransportError.empty());
        ++Transport;
        continue;
      }
      std::optional<support::JsonValue> Doc = support::parseJson(R.Line);
      ASSERT_TRUE(Doc.has_value()) << "unparseable reply: " << R.Line;
      EXPECT_EQ(Doc->getInt("id", -1), R.Id);
      if (R.Ok) {
        // Bit-identical to the fault-free run: injected socket chaos
        // must never corrupt a payload.
        EXPECT_EQ(stripStats(R.Line), Expected[I]);
        ++AnsweredOk;
      } else {
        const support::JsonValue *E = Doc->find("error");
        ASSERT_NE(E, nullptr) << R.Line;
        std::string Code = E->getString("code", "");
        EXPECT_TRUE(isTaxonomyCode(Code))
            << "undocumented error code: " << Code;
        ++AnsweredError;
      }
    }

    std::printf("ChaosTest: %u ok, %u structured errors, %u transport "
                "errors; client retries=%llu reconnects=%llu "
                "unexpected=%llu\n",
                AnsweredOk, AnsweredError, Transport,
                static_cast<unsigned long long>(Cli.retries()),
                static_cast<unsigned long long>(Cli.reconnects()),
                static_cast<unsigned long long>(Cli.unexpectedResponses()));
    for (unsigned I = 0; I != support::fault::kNumSites; ++I) {
      auto S = static_cast<support::fault::Site>(I);
      if (support::fault::occurrences(S))
        std::printf("ChaosTest:   %s fired %llu / %llu\n",
                    support::fault::siteName(S),
                    static_cast<unsigned long long>(
                        support::fault::fired(S)),
                    static_cast<unsigned long long>(
                        support::fault::occurrences(S)));
    }
    Srv.stop();
  }

  // The sweep must not degenerate into all-transport-failures: the
  // retry machinery has to push most requests through the chaos.
  EXPECT_GT(AnsweredOk, Frames.size() / 2)
      << "seed " << Seed << ": too few successes under fault injection";
}

TEST(Chaos, DrainUnderInjectedFaultsAnswersEverything) {
  const std::uint64_t Seed = chaosSeed();
  Watchdog Dog(/*Seconds=*/120);

  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.Threads = 2;

  support::fault::Config C;
  C.Seed = Seed;
  // Transport-only chaos here: this test pins the drain contract
  // (every accepted request answered), which injected handler faults
  // would not change but injected connect failures would slow down.
  ASSERT_TRUE(C.parseSpec("send_short=0.05,send_eintr=0.05,"
                          "recv_short=0.05,recv_eintr=0.05"));
  support::fault::ScopedFaultConfig Scope(C);

  PaddServer Srv(Opts);
  std::string Err;
  ASSERT_TRUE(Srv.start(&Err)) << Err;

  // A pipelined batch in flight, then a drain racing the responses:
  // the client must still collect every reply.
  const char *Program = "program p\n"
                        "array A : real[64, 64]\n"
                        "array B : real[64, 64]\n"
                        "loop i = 1, 62 {\n"
                        "  loop j = 1, 62 {\n"
                        "    A[j, i] = B[j, i] + B[j+1, i+1]\n"
                        "  }\n"
                        "}\n";
  std::vector<std::string> Frames;
  for (int64_t I = 0; I != 12; ++I)
    Frames.push_back(buildFrame(I, I % 2 ? "lint" : "pad", Program,
                                "chaos.pad"));

  std::vector<ClientReply> Replies;
  ClientOptions CO;
  CO.SocketPath = Opts.SocketPath;
  CO.JitterSeed = Seed;
  CO.ResponseTimeoutMs = 5000;
  std::thread ClientThread([&] {
    Client Cli(CO);
    Cli.run(Frames, Replies, nullptr);
  });
  std::thread Drainer([&] {
    // Drain only once the client is actually connected; draining
    // before the connect would just refuse it at the socket.
    while (Srv.loadStats().ConnectionsTotal.load() == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    Srv.drain(/*DeadlineMs=*/10000);
  });
  ClientThread.join();
  Drainer.join();
  Srv.stop();

  ASSERT_EQ(Replies.size(), Frames.size());
  for (size_t I = 0; I != Replies.size(); ++I) {
    SCOPED_TRACE("request " + std::to_string(I) + " (seed " +
                 std::to_string(Seed) + ")");
    EXPECT_TRUE(Replies[I].Answered)
        << "lost during drain: " << Replies[I].TransportError;
    EXPECT_TRUE(Replies[I].Ok) << Replies[I].Line;
  }
}
