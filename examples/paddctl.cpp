//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// paddctl — command-line client for the padd daemon. Builds one
/// request per input file (or a single fileless request for ping /
/// stats / health / shutdown), runs them through server::Client — which
/// pipelines over one connection and transparently retries `overloaded`
/// sheds, reconnects after drops, and resends unanswered requests —
/// and prints each raw NDJSON response on its own line, in input
/// order. jq-friendly by construction.
///
/// Usage:
///   paddctl --socket PATH [options] [file.pad...]
/// Options:
///   --socket PATH     daemon socket (required)
///   --op OP           ping|pad|padlite|lint|search|stats|health|
///                     shutdown (default pad)
///   --format FMT      lint report format: text|json|sarif
///   --cache BYTES --line BYTES --assoc K   cache geometry
///   --machine M       multi-level machine preset or spec (sent as the
///                     request's "machine" field; overrides the cache
///                     geometry flags)
///   --weights W       per-level objective weights, e.g. l1=1,l2=8
///   --deadline-ms MS  per-request deadline
///   --budget N        search evaluation budget
///   --seed S          search seed
///   --memory-budget BYTES --max-footprint BYTES --max-accesses N
///                     per-request quotas
///   --no-emit         omit the transformed source from responses
///   --repeat N        send the file list N times (warm-cache demos)
///   --mode MODE       shutdown mode: now|drain
///   --drain-ms MS     drain deadline for --mode drain
///   --retries N       send attempts per request (default 12)
///   --timeout-ms MS   reconnect+resend after this long with no
///                     response (default 0 = wait forever)
///   --no-retry        one attempt, no overloaded backoff
///
/// Exit codes: 0 every response ok; 1 any response carried an error;
/// 2 usage error, the daemon was unreachable, or a request got no
/// reply within the retry budget.
///
//===----------------------------------------------------------------------===//

#include "server/Client.h"
#include "support/JsonWriter.h"
#include "support/ParseInteger.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace padx;

namespace {

enum ExitCode {
  ExitAllOk = 0,
  ExitRequestFailed = 1,
  ExitUsage = 2,
};

void usage() {
  std::fprintf(
      stderr,
      "usage: paddctl --socket PATH [--op OP] [--format FMT]\n"
      "               [--cache BYTES] [--line BYTES] [--assoc K]\n"
      "               [--machine PRESET|SPEC] [--weights l1=1,...]\n"
      "               [--deadline-ms MS] [--budget N]\n"
      "               [--seed S]\n"
      "               [--memory-budget BYTES] [--max-footprint BYTES]\n"
      "               [--max-accesses N] [--no-emit] [--repeat N]\n"
      "               [--mode now|drain] [--drain-ms MS]\n"
      "               [--retries N] [--timeout-ms MS] [--no-retry]\n"
      "               [file.pad...]\n"
      "ops: ping pad padlite lint search stats health shutdown\n"
      "exit codes: 0 all ok, 1 request failed, 2 usage/connect error\n");
}

bool opNeedsSource(const std::string &Op) {
  return Op == "pad" || Op == "padlite" || Op == "lint" ||
         Op == "search";
}

struct RequestParams {
  std::string Op = "pad";
  std::string Format;
  long long CacheBytes = 0, LineBytes = 0, Assoc = -1;
  std::string Machine, Weights;
  double DeadlineMs = 0;
  long long Budget = 0;
  std::optional<long long> Seed;
  long long MemoryBudget = 0, MaxFootprint = 0, MaxAccesses = 0;
  bool NoEmit = false;
  std::string ShutdownMode;
  double DrainMs = 0;
};

std::string buildRequest(int64_t Id, const RequestParams &P,
                         const std::string &Source,
                         const std::string &Filename) {
  std::ostringstream OS;
  support::JsonWriter JW(OS);
  JW.beginObject();
  JW.field("id", Id);
  JW.field("op", P.Op);
  if (opNeedsSource(P.Op)) {
    JW.field("source", Source);
    JW.field("filename", Filename);
  }
  if (P.CacheBytes > 0)
    JW.field("cache", static_cast<int64_t>(P.CacheBytes));
  if (P.LineBytes > 0)
    JW.field("line", static_cast<int64_t>(P.LineBytes));
  if (P.Assoc >= 0)
    JW.field("assoc", static_cast<int64_t>(P.Assoc));
  if (!P.Machine.empty())
    JW.field("machine", P.Machine);
  if (!P.Weights.empty())
    JW.field("weights", P.Weights);
  if (!P.Format.empty())
    JW.field("format", P.Format);
  if (P.DeadlineMs > 0)
    JW.field("deadline_ms", P.DeadlineMs);
  if (P.Budget > 0)
    JW.field("budget", static_cast<int64_t>(P.Budget));
  if (P.Seed)
    JW.field("seed", static_cast<int64_t>(*P.Seed));
  if (P.MemoryBudget > 0)
    JW.field("memory_budget", static_cast<int64_t>(P.MemoryBudget));
  if (P.MaxFootprint > 0)
    JW.field("max_footprint", static_cast<int64_t>(P.MaxFootprint));
  if (P.MaxAccesses > 0)
    JW.field("max_accesses", static_cast<int64_t>(P.MaxAccesses));
  if (P.NoEmit)
    JW.field("emit", false);
  if (!P.ShutdownMode.empty())
    JW.field("mode", P.ShutdownMode);
  if (P.DrainMs > 0)
    JW.field("drain_ms", P.DrainMs);
  JW.endObject();
  return OS.str();
}

} // namespace

int main(int argc, char **argv) {
  server::ClientOptions CO;
  CO.SocketPath.clear();
  CO.MaxAttempts = 12;
  RequestParams P;
  long long Repeat = 1;
  std::vector<std::string> Files;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc) {
        usage();
        std::exit(ExitUsage);
      }
      return argv[++I];
    };
    // The next argument as a whole decimal integer in [Min, Max].
    auto NextInt = [&]<typename T>(T Min, T Max) {
      return parseIntegerFlag(Arg, Next(), Min, Max, ExitUsage);
    };
    // The next argument as a whole finite number >= 0 (0 = unset).
    auto NextNumber = [&] {
      return parseNumberFlag(Arg, Next(), /*ZeroAllowed=*/true, ExitUsage);
    };
    // The ranges are the protocol's; a zero size or limit leaves the
    // field out of the request, so the daemon's default applies.
    constexpr long long I64Max = std::numeric_limits<long long>::max();
    constexpr long long IntMax = std::numeric_limits<int>::max();
    constexpr long long U32Max = std::numeric_limits<uint32_t>::max();
    if (Arg == "--socket")
      CO.SocketPath = Next();
    else if (Arg == "--op")
      P.Op = Next();
    else if (Arg == "--format")
      P.Format = Next();
    else if (Arg == "--cache")
      P.CacheBytes = NextInt(1LL, I64Max);
    else if (Arg == "--line")
      P.LineBytes = NextInt(1LL, I64Max);
    else if (Arg == "--assoc")
      P.Assoc = NextInt(0LL, IntMax);
    else if (Arg == "--machine")
      P.Machine = Next();
    else if (Arg == "--weights")
      P.Weights = Next();
    else if (Arg == "--deadline-ms")
      P.DeadlineMs = NextNumber();
    else if (Arg == "--budget")
      P.Budget = NextInt(1LL, U32Max);
    else if (Arg == "--seed")
      P.Seed = NextInt(std::numeric_limits<long long>::min(), I64Max);
    else if (Arg == "--memory-budget")
      P.MemoryBudget = NextInt(0LL, I64Max);
    else if (Arg == "--max-footprint")
      P.MaxFootprint = NextInt(0LL, I64Max);
    else if (Arg == "--max-accesses")
      P.MaxAccesses = NextInt(0LL, I64Max);
    else if (Arg == "--no-emit")
      P.NoEmit = true;
    else if (Arg == "--repeat")
      Repeat = NextInt(1LL, I64Max);
    else if (Arg == "--mode")
      P.ShutdownMode = Next();
    else if (Arg == "--drain-ms")
      P.DrainMs = NextNumber();
    else if (Arg == "--retries") {
      CO.MaxAttempts = NextInt(1u, std::numeric_limits<unsigned>::max());
    } else if (Arg == "--timeout-ms")
      CO.ResponseTimeoutMs = NextNumber();
    else if (Arg == "--no-retry") {
      CO.MaxAttempts = 1;
      CO.HonorRetryAfter = false;
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return ExitAllOk;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      usage();
      return ExitUsage;
    } else {
      Files.push_back(Arg);
    }
  }

  if (CO.SocketPath.empty() || Repeat < 1) {
    usage();
    return ExitUsage;
  }
  if (opNeedsSource(P.Op) && Files.empty()) {
    std::fprintf(stderr, "error: op '%s' needs at least one file\n",
                 P.Op.c_str());
    return ExitUsage;
  }

  // Build every request line up front; an unreadable file is a usage
  // error before anything touches the daemon.
  std::vector<std::string> Requests;
  int64_t Id = 0;
  if (opNeedsSource(P.Op)) {
    std::vector<std::pair<std::string, std::string>> Sources;
    for (const std::string &File : Files) {
      std::ifstream In(File);
      if (!In) {
        std::fprintf(stderr, "error: cannot open '%s'\n", File.c_str());
        return ExitUsage;
      }
      std::ostringstream Buf;
      Buf << In.rdbuf();
      Sources.emplace_back(File, Buf.str());
    }
    for (long long Round = 0; Round != Repeat; ++Round)
      for (const auto &[File, Source] : Sources)
        Requests.push_back(buildRequest(Id++, P, Source, File));
  } else {
    for (long long Round = 0; Round != Repeat; ++Round)
      Requests.push_back(buildRequest(Id++, P, "", ""));
  }

  server::Client Client(CO);
  std::vector<server::ClientReply> Replies;
  std::string Err;
  Client.run(Requests, Replies, &Err);
  if (Replies.empty()) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return ExitUsage;
  }

  // Print in input order (ids are sequential): stable for scripts even
  // though the daemon answered in completion order.
  bool AnyFailed = false, AnyUnanswered = false;
  for (const server::ClientReply &R : Replies) {
    if (R.Answered) {
      std::printf("%s\n", R.Line.c_str());
      if (!R.Ok)
        AnyFailed = true;
    } else {
      AnyUnanswered = true;
      std::fprintf(stderr, "error: request %lld got no reply: %s\n",
                   static_cast<long long>(R.Id),
                   R.TransportError.c_str());
    }
  }
  if (AnyUnanswered)
    return ExitUsage;
  return AnyFailed ? ExitRequestFailed : ExitAllOk;
}
