//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "server/Client.h"

#include "server/Protocol.h"
#include "support/Json.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>
#include <unordered_map>

using namespace padx;
using namespace padx::server;

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t splitmix64(std::uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

} // namespace

std::uint64_t Client::nextRand() {
  if (!RngSeeded) {
    RngState = Opts.JitterSeed;
    RngSeeded = true;
  }
  RngState = splitmix64(RngState);
  return RngState;
}

double Client::backoffMs(unsigned Attempt) {
  double Cap = std::min(Opts.MaxBackoffMs,
                        Opts.BaseBackoffMs *
                            std::pow(2.0, std::min(Attempt, 20u)));
  if (Cap <= 0)
    return 0;
  // Full jitter: uniform in [0, Cap). Retrying clients decorrelate
  // instead of re-colliding in lockstep.
  double U = static_cast<double>(nextRand() >> 11) * 0x1.0p-53;
  return U * Cap;
}

bool Client::ensureConnected(std::string *Error) {
  if (Fd.valid())
    return true;
  support::FileDescriptor NF = support::connectUnix(Opts.SocketPath, Error);
  if (!NF.valid())
    return false;
  Fd = std::move(NF);
  Reader =
      std::make_unique<support::LineReader>(Fd.get(), Opts.MaxResponseBytes);
  return true;
}

void Client::dropConnection() {
  Reader.reset();
  Fd.close();
  ++Reconnects;
}

bool Client::run(const std::vector<std::string> &Frames,
                 std::vector<ClientReply> &Replies, std::string *Error) {
  const size_t N = Frames.size();
  Replies.clear();

  // Validate ids up front: they are the retry/idempotency key, so a
  // frame without one (or a duplicate) cannot be retried safely —
  // fail fast with no I/O.
  std::unordered_map<int64_t, size_t> ById;
  std::vector<int64_t> Ids(N, -1);
  for (size_t I = 0; I < N; ++I) {
    std::optional<support::JsonValue> Doc = support::parseJson(Frames[I]);
    int64_t Id = -1;
    if (Doc && Doc->isObject())
      Id = Doc->getInt("id", -1);
    if (Id < 0) {
      if (Error)
        *Error = "frame " + std::to_string(I) +
                 " is not a JSON object with a non-negative numeric 'id'";
      return false;
    }
    if (!ById.emplace(Id, I).second) {
      if (Error)
        *Error = "duplicate request id " + std::to_string(Id);
      return false;
    }
    Ids[I] = Id;
  }

  Replies.assign(N, ClientReply{});
  for (size_t I = 0; I < N; ++I)
    Replies[I].Id = Ids[I];
  if (N == 0)
    return true;

  enum class St { Unsent, Scheduled, Waiting, Final };
  struct RState {
    St S = St::Unsent;
    Clock::time_point Due{};
    unsigned Attempts = 0;
    std::string LastErr;
  };
  std::vector<RState> Rs(N);
  size_t Remaining = N;
  unsigned ConnectFailures = 0;
  Clock::time_point LastProgress = Clock::now();

  auto finalizeTransport = [&](size_t I, const std::string &Why) {
    Rs[I].S = St::Final;
    Replies[I].TransportError = Why;
    Replies[I].Attempts = Rs[I].Attempts;
    --Remaining;
  };
  auto noteBrokenConnection = [&](const std::string &Why) {
    for (RState &R : Rs)
      if (R.S == St::Waiting)
        R.LastErr = Why;
    dropConnection();
  };

  std::string Line, Err;
  while (Remaining > 0) {
    if (!Fd.valid()) {
      std::string CErr;
      if (!ensureConnected(&CErr)) {
        ++ConnectFailures;
        if (ConnectFailures >= Opts.MaxConnectAttempts) {
          for (size_t I = 0; I < N; ++I)
            if (Rs[I].S != St::Final)
              finalizeTransport(I, "connect failed: " + CErr);
          if (Error)
            *Error = CErr;
          break;
        }
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            backoffMs(ConnectFailures)));
        continue;
      }
      ConnectFailures = 0;
      LastProgress = Clock::now();
      // A fresh connection answers nothing that was in flight on the
      // old one: every unanswered request is resent (same id — the
      // idempotency contract makes a duplicated execution harmless).
      for (RState &R : Rs)
        if (R.S == St::Waiting)
          R.S = St::Unsent;
    }

    // Send everything due. A send failure consumes the attempt and
    // breaks the connection; the reconnect path resends.
    Clock::time_point Now = Clock::now();
    bool ConnBroken = false;
    for (size_t I = 0; I < N && !ConnBroken; ++I) {
      RState &R = Rs[I];
      if (R.S != St::Unsent && !(R.S == St::Scheduled && R.Due <= Now))
        continue;
      if (R.Attempts >= Opts.MaxAttempts) {
        finalizeTransport(
            I, "retry budget exhausted after " +
                   std::to_string(R.Attempts) + " attempts (" +
                   (R.LastErr.empty() ? "no reply" : R.LastErr) + ")");
        continue;
      }
      ++R.Attempts;
      if (R.Attempts > 1)
        ++Retries;
      std::string SErr;
      if (!support::sendAll(Fd.get(), Frames[I] + "\n", &SErr)) {
        R.LastErr = "send: " + SErr;
        R.S = St::Unsent;
        ConnBroken = true;
        break;
      }
      R.S = St::Waiting;
    }
    if (ConnBroken) {
      dropConnection();
      continue;
    }
    if (Remaining == 0)
      break;

    bool AnyWaiting = false, AnyScheduled = false;
    Clock::time_point NextDue{};
    for (const RState &R : Rs) {
      if (R.S == St::Waiting) {
        AnyWaiting = true;
      } else if (R.S == St::Scheduled) {
        if (!AnyScheduled || R.Due < NextDue)
          NextDue = R.Due;
        AnyScheduled = true;
      }
    }
    if (!AnyWaiting) {
      if (AnyScheduled)
        std::this_thread::sleep_until(NextDue);
      continue;
    }

    // Read one response, bounded by the nearer of the next scheduled
    // resend and the response timeout.
    int TimeoutMs = -1;
    Now = Clock::now();
    if (AnyScheduled) {
      auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                    NextDue - Now)
                    .count();
      TimeoutMs = static_cast<int>(std::max<long long>(1, Ms));
    }
    if (Opts.ResponseTimeoutMs > 0) {
      double SilentMs =
          std::chrono::duration<double, std::milli>(Now - LastProgress)
              .count();
      double Left = Opts.ResponseTimeoutMs - SilentMs;
      if (Left <= 0) {
        // Outstanding requests and a silent server: assume the
        // connection (or the response) is lost and start over.
        noteBrokenConnection("response timeout after " +
                             std::to_string(Opts.ResponseTimeoutMs) +
                             " ms");
        continue;
      }
      // Clamped: a timeout past INT_MAX ms would not fit poll()'s int.
      int L = static_cast<int>(std::min<double>(
          std::ceil(Left), std::numeric_limits<int>::max()));
      TimeoutMs = TimeoutMs < 0 ? L : std::min(TimeoutMs, L);
    }

    switch (Reader->readLine(Line, &Err, TimeoutMs)) {
    case support::LineReader::Status::Line: {
      std::optional<support::JsonValue> Doc = support::parseJson(Line);
      if (!Doc || !Doc->isObject()) {
        // A torn write from a dying server: once one line is corrupt
        // the stream cannot be re-trusted.
        noteBrokenConnection("corrupt response line");
        continue;
      }
      LastProgress = Clock::now();
      int64_t Id = Doc->getInt("id", -1);
      auto It = Id >= 0 ? ById.find(Id) : ById.end();
      if (It == ById.end() || Rs[It->second].S == St::Final) {
        // A duplicate (the request was resent and both executions
        // answered) or an id we never sent. First answer won; drop.
        ++Unexpected;
        continue;
      }
      size_t I = It->second;
      bool Ok = Doc->getBool("ok", false);
      if (!Ok) {
        const support::JsonValue *EObj = Doc->find("error");
        std::string Code = EObj && EObj->isObject()
                               ? EObj->getString("code", "")
                               : std::string();
        if (Code == kErrOverloaded) {
          ++Overloaded;
          if (Opts.HonorRetryAfter && Rs[I].Attempts < Opts.MaxAttempts) {
            double RA = EObj->getDouble("retry_after_ms", 25.0);
            Rs[I].S = St::Scheduled;
            Rs[I].Due = Clock::now() +
                        std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(
                                RA + backoffMs(Rs[I].Attempts)));
            Rs[I].LastErr = "overloaded";
            continue;
          }
          // Out of attempts (or retries disabled): the shed is the
          // final answer.
        }
      }
      Rs[I].S = St::Final;
      Replies[I].Answered = true;
      Replies[I].Ok = Ok;
      Replies[I].Line = std::move(Line);
      Replies[I].Attempts = Rs[I].Attempts;
      --Remaining;
      Line.clear();
      break;
    }
    case support::LineReader::Status::Timeout:
      // A scheduled resend came due (or the silence budget shrank);
      // loop around and re-evaluate.
      continue;
    case support::LineReader::Status::Eof:
      noteBrokenConnection("connection closed by server");
      continue;
    case support::LineReader::Status::Error:
      noteBrokenConnection("read: " + Err);
      continue;
    case support::LineReader::Status::FrameTooLarge:
      noteBrokenConnection("response exceeds " +
                           std::to_string(Opts.MaxResponseBytes) +
                           " bytes");
      continue;
    }
  }

  return std::all_of(Replies.begin(), Replies.end(),
                     [](const ClientReply &R) { return R.Answered; });
}

std::optional<ClientReply> Client::call(const std::string &Frame,
                                        std::string *Error) {
  std::vector<ClientReply> Replies;
  run({Frame}, Replies, Error);
  if (Replies.empty())
    return std::nullopt; // Validation failure: no id to retry under.
  return Replies.front();
}
