//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// daemon-mix: an in-process PaddServer on a private unix socket, driven
/// by up to four closed-loop connections (callers that wait for each
/// reply, such as editors and build jobs). The seeded mix is mostly lint
/// in all three formats plus pad and padlite; about three requests in
/// four repeat a program from a small hot set, the rest use fresh sizes,
/// and a quarter name the paper-l2 machine. Every reply is compared byte
/// for byte with the in-process library output computed during set-up.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Census.h"
#include "HwCounters.h"

#include "cachesim/CacheHierarchy.h"
#include "cachesim/CacheSim.h"
#include "core/Padding.h"
#include "exec/RecordedTrace.h"
#include "exec/TraceRunner.h"
#include "frontend/Parser.h"
#include "kernels/Kernels.h"
#include "layout/TransformedSource.h"
#include "lint/Linter.h"
#include "lint/Output.h"
#include "pipeline/PadPipeline.h"
#include "search/SearchEngine.h"
#include "server/Server.h"
#include "support/Json.h"
#include "support/JsonWriter.h"
#include "support/Socket.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>

using namespace padx;
using namespace padx::perfbench;

namespace {

struct KernelBand {
  const char *Kernel;
  int64_t Lo, Hi;
};
/// The hot set, fixed like a user's working set of files: shal and swim
/// at power-of-two extents carry ~300 KB text / ~450 KB SARIF lint
/// reports; chol, dgefa and mult are the costly cold analyses.
struct HotProgram {
  const char *Kernel;
  int64_t Size;
};
constexpr HotProgram kHot[] = {
    {"shal", 256}, {"swim", 256}, {"chol", 128},
    {"dgefa", 128}, {"mult", 64}, {"jacobi", 256},
};
/// Fresh programs: sizes never requested before in the run, half of them
/// on multiples of 16 (where the conflict rules fire). A taken size moves
/// to the next free one, so every request gets a fresh program.
constexpr KernelBand kFresh[] = {
    {"chol", 48, 176},  {"dgefa", 48, 176},  {"mult", 24, 80},
    {"jacobi", 64, 800}, {"expl", 32, 160},  {"tomcatv", 32, 160},
    {"rb", 64, 800},    {"adi", 32, 192},    {"erle", 12, 48},
};
constexpr double kRepeatShare = 0.75;
constexpr double kMachineShare = 0.25;
constexpr double kRequestsPerSecond = 400;
constexpr unsigned kSetupReps = 3;
/// The census records at most this many accesses of each program: the
/// decline reasons are structural, and fresh programs are many.
constexpr uint64_t kCensusRecordLimit = 1u << 20;
constexpr unsigned kMaxConnections = 4;

enum class Kind { LintText, LintJson, LintSarif, Pad, PadLite };
constexpr unsigned kNumKinds = 5;
/// Request-mix weights, in Kind order.
constexpr double kKindWeights[kNumKinds] = {0.40, 0.15, 0.15, 0.15, 0.15};

const char *opOf(Kind K) {
  switch (K) {
  case Kind::Pad:
    return "pad";
  case Kind::PadLite:
    return "padlite";
  default:
    return "lint";
  }
}

const char *formatOf(Kind K) {
  switch (K) {
  case Kind::LintJson:
    return "json";
  case Kind::LintSarif:
    return "sarif";
  default:
    return "text";
  }
}

const char *kindName(Kind K) {
  switch (K) {
  case Kind::LintText:
    return "lint-text";
  case Kind::LintJson:
    return "lint-json";
  case Kind::LintSarif:
    return "lint-sarif";
  case Kind::Pad:
    return "pad";
  case Kind::PadLite:
    return "padlite";
  }
  return "?";
}

bool isLint(Kind K) { return K != Kind::Pad && K != Kind::PadLite; }

struct DaemonProgram {
  std::string Name;
  std::string Source;
  bool Hot = false;
};

struct Request {
  unsigned Prog = 0;
  Kind K = Kind::LintText;
  bool Machine = false;
  unsigned Key = 0;
  std::string Frame; ///< Newline-terminated wire frame.
  std::string Head;  ///< Expected reply bytes up to the result member.
};

/// The in-process library output for one (program, kind, machine).
struct Expected {
  std::string Result; ///< The reply's "result" member, byte for byte.
  uint64_t Findings = 0;
  size_t ReportBytes = 0;
};

struct Inputs {
  std::vector<DaemonProgram> Progs;
  std::vector<Request> Reqs;
  std::vector<Expected> Keys;
  std::vector<std::tuple<unsigned, Kind, bool>> KeyOf;
};

std::unique_ptr<ir::Program> parse(const std::string &Source) {
  DiagnosticEngine Diags;
  std::optional<ir::Program> P = frontend::parseProgram(Source, Diags);
  if (!P)
    return nullptr;
  return std::make_unique<ir::Program>(std::move(*P));
}

std::string filenameOf(const DaemonProgram &DP) { return DP.Name + ".pad"; }

MachineModel requestMachine(bool Machine) {
  return Machine ? MachineModel::paperL2() : MachineModel();
}

/// Lint's report in \p K's format, exactly as padlint writes it.
std::string renderReport(Kind K, const lint::LintResult &Res,
                         const layout::DataLayout &DL,
                         const CacheConfig &Cache, const DaemonProgram &DP) {
  if (K == Kind::LintText)
    return lint::renderText(Res, DL, DP.Source, filenameOf(DP));
  std::ostringstream OS;
  if (K == Kind::LintJson) {
    lint::writeJson(OS, Res, DL, Cache, filenameOf(DP));
  } else {
    lint::SarifFileResult F;
    F.Filename = filenameOf(DP);
    F.ProgramName = DL.program().name();
    F.Result = &Res;
    F.DL = &DL;
    lint::writeSarif(OS, {F});
  }
  return OS.str();
}

void writeLintResult(support::JsonWriter &JW, const ir::Program &P,
                     const MachineModel &M, Kind K,
                     const lint::LintResult &Res, const std::string &Report) {
  JW.beginObject();
  JW.field("program", P.name());
  if (!M.Levels.empty())
    JW.field("machine", M.spec());
  JW.field("format", formatOf(K));
  JW.field("findings", static_cast<uint64_t>(Res.Findings.size()));
  JW.field("errors", Res.count(lint::Severity::Error));
  JW.field("warnings", Res.count(lint::Severity::Warning));
  JW.field("infos", Res.count(lint::Severity::Info));
  JW.field("suppressed", Res.numSuppressed());
  JW.field("max_severity", Res.Findings.empty()
                               ? "none"
                               : lint::severityName(Res.maxSeverity()));
  JW.field("report", Report);
  JW.endObject();
}

void writePadResult(support::JsonWriter &JW, const ir::Program &P,
                    const MachineModel &M, const pad::PaddingResult &R,
                    const std::string &Emitted) {
  const pad::PaddingStats &S = R.Stats;
  JW.beginObject();
  if (!M.Levels.empty())
    JW.field("machine", M.spec());
  JW.field("program", P.name());
  JW.field("global_arrays", S.GlobalArrays);
  JW.field("arrays_safe", S.ArraysSafe);
  JW.field("arrays_padded", S.ArraysPadded);
  JW.field("max_intra_incr_elems",
           static_cast<int64_t>(S.MaxIntraIncrElems));
  JW.field("total_intra_incr_elems",
           static_cast<int64_t>(S.TotalIntraIncrElems));
  JW.field("inter_pad_bytes", static_cast<int64_t>(S.InterPadBytes));
  JW.field("percent_size_increase", S.PercentSizeIncrease);
  JW.key("log");
  JW.beginArray();
  for (const std::string &Line : S.Log)
    JW.value(Line);
  JW.endArray();
  JW.field("transformed_source", Emitted);
  JW.endObject();
}

/// Library calls behind one request, with spans when \p Spans records.
/// \p Shared mirrors the daemon's cross-request cache (null = a fresh,
/// private pipeline, as the set-up oracle uses).
Expected libraryOutput(const DaemonProgram &DP, Kind K, bool Machine,
                       pipeline::SharedAnalysisCache *Shared,
                       SpanRecorder &Spans, uint32_t Op) {
  Expected E;
  std::unique_ptr<ir::Program> P;
  {
    ScopedSpan S(Spans, "frontend.parse", Op);
    P = parse(DP.Source);
  }
  if (!P)
    throw std::runtime_error("parse failed for " + DP.Name);
  const MachineModel M = requestMachine(Machine);
  const CacheConfig Cache =
      Machine ? M.firstCache() : CacheConfig::base16K();
  std::optional<pipeline::PadPipeline> PP;
  std::optional<layout::DataLayout> DL;
  {
    ScopedSpan S(Spans, "pipeline", Op);
    DL.emplace(layout::originalLayout(*P));
    PP.emplace(*P, true, Shared);
  }
  std::ostringstream OS;
  if (isLint(K)) {
    lint::LintOptions LO;
    LO.Cache = Cache;
    LO.Machine = M;
    std::optional<lint::LintResult> Res;
    {
      ScopedSpan S(Spans, "lint.rules", Op);
      Res.emplace(lint::Linter(LO).run(*DL, *PP));
    }
    std::string Report;
    {
      ScopedSpan S(Spans, "lint.render", Op);
      Report = renderReport(K, *Res, *DL, Cache, DP);
    }
    ScopedSpan S(Spans, "support.json", Op);
    support::JsonWriter JW(OS);
    writeLintResult(JW, *P, M, K, *Res, Report);
    E.Findings = Res->Findings.size();
    E.ReportBytes = Report.size();
  } else {
    std::optional<pad::PaddingResult> Res;
    {
      ScopedSpan S(Spans, "core.pad", Op);
      Res.emplace(runPadding(*P, Machine ? M : singleLevelMachine(),
                             K == Kind::PadLite, *PP));
    }
    std::string Emitted;
    {
      ScopedSpan S(Spans, "layout.emit", Op);
      Emitted = layout::transformedSourceToString(Res->Layout);
    }
    ScopedSpan S(Spans, "support.json", Op);
    support::JsonWriter JW(OS);
    writePadResult(JW, *P, M, *Res, Emitted);
  }
  E.Result = OS.str();
  return E;
}

std::string frameOf(uint64_t Id, const DaemonProgram &DP, Kind K,
                    bool Machine) {
  std::ostringstream OS;
  support::JsonWriter JW(OS);
  JW.beginObject();
  JW.field("id", Id);
  JW.field("op", opOf(K));
  JW.field("source", DP.Source);
  JW.field("filename", filenameOf(DP));
  if (isLint(K))
    JW.field("format", formatOf(K));
  else
    JW.field("emit", true);
  if (Machine)
    JW.field("machine", "paper-l2");
  JW.endObject();
  return OS.str() + "\n";
}

Inputs makeInputs(uint64_t Seed, unsigned NumRequests) {
  Rng R(Seed * 0x9e3779b1ull + 7);
  Inputs In;
  std::set<std::pair<std::string, int64_t>> Used;
  for (const HotProgram &H : kHot) {
    Used.insert({H.Kernel, H.Size});
    In.Progs.push_back({std::string(H.Kernel) + std::to_string(H.Size),
                        kernels::kernelSource(H.Kernel, H.Size), true});
  }
  const unsigned NumHot = static_cast<unsigned>(In.Progs.size());

  std::map<std::tuple<unsigned, Kind, bool>, unsigned> KeyIndex;
  for (unsigned I = 0; I != NumRequests; ++I) {
    Request Rq;
    if (R.chance(kRepeatShare)) {
      Rq.Prog = static_cast<unsigned>(R.range(0, NumHot - 1));
    } else {
      // A size this run has not requested yet.
      const KernelBand &B = kFresh[R.range(0, std::size(kFresh) - 1)];
      int64_t N = R.range(B.Lo, B.Hi);
      if (R.chance(0.5))
        N = std::max<int64_t>(B.Lo, N / 16 * 16);
      while (!Used.insert({B.Kernel, N}).second)
        ++N;
      In.Progs.push_back({std::string(B.Kernel) + std::to_string(N),
                          kernels::kernelSource(B.Kernel, N), false});
      Rq.Prog = static_cast<unsigned>(In.Progs.size() - 1);
    }
    double Pick = static_cast<double>(R.next() >> 11) * 0x1.0p-53;
    unsigned KI = 0;
    while (KI + 1 != kNumKinds && Pick >= kKindWeights[KI])
      Pick -= kKindWeights[KI++];
    Rq.K = static_cast<Kind>(KI);
    Rq.Machine = R.chance(kMachineShare);
    const std::tuple<unsigned, Kind, bool> KeyT(Rq.Prog, Rq.K, Rq.Machine);
    auto [It, New] = KeyIndex.try_emplace(
        KeyT, static_cast<unsigned>(In.KeyOf.size()));
    if (New)
      In.KeyOf.push_back(It->first);
    Rq.Key = It->second;
    Rq.Frame = frameOf(I + 1, In.Progs[Rq.Prog], Rq.K, Rq.Machine);
    Rq.Head = "{\"id\":" + std::to_string(I + 1) + ",\"ok\":true,\"op\":\"" +
              opOf(Rq.K) + "\",\"status\":\"complete\",\"result\":";
    In.Reqs.push_back(std::move(Rq));
  }
  return In;
}

/// A reply matches when everything up to the pipeline-stats member (the
/// only part carrying timings) equals the expected bytes.
bool replyMatches(const std::string &Line, const Request &Rq,
                  const Expected &E) {
  static const std::string Tail = ",\"stats\":";
  const size_t H = Rq.Head.size(), R = E.Result.size();
  return Line.size() > H + R + Tail.size() &&
         Line.compare(0, H, Rq.Head) == 0 &&
         Line.compare(H, R, E.Result) == 0 &&
         Line.compare(H + R, Tail.size(), Tail) == 0;
}

unsigned numConnections() {
  unsigned HW = std::thread::hardware_concurrency();
  return std::max(1u, std::min(kMaxConnections, HW ? HW : 1u));
}

/// A running server with connected clients.
struct Session {
  std::unique_ptr<server::PaddServer> Server;
  std::vector<support::FileDescriptor> Fds;
};

std::optional<Session> startSession(const std::string &SocketPath,
                                    unsigned Conns, std::string &Err) {
  Session S;
  server::ServerOptions SO;
  SO.SocketPath = SocketPath;
  SO.Threads = Conns;
  S.Server = std::make_unique<server::PaddServer>(SO);
  if (!S.Server->start(&Err))
    return std::nullopt;
  for (unsigned C = 0; C != Conns; ++C) {
    support::FileDescriptor Fd = support::connectUnix(SocketPath, &Err);
    if (!Fd.valid())
      return std::nullopt;
    S.Fds.push_back(std::move(Fd));
  }
  return S;
}

/// One request/reply round trip on \p Fd; empty on a broken connection.
std::optional<std::string> roundTrip(int Fd, support::LineReader &Reader,
                                     const std::string &Frame) {
  std::string Err, Line;
  if (!support::sendAll(Fd, Frame, &Err))
    return std::nullopt;
  if (Reader.readLine(Line, &Err) != support::LineReader::Status::Line)
    return std::nullopt;
  return Line;
}

struct LoopResult {
  std::vector<double> RttSec;
  std::vector<uint64_t> Bytes;
  std::vector<uint8_t> Bad;
  double CpuSec = 0;
  HwCounters::Reading Hw;
};

/// The timed window: each connection runs requests C, C+N, C+2N, ...
/// closed-loop. The byte comparison runs after each reply's timestamp.
LoopResult runClients(Session &S, const Inputs &In, const HwCounters &Hw) {
  LoopResult L;
  const size_t N = In.Reqs.size();
  L.RttSec.assign(N, 0);
  L.Bytes.assign(N, 0);
  L.Bad.assign(N, 0);
  const unsigned Conns = static_cast<unsigned>(S.Fds.size());
  const HwCounters::Reading H0 = Hw.read();
  const double Cpu0 = processCpuSeconds();
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != Conns; ++C)
    Threads.emplace_back([&, C] {
      const int Fd = S.Fds[C].get();
      support::LineReader Reader(Fd, 64u << 20);
      bool Broken = false;
      for (size_t I = C; I < N; I += Conns) {
        const Request &Rq = In.Reqs[I];
        if (Broken) {
          L.Bad[I] = 2;
          continue;
        }
        try {
          const double T0 = nowSeconds();
          std::optional<std::string> Reply =
              roundTrip(Fd, Reader, Rq.Frame);
          L.RttSec[I] = nowSeconds() - T0;
          if (!Reply) {
            Broken = true;
            L.Bad[I] = 2;
            continue;
          }
          L.Bytes[I] = Reply->size();
          L.Bad[I] = !replyMatches(*Reply, Rq, In.Keys[Rq.Key]);
        } catch (const std::exception &) {
          Broken = true; // The stream position is unknown now.
          L.Bad[I] = 2;
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();
  L.CpuSec = processCpuSeconds() - Cpu0;
  const HwCounters::Reading H1 = Hw.read();
  L.Hw = {H1.Instructions - H0.Instructions, H1.LlcMisses - H0.LlcMisses};
  return L;
}

std::vector<double> millis(const std::vector<double> &Sec) {
  std::vector<double> V;
  V.reserve(Sec.size());
  for (double S : Sec)
    V.push_back(S * 1e3);
  return V;
}

double opsPerCpu(const LoopResult &L) {
  return L.CpuSec > 0 ? static_cast<double>(L.RttSec.size()) / L.CpuSec : 0;
}

struct StatsReply {
  double HitRate = 0;
  double Evicted = 0;
  double PeakQueue = 0;
  double Shed = 0;
};

std::optional<StatsReply> queryStats(const std::string &SocketPath) {
  std::string Err;
  support::FileDescriptor Fd = support::connectUnix(SocketPath, &Err);
  if (!Fd.valid())
    return std::nullopt;
  support::LineReader Reader(Fd.get(), 1u << 20);
  std::optional<std::string> Line =
      roundTrip(Fd.get(), Reader, "{\"id\":0,\"op\":\"stats\"}\n");
  if (!Line)
    return std::nullopt;
  std::optional<support::JsonValue> Doc = support::parseJson(*Line, &Err);
  const support::JsonValue *Res = Doc ? Doc->find("result") : nullptr;
  const support::JsonValue *Cache = Res ? Res->find("shared_cache") : nullptr;
  const support::JsonValue *Srv = Res ? Res->find("server") : nullptr;
  if (!Cache || !Srv)
    return std::nullopt;
  auto Num = [](const support::JsonValue *Obj, const char *Name) {
    const support::JsonValue *V = Obj->find(Name);
    return V && V->isNumber() ? V->asDouble() : 0.0;
  };
  StatsReply S;
  S.HitRate = Num(Cache, "hit_rate");
  S.Evicted = Num(Cache, "evicted");
  S.PeakQueue = Num(Srv, "peak_queue_depth");
  S.Shed = Num(Srv, "shed_queue_full") + Num(Srv, "shed_conn_cap");
  return S;
}

/// Weighted simulated cost of \p DL by replaying \p T (exact; the search
/// oracle uses the direct walk instead).
double replayCost(const exec::RecordedTrace *T, const layout::DataLayout &DL,
                  const MachineModel &M) {
  if (!T)
    return walkCost(DL, M).Cost;
  exec::TraceReplayer Rp(*T);
  if (M.isSingleLevel()) {
    sim::CacheSim Sim(M.firstCache());
    Rp.replay(DL, Sim);
    return static_cast<double>(Sim.stats().Misses);
  }
  sim::CacheHierarchy H(M);
  Rp.replay(DL, H);
  double Cost = 0;
  for (unsigned I = 0; I != H.numLevels(); ++I)
    Cost += H.level(I).Weight * static_cast<double>(H.stats(I).Misses);
  return Cost;
}

} // namespace

ServerProbe padx::perfbench::probeServer(
    const std::vector<std::string> &Sources, const MachineModel &M,
    const std::string &SocketPath) {
  ServerProbe P;
  std::vector<std::string> Frames;
  for (size_t I = 0; I != Sources.size(); ++I) {
    DaemonProgram DP{"probe" + std::to_string(I), Sources[I], false};
    Frames.push_back(frameOf(I + 1, DP, Kind::Pad, !M.isSingleLevel()));
  }
  std::string Err;
  std::optional<Session> S = startSession(SocketPath, 1, Err);
  if (!S)
    return P;
  support::LineReader Reader(S->Fds.front().get(), 64u << 20);
  std::vector<double> Rtt;
  for (const std::string &F : Frames) {
    const double T0 = nowSeconds();
    std::optional<std::string> Reply =
        roundTrip(S->Fds.front().get(), Reader, F);
    Rtt.push_back(nowSeconds() - T0);
    if (!Reply)
      return P;
    P.ResponseBytes += static_cast<double>(Reply->size());
  }
  if (std::optional<StatsReply> St = queryStats(SocketPath)) {
    P.PeakQueue = St->PeakQueue;
    P.Shed = St->Shed;
  }
  S->Fds.clear();
  S->Server->stop();

  // The same frames in-process, on a cache warmed the same way.
  pipeline::SharedAnalysisCache Shared;
  server::ServerOptions SO;
  server::RequestHandler H(SO, Shared);
  for (size_t I = 0; I != Frames.size(); ++I) {
    std::string_view Line(Frames[I]);
    Line.remove_suffix(1);
    const double T0 = nowSeconds();
    H.handleLine(Line);
    const double Sec = nowSeconds() - T0;
    P.HandlerSec += Sec;
    P.WireSec += Rtt[I] - Sec;
  }
  P.Requests = static_cast<unsigned>(Frames.size());
  return P;
}

void padx::perfbench::reportServerProbe(const ServerProbe &P, Report &R) {
  const double N = P.Requests ? P.Requests : 1;
  R.metric("server.handler_ms", P.HandlerSec * 1e3 / N, "ms");
  R.metric("server.wire_ms", P.WireSec * 1e3 / N, "ms");
  R.metric("server.response_kb", P.ResponseBytes / 1024.0 / N, "KiB");
  R.metric("server.peak_queue_depth", P.PeakQueue, "count");
  R.metric("server.shed", P.Shed, "count");
}

namespace {

/// Set-up, repeated kSetupReps times: the inputs, the oracle's expected
/// replies, server start, connections and a warm-up lint of every hot
/// program. The last repetition's session stays up. Returns each
/// repetition's seconds.
std::vector<double> setUp(const Options &O, unsigned NumRequests,
                          const std::string &SocketPath, Inputs &In,
                          std::optional<Session> &S) {
  std::vector<double> Sec;
  SpanRecorder NoSpans(false);
  CpuRotation Cpus;
  for (unsigned Rep = 0; Rep != kSetupReps; ++Rep) {
    S.reset();
    const double T0 = nowSeconds();
    // The single-threaded part rotates over the CPUs (see CpuRotation);
    // the daemon's threads start on the whole set.
    Cpus.next();
    In = makeInputs(O.Seed, NumRequests);
    for (const auto &[Prog, K, Machine] : In.KeyOf)
      In.Keys.push_back(
          libraryOutput(In.Progs[Prog], K, Machine, nullptr, NoSpans, 0));
    Cpus.release();
    std::string Err;
    S = startSession(SocketPath, numConnections(), Err);
    if (!S)
      throw std::runtime_error("cannot start the daemon: " + Err);
    support::LineReader Reader(S->Fds.front().get(), 64u << 20);
    for (unsigned I = 0; I != std::size(kHot); ++I)
      if (!roundTrip(S->Fds.front().get(), Reader,
                     frameOf(0, In.Progs[I], Kind::LintText, false)))
        throw std::runtime_error("warm-up request got no reply");
    Sec.push_back(nowSeconds() - T0);
  }
  return Sec;
}

/// Per request, the op and its exact reply sizes.
void countRequests(const Options &O, const Inputs &In, Report &Rep) {
  Rep.count("workload", O.Workload);
  Rep.count("requests", static_cast<double>(In.Reqs.size()));
  for (size_t I = 0; I != In.Reqs.size(); ++I) {
    const Request &Rq = In.Reqs[I];
    const Expected &E = In.Keys[Rq.Key];
    Rep.count("req." + std::to_string(I + 1),
              fmt("%s %s%s result_bytes=%zu report_bytes=%zu findings=%llu",
                  kindName(Rq.K), In.Progs[Rq.Prog].Name.c_str(),
                  Rq.Machine ? "@paper-l2" : "", E.Result.size(),
                  E.ReportBytes, static_cast<unsigned long long>(E.Findings)));
  }
}

struct PadQuality {
  double MissRatio = 0;
  double L1ForwardShare = 0;
};

/// Layout quality of the PAD/PADLITE answers on the hot set: geomean of
/// padded / original simulated cost, with the counts behind it.
PadQuality padQuality(const Inputs &In, Report &Rep) {
  std::set<std::tuple<unsigned, Kind, bool>> PadKeys;
  for (const Request &Rq : In.Reqs)
    if (!isLint(Rq.K) && In.Progs[Rq.Prog].Hot)
      PadKeys.insert({Rq.Prog, Rq.K, Rq.Machine});
  std::map<unsigned, std::pair<std::unique_ptr<ir::Program>,
                               std::unique_ptr<exec::RecordedTrace>>>
      Traces;
  std::vector<double> Ratios;
  double L1Misses = 0, L1Accesses = 0;
  for (const auto &[Prog, K, Machine] : PadKeys) {
    auto &[P, T] = Traces[Prog];
    if (!P) {
      P = parse(In.Progs[Prog].Source);
      T = exec::RecordedTrace::record(*P);
    }
    const MachineModel M =
        Machine ? MachineModel::paperL2() : singleLevelMachine();
    pipeline::PadPipeline PP(*P);
    pad::PaddingResult PR = runPadding(*P, M, K == Kind::PadLite, PP);
    const double Padded = replayCost(T.get(), PR.Layout, M);
    const double Orig = replayCost(T.get(), layout::originalLayout(*P), M);
    Rep.count(fmt("pad.%s.%s%s", In.Progs[Prog].Name.c_str(), kindName(K),
                  Machine ? "@paper-l2" : ""),
              fmt("padded=%.17g original=%.17g", Padded, Orig));
    if (Orig > 0)
      Ratios.push_back(Padded / Orig);
    if (!Machine) {
      L1Misses += Padded;
      L1Accesses += static_cast<double>(
          T ? T->numAccesses()
            : exec::TraceRunner(*P, PR.Layout).countAccesses());
    }
  }
  PadQuality Q;
  Q.MissRatio = geomean(Ratios);
  Q.L1ForwardShare = L1Accesses > 0 ? L1Misses / L1Accesses : 0;
  Rep.count("miss_ratio", Q.MissRatio);
  return Q;
}

/// The input census over requests and the median latency per op kind.
void reportCensus(const Inputs &In, const LoopResult &Main, Report &Rep) {
  std::vector<std::optional<ProgramCensus>> Census(In.Progs.size());
  double Fresh = 0, Machine = 0, Declined = 0, Wide = 0, Unscored = 0;
  double Lint = 0, Small = 0, Medium = 0, Large = 0;
  std::vector<double> ByKind[kNumKinds];
  for (size_t I = 0; I != In.Reqs.size(); ++I) {
    const Request &Rq = In.Reqs[I];
    if (!Census[Rq.Prog])
      if (std::unique_ptr<ir::Program> P = parse(In.Progs[Rq.Prog].Source))
        Census[Rq.Prog] = censusOf(*P, kCensusRecordLimit);
    const ProgramCensus C = Census[Rq.Prog].value_or(ProgramCensus());
    Fresh += !In.Progs[Rq.Prog].Hot;
    Machine += Rq.Machine;
    Declined += C.TraceDeclined;
    Wide += C.wideBody();
    Unscored += C.unscored();
    if (isLint(Rq.K)) {
      ++Lint;
      const size_t KB = In.Keys[Rq.Key].ReportBytes / 1024;
      (KB < 16 ? Small : KB < 128 ? Medium : Large) += 1;
    }
    ByKind[static_cast<unsigned>(Rq.K)].push_back(Main.RttSec[I] * 1e3);
  }
  const double N = static_cast<double>(In.Reqs.size());
  Rep.note(fmt("census: fresh programs %.3f (repeats %.3f), machine "
               "(paper-l2) requests %.3f (single-level %.3f), trace "
               "declined %.3f, >%u refs per innermost body %.3f, "
               "predictor-unscored nests %.3f",
               Fresh / N, 1 - Fresh / N, Machine / N, 1 - Machine / N,
               Declined / N, kProbeMaxRefs, Wide / N, Unscored / N));
  Rep.note(fmt("census: lint %.3f of requests; lint report size <16 KiB "
               "%.3f, 16-128 KiB %.3f, >=128 KiB %.3f (of lint requests)",
               Lint / N, Lint ? Small / Lint : 0, Lint ? Medium / Lint : 0,
               Lint ? Large / Lint : 0));
  for (unsigned K = 0; K != kNumKinds; ++K)
    Rep.note(fmt("op %-10s %5zu requests  median %.3f ms",
                 kindName(static_cast<Kind>(K)), ByKind[K].size(),
                 median(ByKind[K])));
}

/// The traced run: the frames over the socket again (the tracing
/// overhead), then in-process through RequestHandler::handleLine and
/// through the library calls behind it with spans, then outside probes
/// for the analyses, exec unit costs and the idle search layer.
void reportLayers(const Options &O, Session &S, const Inputs &In,
                  const LoopResult &Main,
                  const std::optional<StatsReply> &Stats,
                  const PadQuality &Quality, const HwCounters &Hw,
                  Report &Rep) {
  const LoopResult Traced = runClients(S, In, Hw);
  for (size_t I = 0; I != In.Reqs.size(); ++I) {
    ++Rep.Attempted;
    if (Traced.Bad[I])
      Rep.opFailed(fmt("traced request %zu: bad reply", I + 1));
  }
  S.Fds.clear();
  S.Server->stop();

  const double N = static_cast<double>(In.Reqs.size());
  double HandlerSec = 0, WireSec = 0, ReplyBytes = 0;
  {
    pipeline::SharedAnalysisCache Shared;
    server::ServerOptions SO;
    server::RequestHandler H(SO, Shared);
    for (size_t I = 0; I != In.Reqs.size(); ++I) {
      std::string_view Line(In.Reqs[I].Frame);
      Line.remove_suffix(1);
      const double T0 = nowSeconds();
      std::string Reply = H.handleLine(Line);
      const double Sec = nowSeconds() - T0;
      ++Rep.Attempted;
      HandlerSec += Sec;
      WireSec += Main.RttSec[I] - Sec;
      ReplyBytes += static_cast<double>(Main.Bytes[I]);
      if (!replyMatches(Reply, In.Reqs[I], In.Keys[In.Reqs[I].Key]))
        Rep.opFailed(fmt("in-process reply %zu differs from the library",
                         I + 1));
    }
  }

  SpanRecorder Spans(true);
  {
    pipeline::SharedAnalysisCache Shared;
    for (size_t I = 0; I != In.Reqs.size(); ++I) {
      const Request &Rq = In.Reqs[I];
      ScopedSpan Op(Spans, "op", static_cast<uint32_t>(I));
      ++Rep.Attempted;
      try {
        Expected E = libraryOutput(In.Progs[Rq.Prog], Rq.K, Rq.Machine,
                                   &Shared, Spans, static_cast<uint32_t>(I));
        if (E.Result != In.Keys[Rq.Key].Result)
          Rep.opFailed(fmt("library replay %zu differs from set-up", I + 1));
      } catch (const std::exception &Ex) {
        Rep.opFailed(fmt("library replay %zu: %s", I + 1, Ex.what()));
      }
    }
  }
  writeSpans(O, Spans.spans());
  std::map<std::string, double> Self;
  double OpSpan = 0, Layers = 0;
  {
    const std::vector<Span> &All = Spans.spans();
    const std::vector<double> ST = selfTimes(All);
    for (size_t I = 0; I != All.size(); ++I) {
      Self[All[I].Name] += ST[I];
      if (All[I].Parent < 0)
        OpSpan += All[I].duration();
      else
        Layers += ST[I];
    }
  }

  LayerProbe LP;
  for (const DaemonProgram &DP : In.Progs)
    LP.analysis(*parse(DP.Source), singleLevelMachine());
  std::vector<std::unique_ptr<ir::Program>> Hot;
  for (unsigned I = 0; I != std::size(kHot); ++I) {
    Hot.push_back(parse(In.Progs[I].Source));
    const ir::Program &P = *Hot.back();
    std::vector<layout::DataLayout> Seeds;
    Seeds.push_back(layout::originalLayout(P));
    Seeds.push_back(LP.pad(P, singleLevelMachine(), false));
    Seeds.push_back(LP.pad(P, singleLevelMachine(), true));
    LP.exec(P, Seeds);
  }
  reportProbe(LP, Rep);

  // The search layer is idle here; time one default search from outside
  // on the hot program with the shortest trace.
  size_t Cheapest = 0;
  uint64_t Fewest = UINT64_MAX;
  for (size_t I = 0; I != Hot.size(); ++I) {
    const uint64_t A =
        exec::TraceRunner(*Hot[I], layout::originalLayout(*Hot[I]))
            .countAccesses();
    if (A < Fewest) {
      Fewest = A;
      Cheapest = I;
    }
  }
  SearchTotals Search;
  const double T0 = nowSeconds();
  search::SearchResult R =
      search::runSearch(*Hot[Cheapest], search::SearchOptions());
  Search.add(R, nowSeconds() - T0, false);
  Search.report(Rep);

  double Source = 0, LintReqs = 0, PadReqs = 0, Findings = 0, ReportKiB = 0;
  for (const Request &Rq : In.Reqs) {
    Source += static_cast<double>(In.Progs[Rq.Prog].Source.size()) / 1024.0;
    if (isLint(Rq.K)) {
      ++LintReqs;
      Findings += static_cast<double>(In.Keys[Rq.Key].Findings);
      ReportKiB += static_cast<double>(In.Keys[Rq.Key].ReportBytes) / 1024.0;
    } else {
      ++PadReqs;
    }
  }
  auto PerCall = [&](const char *Name, double Den) {
    return Den > 0 ? Self[Name] * 1e3 / Den : 0;
  };
  Rep.metric("frontend.parse_ms", PerCall("frontend.parse", N), "ms");
  Rep.metric("frontend.source_kb", Source / N, "KiB");
  Rep.metric("pipeline.shared_hit_rate", Stats ? Stats->HitRate : 0, "1");
  Rep.metric("pipeline.shared_evicted", Stats ? Stats->Evicted : 0, "count");
  Rep.metric("core.pad_ms", PerCall("core.pad", PadReqs), "ms");
  Rep.metric("lint.rules_ms", PerCall("lint.rules", LintReqs), "ms");
  Rep.metric("lint.render_ms", PerCall("lint.render", LintReqs), "ms");
  Rep.metric("lint.findings", LintReqs ? Findings / LintReqs : 0, "count");
  Rep.metric("lint.report_kb", LintReqs ? ReportKiB / LintReqs : 0, "KiB");
  Rep.metric("layout.emit_ms", PerCall("layout.emit", PadReqs), "ms");
  Rep.metric("server.handler_ms", HandlerSec * 1e3 / N, "ms");
  Rep.metric("server.wire_ms", WireSec * 1e3 / N, "ms");
  Rep.metric("server.response_kb", ReplyBytes / 1024.0 / N, "KiB");
  Rep.metric("server.peak_queue_depth", Stats ? Stats->PeakQueue : 0,
             "count");
  Rep.metric("server.shed", Stats ? Stats->Shed : 0, "count");
  Rep.metric("cachesim.l1_forward_share", Quality.L1ForwardShare, "1");

  const double LatOverhead =
      median(millis(Traced.RttSec)) - median(millis(Main.RttSec));
  const double CpuOverhead = opsPerCpu(Traced) - opsPerCpu(Main);
  Rep.metric("trace.op_ms", OpSpan * 1e3 / N, "ms");
  Rep.metric("trace.unattributed_ms", (OpSpan - Layers) * 1e3 / N, "ms");
  Rep.metric("trace.overhead_latency_ms", LatOverhead, "ms");
  Rep.metric("trace.overhead_ops_per_cpu_s", CpuOverhead, "1/s");
  std::string Split;
  for (const auto &[Name, Sec] : Self)
    Split += fmt(" %s %.4f", Name.c_str(), Sec * 1e3 / N);
  Rep.note(fmt("traced library replay, ms per request (self):%s; op span "
               "%.4f; handler %.4f, wire %.4f; tracing overhead %.4f ms "
               "latency, %.3f ops/cpu-s",
               Split.c_str(), OpSpan * 1e3 / N, HandlerSec * 1e3 / N,
               WireSec * 1e3 / N, LatOverhead, CpuOverhead));
  Rep.note(fmt("idle search layer: search.* and the per-op exec metrics "
               "come from one outside search on %s (%u exact evals); no "
               "request searches",
               In.Progs[Cheapest].Name.c_str(), R.ExactEvaluations));
  Rep.note("analysis.* time cold accessors on a fresh pipeline for every "
           "distinct program; exec.* and cachesim.hier_ns_per_access probe "
           "the hot set from outside");
}

} // namespace

int padx::perfbench::runDaemonWorkload(const Options &O) {
  Report Rep;
  const unsigned NumRequests = std::max<unsigned>(
      40, static_cast<unsigned>(O.Seconds * kRequestsPerSecond));
  const std::string SocketPath = socketPath(O);

  // Opened first so the daemon's threads, started below, inherit them.
  HwCounters Hw(/*Inherit=*/true);
  Inputs In;
  std::optional<Session> S;
  const std::vector<double> SetupSec =
      setUp(O, NumRequests, SocketPath, In, S);

  const LoopResult Main = runClients(*S, In, Hw);
  const std::optional<StatsReply> Stats = queryStats(SocketPath);
  for (size_t I = 0; I != In.Reqs.size(); ++I) {
    ++Rep.Attempted;
    const Request &Rq = In.Reqs[I];
    if (Main.Bad[I])
      Rep.opFailed(fmt("request %zu (%s %s%s): %s", I + 1, kindName(Rq.K),
                       In.Progs[Rq.Prog].Name.c_str(),
                       Rq.Machine ? " paper-l2" : "",
                       Main.Bad[I] == 2 ? "connection dropped"
                                        : "reply differs from the library"));
  }
  if (!Stats)
    Rep.checkFailed("stats request failed");

  countRequests(O, In, Rep);
  const PadQuality Quality = padQuality(In, Rep);
  reportCensus(In, Main, Rep);
  Rep.note("hardware counters: " + Hw.status());
  if (Hw.available())
    Rep.note(fmt("hardware counters per request: %.0f instructions, %.0f "
                 "LLC misses",
                 static_cast<double>(Main.Hw.Instructions) / NumRequests,
                 static_cast<double>(Main.Hw.LlcMisses) / NumRequests));
  const std::vector<double> Lat = millis(Main.RttSec);
  const TailChoice Tail = tailPercentile(Lat);
  Rep.note(fmt("latency_tail_ms is p%.2f of %zu requests (%zu samples "
               "beyond); %zu connections",
               Tail.Percentile, Lat.size(), Tail.Beyond, S->Fds.size()));
  Rep.note(fmt("setup repetitions: %u, median %.4f s", kSetupReps,
               median(SetupSec)));

  if (O.Trace) {
    reportLayers(O, *S, In, Main, Stats, Quality, Hw, Rep);
  } else {
    S->Fds.clear();
    S->Server->stop();
    reportEndToEnd(Rep, median(Lat), Tail.Value, opsPerCpu(Main),
                   median(SetupSec), Quality.MissRatio);
  }
  return Rep.finish(O);
}
