//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "server/RequestHandler.h"

#include "core/Padding.h"
#include "exec/TraceRunner.h"
#include "frontend/Parser.h"
#include "layout/DataLayout.h"
#include "layout/TransformedSource.h"
#include "lint/Linter.h"
#include "lint/Output.h"
#include "pipeline/PadPipeline.h"
#include "search/SearchEngine.h"
#include "support/Arena.h"
#include "support/Diagnostics.h"
#include "support/FaultInjection.h"
#include "support/JsonWriter.h"

#include <chrono>
#include <exception>
#include <sstream>

using namespace padx;
using namespace padx::server;

namespace {

using Clock = std::chrono::steady_clock;

/// Internal control-flow error for a deadline that passed between
/// phases of a cheap (non-search) op. The search op never throws this —
/// its deadline degrades to a partial result instead.
struct DeadlinePassed {};

/// Per-request context threaded through the op bodies.
struct RequestCtx {
  const Request &R;
  const ServerOptions &Opts;
  Clock::time_point Start;
  /// Chaos hook: injected deadline jitter shrinks the request's budget
  /// by up to 100 ms, forcing the deadline paths to fire under chaos
  /// runs. Always 0 unless fault injection is configured.
  double JitterMs;

  explicit RequestCtx(const Request &R, const ServerOptions &Opts)
      : R(R), Opts(Opts), Start(Clock::now()),
        JitterMs(R.DeadlineMs > 0
                     ? static_cast<double>(support::fault::value(
                           support::fault::Site::DeadlineJitter, 100))
                     : 0) {}

  double elapsedSecs() const {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  }
  bool hasDeadline() const { return R.DeadlineMs > 0; }
  double remainingSecs() const {
    return (R.DeadlineMs - JitterMs) / 1000.0 - elapsedSecs();
  }
  /// Phase-boundary check for the cheap ops.
  void checkDeadline() const {
    if (hasDeadline() && remainingSecs() <= 0)
      throw DeadlinePassed();
  }

  int64_t footprintLimit() const {
    return R.MaxFootprintBytes > 0 ? R.MaxFootprintBytes
                                   : Opts.Limits.MaxFootprintBytes;
  }
  uint64_t accessLimit() const {
    return R.MaxAccesses > 0 ? static_cast<uint64_t>(R.MaxAccesses)
                             : Opts.Limits.MaxTraceAccesses;
  }
  size_t memoryBudget() const {
    return R.MemoryBudgetBytes > 0
               ? static_cast<size_t>(R.MemoryBudgetBytes)
               : Opts.RequestMemoryBudget;
  }
};

/// Assembles one success response. The pipeline stats document (already
/// serialized) is spliced in as the last member, where the writer's
/// comma tracking permits raw output.
class ResponseBuilder {
public:
  ResponseBuilder(int64_t Id, Op O, const std::string &Status)
      : JW(OS) {
    JW.beginObject();
    JW.field("id", Id);
    JW.field("ok", true);
    JW.field("op", opName(O));
    JW.field("status", Status);
    JW.key("result");
    JW.beginObject();
  }

  support::JsonWriter &writer() { return JW; }

  /// Closes the result object and the envelope. \p StatsJson, when
  /// non-empty, must be a complete JSON object (PipelineStats
  /// serialization) and becomes the "stats" member.
  std::string finish(const std::string &StatsJson = std::string()) {
    JW.endObject(); // result
    if (!StatsJson.empty()) {
      JW.key("stats");
      OS << StatsJson;
    }
    JW.endObject();
    return OS.str();
  }

private:
  std::ostringstream OS;
  support::JsonWriter JW;
};

/// PipelineStats::writeJson emits a trailing newline for file output;
/// the spliced form must be exactly one line with no terminator.
std::string statsToJson(const pipeline::PipelineStats &PS) {
  std::ostringstream OS;
  PS.writeJson(OS);
  std::string S = OS.str();
  while (!S.empty() && (S.back() == '\n' || S.back() == '\r'))
    S.pop_back();
  return S;
}

/// Parses the request's source into an arena-owned program, or returns
/// an invalid_program error through \p ErrorOut.
ir::Program *parseIntoArena(const RequestCtx &Ctx, support::Arena &A,
                            std::string *ErrorOut) {
  // The dominant request-scoped heap holders the arena cannot see: the
  // source buffer (owned by the request) and the IR built from it.
  A.charge(Ctx.R.Source.size());
  DiagnosticEngine Diags;
  std::optional<ir::Program> P =
      frontend::parseProgram(Ctx.R.Source, Diags);
  if (!P) {
    *ErrorOut = Diags.render(Ctx.R.Source, Ctx.R.Filename);
    return nullptr;
  }
  return A.create<ir::Program>(std::move(*P));
}

/// Footprint quota, shared by every program-carrying op.
std::optional<std::string>
checkFootprintQuota(const RequestCtx &Ctx,
                    const layout::DataLayout &Orig) {
  return layout::checkFootprint(Orig, Ctx.footprintLimit());
}

void writePaddingResult(support::JsonWriter &JW, const ir::Program &P,
                        const pad::PaddingResult &R, bool Emit) {
  const pad::PaddingStats &S = R.Stats;
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
  if (Emit)
    JW.field("transformed_source",
             layout::transformedSourceToString(R.Layout));
}

} // namespace

void RequestHandler::noteError(std::string_view Code) {
  for (unsigned I = 0; I < kNumCountedCodes; ++I) {
    if (Code == kCountedCodes[I]) {
      ErrorCounts[I].fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
}

uint64_t RequestHandler::errorCount(std::string_view Code) const {
  for (unsigned I = 0; I < kNumCountedCodes; ++I)
    if (Code == kCountedCodes[I])
      return ErrorCounts[I].load(std::memory_order_relaxed);
  return 0;
}

std::string RequestHandler::countedError(int64_t Id, const char *Code,
                                         const std::string &Message) {
  noteError(Code);
  return errorResponse(Id, Code, Message);
}

std::string RequestHandler::handleLine(std::string_view Line) {
  std::string Err;
  std::optional<support::JsonValue> Doc = support::parseJson(Line, &Err);
  if (!Doc) {
    Failed.fetch_add(1, std::memory_order_relaxed);
    Served.fetch_add(1, std::memory_order_relaxed);
    return countedError(-1, kErrParse, Err);
  }
  Request R;
  if (!parseRequest(*Doc, R, Err)) {
    Failed.fetch_add(1, std::memory_order_relaxed);
    Served.fetch_add(1, std::memory_order_relaxed);
    return countedError(R.Id, kErrInvalidRequest, Err);
  }
  return handle(R);
}

std::string RequestHandler::handle(const Request &R) {
  Served.fetch_add(1, std::memory_order_relaxed);
  std::string Response;
  try {
    Response = dispatch(R);
  } catch (const DeadlinePassed &) {
    Response = countedError(
        R.Id, kErrDeadlineExceeded,
        "deadline of " + std::to_string(R.DeadlineMs) +
            " ms passed before the request completed");
  } catch (const support::ArenaBudgetExceeded &E) {
    Response = countedError(R.Id, kErrResourceExhausted, E.what());
  } catch (const std::bad_alloc &) {
    Response = countedError(R.Id, kErrResourceExhausted,
                            "out of memory serving the request");
  } catch (const std::exception &E) {
    Response = countedError(R.Id, kErrInternal, E.what());
  } catch (...) {
    Response = countedError(R.Id, kErrInternal, "unknown error");
  }
  // A response is a failure iff it carries "ok":false — cheap to detect
  // structurally since every envelope starts {"id":N,"ok":...
  if (Response.find("\"ok\":false") != std::string::npos)
    Failed.fetch_add(1, std::memory_order_relaxed);
  return Response;
}

std::string RequestHandler::dispatch(const Request &R) {
  RequestCtx Ctx(R, Opts);

  switch (R.Operation) {
  case Op::Ping: {
    ResponseBuilder B(R.Id, R.Operation, "complete");
    B.writer().field("server", "padd");
    B.writer().field("protocol", 1);
    return B.finish();
  }

  case Op::Shutdown: {
    if (R.ShutdownMode == "drain") {
      DrainReq.store(true, std::memory_order_release);
      if (R.DrainMs > 0)
        DrainMs.store(R.DrainMs, std::memory_order_release);
    }
    Shutdown.store(true, std::memory_order_release);
    ResponseBuilder B(R.Id, R.Operation, "complete");
    B.writer().field("stopping", true);
    B.writer().field("mode", R.ShutdownMode);
    return B.finish();
  }

  case Op::Health: {
    // Deliberately touches nothing but atomics: a load balancer may
    // hammer this while the pool is saturated, and the reader thread
    // answers shed requests from the same counters.
    ResponseBuilder B(R.Id, R.Operation, "complete");
    support::JsonWriter &JW = B.writer();
    bool Draining =
        Load && Load->Draining.load(std::memory_order_acquire);
    JW.field("state", Draining ? "draining" : "ok");
    JW.field("queue_depth",
             Load ? Load->QueueDepth.load(std::memory_order_relaxed)
                  : uint64_t(0));
    JW.field("queue_limit", static_cast<uint64_t>(Opts.MaxQueueDepth));
    JW.field("inflight_limit",
             static_cast<uint64_t>(Opts.MaxConnInFlight));
    JW.field("shed",
             Load ? Load->ShedQueueFull.load(std::memory_order_relaxed) +
                        Load->ShedConnCap.load(std::memory_order_relaxed)
                  : uint64_t(0));
    JW.field("connections",
             Load ? Load->ConnectionsOpen.load(std::memory_order_relaxed)
                  : uint64_t(0));
    return B.finish();
  }

  case Op::Stats: {
    pipeline::SharedCacheStats S = Shared.snapshot();
    ResponseBuilder B(R.Id, R.Operation, "complete");
    support::JsonWriter &JW = B.writer();
    JW.key("requests");
    JW.beginObject();
    JW.field("served", requestsServed());
    JW.field("failed", requestsFailed());
    JW.field("predictor_unscored", predictorUnscored());
    JW.endObject();
    JW.key("errors");
    JW.beginObject();
    for (unsigned I = 0; I < kNumCountedCodes; ++I)
      JW.field(kCountedCodes[I],
               ErrorCounts[I].load(std::memory_order_relaxed));
    JW.endObject();
    JW.key("server");
    JW.beginObject();
    if (Load) {
      JW.field("queue_depth",
               Load->QueueDepth.load(std::memory_order_relaxed));
      JW.field("peak_queue_depth",
               Load->PeakQueueDepth.load(std::memory_order_relaxed));
      JW.field("queue_limit", static_cast<uint64_t>(Opts.MaxQueueDepth));
      JW.field("inflight_limit",
               static_cast<uint64_t>(Opts.MaxConnInFlight));
      JW.field("shed_queue_full",
               Load->ShedQueueFull.load(std::memory_order_relaxed));
      JW.field("shed_conn_cap",
               Load->ShedConnCap.load(std::memory_order_relaxed));
      JW.field("responses_dropped",
               Load->ResponsesDropped.load(std::memory_order_relaxed));
      JW.field("frames_too_large",
               Load->FramesTooLarge.load(std::memory_order_relaxed));
      JW.field("connections_open",
               Load->ConnectionsOpen.load(std::memory_order_relaxed));
      JW.field("connections_total",
               Load->ConnectionsTotal.load(std::memory_order_relaxed));
      JW.field("avg_service_us",
               Load->AvgServiceUs.load(std::memory_order_relaxed));
      JW.field("draining",
               Load->Draining.load(std::memory_order_acquire));
    } else {
      JW.field("draining", false);
    }
    JW.endObject();
    JW.key("shared_cache");
    JW.beginObject();
    JW.field("hits", S.totalHits());
    JW.field("misses", S.totalMisses());
    JW.field("hit_rate", S.hitRate());
    JW.field("evicted", S.Evicted);
    JW.field("program_entries", S.ProgramEntries);
    JW.field("layout_entries", S.LayoutEntries);
    // The lattice predictor's own cross-request numbers, split out so
    // operators can watch the new tier warm up without diffing kind
    // indices. A multi-level "machine" counts once per level.
    const pipeline::SharedCacheCounters &LP = S.Kinds[static_cast<
        unsigned>(pipeline::AnalysisKind::LatticePrediction)];
    JW.field("lattice_hits", LP.Hits);
    JW.field("lattice_misses", LP.Misses);
    JW.endObject();
    return B.finish();
  }

  case Op::Pad:
  case Op::PadLite: {
    support::Arena A(Ctx.memoryBudget());
    std::string ParseErr;
    ir::Program *P = parseIntoArena(Ctx, A, &ParseErr);
    if (!P)
      return countedError(R.Id, kErrInvalidProgram, ParseErr);
    Ctx.checkDeadline();
    layout::DataLayout Orig = layout::originalLayout(*P);
    if (std::optional<std::string> Err = checkFootprintQuota(Ctx, Orig))
      return countedError(R.Id, kErrResourceExhausted, *Err);
    auto *PP = A.create<pipeline::PadPipeline>(*P, true, &Shared);
    Ctx.checkDeadline();
    pad::PaddingResult Res = pad::applyPadding(
        *P, R.Machine,
        R.Operation == Op::PadLite ? pad::PaddingScheme::padLite()
                                   : pad::PaddingScheme::pad(),
        *PP);
    ResponseBuilder B(R.Id, R.Operation, "complete");
    if (!R.Machine.isSingleLevel())
      B.writer().field("machine", R.Machine.spec());
    writePaddingResult(B.writer(), *P, Res, R.Emit);
    PredUnscored.fetch_add(PP->analysis().stats().PredictorUnscored,
                           std::memory_order_relaxed);
    return B.finish(statsToJson(PP->stats()));
  }

  case Op::Lint: {
    support::Arena A(Ctx.memoryBudget());
    std::string ParseErr;
    ir::Program *P = parseIntoArena(Ctx, A, &ParseErr);
    if (!P)
      return countedError(R.Id, kErrInvalidProgram, ParseErr);
    Ctx.checkDeadline();
    layout::DataLayout DL = layout::originalLayout(*P);
    if (std::optional<std::string> Err = checkFootprintQuota(Ctx, DL))
      return countedError(R.Id, kErrResourceExhausted, *Err);
    auto *PP = A.create<pipeline::PadPipeline>(*P, true, &Shared);
    lint::Linter L((lint::LintOptions(R.Machine)));
    lint::LintResult Res = L.run(DL, *PP);
    Ctx.checkDeadline();

    // The report is the exact byte sequence padlint would produce for
    // this format — the daemon-vs-CLI equivalence contract.
    std::string Report;
    if (R.Format == "text") {
      Report = lint::renderText(Res, DL, R.Source, R.Filename);
    } else if (R.Format == "json") {
      std::ostringstream OS;
      lint::writeJson(OS, Res, DL, R.Machine.firstCache(), R.Filename);
      Report = OS.str();
    } else {
      std::ostringstream OS;
      lint::SarifFileResult F;
      F.Filename = R.Filename;
      F.ProgramName = P->name();
      F.Result = &Res;
      F.DL = &DL;
      lint::writeSarif(OS, {F});
      Report = OS.str();
    }

    ResponseBuilder B(R.Id, R.Operation, "complete");
    support::JsonWriter &JW = B.writer();
    JW.field("program", P->name());
    if (!R.Machine.isSingleLevel())
      JW.field("machine", R.Machine.spec());
    JW.field("format", R.Format);
    JW.field("findings",
             static_cast<uint64_t>(Res.Findings.size()));
    JW.field("errors", Res.count(lint::Severity::Error));
    JW.field("warnings", Res.count(lint::Severity::Warning));
    JW.field("infos", Res.count(lint::Severity::Info));
    JW.field("suppressed", Res.numSuppressed());
    JW.field("max_severity",
             Res.Findings.empty()
                 ? "none"
                 : lint::severityName(Res.maxSeverity()));
    JW.field("report", Report);
    PredUnscored.fetch_add(PP->analysis().stats().PredictorUnscored,
                           std::memory_order_relaxed);
    return B.finish(statsToJson(PP->stats()));
  }

  case Op::Search: {
    support::Arena A(Ctx.memoryBudget());
    std::string ParseErr;
    ir::Program *P = parseIntoArena(Ctx, A, &ParseErr);
    if (!P)
      return countedError(R.Id, kErrInvalidProgram, ParseErr);
    layout::DataLayout Orig = layout::originalLayout(*P);
    if (std::optional<std::string> Err = checkFootprintQuota(Ctx, Orig))
      return countedError(R.Id, kErrResourceExhausted, *Err);
    if (uint64_t MaxAcc = Ctx.accessLimit()) {
      // Probe the trace length before simulating anything, exactly as
      // padtool does: a truncated simulation would report misleading
      // miss rates.
      exec::RunOptions RO;
      RO.MaxAccesses = MaxAcc;
      exec::TraceRunner Probe(*P, Orig, RO);
      exec::CountSink Count;
      if (Probe.run(Count) == exec::RunStatus::TraceLimitReached)
        return countedError(R.Id, kErrResourceExhausted,
                            "simulated trace exceeds the limit of " +
                                std::to_string(MaxAcc) + " accesses");
    }
    // No phase-boundary deadline check here: even an already-expired
    // deadline degrades to a partial best-so-far response, because the
    // engine always evaluates its seed layouts before honoring the
    // (clamped, strictly positive) DeadlineSeconds.

    search::SearchOptions SO;
    SO.Machine = R.Machine;
    SO.EvalBudget = static_cast<unsigned>(R.SearchBudget);
    // One worker: the request already runs on a pool thread, and
    // parallelFor must not nest (support/ThreadPool.h). Concurrency
    // comes from serving many requests, not from one climb.
    SO.Threads = 1;
    SO.Seed = static_cast<uint64_t>(R.SearchSeed);
    SO.Cancel = Cancel;
    if (Ctx.hasDeadline())
      SO.DeadlineSeconds = std::max(Ctx.remainingSecs(), 1e-6);

    auto *PP = A.create<pipeline::PadPipeline>(*P, true, &Shared);
    search::SearchResult SR = search::runSearch(*P, SO, *PP);

    // Degraded stops still carry a valid best-so-far layout (never
    // worse than the PAD seed) — report them as partial, not as an
    // error (SearchOutcome semantics).
    bool Partial = SR.Outcome == search::SearchOutcome::DeadlineExpired ||
                   SR.Outcome == search::SearchOutcome::Cancelled ||
                   SR.Outcome == search::SearchOutcome::EvaluationFailed;
    ResponseBuilder B(R.Id, R.Operation, Partial ? "partial" : "complete");
    support::JsonWriter &JW = B.writer();
    JW.field("program", P->name());
    JW.field("outcome", search::outcomeName(SR.Outcome));
    JW.field("outcome_detail", SR.OutcomeDetail);
    JW.field("accesses", SR.Accesses);
    JW.field("original_percent", SR.originalPercent());
    JW.field("pad_percent", SR.padPercent());
    JW.field("best_percent", SR.bestPercent());
    // Multi-level machines score by weighted cost; report it with the
    // unweighted per-level breakdown. Single-level responses keep the
    // pre-hierarchy shape.
    if (!R.Machine.isSingleLevel()) {
      JW.field("machine", R.Machine.spec());
      JW.field("original_cost", SR.OriginalMisses);
      JW.field("pad_cost", SR.PadMisses);
      JW.field("best_cost", SR.BestMisses);
      JW.key("levels");
      JW.beginArray();
      for (size_t I = 0; I < SR.LevelNames.size(); ++I) {
        JW.beginObject();
        JW.field("name", SR.LevelNames[I]);
        if (I < SR.OriginalLevelMisses.size())
          JW.field("original_misses", SR.OriginalLevelMisses[I]);
        if (I < SR.PadLevelMisses.size())
          JW.field("pad_misses", SR.PadLevelMisses[I]);
        if (I < SR.BestLevelMisses.size())
          JW.field("best_misses", SR.BestLevelMisses[I]);
        JW.endObject();
      }
      JW.endArray();
    }
    JW.field("exact_evaluations", SR.ExactEvaluations);
    JW.field("simulated_evaluations", SR.SimulatedEvaluations);
    JW.field("rounds", SR.Rounds);
    JW.field("restarts", SR.Restarts);
    JW.field("candidates_generated", SR.CandidatesGenerated);
    if (R.Emit)
      JW.field("transformed_source",
               layout::transformedSourceToString(SR.BestLayout));
    PredUnscored.fetch_add(PP->analysis().stats().PredictorUnscored,
                           std::memory_order_relaxed);
    return B.finish(statsToJson(PP->stats()));
  }
  }
  return countedError(R.Id, kErrInternal, "unhandled operation");
}
