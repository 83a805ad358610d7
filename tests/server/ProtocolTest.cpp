//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Protocol-layer tests, no sockets involved: request parsing rejects
/// malformed and ill-typed frames with the right error codes, the
/// handler answers garbage with structured parse errors instead of
/// dying, quotas surface as resource_exhausted, deadlines as
/// deadline_exceeded or a partial search result, and every response is
/// itself one well-formed JSON line.
///
//===----------------------------------------------------------------------===//

#include "server/RequestHandler.h"

#include "pipeline/SharedAnalysisCache.h"
#include "server/Protocol.h"
#include "support/Json.h"

#include "gtest/gtest.h"

#include <string>
#include <utility>
#include <vector>

using namespace padx;
using namespace padx::server;

namespace {

const char *kTinyProgram = "program p\n"
                           "array A : real[64, 64]\n"
                           "array B : real[64, 64]\n"
                           "loop i = 1, 62 {\n"
                           "  loop j = 1, 62 {\n"
                           "    A[j, i] = B[j, i] + B[j+1, i+1]\n"
                           "  }\n"
                           "}\n";

/// Builds a handler over fresh state; tests share nothing.
struct HandlerFixture {
  ServerOptions Opts;
  pipeline::SharedAnalysisCache Shared;
  RequestHandler Handler{Opts, Shared};

  support::JsonValue respond(const std::string &Line) {
    std::string Response = Handler.handleLine(Line);
    auto Doc = support::parseJson(Response);
    EXPECT_TRUE(Doc.has_value())
        << "unparseable response: " << Response;
    return Doc ? *Doc : support::JsonValue();
  }
};

std::string errorCode(const support::JsonValue &Doc) {
  const support::JsonValue *E = Doc.find("error");
  return E ? E->getString("code", "") : "";
}

/// A minimal JSON string escape for embedding sources in request
/// literals.
std::string quoted(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (C == '\n') {
      Out += "\\n";
      continue;
    }
    Out += C;
  }
  Out += '"';
  return Out;
}

} // namespace

TEST(Protocol, MalformedJsonGetsStructuredParseError) {
  HandlerFixture F;
  for (const char *Bad :
       {"", "{", "not json at all", "{\"id\":}", "[1,2,3", "\x01\x02"}) {
    support::JsonValue R = F.respond(Bad);
    EXPECT_FALSE(R.getBool("ok", true)) << Bad;
    EXPECT_EQ(errorCode(R), kErrParse) << Bad;
  }
}

TEST(Protocol, NonObjectAndMissingFieldsAreInvalidRequests) {
  HandlerFixture F;
  for (const char *Bad :
       {"[]", "42", "\"hello\"", "{}", "{\"id\":1}",
        "{\"id\":-3,\"op\":\"ping\"}", "{\"id\":\"x\",\"op\":\"ping\"}",
        "{\"id\":1,\"op\":\"frobnicate\"}",
        "{\"id\":1,\"op\":\"pad\"}",
        "{\"id\":1,\"op\":\"lint\",\"source\":\"\",\"format\":\"xml\"}",
        "{\"id\":1,\"op\":\"pad\",\"source\":\"\",\"cache\":1000}",
        "{\"id\":1,\"op\":\"pad\",\"source\":\"\",\"deadline_ms\":-1}"}) {
    support::JsonValue R = F.respond(Bad);
    EXPECT_FALSE(R.getBool("ok", true)) << Bad;
    EXPECT_EQ(errorCode(R), kErrInvalidRequest) << Bad;
  }
}

TEST(Protocol, RequestIdIsEchoedOnErrors) {
  HandlerFixture F;
  support::JsonValue R =
      F.respond("{\"id\":77,\"op\":\"frobnicate\"}");
  EXPECT_EQ(R.getInt("id", -1), 77);
  // Unparseable frames cannot carry an id; -1 marks that.
  EXPECT_EQ(F.respond("###").getInt("id", 0), -1);
}

TEST(Protocol, PingAndStatsRoundTrip) {
  HandlerFixture F;
  support::JsonValue R = F.respond("{\"id\":1,\"op\":\"ping\"}");
  EXPECT_TRUE(R.getBool("ok", false));
  EXPECT_EQ(R.getString("op", ""), "ping");
  const support::JsonValue *Res = R.find("result");
  ASSERT_NE(Res, nullptr);
  EXPECT_EQ(Res->getString("server", ""), "padd");

  support::JsonValue S = F.respond("{\"id\":2,\"op\":\"stats\"}");
  ASSERT_TRUE(S.getBool("ok", false));
  const support::JsonValue *SR = S.find("result");
  ASSERT_NE(SR, nullptr);
  const support::JsonValue *Req = SR->find("requests");
  ASSERT_NE(Req, nullptr);
  EXPECT_GE(Req->getInt("served", 0), 2);
  ASSERT_NE(SR->find("shared_cache"), nullptr);
}

TEST(Protocol, UnparseableProgramIsInvalidProgram) {
  HandlerFixture F;
  support::JsonValue R = F.respond(
      "{\"id\":5,\"op\":\"pad\",\"source\":\"this is not padlang\"}");
  EXPECT_FALSE(R.getBool("ok", true));
  EXPECT_EQ(errorCode(R), kErrInvalidProgram);
}

TEST(Protocol, PadRequestSucceedsWithStats) {
  HandlerFixture F;
  support::JsonValue R = F.respond(
      "{\"id\":9,\"op\":\"pad\",\"source\":" + quoted(kTinyProgram) +
      "}");
  ASSERT_TRUE(R.getBool("ok", false)) << "pad request failed";
  EXPECT_EQ(R.getString("status", ""), "complete");
  const support::JsonValue *Res = R.find("result");
  ASSERT_NE(Res, nullptr);
  EXPECT_FALSE(Res->getString("transformed_source", "").empty());
  // The per-request pipeline stats ride along, in the exact shape the
  // CLI's --stats-json emits.
  const support::JsonValue *Stats = R.find("stats");
  ASSERT_NE(Stats, nullptr);
  EXPECT_NE(Stats->find("pipeline"), nullptr);
}

TEST(Protocol, FootprintQuotaIsResourceExhausted) {
  HandlerFixture F;
  support::JsonValue R = F.respond(
      "{\"id\":3,\"op\":\"pad\",\"source\":" + quoted(kTinyProgram) +
      ",\"max_footprint\":64}");
  EXPECT_FALSE(R.getBool("ok", true));
  EXPECT_EQ(errorCode(R), kErrResourceExhausted);
}

TEST(Protocol, MemoryBudgetIsResourceExhausted) {
  HandlerFixture F;
  support::JsonValue R = F.respond(
      "{\"id\":4,\"op\":\"lint\",\"source\":" + quoted(kTinyProgram) +
      ",\"memory_budget\":32}");
  EXPECT_FALSE(R.getBool("ok", true));
  EXPECT_EQ(errorCode(R), kErrResourceExhausted);
}

TEST(Protocol, TraceQuotaOnSearchIsResourceExhausted) {
  HandlerFixture F;
  support::JsonValue R = F.respond(
      "{\"id\":6,\"op\":\"search\",\"source\":" + quoted(kTinyProgram) +
      ",\"max_accesses\":10,\"budget\":4}");
  EXPECT_FALSE(R.getBool("ok", true));
  EXPECT_EQ(errorCode(R), kErrResourceExhausted);
}

TEST(Protocol, ExpiredDeadlineOnCheapOpIsDeadlineExceeded) {
  HandlerFixture F;
  // A deadline this small has always passed by the first phase check.
  support::JsonValue R = F.respond(
      "{\"id\":8,\"op\":\"lint\",\"source\":" + quoted(kTinyProgram) +
      ",\"deadline_ms\":0.000001}");
  EXPECT_FALSE(R.getBool("ok", true));
  EXPECT_EQ(errorCode(R), kErrDeadlineExceeded);
}

TEST(Protocol, SearchDeadlineDegradesToPartialBestSoFar) {
  HandlerFixture F;
  // The seed evaluations always run (the "never worse than PAD"
  // guarantee), then the climb stops at the microscopic deadline.
  support::JsonValue R = F.respond(
      "{\"id\":10,\"op\":\"search\",\"source\":" +
      quoted(kTinyProgram) +
      ",\"deadline_ms\":0.001,\"budget\":4096,\"seed\":1}");
  ASSERT_TRUE(R.getBool("ok", false))
      << "a search deadline must degrade, not fail";
  EXPECT_EQ(R.getString("status", ""), "partial");
  const support::JsonValue *Res = R.find("result");
  ASSERT_NE(Res, nullptr);
  EXPECT_EQ(Res->getString("outcome", ""), "deadline expired");
  EXPECT_FALSE(Res->getString("transformed_source", "").empty());
}

TEST(Protocol, ShutdownSetsTheFlagAndAnswers) {
  HandlerFixture F;
  EXPECT_FALSE(F.Handler.shutdownRequested());
  support::JsonValue R = F.respond("{\"id\":11,\"op\":\"shutdown\"}");
  EXPECT_TRUE(R.getBool("ok", false));
  EXPECT_TRUE(F.Handler.shutdownRequested());
}

TEST(Protocol, FailureCounterTracksErrorResponses) {
  HandlerFixture F;
  F.respond("{\"id\":1,\"op\":\"ping\"}");
  F.respond("garbage");
  F.respond("{\"id\":2,\"op\":\"frobnicate\"}");
  EXPECT_EQ(F.Handler.requestsServed(), 3u);
  EXPECT_EQ(F.Handler.requestsFailed(), 2u);
}

TEST(Protocol, HealthReportsStateWithoutLoadStats) {
  // A handler with no ServerLoadStats attached (tests, benchmarks)
  // still answers health — with what it knows.
  HandlerFixture F;
  support::JsonValue R = F.respond("{\"id\":1,\"op\":\"health\"}");
  ASSERT_TRUE(R.getBool("ok", false));
  EXPECT_EQ(R.getString("op", ""), "health");
  const support::JsonValue *Res = R.find("result");
  ASSERT_NE(Res, nullptr);
  EXPECT_EQ(Res->getString("state", ""), "ok");
}

TEST(Protocol, ShutdownModeParsesAndSetsDrainFlags) {
  HandlerFixture F;
  EXPECT_FALSE(F.Handler.drainRequested());
  support::JsonValue R = F.respond(
      "{\"id\":1,\"op\":\"shutdown\",\"mode\":\"drain\","
      "\"drain_ms\":1500}");
  ASSERT_TRUE(R.getBool("ok", false));
  const support::JsonValue *Res = R.find("result");
  ASSERT_NE(Res, nullptr);
  EXPECT_TRUE(Res->getBool("stopping", false));
  EXPECT_EQ(Res->getString("mode", ""), "drain");
  EXPECT_TRUE(F.Handler.shutdownRequested());
  EXPECT_TRUE(F.Handler.drainRequested());
  EXPECT_DOUBLE_EQ(F.Handler.requestedDrainMs(), 1500.0);
}

TEST(Protocol, ShutdownModeNowIsTheDefaultAndDoesNotDrain) {
  HandlerFixture F;
  support::JsonValue R = F.respond("{\"id\":1,\"op\":\"shutdown\"}");
  ASSERT_TRUE(R.getBool("ok", false));
  const support::JsonValue *Res = R.find("result");
  ASSERT_NE(Res, nullptr);
  EXPECT_EQ(Res->getString("mode", ""), "now");
  EXPECT_TRUE(F.Handler.shutdownRequested());
  EXPECT_FALSE(F.Handler.drainRequested());
}

TEST(Protocol, BadShutdownModeAndDrainMsAreInvalidRequests) {
  HandlerFixture F;
  for (const char *Bad :
       {"{\"id\":1,\"op\":\"shutdown\",\"mode\":\"gently\"}",
        "{\"id\":1,\"op\":\"shutdown\",\"mode\":7}",
        "{\"id\":1,\"op\":\"shutdown\",\"drain_ms\":-5}"}) {
    support::JsonValue R = F.respond(Bad);
    EXPECT_FALSE(R.getBool("ok", true)) << Bad;
    EXPECT_EQ(errorCode(R), kErrInvalidRequest) << Bad;
  }
  EXPECT_FALSE(F.Handler.shutdownRequested())
      << "a rejected shutdown must not stop the server";
}

TEST(Protocol, ErrorResponseCarriesRetryAfterOnlyWhenPositive) {
  std::string With = errorResponse(3, kErrOverloaded, "busy", 25.5);
  auto Doc = support::parseJson(With);
  ASSERT_TRUE(Doc.has_value());
  const support::JsonValue *E = Doc->find("error");
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(E->getString("code", ""), kErrOverloaded);
  EXPECT_DOUBLE_EQ(E->getDouble("retry_after_ms", 0), 25.5);

  std::string Without = errorResponse(3, kErrInternal, "boom");
  EXPECT_EQ(Without.find("retry_after_ms"), std::string::npos)
      << "the hint is overload-specific, not boilerplate";
}

TEST(Protocol, ErrorTaxonomyCountersTrackPerCode) {
  HandlerFixture F;
  F.respond("garbage");                        // parse_error
  F.respond("{\"id\":1,\"op\":\"nope\"}");     // invalid_request
  F.respond("{\"id\":2,\"op\":\"nope\"}");     // invalid_request
  F.respond("{\"id\":3,\"op\":\"pad\",\"source\":\"junk\"}");
  F.Handler.noteError(kErrOverloaded);         // The socket layer's path.

  EXPECT_EQ(F.Handler.errorCount(kErrParse), 1u);
  EXPECT_EQ(F.Handler.errorCount(kErrInvalidRequest), 2u);
  EXPECT_EQ(F.Handler.errorCount(kErrInvalidProgram), 1u);
  EXPECT_EQ(F.Handler.errorCount(kErrOverloaded), 1u);
  EXPECT_EQ(F.Handler.errorCount(kErrInternal), 0u);
  EXPECT_EQ(F.Handler.errorCount("unknown_code"), 0u);

  // The same numbers ride the stats op for remote observability.
  support::JsonValue S = F.respond("{\"id\":9,\"op\":\"stats\"}");
  const support::JsonValue *Res = S.find("result");
  ASSERT_NE(Res, nullptr);
  const support::JsonValue *Errors = Res->find("errors");
  ASSERT_NE(Errors, nullptr);
  EXPECT_EQ(Errors->getInt("parse_error", -1), 1);
  EXPECT_EQ(Errors->getInt("invalid_request", -1), 2);
  EXPECT_EQ(Errors->getInt("overloaded", -1), 1);
}

TEST(Protocol, HealthOpRoundTripsThroughOpNames) {
  EXPECT_EQ(opName(Op::Health), std::string("health"));
  auto Doc = support::parseJson("{\"id\":1,\"op\":\"health\"}");
  ASSERT_TRUE(Doc.has_value());
  Request R;
  std::string Err;
  ASSERT_TRUE(parseRequest(*Doc, R, Err)) << Err;
  EXPECT_EQ(R.Operation, Op::Health);
}

TEST(Protocol, MachineFieldParsesPresetsAndSpecs) {
  auto Doc = support::parseJson(
      "{\"id\":1,\"op\":\"pad\",\"source\":\"\","
      "\"machine\":\"paper-l2\"}");
  ASSERT_TRUE(Doc.has_value());
  Request R;
  std::string Err;
  ASSERT_TRUE(parseRequest(*Doc, R, Err)) << Err;
  EXPECT_EQ(R.Machine, MachineModel::paperL2());

  // With a machine named, the one-level geometry fields are not read.
  auto Both = support::parseJson(
      "{\"id\":1,\"op\":\"pad\",\"source\":\"\","
      "\"machine\":\"paper-l2\",\"cache\":1000}");
  ASSERT_TRUE(Both.has_value());
  Request RB;
  ASSERT_TRUE(parseRequest(*Both, RB, Err)) << Err;
  EXPECT_EQ(RB.Machine, MachineModel::paperL2());

  auto Spec = support::parseJson(
      "{\"id\":2,\"op\":\"lint\",\"source\":\"\","
      "\"machine\":\"l1:32k/64/8,l2:1m/64/16,tlb:64/4k/4\"}");
  ASSERT_TRUE(Spec.has_value());
  Request RS;
  ASSERT_TRUE(parseRequest(*Spec, RS, Err)) << Err;
  ASSERT_EQ(RS.Machine.numLevels(), 3u);
  EXPECT_TRUE(RS.Machine.Levels[2].IsTlb);
}

TEST(Protocol, MachineAbsentKeepsSingleLevelBackCompat) {
  auto Doc = support::parseJson(
      "{\"id\":3,\"op\":\"pad\",\"source\":\"\","
      "\"cache\":8192,\"line\":64,\"assoc\":2}");
  ASSERT_TRUE(Doc.has_value());
  Request R;
  std::string Err;
  ASSERT_TRUE(parseRequest(*Doc, R, Err)) << Err;
  // Resolved once at parse time into a one-level machine.
  const MachineModel &M = R.Machine;
  ASSERT_TRUE(M.isSingleLevel());
  EXPECT_EQ(M.firstCache().SizeBytes, 8192);
  EXPECT_EQ(M.firstCache().LineBytes, 64);
  EXPECT_EQ(M.firstCache().Associativity, 2u);
}

TEST(Protocol, WeightsApplyWithAndWithoutMachine) {
  // weights alongside machine: scales the named levels.
  auto Doc = support::parseJson(
      "{\"id\":4,\"op\":\"search\",\"source\":\"\","
      "\"machine\":\"paper-l2\",\"weights\":\"l1=1,l2=8\"}");
  ASSERT_TRUE(Doc.has_value());
  Request R;
  std::string Err;
  ASSERT_TRUE(parseRequest(*Doc, R, Err)) << Err;
  ASSERT_EQ(R.Machine.numLevels(), 2u);
  EXPECT_EQ(R.Machine.Levels[1].Weight, 8.0);

  // weights without machine: applies to the implied single level.
  auto Solo = support::parseJson(
      "{\"id\":5,\"op\":\"search\",\"source\":\"\","
      "\"weights\":\"l1=3\"}");
  ASSERT_TRUE(Solo.has_value());
  Request RW;
  ASSERT_TRUE(parseRequest(*Solo, RW, Err)) << Err;
  ASSERT_EQ(RW.Machine.numLevels(), 1u);
  EXPECT_EQ(RW.Machine.Levels[0].Weight, 3.0);
}

TEST(Protocol, BadMachineAndWeightsAreInvalidRequests) {
  HandlerFixture F;
  for (const char *Bad :
       {"{\"id\":1,\"op\":\"pad\",\"source\":\"\",\"machine\":\"no-such-preset\"}",
        "{\"id\":2,\"op\":\"pad\",\"source\":\"\",\"machine\":42}",
        "{\"id\":3,\"op\":\"pad\",\"source\":\"\",\"machine\":\"l1:0/32/1\"}",
        "{\"id\":4,\"op\":\"pad\",\"source\":\"\",\"weights\":\"l9=2\"}",
        "{\"id\":5,\"op\":\"pad\",\"source\":\"\",\"weights\":42}",
        "{\"id\":6,\"op\":\"pad\",\"source\":\"\",\"machine\":\"paper-l2\",\"weights\":\"l2=-1\"}"}) {
    support::JsonValue R = F.respond(Bad);
    EXPECT_FALSE(R.getBool("ok", true)) << Bad;
    EXPECT_EQ(errorCode(R), kErrInvalidRequest) << Bad;
  }
}

// Geometries whose sizes overflow int64 (2^34+1 gigabytes; 2^34+1 TLB
// entries of 1G pages; 8 ways of 2^60-byte lines, as a spec or as the
// one-level fields) or that name one level twice are refused at parse
// time, before any analysis could run on a wrapped or ambiguous machine.
TEST(Protocol, OverflowingOrAmbiguousGeometriesAreInvalidRequests) {
  HandlerFixture F;
  for (const char *Fields :
       {"\"machine\":\"l1:17179869185g/64/1\"",
        "\"machine\":\"l1:16k/64/1,tlb:17179869185/1g/4\"",
        "\"machine\":\"l1:4294967296g/1073741824g/8\"",
        "\"machine\":\"l1:16k/64/1,l1:32k/64/1\"",
        "\"cache\":4611686018427387904,\"line\":1152921504606846976,"
        "\"assoc\":8"}) {
    support::JsonValue R =
        F.respond(std::string("{\"id\":1,\"op\":\"pad\",") + Fields +
                  ",\"source\":" + quoted(kTinyProgram) + "}");
    EXPECT_FALSE(R.getBool("ok", true)) << Fields;
    EXPECT_EQ(errorCode(R), kErrInvalidRequest) << Fields;
  }
}

TEST(Protocol, MultiLevelPadCarriesMachineAndPerLevelSearchSections) {
  HandlerFixture F;
  support::JsonValue R = F.respond(
      "{\"id\":7,\"op\":\"pad\",\"machine\":\"paper-l2\",\"source\":" +
      quoted(kTinyProgram) + "}");
  ASSERT_TRUE(R.getBool("ok", false));
  const support::JsonValue *Res = R.find("result");
  ASSERT_NE(Res, nullptr);
  EXPECT_EQ(Res->getString("machine", ""), "l1:16k/32/1,l2:64k/64/1");

  support::JsonValue S = F.respond(
      "{\"id\":8,\"op\":\"search\",\"machine\":\"paper-l2\","
      "\"weights\":\"l1=1,l2=8\",\"budget\":4,\"source\":" +
      quoted(kTinyProgram) + "}");
  ASSERT_TRUE(S.getBool("ok", false));
  const support::JsonValue *SR = S.find("result");
  ASSERT_NE(SR, nullptr);
  EXPECT_EQ(SR->getString("machine", ""), "l1:16k/32/1,l2:64k/64/1");
  ASSERT_NE(SR->find("levels"), nullptr);
  ASSERT_NE(SR->find("best_cost"), nullptr);

  // Single-level requests keep the pre-hierarchy response shape: no
  // machine field, no per-level section.
  support::JsonValue Legacy = F.respond(
      "{\"id\":9,\"op\":\"search\",\"budget\":4,\"source\":" +
      quoted(kTinyProgram) + "}");
  ASSERT_TRUE(Legacy.getBool("ok", false));
  const support::JsonValue *LR = Legacy.find("result");
  ASSERT_NE(LR, nullptr);
  EXPECT_EQ(LR->find("machine"), nullptr);
  EXPECT_EQ(LR->find("levels"), nullptr);
}

TEST(Protocol, StatsOpReportsPredictorUnscored) {
  HandlerFixture F;
  support::JsonValue S = F.respond("{\"id\":1,\"op\":\"stats\"}");
  const support::JsonValue *Res = S.find("result");
  ASSERT_NE(Res, nullptr);
  const support::JsonValue *Req = Res->find("requests");
  ASSERT_NE(Req, nullptr);
  EXPECT_GE(Req->getInt("predictor_unscored", -1), 0);
  const support::JsonValue *SC = Res->find("shared_cache");
  ASSERT_NE(SC, nullptr);
  EXPECT_GE(SC->getInt("lattice_hits", -1), 0);
  EXPECT_GE(SC->getInt("lattice_misses", -1), 0);
}

//===----------------------------------------------------------------------===//
// Integer fields: reject, never truncate or wrap
//===----------------------------------------------------------------------===//

namespace {

/// Sends \p Frame and expects an invalid_request whose message names
/// \p Field.
void expectFieldRejected(HandlerFixture &F, const std::string &Frame,
                         const std::string &Field) {
  support::JsonValue R = F.respond(Frame);
  EXPECT_FALSE(R.getBool("ok", true)) << Frame;
  EXPECT_EQ(errorCode(R), kErrInvalidRequest) << Frame;
  const support::JsonValue *E = R.find("error");
  ASSERT_NE(E, nullptr) << Frame;
  EXPECT_NE(E->getString("message", "").find("'" + Field + "'"),
            std::string::npos)
      << Frame << " -> " << E->getString("message", "");
}

} // namespace

TEST(Protocol, BudgetOfTwoToThe32IsRejectedNotWrappedToZero) {
  // 2^32 used to wrap to an unsigned 0, which the engine raised to the
  // seed count: a 3-evaluation search answered ok.
  HandlerFixture F;
  expectFieldRejected(F,
                      "{\"id\":1,\"op\":\"search\",\"budget\":4294967296,"
                      "\"source\":" +
                          quoted(kTinyProgram) + "}",
                      "budget");
}

TEST(Protocol, BudgetJustPastTwoToThe32IsRejectedNotWrappedToOne) {
  HandlerFixture F;
  expectFieldRejected(F,
                      "{\"id\":1,\"op\":\"search\",\"budget\":4294967297,"
                      "\"source\":" +
                          quoted(kTinyProgram) + "}",
                      "budget");
  // The cap itself is a valid budget.
  auto Doc = support::parseJson(
      "{\"id\":1,\"op\":\"search\",\"source\":\"\",\"budget\":4294967295}");
  ASSERT_TRUE(Doc.has_value());
  Request R;
  std::string Err;
  ASSERT_TRUE(parseRequest(*Doc, R, Err)) << Err;
  EXPECT_EQ(R.SearchBudget, 4294967295);
}

TEST(Protocol, OutOfRangeIdIsRejectedWithoutAGarbageEcho) {
  // 1e30 does not fit an int64; converting it was undefined behaviour
  // and echoed id -9223372036854775808.
  HandlerFixture F;
  support::JsonValue R = F.respond("{\"id\":1e30,\"op\":\"ping\"}");
  EXPECT_EQ(errorCode(R), kErrInvalidRequest);
  EXPECT_EQ(R.getInt("id", 0), -1);
  const support::JsonValue *E = R.find("error");
  ASSERT_NE(E, nullptr);
  EXPECT_NE(E->getString("message", "").find("'id' must be an integer"),
            std::string::npos)
      << E->getString("message", "");
}

TEST(Protocol, FractionalAndOutOfRangeIntegersAreInvalidRequests) {
  HandlerFixture F;
  const std::string Src = ",\"source\":" + quoted(kTinyProgram) + "}";
  for (const auto &[Field, Value] :
       std::vector<std::pair<std::string, std::string>>{
           {"id", "2.5"},
           {"budget", "2.5"},
           {"budget", "1e300"},
           {"seed", "1e30"},
           {"seed", "0.5"},
           {"max_accesses", "1e30"},
           {"max_footprint", "-1"},
           {"memory_budget", "\"big\""},
           {"cache", "16384.5"},
           {"line", "1e19"},
           {"assoc", "4294967297"}}) {
    std::string Frame = Field == "id"
                            ? "{\"id\":" + Value + ",\"op\":\"search\"" + Src
                            : "{\"id\":1,\"op\":\"search\",\"" + Field +
                                  "\":" + Value + Src;
    expectFieldRejected(F, Frame, Field);
  }
  // Integral doubles are integers.
  auto Doc = support::parseJson(
      "{\"id\":3.0,\"op\":\"search\",\"source\":\"\",\"budget\":1e3}");
  ASSERT_TRUE(Doc.has_value());
  Request R;
  std::string Err;
  ASSERT_TRUE(parseRequest(*Doc, R, Err)) << Err;
  EXPECT_EQ(R.Id, 3);
  EXPECT_EQ(R.SearchBudget, 1000);
}

//===----------------------------------------------------------------------===//
// Search responses
//===----------------------------------------------------------------------===//

namespace {

/// A search reply up to its pipeline-stats member, the only part that
/// carries timings.
std::string resultBytes(HandlerFixture &F, const std::string &Frame) {
  std::string Reply = F.Handler.handleLine(Frame);
  EXPECT_NE(Reply.find("\"ok\":true"), std::string::npos) << Reply;
  return Reply.substr(0, Reply.find(",\"stats\":"));
}

} // namespace

TEST(Protocol, RetiredBatchAndReplayFieldsDoNotChangeTheAnswer) {
  // Old clients still send the batched-replay knobs; the search scores
  // one way now, so the answer is the same bytes without them.
  HandlerFixture F;
  const std::string Head =
      "{\"id\":5,\"op\":\"search\",\"budget\":12,\"seed\":3";
  const std::string Tail = ",\"source\":" + quoted(kTinyProgram) + "}";
  std::string Plain = resultBytes(F, Head + Tail);
  EXPECT_EQ(resultBytes(F, Head + ",\"batch\":16,\"replay\":false" + Tail),
            Plain);
  EXPECT_EQ(Plain.find("batch_width"), std::string::npos) << Plain;
}

TEST(Protocol, MultiLevelSearchPercentsAreFirstLevelMissRates) {
  // The *_percent fields are first-cache-level miss rates: L1 misses
  // over L1 accesses, never the weighted cost over accesses (which read
  // 532% for jacobi512 on paper-l2).
  HandlerFixture F;
  support::JsonValue S = F.respond(
      "{\"id\":8,\"op\":\"search\",\"machine\":\"paper-l2\","
      "\"budget\":6,\"source\":" +
      quoted(kTinyProgram) + "}");
  ASSERT_TRUE(S.getBool("ok", false));
  const support::JsonValue *SR = S.find("result");
  ASSERT_NE(SR, nullptr);
  const double Accesses = SR->getDouble("accesses", 0);
  ASSERT_GT(Accesses, 0);
  const support::JsonValue *Levels = SR->find("levels");
  ASSERT_NE(Levels, nullptr);
  ASSERT_EQ(Levels->elements().size(), 2u);
  const support::JsonValue &L1 = Levels->elements()[0];
  ASSERT_EQ(L1.getString("name", ""), "l1");
  for (const char *What : {"original", "pad", "best"}) {
    const double Percent =
        SR->getDouble(std::string(What) + "_percent", -1);
    EXPECT_EQ(Percent,
              100.0 * L1.getDouble(std::string(What) + "_misses", -1) /
                  Accesses)
        << What;
    EXPECT_LE(Percent, 100.0) << What;
  }
  // The weighted cost, by contrast, counts L2 misses eight times over.
  EXPECT_GT(SR->getDouble("original_cost", 0),
            L1.getDouble("original_misses", 0));
}
