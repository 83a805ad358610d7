//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "server/Protocol.h"

#include "support/JsonWriter.h"

#include <limits>
#include <sstream>

using namespace padx;
using namespace padx::server;

const char *server::opName(Op O) {
  switch (O) {
  case Op::Ping:
    return "ping";
  case Op::Pad:
    return "pad";
  case Op::PadLite:
    return "padlite";
  case Op::Lint:
    return "lint";
  case Op::Search:
    return "search";
  case Op::Stats:
    return "stats";
  case Op::Health:
    return "health";
  case Op::Shutdown:
    return "shutdown";
  }
  return "unknown";
}

namespace {

bool parseOp(const std::string &Name, Op &O) {
  if (Name == "ping")
    O = Op::Ping;
  else if (Name == "pad")
    O = Op::Pad;
  else if (Name == "padlite")
    O = Op::PadLite;
  else if (Name == "lint")
    O = Op::Lint;
  else if (Name == "search")
    O = Op::Search;
  else if (Name == "stats")
    O = Op::Stats;
  else if (Name == "health")
    O = Op::Health;
  else if (Name == "shutdown")
    O = Op::Shutdown;
  else
    return false;
  return true;
}

constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();

bool needsSource(Op O) {
  return O == Op::Pad || O == Op::PadLite || O == Op::Lint ||
         O == Op::Search;
}

/// The same geometry rules padtool enforces on its flags, phrased for
/// the protocol fields.
bool validGeometry(const CacheConfig &C, std::string &Error) {
  if (!C.isValid()) {
    Error = "invalid cache geometry: cache=" +
            std::to_string(C.SizeBytes) +
            " line=" + std::to_string(C.LineBytes) +
            " assoc=" + std::to_string(C.Associativity);
    return false;
  }
  return true;
}

/// Reads the optional integer field \p Field into \p Out, which keeps
/// its default when the field is absent. A present value must be an
/// integer in [Min, Max]: a non-number, a fraction or an out-of-range
/// value is an error naming the field, never a truncation or a wrap.
bool intField(const support::JsonValue &Doc, const char *Field,
              int64_t Min, int64_t Max, int64_t &Out, std::string &Error) {
  const support::JsonValue *V = Doc.find(Field);
  if (!V)
    return true;
  if (V->isInt64() && V->asInt64() >= Min && V->asInt64() <= Max) {
    Out = V->asInt64();
    return true;
  }
  Error = std::string("field '") + Field + "' must be an integer in [" +
          std::to_string(Min) + ", " + std::to_string(Max) + "]";
  return false;
}

} // namespace

bool server::parseRequest(const support::JsonValue &Doc, Request &R,
                          std::string &Error) {
  if (!Doc.isObject()) {
    Error = "request must be a JSON object";
    return false;
  }

  // Fill the id first so even a rejected request gets it echoed.
  const support::JsonValue *IdV = Doc.find("id");
  if (!IdV || !IdV->isNumber()) {
    Error = "missing or non-numeric 'id'";
    return false;
  }
  if (!intField(Doc, "id", 0, kInt64Max, R.Id, Error))
    return false;

  const support::JsonValue *OpV = Doc.find("op");
  if (!OpV || !OpV->isString()) {
    Error = "missing or non-string 'op'";
    return false;
  }
  if (!parseOp(OpV->asString(), R.Operation)) {
    Error = "unknown op '" + OpV->asString() + "'";
    return false;
  }

  if (needsSource(R.Operation)) {
    const support::JsonValue *SrcV = Doc.find("source");
    if (!SrcV || !SrcV->isString()) {
      Error = std::string("op '") + opName(R.Operation) +
              "' requires a string 'source'";
      return false;
    }
    R.Source = SrcV->asString();
  }
  R.Filename = Doc.getString("filename", "<request>");

  // The machine: the "machine" field when present, else the single
  // level from cache/line/assoc (validated only then). Weights apply to
  // whichever machine that resolved to.
  if (const support::JsonValue *MV = Doc.find("machine")) {
    if (!MV->isString()) {
      Error = "field 'machine' must be a string (preset or spec)";
      return false;
    }
    std::string MErr;
    if (!MachineModel::parse(MV->asString(), R.Machine, &MErr)) {
      Error = "bad 'machine': " + MErr;
      return false;
    }
  } else {
    CacheConfig Cache = CacheConfig::base16K();
    int64_t Assoc = Cache.Associativity;
    if (!intField(Doc, "cache", 1, kInt64Max, Cache.SizeBytes, Error) ||
        !intField(Doc, "line", 1, kInt64Max, Cache.LineBytes, Error) ||
        !intField(Doc, "assoc", 0, std::numeric_limits<int>::max(), Assoc,
                  Error))
      return false;
    Cache.Associativity = static_cast<int>(Assoc);
    if (needsSource(R.Operation) && !validGeometry(Cache, Error))
      return false;
    R.Machine = MachineModel::singleLevel(Cache);
  }
  if (const support::JsonValue *WV = Doc.find("weights")) {
    if (!WV->isString()) {
      Error = "field 'weights' must be a string like \"l1=1,l2=8\"";
      return false;
    }
    std::string WErr;
    if (!R.Machine.applyWeights(WV->asString(), &WErr)) {
      Error = "bad 'weights': " + WErr;
      return false;
    }
  }

  R.Format = Doc.getString("format", R.Format);
  if (R.Operation == Op::Lint && R.Format != "text" &&
      R.Format != "json" && R.Format != "sarif") {
    Error = "unknown format '" + R.Format +
            "' (expected text, json or sarif)";
    return false;
  }

  R.Emit = Doc.getBool("emit", R.Emit);

  R.DeadlineMs = Doc.getDouble("deadline_ms", 0);
  if (R.DeadlineMs < 0) {
    Error = "field 'deadline_ms' must be >= 0";
    return false;
  }
  if (!intField(Doc, "max_footprint", 0, kInt64Max, R.MaxFootprintBytes,
                Error) ||
      !intField(Doc, "max_accesses", 0, kInt64Max, R.MaxAccesses, Error) ||
      !intField(Doc, "memory_budget", 0, kInt64Max, R.MemoryBudgetBytes,
                Error) ||
      !intField(Doc, "budget", 1, std::numeric_limits<uint32_t>::max(),
                R.SearchBudget, Error) ||
      !intField(Doc, "seed", std::numeric_limits<int64_t>::min(),
                kInt64Max, R.SearchSeed, Error))
    return false;

  if (R.Operation == Op::Shutdown) {
    if (const support::JsonValue *ModeV = Doc.find("mode")) {
      if (!ModeV->isString()) {
        Error = "field 'mode' must be a string";
        return false;
      }
      R.ShutdownMode = ModeV->asString();
    }
    if (R.ShutdownMode != "now" && R.ShutdownMode != "drain") {
      Error = "unknown shutdown mode '" + R.ShutdownMode +
              "' (expected now or drain)";
      return false;
    }
    R.DrainMs = Doc.getDouble("drain_ms", 0);
    if (R.DrainMs < 0) {
      Error = "field 'drain_ms' must be >= 0";
      return false;
    }
  }
  return true;
}

std::string server::errorResponse(int64_t Id, std::string_view Code,
                                  std::string_view Message,
                                  double RetryAfterMs) {
  std::ostringstream OS;
  support::JsonWriter JW(OS);
  JW.beginObject();
  JW.field("id", Id);
  JW.field("ok", false);
  JW.key("error");
  JW.beginObject();
  JW.field("code", std::string(Code));
  JW.field("message", std::string(Message));
  if (RetryAfterMs > 0)
    JW.field("retry_after_ms", RetryAfterMs);
  JW.endObject();
  JW.endObject();
  return OS.str();
}
