//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The padd wire protocol (DESIGN.md section 12): newline-delimited JSON
/// over a unix-domain socket. Every request is one line carrying an id,
/// an operation, and the operation's parameters; every response is one
/// line echoing the id. Requests on one connection may be pipelined and
/// are answered in completion order — the id, not the position, pairs a
/// response with its request.
///
/// Operations: ping, pad, padlite, lint, search, stats, health,
/// shutdown.
///
/// Error responses are structured, never a dropped connection:
///
///   {"id":7,"ok":false,"error":{"code":"resource_exhausted",
///                               "message":"..."}}
///
/// with codes: parse_error (unparseable frame), invalid_request (bad or
/// missing fields), invalid_program (PadLang parse/validation failure,
/// diagnostics in the message), resource_exhausted (footprint, trace or
/// memory quota), deadline_exceeded (the deadline passed before any
/// result existed), frame_too_large (oversized frame; the only error
/// after which the server closes the connection, since the stream can
/// no longer be framed), overloaded (admission control shed the request
/// — the error object carries a "retry_after_ms" hint and the
/// connection stays open), internal (a handler bug).
///
//===----------------------------------------------------------------------===//

#ifndef PADX_SERVER_PROTOCOL_H
#define PADX_SERVER_PROTOCOL_H

#include "machine/MachineModel.h"
#include "support/Json.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace padx {
namespace server {

enum class Op {
  Ping,     ///< Liveness probe; echoes server identity.
  Pad,      ///< The paper's PAD over `source`.
  PadLite,  ///< The paper's PADLITE over `source`.
  Lint,     ///< Rule catalog over `source`; report in `format`.
  Search,   ///< Simulation-guided search; honors deadline/cancel.
  Stats,    ///< Server + shared-cache counters.
  Health,   ///< Cheap liveness/load probe (load-balancer safe).
  Shutdown, ///< Ask the daemon to stop after answering.
};

const char *opName(Op O);

/// \name Protocol error codes (the `error.code` values).
/// @{
inline constexpr const char *kErrParse = "parse_error";
inline constexpr const char *kErrInvalidRequest = "invalid_request";
inline constexpr const char *kErrInvalidProgram = "invalid_program";
inline constexpr const char *kErrResourceExhausted = "resource_exhausted";
inline constexpr const char *kErrDeadlineExceeded = "deadline_exceeded";
inline constexpr const char *kErrFrameTooLarge = "frame_too_large";
inline constexpr const char *kErrOverloaded = "overloaded";
inline constexpr const char *kErrInternal = "internal";
/// @}

/// One parsed request. Numeric fields default to 0 = "server default /
/// unlimited"; the handler substitutes its configured ceilings.
struct Request {
  int64_t Id = -1;
  Op Operation = Op::Ping;

  std::string Source;   ///< PadLang text (pad/padlite/lint/search).
  std::string Filename; ///< Report label; default "<request>".

  /// The machine the request targets, resolved once at parse time:
  /// the optional "machine" field (a preset name or spec string, the
  /// --machine grammar), or else the single level the cache/line/assoc
  /// fields describe (default: the paper's 16K direct-mapped cache).
  /// The optional "weights" field overrides level weights
  /// ("l1=1,l2=8"). Single-level machines keep the pre-hierarchy
  /// response shape.
  MachineModel Machine = MachineModel::base16K();
  std::string Format = "text"; ///< lint: text | json | sarif.
  bool Emit = true;            ///< Include the transformed source.

  double DeadlineMs = 0;         ///< 0 = no deadline.
  int64_t MaxFootprintBytes = 0; ///< 0 = server default.
  int64_t MaxAccesses = 0;       ///< 0 = server default.
  int64_t MemoryBudgetBytes = 0; ///< 0 = server default.

  // Search knobs (search op only).
  int64_t SearchBudget = 48; ///< 1 .. 2^32-1 exact evaluations.
  int64_t SearchSeed = 0;

  // Shutdown knobs (shutdown op only). "now" answers and stops
  // immediately; "drain" stops accepting and finishes in-flight work
  // under the drain deadline (DrainMs, 0 = server default).
  std::string ShutdownMode = "now";
  double DrainMs = 0;
};

/// Validates \p Doc (one parsed frame) into \p R. On failure returns
/// false with a human-readable reason in \p Error; \p R.Id is still
/// filled when the frame carried a valid one, so the error response
/// can echo it. Integer fields must be integral and in range — a
/// fraction, an out-of-range value or a non-number is rejected by name,
/// never truncated or wrapped. Unknown fields are ignored.
bool parseRequest(const support::JsonValue &Doc, Request &R,
                  std::string &Error);

/// One-line error response (no trailing newline). A positive
/// \p RetryAfterMs adds a "retry_after_ms" hint to the error object
/// (the overloaded contract: clients should back off at least that
/// long before resending the same request id).
std::string errorResponse(int64_t Id, std::string_view Code,
                          std::string_view Message,
                          double RetryAfterMs = 0);

} // namespace server
} // namespace padx

#endif // PADX_SERVER_PROTOCOL_H
