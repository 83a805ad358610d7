//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Deterministic, seedable fault injection for robustness testing.
//
// Call sites name a Site and ask fire(Site) whether the fault should
// trigger for this occurrence. Decisions are a pure function of
// (seed, site, per-site occurrence counter), so a run is exactly
// reproducible from its seed: re-running with the same seed and the
// same sequence of operations per site replays the same faults.
//
// The hooks are compiled into every build, but nothing fires until
// configure()/configureFromEnv() is called — libraries never
// self-enable, only binaries and tests that opt in. A disabled hook
// costs one atomic load.
//
// Thread-safety contract: fire()/value() are safe to call from any
// number of threads. configure()/disable() must not race with them —
// install the configuration before the threads that hit injection
// points start, and tear it down after they have joined.
//
//===----------------------------------------------------------------------===//

#ifndef PADX_SUPPORT_FAULTINJECTION_H
#define PADX_SUPPORT_FAULTINJECTION_H

#include <cstdint>
#include <string>
#include <string_view>

namespace padx {
namespace support {
namespace fault {

/// Injection points wired into the codebase. Spec names (for
/// PADX_FAULT_SPEC and Config::parseSpec) are the lower_snake forms
/// returned by siteName().
enum class Site : unsigned {
  ArenaAlloc,     ///< Arena::allocate/charge throws ArenaBudgetExceeded.
  ConnectError,   ///< connectUnix fails with ECONNREFUSED.
  SendError,      ///< sendAll: hard ECONNRESET failure.
  SendEintr,      ///< sendAll: spurious EINTR before the syscall.
  SendShort,      ///< sendAll: kernel accepts only part of the buffer.
  RecvError,      ///< LineReader: hard ECONNRESET failure.
  RecvEintr,      ///< LineReader: spurious EINTR before the syscall.
  RecvEagain,     ///< LineReader: spurious EAGAIN before the syscall.
  RecvShort,      ///< LineReader: short read (1..chunk bytes).
  DeadlineJitter, ///< RequestHandler: shrinks a request deadline by 1..N ms.
};

inline constexpr unsigned kNumSites = 10;

/// Spec name of a site, e.g. "send_short".
const char *siteName(Site S);

/// Reverse lookup; returns false for unknown names.
bool siteFromName(std::string_view Name, Site &Out);

struct SiteConfig {
  /// Per-occurrence probability in [0, 1] (never NaN).
  double Probability = 0.0;
  /// Fire unconditionally for the first N occurrences (deterministic
  /// unit-test mode; applied before the probability roll).
  std::uint64_t FireFirst = 0;
};

struct Config {
  std::uint64_t Seed = 1;
  SiteConfig Sites[kNumSites];

  /// Parses a spec like "send_eintr=0.05,recv_short=0.2,arena_alloc=#3".
  /// `name=P` sets the probability; `name=#N` sets FireFirst; the name
  /// `*` applies the value to every site. P must be a number in [0, 1]
  /// and N an unsigned decimal integer, each with no leading space or
  /// '+' and no trailing bytes. Returns false (and sets *Error) on
  /// unknown names or malformed or out-of-range values. Parsed entries
  /// accumulate onto the current contents.
  bool parseSpec(std::string_view Spec, std::string *Error = nullptr);
};

/// Installs \p C, resets all per-site counters, and enables injection.
void configure(const Config &C);

/// Disables injection (hooks return false) without clearing counters,
/// so tests can assert on occurrence/fired totals after the fact.
void disable();

/// True between configure() and disable().
bool enabled();

/// Reads PADX_FAULT_SPEC (required) and PADX_FAULT_SEED (a whole
/// unsigned decimal integer; 1 when unset or empty) and calls
/// configure().
/// Returns true if injection was enabled; on success *Desc receives a
/// printable summary. With the spec present, a malformed spec or seed
/// returns false with *Error set to a message naming the variable; an
/// absent spec returns false and leaves *Error empty. Never called by
/// library code — binaries opt in explicitly.
bool configureFromEnv(std::string *Desc = nullptr,
                      std::string *Error = nullptr);

/// One occurrence of \p S: returns true if the fault fires.
bool fire(Site S);

/// One occurrence of \p S: returns 0 when not firing, otherwise a
/// deterministic value in [1, Max]. (E.g. the byte count a short
/// write is truncated to.)
std::uint64_t value(Site S, std::uint64_t Max);

/// Total occurrences of \p S since the last configure().
std::uint64_t occurrences(Site S);

/// How many of those occurrences fired.
std::uint64_t fired(Site S);

/// RAII: installs a configuration for the current scope and disables
/// injection on exit. The standard way for tests to use the hooks.
class ScopedFaultConfig {
public:
  explicit ScopedFaultConfig(const Config &C) { configure(C); }
  ~ScopedFaultConfig() { disable(); }
  ScopedFaultConfig(const ScopedFaultConfig &) = delete;
  ScopedFaultConfig &operator=(const ScopedFaultConfig &) = delete;
};

} // namespace fault
} // namespace support
} // namespace padx

#endif // PADX_SUPPORT_FAULTINJECTION_H
