//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"

#include "support/ParseInteger.h"

#include <atomic>
#include <charconv>
#include <cstdlib>
#include <limits>
#include <optional>

namespace padx {
namespace support {
namespace fault {

namespace {

constexpr const char *kSiteNames[kNumSites] = {
    "arena_alloc", "connect_error", "send_error",  "send_eintr",
    "send_short",  "recv_error",    "recv_eintr",  "recv_eagain",
    "recv_short",  "deadline_jitter",
};

constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

/// All of \p S as a probability in [0, 1]. The negated range test also
/// turns away NaN, which fails every comparison.
std::optional<double> parseProbability(std::string_view S) {
  double P = 0;
  auto [End, Ec] = std::from_chars(S.data(), S.data() + S.size(), P);
  if (Ec != std::errc() || End != S.data() + S.size() ||
      !(P >= 0.0 && P <= 1.0))
    return std::nullopt;
  return P;
}

} // namespace

const char *siteName(Site S) { return kSiteNames[static_cast<unsigned>(S)]; }

bool siteFromName(std::string_view Name, Site &Out) {
  for (unsigned I = 0; I < kNumSites; ++I) {
    if (Name == kSiteNames[I]) {
      Out = static_cast<Site>(I);
      return true;
    }
  }
  return false;
}

bool Config::parseSpec(std::string_view Spec, std::string *Error) {
  auto Fail = [&](const std::string &Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };
  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    std::string_view Entry = Spec.substr(
        Pos, Comma == std::string_view::npos ? std::string_view::npos
                                             : Comma - Pos);
    Pos = Comma == std::string_view::npos ? Spec.size() : Comma + 1;
    if (Entry.empty())
      continue;
    size_t Eq = Entry.find('=');
    if (Eq == std::string_view::npos)
      return Fail("fault spec entry '" + std::string(Entry) +
                  "' is missing '='");
    std::string_view Name = Entry.substr(0, Eq);
    std::string_view Value = Entry.substr(Eq + 1);

    SiteConfig SC;
    if (!Value.empty() && Value.front() == '#') {
      std::optional<std::uint64_t> N =
          parseInteger<std::uint64_t>(Value.substr(1), 0, kMaxU64);
      if (!N)
        return Fail("fault spec entry '" + std::string(Entry) +
                    "' has a bad count after '#'");
      SC.FireFirst = *N;
    } else {
      std::optional<double> P = parseProbability(Value);
      if (!P)
        return Fail("fault spec entry '" + std::string(Entry) +
                    "' needs a probability in [0,1] or '#N'");
      SC.Probability = *P;
    }

    if (Name == "*") {
      for (SiteConfig &Dst : Sites) {
        if (SC.FireFirst)
          Dst.FireFirst = SC.FireFirst;
        else
          Dst.Probability = SC.Probability;
      }
      continue;
    }
    Site S;
    if (!siteFromName(Name, S))
      return Fail("unknown fault site '" + std::string(Name) + "'");
    SiteConfig &Dst = Sites[static_cast<unsigned>(S)];
    if (SC.FireFirst)
      Dst.FireFirst = SC.FireFirst;
    else
      Dst.Probability = SC.Probability;
  }
  return true;
}

namespace {

struct State {
  std::atomic<bool> Enabled{false};
  std::uint64_t Seed = 1;
  double Prob[kNumSites] = {};
  std::uint64_t FireFirst[kNumSites] = {};
  std::atomic<std::uint64_t> Occurrences[kNumSites] = {};
  std::atomic<std::uint64_t> Fired[kNumSites] = {};
};

State G;

std::uint64_t splitmix64(std::uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

} // namespace

void configure(const Config &C) {
  // Release/acquire on Enabled orders the plain-field writes against
  // readers; see the header's thread-safety contract for the rest.
  G.Enabled.store(false, std::memory_order_release);
  G.Seed = C.Seed;
  for (unsigned I = 0; I < kNumSites; ++I) {
    G.Prob[I] = C.Sites[I].Probability;
    G.FireFirst[I] = C.Sites[I].FireFirst;
    G.Occurrences[I].store(0, std::memory_order_relaxed);
    G.Fired[I].store(0, std::memory_order_relaxed);
  }
  G.Enabled.store(true, std::memory_order_release);
}

void disable() { G.Enabled.store(false, std::memory_order_release); }

bool enabled() { return G.Enabled.load(std::memory_order_acquire); }

bool configureFromEnv(std::string *Desc, std::string *Error) {
  const char *Spec = std::getenv("PADX_FAULT_SPEC");
  if (!Spec || !*Spec)
    return false;
  Config C;
  std::string Err;
  const char *SeedStr = std::getenv("PADX_FAULT_SEED");
  if (SeedStr && *SeedStr) {
    std::optional<std::uint64_t> Seed =
        parseInteger<std::uint64_t>(SeedStr, 0, kMaxU64);
    if (!Seed)
      Err = "PADX_FAULT_SEED takes an integer in [0, " +
            std::to_string(kMaxU64) + "], got '" + SeedStr + "'";
    else
      C.Seed = *Seed;
  }
  if (Err.empty() && !C.parseSpec(Spec, &Err))
    Err = "PADX_FAULT_SPEC: " + Err;
  if (!Err.empty()) {
    if (Error)
      *Error = Err;
    return false;
  }
  configure(C);
  if (Desc)
    *Desc = "fault injection enabled (seed " + std::to_string(C.Seed) +
            ", spec \"" + Spec + "\")";
  return true;
}

bool fire(Site S) {
  if (!G.Enabled.load(std::memory_order_acquire))
    return false;
  unsigned I = static_cast<unsigned>(S);
  std::uint64_t N = G.Occurrences[I].fetch_add(1, std::memory_order_relaxed);
  bool F;
  if (N < G.FireFirst[I]) {
    F = true;
  } else if (G.Prob[I] <= 0.0) {
    F = false;
  } else {
    std::uint64_t H =
        splitmix64(G.Seed ^ (0x100000001B3ull * (I + 1)) ^ N);
    // Top 53 bits give a uniform double in [0, 1).
    F = static_cast<double>(H >> 11) * 0x1.0p-53 < G.Prob[I];
  }
  if (F)
    G.Fired[I].fetch_add(1, std::memory_order_relaxed);
  return F;
}

std::uint64_t value(Site S, std::uint64_t Max) {
  if (Max == 0 || !fire(S))
    return 0;
  unsigned I = static_cast<unsigned>(S);
  std::uint64_t N = G.Occurrences[I].load(std::memory_order_relaxed);
  return 1 + splitmix64(G.Seed ^ 0xA5A5A5A5ull ^
                        (0x9E3779B9ull * (I + 1)) ^ N) %
                 Max;
}

std::uint64_t occurrences(Site S) {
  return G.Occurrences[static_cast<unsigned>(S)].load(
      std::memory_order_relaxed);
}

std::uint64_t fired(Site S) {
  return G.Fired[static_cast<unsigned>(S)].load(std::memory_order_relaxed);
}

} // namespace fault
} // namespace support
} // namespace padx
