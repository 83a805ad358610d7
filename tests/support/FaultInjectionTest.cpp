//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the deterministic fault-injection framework: spec and
/// environment parsing (malformed counts, probabilities and seeds are
/// rejected, never wrapped), determinism of fire decisions across
/// replays, FireFirst unconditional mode, occurrence/fired accounting,
/// value() ranges, and the disabled-by-default contract that keeps the
/// rest of the test suite fault-free.
///
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

using namespace padx::support;

namespace {

/// Sets (or, with nullopt, unsets) an environment variable for one
/// scope and restores the previous value on exit.
class ScopedEnv {
public:
  ScopedEnv(const char *Name, std::optional<std::string> Value)
      : Name(Name) {
    if (const char *Old = std::getenv(Name))
      Saved = Old;
    set(Value);
  }
  ~ScopedEnv() { set(Saved); }
  ScopedEnv(const ScopedEnv &) = delete;
  ScopedEnv &operator=(const ScopedEnv &) = delete;

private:
  void set(const std::optional<std::string> &Value) {
    if (Value)
      ::setenv(Name, Value->c_str(), 1);
    else
      ::unsetenv(Name);
  }

  const char *Name;
  std::optional<std::string> Saved;
};

} // namespace

TEST(FaultSpec, ParsesProbabilitiesAndCounts) {
  fault::Config C;
  std::string Err;
  ASSERT_TRUE(C.parseSpec(
      "send_short=0.25,recv_eintr=0.5,arena_alloc=#3", &Err))
      << Err;
  EXPECT_DOUBLE_EQ(
      C.Sites[static_cast<unsigned>(fault::Site::SendShort)].Probability,
      0.25);
  EXPECT_DOUBLE_EQ(
      C.Sites[static_cast<unsigned>(fault::Site::RecvEintr)].Probability,
      0.5);
  EXPECT_EQ(
      C.Sites[static_cast<unsigned>(fault::Site::ArenaAlloc)].FireFirst,
      3u);
}

TEST(FaultSpec, WildcardAppliesToEverySite) {
  fault::Config C;
  ASSERT_TRUE(C.parseSpec("*=0.1"));
  for (unsigned I = 0; I < fault::kNumSites; ++I)
    EXPECT_DOUBLE_EQ(C.Sites[I].Probability, 0.1) << "site " << I;
}

TEST(FaultSpec, RejectsBadInput) {
  fault::Config C;
  std::string Err;
  EXPECT_FALSE(C.parseSpec("no_such_site=0.5", &Err));
  EXPECT_NE(Err.find("no_such_site"), std::string::npos);
  EXPECT_FALSE(C.parseSpec("send_short", &Err));
  EXPECT_FALSE(C.parseSpec("send_short=1.5", &Err));
  EXPECT_FALSE(C.parseSpec("send_short=-0.1", &Err));
  EXPECT_FALSE(C.parseSpec("send_short=#x", &Err));
  // Empty entries (trailing commas) are tolerated.
  EXPECT_TRUE(C.parseSpec("send_short=0.5,,", &Err)) << Err;
}

// "#-1" used to wrap to FireFirst = 2^64-1, a site that fires forever;
// a sign or a space before the count was skipped over.
TEST(FaultSpec, CountsAreWholeUnsignedIntegers) {
  for (const char *Bad :
       {"send_error=#-1", "send_error=# 3", "send_error=#+3",
        "send_error=#3x", "send_error=#",
        "send_error=#18446744073709551616"}) {
    fault::Config C;
    std::string Err;
    EXPECT_FALSE(C.parseSpec(Bad, &Err)) << Bad;
    EXPECT_NE(Err.find("bad count"), std::string::npos) << Bad;
    EXPECT_EQ(
        C.Sites[static_cast<unsigned>(fault::Site::SendError)].FireFirst,
        0u)
        << Bad;
  }
  fault::Config C;
  ASSERT_TRUE(C.parseSpec("send_error=#18446744073709551615"));
  EXPECT_EQ(
      C.Sites[static_cast<unsigned>(fault::Site::SendError)].FireFirst,
      18446744073709551615u);
}

// NaN fails both sides of a "< 0 or > 1" test, so "*=nan" used to pass.
TEST(FaultSpec, ProbabilitiesAreNumbersInTheUnitInterval) {
  for (const char *Bad : {"*=nan", "send_short=nan", "send_short=-nan",
                          "send_short=inf", "send_short= 0.5",
                          "send_short=+0.5", "send_short=0.5x"}) {
    fault::Config C;
    EXPECT_FALSE(C.parseSpec(Bad)) << Bad;
    for (unsigned I = 0; I < fault::kNumSites; ++I)
      EXPECT_EQ(C.Sites[I].Probability, 0.0) << Bad << " site " << I;
  }
  fault::Config C;
  ASSERT_TRUE(C.parseSpec("send_short=0,recv_short=1,send_eintr=1e-1"));
  EXPECT_EQ(
      C.Sites[static_cast<unsigned>(fault::Site::RecvShort)].Probability,
      1.0);
  EXPECT_EQ(
      C.Sites[static_cast<unsigned>(fault::Site::SendEintr)].Probability,
      0.1);
}

// "-1" used to become seed 2^64-1 and "12abc" was silently ignored
// (seed 1); now either fails configuration, naming the variable, and
// padd exits 1 on it as it does for a bad spec.
TEST(FaultInjection, EnvironmentSeedMustBeAWholeUnsignedInteger) {
  ScopedEnv Spec("PADX_FAULT_SPEC", "send_short=0.5");
  for (const char *Bad : {"-1", "12abc", " 7", "+7",
                          "18446744073709551616"}) {
    ScopedEnv Seed("PADX_FAULT_SEED", Bad);
    std::string Desc, Err;
    EXPECT_FALSE(fault::configureFromEnv(&Desc, &Err)) << Bad;
    EXPECT_NE(Err.find("PADX_FAULT_SEED"), std::string::npos)
        << "'" << Bad << "': " << Err;
    EXPECT_FALSE(fault::enabled()) << Bad;
  }
  {
    ScopedEnv Seed("PADX_FAULT_SEED", "18446744073709551615");
    std::string Desc, Err;
    ASSERT_TRUE(fault::configureFromEnv(&Desc, &Err)) << Err;
    EXPECT_NE(Desc.find("seed 18446744073709551615"), std::string::npos)
        << Desc;
    fault::disable();
  }
  {
    ScopedEnv Seed("PADX_FAULT_SEED", "");
    std::string Desc, Err;
    ASSERT_TRUE(fault::configureFromEnv(&Desc, &Err)) << Err;
    EXPECT_NE(Desc.find("seed 1,"), std::string::npos) << Desc;
    fault::disable();
  }
  // A bad spec names its own variable; no spec at all is no error.
  {
    ScopedEnv BadSpec("PADX_FAULT_SPEC", "send_short=nan");
    std::string Err;
    EXPECT_FALSE(fault::configureFromEnv(nullptr, &Err));
    EXPECT_EQ(Err.rfind("PADX_FAULT_SPEC: ", 0), 0u) << Err;
  }
  {
    ScopedEnv NoSpec("PADX_FAULT_SPEC", std::nullopt);
    ScopedEnv Seed("PADX_FAULT_SEED", "12abc");
    std::string Err;
    EXPECT_FALSE(fault::configureFromEnv(nullptr, &Err));
    EXPECT_TRUE(Err.empty()) << Err;
  }
  EXPECT_FALSE(fault::enabled());
}

TEST(FaultSpec, SiteNamesRoundTrip) {
  for (unsigned I = 0; I < fault::kNumSites; ++I) {
    fault::Site S = static_cast<fault::Site>(I);
    fault::Site Back;
    ASSERT_TRUE(fault::siteFromName(fault::siteName(S), Back))
        << fault::siteName(S);
    EXPECT_EQ(static_cast<unsigned>(Back), I);
  }
  fault::Site S;
  EXPECT_FALSE(fault::siteFromName("bogus", S));
  EXPECT_FALSE(fault::siteFromName("", S));
}

TEST(FaultInjection, DisabledByDefault) {
  // The entire rest of the test suite depends on this: hooks compiled
  // in (or not), nothing fires until someone calls configure().
  EXPECT_FALSE(fault::enabled());
  EXPECT_FALSE(fault::fire(fault::Site::SendShort));
  EXPECT_EQ(fault::value(fault::Site::RecvShort, 100), 0u);
}

TEST(FaultInjection, FireFirstIsUnconditional) {
  fault::Config C;
  ASSERT_TRUE(C.parseSpec("send_error=#3"));
  fault::ScopedFaultConfig Scope(C);
  EXPECT_TRUE(fault::fire(fault::Site::SendError));
  EXPECT_TRUE(fault::fire(fault::Site::SendError));
  EXPECT_TRUE(fault::fire(fault::Site::SendError));
  EXPECT_FALSE(fault::fire(fault::Site::SendError));
  EXPECT_EQ(fault::occurrences(fault::Site::SendError), 4u);
  EXPECT_EQ(fault::fired(fault::Site::SendError), 3u);
  // Unconfigured sites never fire.
  EXPECT_FALSE(fault::fire(fault::Site::RecvError));
}

TEST(FaultInjection, DecisionsAreDeterministicPerSeed) {
  auto Sample = [](std::uint64_t Seed) {
    fault::Config C;
    C.Seed = Seed;
    EXPECT_TRUE(C.parseSpec("recv_short=0.5"));
    fault::ScopedFaultConfig Scope(C);
    std::vector<bool> Out;
    for (int I = 0; I != 256; ++I)
      Out.push_back(fault::fire(fault::Site::RecvShort));
    return Out;
  };
  std::vector<bool> A = Sample(42), B = Sample(42), Other = Sample(43);
  EXPECT_EQ(A, B) << "same seed must replay the same decisions";
  EXPECT_NE(A, Other) << "different seeds must diverge";
  // At p=0.5 over 256 draws, both outcomes must appear.
  EXPECT_NE(std::count(A.begin(), A.end(), true), 0);
  EXPECT_NE(std::count(A.begin(), A.end(), true), 256);
}

TEST(FaultInjection, ValueStaysInRangeAndZeroWhenCold) {
  fault::Config C;
  ASSERT_TRUE(C.parseSpec("send_short=#1000"));
  fault::ScopedFaultConfig Scope(C);
  for (int I = 0; I != 1000; ++I) {
    std::uint64_t V = fault::value(fault::Site::SendShort, 7);
    EXPECT_GE(V, 1u);
    EXPECT_LE(V, 7u);
  }
  // Max == 0 can never fire a value.
  EXPECT_EQ(fault::value(fault::Site::SendShort, 0), 0u);
}

TEST(FaultInjection, DisablePreservesCountersForPostMortem) {
  fault::Config C;
  ASSERT_TRUE(C.parseSpec("recv_eagain=#2"));
  {
    fault::ScopedFaultConfig Scope(C);
    fault::fire(fault::Site::RecvEagain);
    fault::fire(fault::Site::RecvEagain);
    fault::fire(fault::Site::RecvEagain);
  }
  EXPECT_FALSE(fault::enabled());
  EXPECT_FALSE(fault::fire(fault::Site::RecvEagain))
      << "disabled hooks must not fire";
  EXPECT_EQ(fault::occurrences(fault::Site::RecvEagain), 3u);
  EXPECT_EQ(fault::fired(fault::Site::RecvEagain), 2u);
}
