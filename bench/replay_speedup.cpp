//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the record-once / replay-many trace engine against direct
/// per-candidate tracing on one program. A deterministic sweep of
/// padding candidates is scored both ways, the per-candidate statistics
/// are checked for bit-identity, and the wall-clock ratio is reported.
/// The sequential replay total is broken down per phase — recording,
/// remap rebuilds, the probe stream — so BENCH_replay.json tracks where
/// candidate time actually goes.
///
/// Usage: replay_speedup [--file F.pad | --kernel NAME [--size N]]
///                       [--candidates N] [--cache BYTES] [--line BYTES]
///                       [--assoc K] [--reps N]
///                       [--guard X] [--json PATH]
///
/// --guard X fails when end-to-end replay speedup over direct tracing
/// falls below X. The replay loop runs --reps times (default 3) and the
/// fastest repetition is reported, so the guarded ratio measures the
/// code, not scheduler noise on a shared box; the direct walk runs once
/// (its guard has a wide margin and it dominates bench wall-clock).
///
/// Exit codes: 0 success; 1 usage error, recording declined, or the
/// guard failed; 2 replayed statistics diverged from the direct walk (a
/// correctness bug, never acceptable).
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "exec/RecordedTrace.h"
#include "exec/TraceRunner.h"
#include "frontend/Parser.h"
#include "search/Candidate.h"
#include "support/JsonWriter.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace padx;

namespace {

struct CandidateStats {
  uint64_t Accesses = 0;
  uint64_t Misses = 0;
  uint64_t WriteBacks = 0;

  bool operator==(const CandidateStats &RHS) const = default;
};

CandidateStats statsOf(const sim::CacheStats &S) {
  return {S.Accesses, S.Misses, S.WriteBacks};
}

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

void usage() {
  std::fprintf(stderr,
               "usage: replay_speedup [--file F.pad | --kernel NAME "
               "[--size N]]\n"
               "                      [--candidates N] [--cache BYTES] "
               "[--line BYTES]\n"
               "                      [--assoc K] [--reps N]\n"
               "                      [--guard X] [--json PATH]\n");
  std::exit(1);
}

/// A deterministic spread of intra pads (0..8 elements on every
/// dimension) and inter gaps (multiples of the element size), varied per
/// array so consecutive candidates exercise both the stride-rebuild and
/// the base-only fast path of the replayer.
std::vector<search::Candidate> makeCandidates(const ir::Program &P,
                                              unsigned Count) {
  std::vector<search::Candidate> Out;
  Out.reserve(Count);
  for (unsigned I = 0; I != Count; ++I) {
    search::Candidate C = search::zeroCandidate(P);
    for (unsigned A = 0; A != C.DimPads.size(); ++A) {
      for (unsigned D = 0; D != C.DimPads[A].size(); ++D)
        C.DimPads[A][D] =
            static_cast<int64_t>((I * (A + 2) + D) % 9);
      const int64_t Elem = P.array(A).ElemSize;
      C.GapBytes[A] = static_cast<int64_t>((I + A) % 4) * Elem * 8;
    }
    Out.push_back(std::move(C));
  }
  return Out;
}

/// Reports the first diverging candidate between two stat vectors and
/// returns true when one exists.
bool reportDivergence(const char *PathName,
                      const std::vector<CandidateStats> &Expected,
                      const std::vector<CandidateStats> &Got) {
  for (size_t I = 0; I != Expected.size(); ++I)
    if (!(Expected[I] == Got[I])) {
      std::fprintf(stderr,
                   "error: %s candidate %zu diverged: expected "
                   "%llu/%llu/%llu got %llu/%llu/%llu "
                   "(accesses/misses/writebacks)\n",
                   PathName, I,
                   static_cast<unsigned long long>(Expected[I].Accesses),
                   static_cast<unsigned long long>(Expected[I].Misses),
                   static_cast<unsigned long long>(
                       Expected[I].WriteBacks),
                   static_cast<unsigned long long>(Got[I].Accesses),
                   static_cast<unsigned long long>(Got[I].Misses),
                   static_cast<unsigned long long>(Got[I].WriteBacks));
      return true;
    }
  return false;
}

/// One full sequential-replay pass with per-phase attribution.
struct SequentialRun {
  double MaterializeSecs = 0;
  double RemapSecs = 0;
  double ProbeSecs = 0;
  exec::TraceReplayer::RemapStats Remaps;
  std::vector<CandidateStats> Stats;

  double total() const {
    return MaterializeSecs + RemapSecs + ProbeSecs;
  }
};

SequentialRun runSequential(const ir::Program &P,
                            const exec::RecordedTrace &Trace,
                            const CacheConfig &Cache,
                            const std::vector<search::Candidate> &Cands) {
  // prepare() rebuilds the remaps so the replay right after hits the
  // all-cached path — the split is candidate materialization vs remap
  // rebuild vs the probe stream.
  SequentialRun Run;
  exec::TraceReplayer Replayer(Trace);
  sim::CacheSim Sim(Cache);
  Run.Stats.reserve(Cands.size());
  for (const search::Candidate &C : Cands) {
    const auto T0 = Clock::now();
    layout::DataLayout DL = search::materialize(P, C);
    const auto T1 = Clock::now();
    Replayer.prepare(DL);
    const auto T2 = Clock::now();
    Sim.reset();
    Replayer.replay(DL, Sim);
    Run.Stats.push_back(statsOf(Sim.stats()));
    const auto T3 = Clock::now();
    Run.MaterializeSecs +=
        std::chrono::duration<double>(T1 - T0).count();
    Run.RemapSecs += std::chrono::duration<double>(T2 - T1).count();
    Run.ProbeSecs += std::chrono::duration<double>(T3 - T2).count();
  }
  Run.Remaps = Replayer.remapStats();
  return Run;
}

} // namespace

int main(int argc, char **argv) {
  std::string File, Kernel, JsonPath;
  int64_t Size = 0;
  unsigned Candidates = 32;
  CacheConfig Cache = CacheConfig::base16K();
  double Guard = 0;
  unsigned Reps = 3;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc)
        usage();
      return argv[++I];
    };
    if (Arg == "--file")
      File = Next();
    else if (Arg == "--kernel")
      Kernel = Next();
    else if (Arg == "--size")
      Size = std::atoll(Next());
    else if (Arg == "--candidates")
      Candidates = static_cast<unsigned>(std::atoi(Next()));
    else if (Arg == "--cache")
      Cache.SizeBytes = std::atoll(Next());
    else if (Arg == "--line")
      Cache.LineBytes = std::atoll(Next());
    else if (Arg == "--assoc")
      Cache.Associativity = std::atoi(Next());
    else if (Arg == "--reps")
      Reps = static_cast<unsigned>(std::atoi(Next()));
    else if (Arg == "--guard")
      Guard = std::atof(Next());
    else if (Arg == "--json")
      JsonPath = Next();
    else
      usage();
  }
  if (File.empty() == Kernel.empty() || Candidates == 0)
    usage();
  if (Reps < 1) {
    std::fprintf(stderr, "error: --reps must be at least 1\n");
    return 1;
  }
  if (!Cache.isValid()) {
    std::fprintf(stderr, "error: invalid cache geometry\n");
    return 1;
  }

  std::optional<ir::Program> P;
  std::string Name;
  if (!File.empty()) {
    std::ifstream In(File);
    if (!In) {
      std::fprintf(stderr, "error: cannot read '%s'\n", File.c_str());
      return 1;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    DiagnosticEngine Diags;
    P = frontend::parseProgram(Buf.str(), Diags);
    if (!P) {
      std::fprintf(stderr, "%s",
                   Diags.render(Buf.str(), File).c_str());
      return 1;
    }
    Name = File;
  } else {
    if (!kernels::findKernel(Kernel)) {
      std::fprintf(stderr, "error: unknown kernel '%s'\n",
                   Kernel.c_str());
      return 1;
    }
    P = kernels::makeKernel(Kernel, Size);
    Name = Kernel;
  }

  const std::vector<search::Candidate> Cands =
      makeCandidates(*P, Candidates);

  // Direct: a fresh IR walk per candidate, the pre-replay cost model.
  std::vector<CandidateStats> Direct;
  Direct.reserve(Cands.size());
  const auto DirectStart = Clock::now();
  for (const search::Candidate &C : Cands) {
    layout::DataLayout DL = search::materialize(*P, C);
    sim::CacheSim Sim(Cache);
    exec::CacheSimSink Sink(Sim);
    exec::TraceRunner Runner(*P, DL);
    Runner.run(Sink);
    Direct.push_back(statsOf(Sim.stats()));
  }
  const double DirectSecs = secondsSince(DirectStart);

  // Record once (timed — the search pays it too).
  const auto RecordStart = Clock::now();
  std::string WhyNot;
  std::unique_ptr<exec::RecordedTrace> Trace =
      exec::RecordedTrace::record(*P, {}, &WhyNot);
  if (!Trace) {
    std::fprintf(stderr, "error: recording declined: %s\n",
                 WhyNot.c_str());
    return 1;
  }
  const double RecordSecs = secondsSince(RecordStart);

  // Sequential replay, phase-attributed, best of --reps passes (each
  // pass uses a fresh replayer, so remap counters are per pass).
  SequentialRun Seq;
  for (unsigned Rep = 0; Rep != Reps; ++Rep) {
    SequentialRun Run = runSequential(*P, *Trace, Cache, Cands);
    if (Rep == 0 || Run.total() < Seq.total())
      Seq = std::move(Run);
  }
  const double MaterializeSecs = Seq.MaterializeSecs;
  const double RemapSecs = Seq.RemapSecs;
  const double ProbeSecs = Seq.ProbeSecs;
  const double SeqLoopSecs = Seq.total();
  const double ReplaySecs = RecordSecs + SeqLoopSecs;
  const exec::TraceReplayer::RemapStats &Remaps = Seq.Remaps;

  if (reportDivergence("sequential replay", Direct, Seq.Stats))
    return 2;

  const double Speedup = ReplaySecs > 0 ? DirectSecs / ReplaySecs : 0.0;
  const double SeqRate =
      SeqLoopSecs > 0 ? Cands.size() / SeqLoopSecs : 0.0;

  std::printf("replay speedup: %s, %u candidates, %s\n", Name.c_str(),
              Candidates, Cache.describe().c_str());
  std::printf("  trace: %llu accesses in %zu blocks / %zu patterns "
              "(%zu KiB)\n",
              static_cast<unsigned long long>(Trace->numAccesses()),
              Trace->numBlocks(), Trace->numPatterns(),
              Trace->storageBytes() >> 10);
  std::printf("  direct: %.3fs   replay: %.3fs (record included)   "
              "speedup: %.2fx\n",
              DirectSecs, ReplaySecs, Speedup);
  std::printf("  phases: record %.3fs | materialize %.3fs | remap "
              "%.3fs (%llu slot rebuilds) | probe %.3fs\n",
              RecordSecs, MaterializeSecs, RemapSecs,
              static_cast<unsigned long long>(Remaps.SlotRebuilds),
              ProbeSecs);
  std::printf("  sequential: %.0f cand/s\n", SeqRate);
  std::printf("  statistics bit-identical across all %zu candidates "
              "(direct, sequential)\n",
              Cands.size());

  if (!JsonPath.empty()) {
    std::ofstream OS(JsonPath);
    if (!OS) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   JsonPath.c_str());
      return 1;
    }
    support::JsonWriter J(OS);
    J.beginObject();
    J.field("bench", "replay_speedup");
    J.field("program", Name);
    J.field("cache", Cache.describe());
    J.field("candidates", Candidates);
    J.field("reps", Reps);
    J.field("trace_accesses", Trace->numAccesses());
    J.field("trace_blocks", static_cast<uint64_t>(Trace->numBlocks()));
    J.field("trace_storage_bytes",
            static_cast<uint64_t>(Trace->storageBytes()));
    J.field("direct_seconds", DirectSecs);
    J.field("replay_seconds", ReplaySecs);
    J.field("speedup", Speedup);
    J.field("sequential_candidates_per_sec", SeqRate);
    J.key("phases");
    J.beginObject();
    J.field("record_seconds", RecordSecs);
    J.field("materialize_seconds", MaterializeSecs);
    J.field("remap_seconds", RemapSecs);
    J.field("probe_seconds", ProbeSecs);
    J.field("remap_calls", Remaps.Calls);
    J.field("remap_slot_rebuilds", Remaps.SlotRebuilds);
    J.field("remap_ref_delta_rebuilds", Remaps.RefDeltaRebuilds);
    J.endObject();
    J.field("stats_identical", true);
    J.endObject();
    OS << '\n';
  }

  if (Guard > 0 && Speedup < Guard) {
    std::fprintf(stderr,
                 "error: speedup %.2fx below the %.2fx guard\n",
                 Speedup, Guard);
    return 1;
  }
  return 0;
}
