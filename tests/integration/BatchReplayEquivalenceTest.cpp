//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Batched replay equivalence over the fuzz corpus: for every kernel,
/// cache geometry and padding candidate, the per-candidate CacheStats a
/// MultiTraceReplayer produces at widths 2, 4, 8 and 16 — the scalar
/// lane loop plus both AVX-512 probes (two-zmm 64-bit and, at 16, the
/// one-zmm 32-bit arena) — including the ragged tail chunk a
/// non-multiple candidate count leaves — must be
/// bit-identical to a sequential TraceReplayer into a fresh CacheSim,
/// with MaxAccesses truncation applied. Batching is a throughput lever
/// only; any stats divergence here is a correctness bug. (The search
/// scores candidates one at a time; the batched replayer serves the
/// replay benches and probes.)
///
//===----------------------------------------------------------------------===//

#include "exec/MultiTraceReplayer.h"
#include "exec/RecordedTrace.h"
#include "frontend/Parser.h"
#include "search/Candidate.h"

#include "gtest/gtest.h"

#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <vector>

using namespace padx;
using namespace padx::exec;

namespace {

/// Caps each simulated walk so the sweep stays fast under sanitizers —
/// and exercises the truncated-recording path on the large kernels.
constexpr uint64_t kMaxAccesses = 1u << 20;

std::vector<std::filesystem::path> corpusFiles() {
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry :
       std::filesystem::directory_iterator(PADX_CORPUS_DIR))
    if (Entry.path().extension() == ".pad")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  EXPECT_FALSE(Files.empty()) << "corpus missing at " PADX_CORPUS_DIR;
  return Files;
}

ir::Program parseFileOrDie(const std::filesystem::path &File) {
  std::ifstream In(File);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  DiagnosticEngine Diags;
  auto P = frontend::parseProgram(Buf.str(), Diags);
  EXPECT_TRUE(P) << File << ": " << Diags.str();
  return std::move(*P);
}

/// Seventeen layouts per program (inter gaps crossed with column pads,
/// plus one odd extra), deliberately not a multiple of any tested
/// width, so every chunked sweep runs at least one full-width chunk —
/// 16 included — and ends in a ragged tail.
std::vector<layout::DataLayout> layoutSweep(const ir::Program &P,
                                            int64_t LineBytes) {
  std::vector<layout::DataLayout> Out;
  auto Push = [&](int64_t GapLines, int64_t ColPad) {
    search::Candidate C = search::zeroCandidate(P);
    for (unsigned A = 0; A != C.DimPads.size(); ++A) {
      if (!C.DimPads[A].empty())
        C.DimPads[A][0] = ColPad;
      const int64_t Elem = P.array(A).ElemSize;
      C.GapBytes[A] = (GapLines * LineBytes + Elem - 1) / Elem * Elem *
                      static_cast<int64_t>(A % 2 + 1);
    }
    Out.push_back(search::materialize(P, C));
  };
  for (int64_t GapLines : {0, 1, 2, 3})
    for (int64_t ColPad : {0, 1, 3, 7})
      Push(GapLines, ColPad);
  Push(5, 2);
  return Out;
}

void expectEqualStats(const sim::CacheStats &A, const sim::CacheStats &B,
                      const std::string &Context) {
  EXPECT_EQ(A.Accesses, B.Accesses) << Context;
  EXPECT_EQ(A.Misses, B.Misses) << Context;
  EXPECT_EQ(A.Reads, B.Reads) << Context;
  EXPECT_EQ(A.Writes, B.Writes) << Context;
  EXPECT_EQ(A.WriteBacks, B.WriteBacks) << Context;
}

} // namespace

TEST(BatchReplayEquivalence, CorpusSweepIsBitIdenticalAtEveryWidth) {
  const std::vector<CacheConfig> Geometries = {
      CacheConfig::base16K(),        // The paper's base: direct mapped.
      CacheConfig{16 * 1024, 32, 2}, // 2-way: per-lane probe fallback.
      CacheConfig{4 * 1024, 32, 0},  // Fully associative fallback.
  };
  RunOptions Opts;
  Opts.MaxAccesses = kMaxAccesses;

  for (const auto &File : corpusFiles()) {
    ir::Program P = parseFileOrDie(File);
    const std::string Name = File.filename().string();
    auto T = RecordedTrace::record(P, Opts, nullptr);
    if (!T)
      continue; // Declined programs are covered by the fallback test.

    TraceReplayer Sequential(*T);
    for (const CacheConfig &Cfg : Geometries) {
      const std::vector<layout::DataLayout> Layouts =
          layoutSweep(P, Cfg.LineBytes);

      // Sequential reference stats, one fresh simulator per candidate.
      std::vector<sim::CacheStats> Reference;
      std::vector<RunStatus> RefStatus;
      for (const layout::DataLayout &DL : Layouts) {
        sim::CacheSim Sim(Cfg);
        RefStatus.push_back(Sequential.replay(DL, Sim));
        Reference.push_back(Sim.stats());
      }

      for (unsigned K : {2u, 4u, 8u, 16u}) {
        // One replayer reused across chunks, like a search worker; the
        // 17-candidate sweep runs at least one full-width chunk and
        // leaves a tail of 1 at every K, so the fast path and the
        // run-time-width path are both exercised.
        MultiTraceReplayer Batched(*T, Cfg);
        std::vector<sim::CacheStats> Stats(Layouts.size());
        for (size_t Begin = 0; Begin != Layouts.size();) {
          const size_t N =
              std::min<size_t>(K, Layouts.size() - Begin);
          RunStatus S = Batched.replay(
              std::span<const layout::DataLayout>(&Layouts[Begin], N),
              std::span<sim::CacheStats>(&Stats[Begin], N));
          EXPECT_EQ(S, RefStatus[Begin]) << Name;
          Begin += N;
        }
        for (size_t I = 0; I != Layouts.size(); ++I)
          expectEqualStats(Stats[I], Reference[I],
                           Name + " " + Cfg.describe() + " K=" +
                               std::to_string(K) + " candidate " +
                               std::to_string(I));
      }

      // Odd widths straight through the run-time lane loop, single-call
      // ragged batches included (3, 5 and a width-1 batch).
      for (size_t N : {size_t(1), size_t(3), size_t(5)}) {
        MultiTraceReplayer Batched(*T, Cfg);
        std::vector<sim::CacheStats> Stats(N);
        Batched.replay(
            std::span<const layout::DataLayout>(Layouts.data(), N),
            std::span<sim::CacheStats>(Stats.data(), N));
        for (size_t I = 0; I != N; ++I)
          expectEqualStats(Stats[I], Reference[I],
                           Name + " " + Cfg.describe() + " ragged N=" +
                               std::to_string(N));
      }
    }
  }
}

TEST(BatchReplayEquivalence, ElementWiderThanLineTakesSpanningPath) {
  // 8-byte elements against a 4-byte line: every access straddles two
  // lines, so the batched replayer must route through the general
  // per-lane access() path and still match the sequential one.
  DiagnosticEngine Diags;
  auto P = frontend::parseProgram(R"(program p
array A : real[64]
array B : real[64]
loop i = 1, 64 {
  B[i] = A[i]
}
)",
                                  Diags);
  ASSERT_TRUE(P) << Diags.str();
  auto T = RecordedTrace::record(*P);
  ASSERT_NE(T, nullptr);
  const CacheConfig Tiny{256, 4, 1};
  TraceReplayer Sequential(*T);
  std::vector<layout::DataLayout> Layouts = layoutSweep(*P, 4);
  std::vector<sim::CacheStats> Stats(Layouts.size());
  MultiTraceReplayer Batched(*T, Tiny);
  Batched.replay(Layouts, Stats);
  for (size_t I = 0; I != Layouts.size(); ++I) {
    sim::CacheSim Sim(Tiny);
    Sequential.replay(Layouts[I], Sim);
    expectEqualStats(Stats[I], Sim.stats(),
                     "spanning candidate " + std::to_string(I));
  }
}
