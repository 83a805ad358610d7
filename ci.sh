#!/usr/bin/env bash
#===------------------------------------------------------------------------===#
#
# Part of the padx project, under the Apache License v2.0.
#
# CI driver: the tier-1 build + test cycle, a perf-smoke stage guarding
# sequential replay against the direct walk (faster, bit-identical
# stats or exit 2), an LTO build (-DPADX_LTO=ON) that reruns the full
# suite and the replay guard, a PGO generate/train/use cycle (gated on
# a toolchain probe) holding the trained build to the same guard, the
# padlint exit-code /
# SARIF / crash-robustness stages, a padd daemon stage (4 concurrent
# paddctl clients over the corpus, streamed-SARIF validation, protocol
# shutdown, a drain-under-load smoke — SIGTERM mid-sweep, no lost
# replies — then the server_throughput hit-rate/p99 guard and an
# open-loop overload run at 2x the measured saturation, guarding that
# the daemon sheds with structured errors while accepted-request p99
# stays bounded), then the same suite under ASan+UBSan
# (-DPADX_SANITIZE=ON) so heap misuse and undefined behavior in the
# concurrent search / thread-pool code surface on every run. A TSan
# stage (-DPADX_SANITIZE_THREAD=ON) covers the data races ASan cannot
# see, gated on a runtime probe of the toolchain; a clang-tidy stage
# runs when the tool is on PATH — enforced (warnings-as-errors) for
# src/analysis and src/lint, advisory for the rest.
#
# Static-prediction gates: the model_accuracy bench guards the lattice
# predictor's rank fidelity against the simulator (--guard-rank 0.8,
# and --guard-rank-l2 0.75 for the per-level L2 extension) on both the
# default and LTO builds, and the padlint corpus sweep is pinned to the
# checked-in tests/lint/corpus.baseline (any finding drift fails CI).
#
# Multi-level objective gate: bench/multilevel re-runs the L1-only vs
# weighted-search study on the paper-l2 machine and fails if the
# weighted search ever regresses the L1-only result's weighted miss
# cost, or if no kernel still demonstrates the L1-only search leaving
# outer-level conflict misses the weighted objective recovers.
#
# The fault-injection hooks are compiled into every build, so tier-1
# already runs the fault and chaos tests at the default seed; both
# sanitizer builds also replay the ChaosTest corpus sweep under three
# fixed fault seeds, so every injected-fault code path runs under ASan
# and TSan on every CI cycle (the hooks stay disabled for all other
# tests).
#
# Both configurations replay the fuzz corpus + crasher regressions via
# the `fuzz_corpus_regression` ctest. When clang++ is on PATH a third
# stage builds the libFuzzer target (-DPADX_FUZZ=ON) and runs a
# 60-second smoke fuzz of the PadLang front door; without clang the
# stage is skipped (gcc has no libFuzzer driver).
#
# Usage: ./ci.sh [jobs]
#
#===------------------------------------------------------------------------===#
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${1:-$(nproc)}"

echo "== tier-1: release build + tests =="
cmake -B build -S .
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== perf smoke: replay guard =="
# Bit-identity is covered by the test suite and re-checked by the bench
# itself (exit 2 on any per-candidate stats divergence between replay
# and the direct walk). The guard watches the *point* of the replay
# engine — speed: --guard 1.0 fails if replay is slower than re-walking
# the program (--reps takes the best of 5 against CI noise). The JSON
# artifact doubles as the benchmark record for the run and is diffable
# against the checked-in bench/baselines/BENCH_replay.json.
build/bench/replay_speedup --file tests/fuzz/corpus/jacobi512.pad \
  --candidates 32 --reps 5 --guard 1.0 \
  --json build/BENCH_replay.json
# The gather path: IRR reads every subscript through an index array, so
# this run holds replay of gathered refs to the same exactness and
# speed guard (it exits 1 if recording declines).
build/bench/replay_speedup --kernel irr --size 5000 \
  --candidates 32 --reps 5 --guard 1.0 \
  --json build/BENCH_replay_irr.json
# The forwarding path: on paper-l2 replay probes the L1 and hands only
# its misses to the L2, so this run holds that path to the same guard.
build/bench/replay_speedup --file tests/fuzz/corpus/jacobi512.pad \
  --machine paper-l2 --candidates 32 --reps 5 --guard 1.0 \
  --json build/BENCH_replay_l2.json
build/bench/search_vs_pad --budget 24 --threads 2 --seed 1 jacobi \
  --json build/BENCH_search.json

echo "== model accuracy: lattice predictor vs simulator (rank guard) =="
# Cross-validates the analytic conflict predictor against the cache
# simulator over every corpus kernel x 3 geometries x 3 layouts. The
# guard holds the pooled Spearman rank correlation of predicted vs
# simulated miss rates at the 0.8 acceptance floor; all numbers are
# deterministic, so the JSON diffs cleanly against the checked-in
# bench/baselines/BENCH_model_accuracy.json.
build/bench/model_accuracy --guard-rank 0.8 --guard-rank-l2 0.75 \
  --json build/BENCH_model_accuracy.json > /dev/null

echo "== multi-level objective: weighted search vs L1-only guard =="
# Simulates original / PAD / search layouts on the paper-l2 hierarchy
# (16K/32B L1 + 64K/64B L2, weights l1=1,l2=8). The guard enforces
# both halves of the multi-level claim: the weighted search never
# costs more than the L1-only search (structural — it warm-starts
# from the L1-only winner), and at least one kernel shows the
# L1-only search leaving L2 conflict misses that the weighted
# objective strictly recovers. Deterministic; diffable against
# bench/baselines/BENCH_multilevel.json.
build/bench/multilevel --guard --json build/BENCH_multilevel.json \
  > /dev/null

echo "== LTO: -DPADX_LTO=ON build + full tests + replay guard =="
# The replay probe is inlined from a header, but LTO lets the drivers
# inline across the exec/search/sim library seams; the full suite must
# stay green under it and the replay guard must still hold (a
# miscompiled probe loop shows up as either a stats divergence, exit 2,
# or replay losing to the direct walk, exit 1).
cmake -B build-lto -S . -DPADX_LTO=ON
cmake --build build-lto -j "$JOBS"
ctest --test-dir build-lto --output-on-failure -j "$JOBS"
build-lto/bench/replay_speedup --file tests/fuzz/corpus/jacobi512.pad \
  --candidates 32 --reps 5 --guard 1.0 \
  --json build/BENCH_replay_lto.json
# The predictor must stay rank-faithful under LTO too (it is pure
# arithmetic, so a miscompile shows up as a correlation collapse).
build-lto/bench/model_accuracy --guard-rank 0.8 --guard-rank-l2 0.75 \
  --json build/BENCH_model_accuracy_lto.json > /dev/null

# PGO needs a toolchain whose -fprofile-generate binaries run and whose
# -fprofile-use accepts the result; probe with a real program first
# (some images ship gcc without libgcov, which only fails at link or
# run time).
PGO_OK=""
cat > /tmp/padx_pgo_probe.cc <<'EOF'
int main() { return 0; }
EOF
if c++ -fprofile-generate -o /tmp/padx_pgo_probe /tmp/padx_pgo_probe.cc \
     2> /dev/null \
   && (cd /tmp && ./padx_pgo_probe 2> /dev/null) \
   && c++ -fprofile-use -fprofile-correction -Wno-missing-profile \
        -o /tmp/padx_pgo_probe /tmp/padx_pgo_probe.cc 2> /dev/null; then
  PGO_OK=1
fi
if [ -n "$PGO_OK" ]; then
  echo "== PGO: generate -> train on search_vs_pad -> use =="
  # Two-step profile-guided build sharing one tree (the .gcda files
  # land next to the objects). Training runs the representative search
  # workload the CMake preset documents: a real candidate search plus
  # the sequential replay bench. The guarded rerun then holds the
  # trained build to the same replay guard as the default build.
  cmake -B build-pgo -S . -DPADX_PGO=generate
  cmake --build build-pgo -j "$JOBS" \
    --target search_vs_pad replay_speedup
  build-pgo/bench/search_vs_pad --budget 24 --threads 2 --seed 1 \
    jacobi > /dev/null
  build-pgo/bench/replay_speedup --file tests/fuzz/corpus/jacobi512.pad \
    --candidates 32 --reps 1 > /dev/null
  cmake -B build-pgo -S . -DPADX_PGO=use
  cmake --build build-pgo -j "$JOBS" \
    --target search_vs_pad replay_speedup
  build-pgo/bench/replay_speedup --file tests/fuzz/corpus/jacobi512.pad \
    --candidates 32 --reps 5 --guard 1.0 \
    --json build/BENCH_replay_pgo.json
else
  echo "== PGO: skipped (no working -fprofile-generate/use toolchain) =="
fi

echo "== pipeline: --stats-json contract + analysis-cache speedup =="
# The instrumented pass pipeline must report what it ran. Two corpus
# programs cover both planning modes; jq validates the shape the tools
# promise: named passes, nonnegative timings, cache-hit counters.
build/examples/padtool --scheme pad --stats-json build/STATS_jacobi.json \
  tests/fuzz/corpus/jacobi512.pad > /dev/null
build/examples/padtool --scheme padlite \
  --stats-json build/STATS_cholesky.json \
  tests/fuzz/corpus/cholesky384.pad > /dev/null
if command -v jq > /dev/null 2>&1; then
  for s in build/STATS_jacobi.json build/STATS_cholesky.json; do
    # Every pass has a name, a positive run count, and a nonnegative
    # wall-clock; the pad driver's fixed stages must all appear.
    jq -e '.pipeline.passes | length > 0 and
           all(.name != null and .runs >= 1 and .seconds >= 0)' \
      "$s" > /dev/null
    for pass in safety base-assignment; do
      jq -e --arg p "$pass" \
        '.pipeline.passes | any(.name == $p)' "$s" > /dev/null
    done
    # Cache counters: enabled by default, and nothing was recomputed
    # behind the manager's back (counts are nonnegative integers).
    jq -e '.pipeline.analysis_cache.enabled == true' "$s" > /dev/null
    jq -e '.pipeline.analysis_cache |
           .hits >= 0 and .misses >= 0 and .invalidated >= 0 and
           (.kinds | all(.hits >= 0 and .misses >= 0))' \
      "$s" > /dev/null
    # The seven memoized kinds, one row each, in AnalysisKind order.
    jq -e '[.pipeline.analysis_cache.kinds[].name] ==
           ["reference-groups", "iteration-counts", "safety",
            "linear-algebra", "uniform-refs", "conflict-report",
            "lattice-prediction"]' \
      "$s" > /dev/null
  done
  # A search scores some layouts by reusing the score of a whole-period
  # shift it already simulated: CHOL's gap moves on its first array do
  # nothing else, so it must simulate fewer layouts than it scores.
  build/examples/padtool --kernel chol --scheme search \
    --stats-json build/STATS_chol_search.json > /dev/null
  jq -e '.search.simulated_evaluations < .search.exact_evaluations' \
    build/STATS_chol_search.json > /dev/null || {
    echo "chol search simulated every layout it scored"
    cat build/STATS_chol_search.json; exit 1; }
else
  echo "  (jq not found: shape validation skipped)"
fi
# The point of the manager — candidate evaluation throughput. The bench
# exits 2 if cached and uncached candidate streams ever diverge, so this
# doubles as a bit-identity gate; --guard 1.2 is the acceptance floor
# (measured ~46x aggregate locally, so the bound has real headroom).
build/bench/analysis_cache --candidates 192 --guard 1.2 \
  --json build/BENCH_pipeline.json
# A guard that does not parse is a usage error (exit 1), not a 0 that
# turns the gate off.
rc=0; build/bench/analysis_cache --candidates 8 --guard abc dot \
  > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 1 ] || {
  echo "analysis_cache --guard abc: expected exit 1, got $rc"; exit 1; }

echo "== padlint: exit-code contract + SARIF artifact =="
# The CI artifact: one SARIF run over every example program, for code
# scanning ingestion. --fail-on never so the artifact step itself never
# gates; the contract checks below do the gating.
build/examples/padlint --format sarif --output build/LINT_examples.sarif \
  --fail-on never examples/programs/*.pad
# Exit-code contract (also unit-tested): 0 clean, 1 findings, 2 bad input.
build/examples/padlint examples/programs/gather.pad > /dev/null
rc=0; build/examples/padlint examples/programs/jacobi512.pad \
  > /dev/null || rc=$?
[ "$rc" -eq 1 ] || { echo "expected exit 1 on findings, got $rc"; exit 1; }
rc=0; build/examples/padlint no-such-file.pad 2> /dev/null || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 on bad input, got $rc"; exit 1; }
# Integer flags parse whole and in range: 'abc' is not a fully
# associative cache, and 2^32 + 1 ways does not wrap to 1.
for bad in abc 4294967297; do
  rc=0; build/examples/padlint --assoc "$bad" examples/programs/jacobi512.pad \
    > /dev/null 2>&1 || rc=$?
  [ "$rc" -eq 2 ] || { echo "expected exit 2 on --assoc $bad, got $rc"; exit 1; }
done
# A baseline recorded from the same tree must suppress everything.
build/examples/padlint --write-baseline build/LINT_examples.baseline \
  --fail-on never examples/programs/*.pad > /dev/null
build/examples/padlint --baseline build/LINT_examples.baseline \
  examples/programs/*.pad > /dev/null

if command -v jq > /dev/null 2>&1; then
  echo "== padlint: SARIF structural validation (jq) =="
  test "$(jq -r '.version' build/LINT_examples.sarif)" = "2.1.0"
  test "$(jq -r '.runs[0].tool.driver.name' build/LINT_examples.sarif)" \
    = "padlint"
  test "$(jq '.runs[0].tool.driver.rules | length' \
    build/LINT_examples.sarif)" -eq 6
  test "$(jq '.runs[0].results | length' build/LINT_examples.sarif)" -gt 0
  # Every result must reference a registered rule and carry a message
  # and a fingerprint.
  jq -e '.runs[0].results | all(.ruleId != null and
         .message.text != null and
         .partialFingerprints["padlintFingerprint/v1"] != null)' \
    build/LINT_examples.sarif > /dev/null
  # Fix-its surface as SARIF `fixes` objects: at least one result over
  # the examples carries one, and every fix is structurally applicable
  # (a description, one artifactChange naming an artifact, one
  # replacement with a real region and inserted text).
  jq -e '[.runs[0].results[] | select(.fixes != null)] | length > 0' \
    build/LINT_examples.sarif > /dev/null
  jq -e '.runs[0].results | all(.fixes == null or
         (.fixes | all(.description.text != null and
          (.artifactChanges | length) == 1 and
          .artifactChanges[0].artifactLocation.uri != null and
          (.artifactChanges[0].replacements | length) == 1 and
          .artifactChanges[0].replacements[0].deletedRegion.startLine >= 1
          and
          .artifactChanges[0].replacements[0].insertedContent.text
            != null)))' \
    build/LINT_examples.sarif > /dev/null
else
  echo "== padlint: SARIF validation skipped (no jq) =="
fi

echo "== padlint: corpus + crasher sweep (must never crash) =="
# Parse rejections (exit 2) are fine; signals (>= 126) are not. The
# library-level twin of this sweep is tests/lint/LintCorpusTest.cpp.
for f in tests/fuzz/corpus/*.pad tests/fuzz/crashers/*.pad; do
  rc=0
  build/examples/padlint --fail-on never "$f" > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ge 126 ]; then
    echo "padlint crashed on $f (rc=$rc)"
    exit 1
  fi
done

echo "== padlint: corpus baseline drift check =="
# The checked-in tests/lint/corpus.baseline pins every finding over the
# fuzz corpus by stable fingerprint (rule, program, key — no line
# numbers). Any new or vanished finding fails here; refresh the file
# deliberately when a rule change is intended:
#   build/examples/padlint --write-baseline tests/lint/corpus.baseline \
#     --fail-on never tests/fuzz/corpus/*.pad
build/examples/padlint --write-baseline build/LINT_corpus.baseline \
  --fail-on never tests/fuzz/corpus/*.pad > /dev/null
diff -u tests/lint/corpus.baseline build/LINT_corpus.baseline || {
  echo "padlint corpus findings drifted from the checked-in baseline"
  exit 1; }

echo "== padd: daemon protocol + 4 concurrent clients over the corpus =="
# Start the daemon on a private socket, hammer it with four concurrent
# paddctl clients sweeping the fuzz corpus (--repeat 3 so the later
# laps exercise the cross-request shared cache), then check the
# exit-code contract and shut it down through the protocol. The
# bit-identity twin of this stage is tests/server/DaemonEquivalenceTest.
PADD_SOCK="build/padd_ci.sock"
PADD_LOG="build/padd_ci.log"
rm -f "$PADD_SOCK"
build/examples/padd --socket "$PADD_SOCK" > "$PADD_LOG" 2>&1 &
PADD_PID=$!
for _ in $(seq 1 100); do
  grep -q "padd listening" "$PADD_LOG" 2> /dev/null && break
  sleep 0.1
done
grep -q "padd listening" "$PADD_LOG" || {
  echo "padd failed to start"; cat "$PADD_LOG"; exit 1; }
CLIENT_PIDS=()
for i in 1 2 3 4; do
  build/examples/paddctl --socket "$PADD_SOCK" --op pad --no-emit \
    --repeat 3 tests/fuzz/corpus/*.pad \
    > "build/padd_ci_client$i.ndjson" &
  CLIENT_PIDS+=($!)
done
for p in "${CLIENT_PIDS[@]}"; do
  wait "$p" || { echo "paddctl client failed"; kill "$PADD_PID"; exit 1; }
done
# One streamed SARIF lint response: the embedded report must be valid
# SARIF and byte-identical to what the padlint CLI writes standalone.
build/examples/paddctl --socket "$PADD_SOCK" --op lint --format sarif \
  tests/fuzz/corpus/jacobi512.pad > build/padd_ci_sarif.ndjson
# One multi-level search: its *_percent fields are first-cache-level
# miss rates (never above 100, whatever the level weights), it never
# simulates more layouts than it scores, the retired batch_width and
# prescreen_* fields stay gone, and a deadline past the steady clock's
# nanosecond range (1e13 ms) lets it run to completion.
build/examples/paddctl --socket "$PADD_SOCK" --op search --machine paper-l2 \
  --budget 8 --deadline-ms 1e13 --no-emit tests/fuzz/corpus/jacobi512.pad \
  > build/padd_ci_search_l2.ndjson
if command -v jq > /dev/null 2>&1; then
  jq -e '.ok == true and .op == "search" and .status == "complete" and
         ([.result | to_entries[] | select(.key | endswith("_percent"))
           | .value] | length == 3 and all(. <= 100)) and
         .result.simulated_evaluations <= .result.exact_evaluations and
         (.result | has("batch_width") | not) and
         (.result | has("prescreen_active") | not) and
         (.result | has("prescreen_skipped") | not)' \
    build/padd_ci_search_l2.ndjson > /dev/null || {
    echo "paper-l2 search reply is partial, has a percent above 100," \
      "simulates more than it scores, or carries a retired field"
    cat build/padd_ci_search_l2.ndjson; kill "$PADD_PID"; exit 1; }
  jq -e '.ok == true and .op == "lint"' build/padd_ci_sarif.ndjson \
    > /dev/null
  jq -e '.result.report | fromjson | .version == "2.1.0" and
         .runs[0].tool.driver.name == "padlint"' \
    build/padd_ci_sarif.ndjson > /dev/null
  jq -j '.result.report' build/padd_ci_sarif.ndjson \
    > build/padd_ci_daemon.sarif
  build/examples/padlint --format sarif --output build/padd_ci_cli.sarif \
    --fail-on never tests/fuzz/corpus/jacobi512.pad
  cmp build/padd_ci_daemon.sarif build/padd_ci_cli.sarif || {
    echo "daemon SARIF diverged from the padlint CLI"; exit 1; }
else
  echo "  (jq not found: SARIF response validation skipped)"
fi
# Clean shutdown through the protocol, not a signal.
build/examples/paddctl --socket "$PADD_SOCK" --op shutdown > /dev/null
wait "$PADD_PID" || { echo "padd exited nonzero"; cat "$PADD_LOG"; exit 1; }
grep -q "padd stopped" "$PADD_LOG" || {
  echo "padd did not report a clean stop"; cat "$PADD_LOG"; exit 1; }

echo "== padd: drain under load (SIGTERM mid-sweep, no lost replies) =="
# A fresh daemon, a paddctl corpus sweep in flight, SIGTERM in the
# middle: the daemon must drain (serve the connected client to
# completion, exit 0) and the client must come away with every reply.
DRAIN_SOCK="build/padd_drain.sock"
DRAIN_LOG="build/padd_drain.log"
rm -f "$DRAIN_SOCK"
build/examples/padd --socket "$DRAIN_SOCK" > "$DRAIN_LOG" 2>&1 &
DRAIN_PID=$!
for _ in $(seq 1 100); do
  grep -q "padd listening" "$DRAIN_LOG" 2> /dev/null && break
  sleep 0.1
done
grep -q "padd listening" "$DRAIN_LOG" || {
  echo "padd failed to start"; cat "$DRAIN_LOG"; exit 1; }
build/examples/paddctl --socket "$DRAIN_SOCK" --op pad --no-emit \
  --repeat 40 tests/fuzz/corpus/*.pad \
  > build/padd_drain_replies.ndjson &
SWEEP_PID=$!
sleep 0.1
kill -TERM "$DRAIN_PID"
wait "$SWEEP_PID" || {
  echo "paddctl lost replies during drain"; cat "$DRAIN_LOG"; exit 1; }
wait "$DRAIN_PID" || {
  echo "padd drain exited nonzero"; cat "$DRAIN_LOG"; exit 1; }
grep -q "padd stopped" "$DRAIN_LOG" || {
  echo "padd did not report a clean stop after drain"
  cat "$DRAIN_LOG"; exit 1; }
EXPECT_REPLIES=$(( $(ls tests/fuzz/corpus/*.pad | wc -l) * 40 ))
GOT_REPLIES=$(wc -l < build/padd_drain_replies.ndjson)
[ "$GOT_REPLIES" -eq "$EXPECT_REPLIES" ] || {
  echo "drain lost replies: $GOT_REPLIES of $EXPECT_REPLIES"; exit 1; }

echo "== padd: throughput + shared-cache hit-rate guard =="
# Four concurrent closed-loop clients over the sweep kernels; exit 2 on
# any failed request (correctness), exit 1 below the 0.5 hit-rate floor
# the acceptance criteria set. When a previous run left a baseline, p99
# is also guarded against it (x5 slack absorbs CI machine noise).
SERVER_BASELINE=""
if [ -f build/BENCH_server.json ]; then
  cp build/BENCH_server.json build/BENCH_server.baseline.json
  SERVER_BASELINE="--baseline build/BENCH_server.baseline.json"
fi
# shellcheck disable=SC2086
build/bench/server_throughput --clients 4 --requests 32 --guard 0.5 \
  $SERVER_BASELINE --json build/BENCH_server.json

echo "== padd: open-loop overload at 2x saturation =="
# Offer twice the closed-loop rate just measured with a small admission
# queue: the daemon must shed with structured `overloaded` errors
# (exactly one reply per request, exit 2 on any drop — enforced by the
# bench itself), and the p99 of *accepted* requests must stay bounded
# relative to the unloaded baseline. The x50 slack covers the
# queue-drain ratio (queue 32 / 4 workers ~ 8x service time, measured
# ~20x at p99) plus CI-noise headroom; it is deliberately generous
# because the correctness gates (shed-not-drop, min-shed) are the
# teeth — an unshed 2x overload would queue for seconds, far past it.
if command -v jq > /dev/null 2>&1; then
  SAT_RPS=$(jq -r '.requests_per_second' build/BENCH_server.json)
  OVERLOAD_RPS=$(awk -v r="$SAT_RPS" 'BEGIN { printf "%.0f", r * 2 }')
else
  OVERLOAD_RPS=4000 # No jq to read the measured rate: a fixed push.
fi
build/bench/server_throughput --open-loop "$OVERLOAD_RPS" \
  --clients 4 --requests 400 --queue 32 --min-shed 1 \
  --baseline build/BENCH_server.json --p99-slack 50 \
  --json build/BENCH_server_overload.json
if command -v jq > /dev/null 2>&1; then
  jq -e '.shed > 0 and .errors == 0 and
         .accepted + .shed == .total_requests' \
    build/BENCH_server_overload.json > /dev/null
fi

echo "== sanitized: ASan+UBSan build + tests =="
cmake -B build-asan -S . -DPADX_SANITIZE=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "== chaos: corpus sweep under injected faults, 3 seeds (ASan) =="
# The seeds are fixed so a failure replays exactly; the test logs the
# seed it ran with. Faults stay disabled for every other test — the
# hooks only arm when ChaosTest installs a config.
for seed in 1 2 3; do
  PADX_FAULT_SEED="$seed" ctest --test-dir build-asan \
    --output-on-failure -R 'Chaos'
done

# TSan needs a working compiler/libtsan pairing, which not every image
# has (and ASan cannot share a build with it). Probe with a real
# two-thread program before committing to the build: compiling alone is
# not enough, some glibc/libtsan combinations only fail at runtime.
TSAN_CXX=""
for cxx in clang++ c++; do
  command -v "$cxx" > /dev/null 2>&1 || continue
  cat > /tmp/padx_tsan_probe.cc <<'EOF'
#include <thread>
int main() {
  int x = 0;
  std::thread t([&] { x = 1; });
  t.join();
  return x - 1;
}
EOF
  if "$cxx" -fsanitize=thread -o /tmp/padx_tsan_probe \
       /tmp/padx_tsan_probe.cc 2> /dev/null \
     && /tmp/padx_tsan_probe 2> /dev/null; then
    TSAN_CXX="$cxx"
    break
  fi
done
if [ -n "$TSAN_CXX" ]; then
  echo "== sanitized: TSan build + concurrency tests ($TSAN_CXX) =="
  # Scoped to the concurrent components: the thread pool, the parallel
  # candidate search, and the padd daemon (socket server, protocol
  # handler, shared analysis cache). Running the whole suite under TSan
  # triples CI time for code that never spawns a thread.
  cmake -B build-tsan -S . -DPADX_SANITIZE_THREAD=ON \
    -DCMAKE_CXX_COMPILER="$TSAN_CXX" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j "$JOBS"
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
    -R 'ThreadPool|Search|Server|Protocol|SharedCache|Arena|Daemon|Chaos|Client|SocketFault|Robustness|FaultInjection'
  echo "== chaos: corpus sweep under injected faults, 3 seeds (TSan) =="
  for seed in 1 2 3; do
    PADX_FAULT_SEED="$seed" ctest --test-dir build-tsan \
      --output-on-failure -R 'Chaos'
  done
else
  echo "== sanitized: TSan skipped (no working -fsanitize=thread) =="
fi

if command -v clang-tidy > /dev/null 2>&1; then
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
  echo "== clang-tidy: enforced on src/analysis + src/lint =="
  # The analysis and lint libraries gate: any new finding under the
  # .clang-tidy profile is an error (intentional deviations carry a
  # NOLINT with a justification). The rest of the tree stays advisory
  # below, so clang-tidy's version-to-version check drift can only
  # break CI for the two directories this PR holds warning-clean.
  clang-tidy -p build --quiet --warnings-as-errors='*' \
    src/analysis/*.cpp src/lint/*.cpp
  echo "== clang-tidy: bugprone/performance/concurrency (advisory) =="
  # Advisory by configuration (.clang-tidy sets no WarningsAsErrors):
  # surfaces findings in the log without gating.
  clang-tidy -p build --quiet examples/padlint.cpp || true
else
  echo "== clang-tidy: skipped (not on PATH) =="
fi

if command -v clang++ >/dev/null 2>&1; then
  echo "== fuzz: 60-second libFuzzer smoke (clang) =="
  cmake -B build-fuzz -S . -DPADX_FUZZ=ON \
    -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++ \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-fuzz -j "$JOBS" --target padx_fuzz_parser
  mkdir -p build-fuzz/fuzz-work
  build-fuzz/tests/fuzz/padx_fuzz_parser \
    -max_total_time=60 -print_final_stats=1 \
    build-fuzz/fuzz-work tests/fuzz/corpus tests/fuzz/crashers
else
  echo "== fuzz: skipped (clang++ not found; libFuzzer needs clang) =="
fi

echo "== ci: all green =="
