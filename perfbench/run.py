#!/usr/bin/env python3
"""Build and run padx's benchmark for one workload.

Usage, from the root of a padx checkout:

    python3 perfbench/run.py --workload search-l1|search-l2|daemon-mix \\
        --seed N --seconds S --trace 0|1

Builds perfbench/ (a CMake project that compiles the checkout's src/
libraries) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset, then runs the workload. The benchmark
prints a report and, as the last line of standard output, one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, the per-layer ones with
--trace 1. This script checks that line against BENCHMARK.json before
passing it on.

Count sections and full reports are kept under the build directory in
state/<binary digest>/, so a second run at the same seed with the same
binary is checked against the first.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    """The build directory, always inside the checkout."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.realpath(os.path.join(ROOT, target))
    root = os.path.realpath(ROOT)
    if os.path.commonpath([path, root]) != root:
        path = os.path.join(root, ".bench_build")
    return os.path.join(path, "perfbench")


def build(out_dir):
    """Configures once, then brings the benchmark binary up to date."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(os.path.join(out_dir, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", out_dir, "--target",
                      "padx_perfbench", "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log,
                                      stderr=subprocess.STDOUT, env=env,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + log_path)
            if done.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed; see " + log_path)
    binary = os.path.join(out_dir, "padx_perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no benchmark binary")
    return binary


def digest(path):
    h = hashlib.sha1()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def check_result(line, expected):
    """The result line: exact keys, whole counts, every expected metric."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number of at least 1"
    if not isinstance(result["failed"], int):
        return "failed must be a whole number"
    metrics = result["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            missing, extra)
    for name, unit in expected.items():
        m = metrics[name]
        if not isinstance(m, dict) or m.get("unit") != unit or \
                not isinstance(m.get("value"), (int, float)):
            return "metric %s lacks a numeric value in %s" % (name, unit)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e, 2)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload, 2)
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("padx sources (src/) not found next to perfbench/", 2)

    out_dir = build_dir()
    binary = build(out_dir)
    state = os.path.relpath(os.path.join(out_dir, "state", digest(binary)),
                            ROOT)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--state-dir", state]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.decode("utf-8", "replace").rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("benchmark exited with code %d" % done.returncode)

    key = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[key]}
    problem = check_result(lines[-1], expected)
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(problem)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
