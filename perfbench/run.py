#!/usr/bin/env python3
"""Benchmark driver for the ssmwn library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the perfbench program from
source on first use (CMake, into $CARGO_TARGET_DIR or .bench_build),
then runs the workload in its own process and prints, as the last line
of standard output, one JSON object with the keys correct, attempted,
failed and metrics.

--trace 0 measures the named workload for S seconds and reports its
end-to-end metrics. --trace 1 runs every traced script (the three
workloads plus mobile-1k, each in its own process), reports every
per-layer metric plus each script's tracing overhead, and writes the
spans to <build dir>/traces/<script>.jsonl.

Exits non-zero without a result when the build, a workload process or
its output fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

# End-to-end workloads (BENCHMARK.json). The traced run also covers
# mobile-1k, whose window timings are too host-sensitive to bound (see
# README.md) but whose per-layer counts and times are still recorded.
WORKLOADS = ["stabilize-250k", "campaign-mix", "serve-4c"]
TRACED = WORKLOADS + ["mobile-1k"]
# The workload process must end well inside the 180 s a run may take.
WORKLOAD_TIMEOUT_S = 170

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures once, then lets CMake bring the program up to date."""
    if not (ROOT / "src" / "sim" / "sharded_network.hpp").is_file():
        fail("library sources (src/) not found next to perfbench/")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr; stdout carries only the result.
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    exe = out / "perfbench"
    if not exe.is_file():
        fail("build produced no perfbench binary")
    return exe


def run_workload(exe, name, seed, seconds, trace_out=None):
    cmd = [str(exe), name, "--seed", str(seed), "--seconds", str(seconds)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=WORKLOAD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{name} did not finish within {WORKLOAD_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{name} exited with code {done.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{name} printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{name} printed a malformed result")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    exe = build()
    if args.trace == 0:
        result = run_workload(exe, args.workload, args.seed, args.seconds)
    else:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        # The named workload first, then the rest: every traced run
        # reports every per-layer metric.
        order = [args.workload] + [w for w in TRACED if w != args.workload]
        for name in order:
            started = time.monotonic()
            part = run_workload(exe, name, args.seed, args.seconds,
                                traces / f"{name}.jsonl")
            print(f"traced {name} in {time.monotonic() - started:.1f} s")
            result["correct"] = result["correct"] and part["correct"]
            result["attempted"] += part["attempted"]
            result["failed"] += part["failed"]
            result["metrics"].update(part["metrics"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
