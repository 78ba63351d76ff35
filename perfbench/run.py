#!/usr/bin/env python3
"""Builds and runs the toolkit's end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload report_fac --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The benchmark (perfbench/fa_perfbench) is built from the sources in the
checkout into .bench_build/perfbench, then run on one workload. Its last
stdout line is the JSON result; this script checks that the metrics it
names match BENCHMARK.json before passing the output on. Scratch files
live under .bench_work/ and are removed after the run, except the Chrome
trace of a traced run (.bench_work/traces/). --self-test runs every
workload at a small scale, traced and untraced, and checks the results,
the trace's span coverage and the repeatability of the deterministic
counts. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_work"
WORKLOADS = ("report_fac", "generate_fac", "watch_stream")
DEFAULT_SEED = 1
# A run's time limit: set-up (three scale-4 set-ups; in traced runs also the
# extra layer-splitting calls and a 1-thread operation) plus twice the
# requested measuring time.
SETUP_ALLOWANCE_S = 60
SELF_TEST_SCALE = "0.5"

# Per-layer counts that depend only on the input, never on timing.
DETERMINISTIC = (
    "pool.items", "pool.batches", "trace.chunks_read", "trace.fac_bytes",
    "trace.rows_written", "sim.tickets", "sim.usage_rows", "stream.events",
    "analysis.crash_tickets", "kmeans.distances_computed",
    "kmeans.distances_pruned", "kmeans.iterations", "text.documents",
    "text.vocabulary_terms", "detect.events", "detect.alerts",
    "detect.late_dropped", "fac_bytes_per_ticket", "detect_latency_days",
    "detect_precision", "detect_recall",
)


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"toolkit sources not found under {ROOT / 'src'}")
        return None
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"),
                      "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed")
            return None
    return BUILD_DIR / "fa_perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(binary, workload, seed, seconds, trace, scale=None,
             trace_out=None):
    """Runs one benchmark process; returns (stdout lines, result) or None."""
    workdir = WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir)]
    if scale:
        cmd += ["--scale", scale]
    if trace_out:
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_out)]
    timeout = SETUP_ALLOWANCE_S + 2 * seconds
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {timeout} s")
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{workload}: benchmark exited with code {proc.returncode}")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: last output line is not a JSON result")
        return None
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected_metrics(trace):
        log(f"{workload}: metrics differ from BENCHMARK.json")
        return None
    return lines, result


def trace_coverage(path, workload):
    """Share of each bench.op span's time covered by its bench.* children."""
    events = json.loads(Path(path).read_text())["traceEvents"]
    ops = [e for e in events if e["name"] == f"bench.op.{workload}"]
    shares = []
    for op in ops:
        start, end = op["ts"], op["ts"] + op["dur"]
        inner = sorted(
            (e["ts"], e["ts"] + e["dur"]) for e in events
            if e is not op and e["name"].startswith("bench.")
            and e["tid"] == op["tid"] and start <= e["ts"]
            and e["ts"] + e["dur"] <= end)
        covered, reach = 0.0, start
        for lo, hi in inner:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        shares.append(covered / op["dur"] if op["dur"] > 0 else 0.0)
    return shares


def self_test(binary):
    failures = []

    def check(ok, what):
        print(f"[{'PASS' if ok else 'FAIL'}] {what}")
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        plain = run_once(binary, workload, DEFAULT_SEED, 1, 0, SELF_TEST_SCALE)
        check(plain is not None, f"{workload}: untraced run reports")
        if plain:
            result = plain[1]
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{workload}: every operation passes its check")
            check(all(m["value"] > 0 for m in result["metrics"].values()),
                  f"{workload}: every end-to-end metric is non-zero")
        trace_file = WORK_DIR / "traces" / f"self-test-{workload}.json"
        traced = [run_once(binary, workload, DEFAULT_SEED, 1, 1,
                           SELF_TEST_SCALE, trace_file) for _ in range(2)]
        check(all(traced), f"{workload}: traced runs report")
        if not all(traced):
            continue
        check(all(r["correct"] and r["failed"] == 0 for _, r in traced),
              f"{workload}: traced and 1-thread operations pass their checks")
        first, second = (r["metrics"] for _, r in traced)
        unstable = [k for k in DETERMINISTIC
                    if first[k]["value"] != second[k]["value"]]
        check(not unstable, f"{workload}: deterministic counts repeat "
              f"exactly {unstable or ''}")
        shares = trace_coverage(trace_file, workload)
        check(bool(shares) and min(shares) >= 0.95,
              f"{workload}: bench.* spans cover the operation "
              f"({', '.join(f'{s:.1%}' for s in shares)})")
    print("self-test:", "FAILED" if failures else "passed")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return self_test(binary)
    trace_out = (WORK_DIR / "traces" / f"{args.workload}-seed{args.seed}.json"
                 if args.trace else None)
    outcome = run_once(binary, args.workload, args.seed, args.seconds,
                       args.trace, trace_out=trace_out)
    if outcome is None:
        return 1
    print("\n".join(outcome[0]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
