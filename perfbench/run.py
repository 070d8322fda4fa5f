#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the measuring program (the Cargo package in this directory) into
$CARGO_TARGET_DIR (default: .bench_build), runs the workload in fresh
processes (several for a timed run, reporting the median of each metric
over them; one for a traced run) and prints, as the last line of standard output, one JSON object
with the keys correct, attempted, failed and metrics: every end-to-end
metric of BENCHMARK.json with --trace 0, every per-layer metric with
--trace 1. The line before it holds the run's context (seed, cores, worker
count, latency tail percentile and sample count, error rate, ...).
Exits non-zero when a verdict or an invariant failed, or when the
repository sources are missing.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must finish well inside the three minutes a run is allowed.
RUN_TIMEOUT_S = 170
# A timed run is split over up to this many measuring processes.
CHUNKS = 4


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail("the repository sources (crates/) are missing")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    built = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        fail("building the benchmark failed")
    return os.path.join(target, "release", "perfbench")


def invoke(exe, args, log):
    """Runs the measuring program; returns its parsed result line."""
    with open(log, "w") as err:
        try:
            done = subprocess.run(
                [exe] + args, stdout=subprocess.PIPE, stderr=err, text=True,
                timeout=RUN_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            fail(f"{' '.join(args[:3])} timed out after {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    with open(log) as err:
        problems = [l for l in err if l.startswith("perfbench:")]
    sys.stderr.writelines(problems)
    if not lines:
        fail(f"{' '.join(args[:3])} exited with {done.returncode} and no result")
    result = json.loads(lines[-1])
    result["exit"] = done.returncode
    return result


def chunks(exe, measure, seconds, log):
    """Runs the workload in fresh processes of CHUNKS-th of the run's
    seconds each (at least one unit of work each): at least two, and more
    as long as another process of the mean length still fits, so that
    every metric — the process-wide peak RSS included — is a median over
    several processes. Each process is a numbered stream of the seed: the
    family workloads shuffle their job file differently in each."""
    started = time.monotonic()
    runs = []
    while True:
        stream = ["--stream", str(len(runs)), "--seconds", str(seconds / CHUNKS)]
        runs.append(invoke(exe, measure + stream, log))
        elapsed = time.monotonic() - started
        if len(runs) >= 2 and elapsed + elapsed / len(runs) > seconds:
            return runs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(target)
    scratch = os.path.join(target, f"perfbench-scratch-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    common = ["--seed", str(args.seed), "--scratch", scratch]
    measure = ["measure", "--workload", args.workload, "--trace", str(args.trace)] + common
    try:
        setup = []
        if args.workload == "family_batch_warm":
            # The cache is filled in a process of its own, so the timed
            # processes' peak RSS is the warm path's alone.
            setup.append(invoke(exe, ["fill"] + common, os.path.join(scratch, "fill.log")))
        log = os.path.join(scratch, "measure.log")
        if args.trace:
            runs = [invoke(exe, measure + ["--seconds", str(args.seconds)], log)]
        else:
            runs = chunks(exe, measure, args.seconds, log)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    results = setup + runs

    # Each end-to-end metric is the median over the measuring processes;
    # the warm workload's set-up time comes from its filling process.
    measured = {}
    for name in {n for r in results for n in r["metrics"]}:
        values = [r["metrics"][name] for r in results if name in r["metrics"]]
        measured[name] = statistics.median(values)
    unknown = set(measured) - {m["name"] for m in wanted} - (
        {"setup_s"} if args.trace else set())
    if unknown:
        fail(f"the program reported metrics BENCHMARK.json does not list: {sorted(unknown)}")
    metrics = {}
    for m in wanted:
        value = measured.get(m["name"])
        if value is None:
            if not args.trace:
                fail(f"end-to-end metric {m['name']} was not measured")
            value = 0  # a per-layer metric this workload does not exercise
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = all(r["correct"] and r["exit"] == 0 for r in results)
    info = dict(workload=args.workload, trace=args.trace, processes=len(runs),
                **results[-1]["info"])
    info["error_rate"] = failed / max(attempted, 1)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
