#!/usr/bin/env python3
"""Multi-run modes of the benchmark (run.sh calls this after building).

    orchestrate.py <binary>                  every workload, untraced then traced
    orchestrate.py <binary> --smoke          toy sizes; checks the output contract
    orchestrate.py <binary> --repeat N       two alternating sets of N runs

Every workload run is its own process of <binary>; this script only starts
them, reads the JSON object on their last line, and compares it with
BENCHMARK.json, which stays the one place that names metrics, units,
directions and bounds.
"""

import argparse
import json
import math
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Per-layer metrics that are exact counts of work done (not times, not
# tallies of scheduling luck such as serve.batched_jobs): two runs of one
# build with one seed must agree on them to the last digit. The one
# exception is below.
COUNTS = [
    "run.rounds",
    "run.ops_per_round",
    "run.threads",
    "hpcg.kernel_calls_per_iter",
    "hpcg.flops_per_iter",
    "hpcg.bytes_per_iter",
    "hpcg.rel_residual",
    "backend.kernel_spans_per_op",
    "plan.cache_hits_per_op",
    "plan.cache_misses_per_op",
    "bsp.supersteps_per_op",
    "bsp.h_mb_per_op",
    "bsp.modeled_ms_per_op",
    "algorithms.push_steps",
    "algorithms.pull_steps",
    "algorithms.edges_traversed",
    "serve.plan_cache_hits",
    "serve.plan_cache_misses",
    "serve.overloaded",
    "serve.jobs_err",
    "obs.spans_dropped",
    "host.logical_cpus",
]
# A batched sweep emits one kernel span for several mxv jobs, and which jobs
# meet in the queue is timing.
NOT_EXACT = {("serve-mix", "backend.kernel_spans_per_op")}


def run_one(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload in its own process; returns (exit code, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{' '.join(cmd)} printed nothing (exit code {proc.returncode})")
    return proc.returncode, json.loads(lines[-1])


def declared(trace):
    return SPEC["per_layer" if trace else "end_to_end"]


def check_contract(workload, trace, result):
    """The output contract, as a list of violations."""
    bad = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        bad.append(f"result keys are {sorted(result)}")
        return bad
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        bad.append(f"correct={result['correct']} attempted={result['attempted']} "
                   f"failed={result['failed']}")
    want = {m["name"]: m for m in declared(trace)}
    got = result["metrics"]
    for name in sorted(set(want) - set(got)):
        bad.append(f"{name} is declared but missing")
    for name in sorted(set(got) - set(want)):
        bad.append(f"{name} is printed but not declared")
    for name, m in got.items():
        if not NAME.fullmatch(name):
            bad.append(f"{name!r} is not a legal metric name")
        value = m.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            bad.append(f"{name} is not a finite number: {value!r}")
        elif not trace and value <= 0:
            bad.append(f"end-to-end metric {name} must be positive, got {value}")
        if name in want and m.get("unit") != want[name]["unit"]:
            bad.append(f"{name} has unit {m.get('unit')!r}, declared {want[name]['unit']!r}")
    return [f"{workload} --trace {trace}: {b}" for b in bad]


def print_metrics(trace, result):
    for m in declared(trace):
        got = result["metrics"][m["name"]]
        bound = f"  bound {m['bound']:.0%}" if "bound" in m else ""
        print(f"  {m['name']:<32} {got['value']:>16.6f} {got['unit']:<7} "
              f"{m['better']} is better{bound}")


def run_all(binary, seed, seconds):
    bad = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            t0 = time.time()
            code, result = run_one(binary, workload, seed, seconds, trace)
            print(f"== {workload}  {'traced' if trace else 'tracing off'}  "
                  f"({result['attempted']} ops attempted, {result['failed']} failed, "
                  f"{time.time() - t0:.1f} s)")
            print_metrics(trace, result)
            if code != 0:
                bad.append(f"{workload} --trace {trace} exited with code {code}")
            bad += check_contract(workload, trace, result)
    return bad


def smoke(binary):
    bad = []
    t0 = time.time()
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_one(binary, workload, 1, 1, trace, ["--smoke"])
            if code != 0:
                bad.append(f"{workload} --trace {trace} exited with code {code}")
            bad += check_contract(workload, trace, result)
        # A corrupted expectation must surface as failed ops, not a panic.
        code, result = run_one(binary, workload, 1, 1, 0, ["--smoke", "--selftest-fail"])
        if code != 1 or result["correct"] is not False or not 0 < result["failed"] <= result["attempted"]:
            bad.append(f"{workload} --selftest-fail: exit code {code}, correct={result['correct']}, "
                       f"{result['failed']} of {result['attempted']} ops failed")
    took = time.time() - t0
    print(f"smoke: {len(WORKLOADS)} workloads x (tracing off, traced, self-test), "
          f"{len(SPEC['end_to_end'])} + {len(SPEC['per_layer'])} declared metrics, {took:.1f} s")
    if took > 15:
        bad.append(f"smoke took {took:.1f} s, over the 15 s it is meant to stay under")
    return bad


def spread(values):
    """Interquartile range over the median, as the driver computes it (shown
    for information: it means little for fewer than about ten runs)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def repeat(binary, n, seconds):
    """Sets A and B are the same build; run i of each uses seed i + 1."""
    values = {s: {w: {m["name"]: [] for m in SPEC["end_to_end"]} for w in WORKLOADS} for s in "AB"}
    counts = {w: [] for w in WORKLOADS}
    bad = []
    for i in range(n):
        for s in ("AB" if i % 2 == 0 else "BA"):
            for workload in WORKLOADS:
                code, result = run_one(binary, workload, i + 1, seconds, 0)
                bad += check_contract(workload, 0, result)
                for name, m in result["metrics"].items():
                    values[s][workload][name].append(m["value"])
            print(f"set {s} run {i + 1}/{n} done", file=sys.stderr)
    # The count metrics come from traced runs: two per workload, same seed.
    for workload in WORKLOADS:
        for _ in range(2):
            _, result = run_one(binary, workload, 1, seconds, 1)
            bad += check_contract(workload, 1, result)
            counts[workload].append({c: result["metrics"][c]["value"] for c in COUNTS})
        for c in COUNTS:
            a, b = (run[c] for run in counts[workload])
            if a != b and (workload, c) not in NOT_EXACT:
                bad.append(f"{workload}: count {c} differs between two traced runs: {a} vs {b}")

    print(f"{'workload':<13} {'metric':<12} {'median A':>13} {'median B':>13} {'gap':>7} "
          f"{'bound':>6} {'spread A':>9} {'spread B':>9}")
    for workload in WORKLOADS:
        for m in SPEC["end_to_end"]:
            a, b = (values[s][workload][m["name"]] for s in "AB")
            med_a, med_b = statistics.median(a), statistics.median(b)
            gap = abs(med_b - med_a) / med_a
            spreads = [spread(v) if len(v) >= 2 else float("nan") for v in (a, b)]
            verdict = ""
            if gap > m["bound"]:
                verdict = "  GAP OVER BOUND"
                bad.append(f"{workload} {m['name']}: gap {gap:.2%} exceeds bound {m['bound']:.0%}")
            print(f"{workload:<13} {m['name']:<12} {med_a:>13.5f} {med_b:>13.5f} {gap:>7.2%} "
                  f"{m['bound']:>6.0%} {spreads[0]:>9.2%} {spreads[1]:>9.2%}{verdict}")
    print(f"count metrics identical across traced runs: "
          f"{'no' if any('count' in b for b in bad) else 'yes'} ({len(COUNTS)} per workload)")
    return bad


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("binary")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, metavar="N")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = parser.parse_args()
    if args.smoke:
        bad = smoke(args.binary)
    elif args.repeat:
        bad = repeat(args.binary, args.repeat, args.seconds)
    else:
        bad = run_all(args.binary, args.seed, args.seconds)
    for b in bad:
        print(f"FAIL: {b}")
    print("FAILED" if bad else "OK")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
