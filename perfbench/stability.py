#!/usr/bin/env python3
"""Stability self-check of the benchmark, run from the repository root.

    python3 perfbench/stability.py [--workloads NAME ...] [--runs 10] [--first-seed 1]

For each workload it makes two independent sets of --runs untraced runs
(each run with its own seed) of the command in BENCHMARK.json, then two
traced runs. It prints, per end-to-end metric and workload, each set's
median and spread (the distance between the first and third quartile of
statistics.quantiles(values, n=4), as a share of the median), and whether
the second median is worse than the first by more than the metric's bound.
A spread wider than the bound is flagged, setup_s included, and a spread
above a third of the bound is marked as thin margin. The ungated statistics
of the detail line are listed with their spreads for reference. Count
metrics of the two traced runs must repeat exactly.
Exits 1 when a run fails, a check is flagged, or a count differs.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

COUNT_UNITS = ("count", "bytes", "ratio")


def run_once(command, workload, seed, seconds, trace):
    argv = list(command) + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(argv)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["ungated"] = json.loads(lines[-2])["detail"].get("ungated", {})
    print(f"  {workload} seed={seed} trace={trace} wall={wall:.1f}s correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                     if trace == 0), flush=True)
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric, first, second):
    """Share by which the second median is worse than the first (negative: better)."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None):
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10, help="runs per set (default 10)")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    e2e = spec["end_to_end"]
    layer_names = {m["name"] for m in spec["per_layer"]}
    count_names = {m["name"] for m in spec["per_layer"]
                   if m["unit"] in COUNT_UNITS or m["name"].endswith(".calls")}
    problems = []
    seed = args.first_seed
    for workload in args.workloads:
        print(f"== {workload}", flush=True)
        sets = []
        ungated = []
        for _ in range(2):
            values = {m["name"]: [] for m in e2e}
            ungated.append({})
            for _ in range(args.runs):
                result = run_once(spec["command"], workload, seed, args.seconds, 0)
                seed += 1
                if not result["correct"] or result["failed"]:
                    problems.append(f"{workload}: run with seed {seed - 1} was not correct")
                if set(result["metrics"]) != set(values):
                    problems.append(f"{workload}: end-to-end metric names differ from BENCHMARK.json")
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
                for name, metric in result["ungated"].items():
                    ungated[-1].setdefault(name, []).append(metric["value"])
            sets.append(values)
        print(f"{'metric':14s} {'median A':>12s} {'median B':>12s} {'spread A':>9s} "
              f"{'spread B':>9s} {'B worse':>8s} {'bound':>6s}  verdict")
        for metric in e2e:
            name, bound = metric["name"], metric["bound"]
            a, b = sets[0][name], sets[1][name]
            sa, sb = spread(a), spread(b)
            worse = worse_by(metric, statistics.median(a), statistics.median(b))
            verdict = []
            if worse > bound:
                verdict.append("MEDIANS DISAGREE")
                problems.append(f"{workload} {name}: second median worse by {worse:.3f}")
            if max(sa, sb) > bound:
                verdict.append("SPREAD WIDER THAN BOUND")
                problems.append(f"{workload} {name}: spread {max(sa, sb):.3f} > {bound}")
            elif max(sa, sb) > bound / 3.0:
                verdict.append("spread above bound/3")
            print(f"{name:14s} {statistics.median(a):12.6g} {statistics.median(b):12.6g} "
                  f"{sa:9.4f} {sb:9.4f} {worse:8.4f} {bound:6.3f}  {', '.join(verdict) or 'ok'}")
        for name, a in ungated[0].items():
            b = ungated[1][name]
            spreads = (f"{spread(a):9.4f} {spread(b):9.4f}" if statistics.median(a) and statistics.median(b)
                       else f"{'-':>9s} {'-':>9s}")
            print(f"{name:14s} {statistics.median(a):12.6g} {statistics.median(b):12.6g} "
                  f"{spreads} {'':8s} {'':6s}  not gated")
        traced = [run_once(spec["command"], workload, seed + k, args.seconds, 1) for k in range(2)]
        seed += 2
        for result in traced:
            if set(result["metrics"]) != layer_names:
                problems.append(f"{workload}: per-layer metric names differ from BENCHMARK.json")
            if not result["correct"]:
                problems.append(f"{workload}: traced run was not correct")
        differing = sorted(n for n in count_names
                           if traced[0]["metrics"][n]["value"] != traced[1]["metrics"][n]["value"])
        overhead = [r["metrics"]["trace.overhead_s"]["value"] for r in traced]
        print(f"counts repeat across two traced runs: {not differing}"
              + (f" (differ: {', '.join(differing)})" if differing else "")
              + f"; trace overhead {overhead[0]:.4f} s, {overhead[1]:.4f} s", flush=True)
        if differing:
            problems.append(f"{workload}: counts differ: {', '.join(differing)}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("stable" if not problems else "NOT STABLE")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
