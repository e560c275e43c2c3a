#!/usr/bin/env python3
"""chaocav benchmark: run one workload in-process, check it, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; the package is imported from ./src. One
call is one workload unit (see workloads.py), made through chaocav.cli.main
by a single caller in a closed loop, after one untimed warm-up call, and
each call is followed by the host calibration of host.py. Every call's
outputs go to a temporary directory under .bench_out/ and are checked
against perfbench/reference/. With --trace 0 the last line of
standard output holds the end-to-end metrics; with --trace 1 it holds the
per-layer metrics, from calls that alternate untraced and traced.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
OUT_ROOT = Path(".bench_out")

#: Fresh interpreters started to time set-up; the median is reported.
SETUP_PROBES = 15

#: A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10


def cap_blas_threads():
    """Limit native thread pools to the CPUs this process may run on."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= n):
            os.environ[var] = str(n)


def measure_setup(name, seed):
    values = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), name, str(seed)],
                              capture_output=True, text=True, timeout=120, check=True)
        values.append(float(proc.stdout.split()[-1]))
    return statistics.median(values)


def import_cli(src):
    sys.path.insert(0, str(src))
    from chaocav import cli

    if Path(cli.__file__).resolve().parent != (src / "chaocav").resolve():
        raise ImportError(f"chaocav was imported from {cli.__file__}, not from {src}")
    return cli


def tail(samples):
    """(value, percentile, samples beyond) of the highest percentile with at
    least TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    if n > TAIL_BEYOND:
        k = n - TAIL_BEYOND - 1
        return ordered[k], 100.0 * (k + 1) / n, TAIL_BEYOND
    return ordered[-1], 100.0, 0


class Loop:
    """Closed loop of calls with one caller; collects times and failures."""

    def __init__(self, cli, workload, seed, refs, out_dir, tracer, calibrate):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.refs = refs
        self.out_dir = out_dir
        self.tracer = tracer
        self.calibrate = calibrate
        self.attempted = 0
        self.failed = 0
        self.csv_bytes = set()

    def call(self, traced):
        """One checked call; returns its wall seconds."""
        if traced:
            self.tracer.begin_call()
            self.tracer.install()
        start = time.perf_counter()
        try:
            codes, stdout = workloads.run_call(self.cli, self.workload, self.out_dir, self.seed)
        except Exception:
            traceback.print_exc()
            codes, stdout = [1], ""
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                self.tracer.uninstall()
        try:
            ok, nbytes = workloads.check_call(self.workload, codes, stdout, self.out_dir,
                                              self.refs)
        except (ValueError, UnicodeDecodeError):  # output that does not parse
            traceback.print_exc()
            ok, nbytes = False, 0
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"call {self.attempted} failed: exit codes {codes}", file=sys.stderr)
        self.csv_bytes.add(nbytes)
        return elapsed

    def run(self, seconds):
        """Calls until the next one would end after `seconds`, each followed
        by the host calibration. Returns (untraced times, traced times,
        normalised untraced times, calibration times); with a tracer, calls
        alternate. A call's normalised time is its wall time over the median
        kernel time of the calibrations just before and just after it.
        """
        before = []
        self.calibrate(self.call(traced=False), before)
        plain, traced, norm, cal = [], [], [], []
        rounds = []
        deadline = time.perf_counter() + seconds
        while True:
            round_start = time.perf_counter()
            use_trace = self.tracer is not None and len(plain) > len(traced)
            elapsed = self.call(use_trace)
            after = []
            self.calibrate(elapsed, after)
            if use_trace:
                traced.append(elapsed)
            else:
                plain.append(elapsed)
                norm.append(elapsed / statistics.median(before + after))
            cal += after
            before = after
            now = time.perf_counter()
            rounds.append(now - round_start)
            complete = self.tracer is None or len(traced) == len(plain)
            if complete and now + statistics.median(rounds) > deadline:
                return plain, traced, norm, cal


def end_to_end(workload, plain, norm, cal, setup_s, error_rate, host):
    """Gated metrics, and the ungated call-time statistics for the detail line.

    The gated latency is the median normalised call, and the gated set-up
    time is scaled to the reference host speed by the run's median kernel
    time: on a shared host, other tenants slow whole stretches of a run,
    which moves wall times by far more than their ratio to the calibration
    (see README.md).
    """
    value, pct, beyond = tail(plain)
    host_s = statistics.median(cal)
    metrics = {
        "setup_s": (setup_s * host.REFERENCE_S / host_s, "s"),
        "call_p50_norm": (statistics.median(norm), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    ungated = {
        "call_s_p50": (statistics.median(plain), "s"),
        "call_s_tail": (value, "s"),
        "rows_per_s": (workload.rows * len(plain) / sum(plain), "1/s"),
        "error_rate": (error_rate, "ratio"),
        "host_cal_s_p50": (host_s, "s"),
        "setup_s_wall": (setup_s, "s"),
    }
    detail = {"calls_timed": len(plain), "tail_percentile": pct,
              "tail_samples_beyond": beyond,
              "ungated": {name: {"value": v, "unit": unit} for name, (v, unit) in ungated.items()}}
    return metrics, ungated, detail


def per_layer(workload, tracer, plain, traced, csv_bytes, error_rate):
    """Per-layer metrics from the traced calls, per workload call.

    Busy and self seconds are medians over the traced calls; a function the
    workload never reaches reads 0 s.
    """
    profiles = [tracer.call_profile(i) for i in range(len(traced))]
    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.calls"] = (profiles[0][name][0], "count")
        metrics[f"{name}.busy_s"] = (statistics.median(p[name][1] for p in profiles), "s")
        metrics[f"{name}.self_s"] = (statistics.median(p[name][2] for p in profiles), "s")
    counts = tracer.counts[0]
    for name, counter in spans.COUNTERS.items():
        metrics[name] = (counts[name], counter.unit)
    metrics["dynamics.table_rows_per_output_row"] = (
        counts["dynamics.amplitude_table.rows"] / workload.rows, "ratio")
    metrics["cli.csv_bytes"] = (max(csv_bytes), "bytes")
    metrics["trace.call_s_p50"] = (statistics.median(traced), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    repeat = (len(csv_bytes) == 1
              and all(c == counts for c in tracer.counts)
              and all(p[n][0] == profiles[0][n][0] for p in profiles for n in spans.SPAN_NAMES))
    detail = {"calls_timed": len(plain), "calls_traced": len(traced),
              "counts_repeat": repeat, "error_rate": error_rate,
              "trace_overhead_pct": 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)}
    return metrics, {}, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=8)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "chaocav" / "__init__.py").is_file():
        print(f"error: no chaocav package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    cap_blas_threads()
    setup_s = None if args.trace else measure_setup(workload.name, args.seed)
    cli = import_cli(src)
    import host  # after cap_blas_threads, like chaocav: it imports numpy

    refs = workloads.load_reference(workload)
    tracer = spans.Tracer() if args.trace else None

    OUT_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_ROOT) as out_dir:
        loop = Loop(cli, workload, args.seed, refs, out_dir, tracer, host.calibrate)
        plain, traced, norm, cal = loop.run(args.seconds)

    error_rate = loop.failed / loop.attempted
    if tracer is None:
        metrics, ungated, detail = end_to_end(workload, plain, norm, cal, setup_s, error_rate,
                                              host)
    else:
        metrics, ungated, detail = per_layer(workload, tracer, plain, traced, loop.csv_bytes,
                                             error_rate)
        spans_path = OUT_ROOT / f"spans_{workload.name}.jsonl"
        tracer.write_spans(spans_path)
        detail["spans"] = str(spans_path)
    detail.update(workload=workload.name, seed=args.seed, rows_per_call=workload.rows)

    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:>16.6g} {unit}")
    for name, (value, unit) in ungated.items():
        print(f"{name:42s} {value:>16.6g} {unit} (not gated)")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
