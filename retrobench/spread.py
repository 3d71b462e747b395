#!/usr/bin/env python3
"""Run the benchmark several times per workload, each with another seed,
and print each end-to-end metric's median and its spread (interquartile
range over median, from statistics.quantiles(n=4)) beside its bound.

With --sets 2 or more, the same seeds are run again as further sets
(each set runs every workload before the next set starts), and each
later set's medians are compared with the first set's: a metric
whose median got worse by more than its bound is flagged. Every
metric is checked, `setup_s` too. The script exits non-zero if any
spread or any drift between sets is beyond its bound.

Usage, from the repository root:

    python3 retrobench/spread.py [--runs 10] [--sets 1] [--first-seed 1] [--trace 0] [WORKLOAD ...]
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

bench = json.load(open("BENCHMARK.json"))
ap = argparse.ArgumentParser()
ap.add_argument("--runs", type=int, default=10)
ap.add_argument("--sets", type=int, default=1)
ap.add_argument("--first-seed", type=int, default=1)
ap.add_argument("--trace", default="0")
ap.add_argument("workloads", nargs="*")
args = ap.parse_args()
names = args.workloads or [w["name"] for w in bench["workloads"]]
spec = {m["name"]: m for m in bench["end_to_end"]}


def run_set(name):
    """Metric name -> values over one set of runs, with the kernel time
    and the uncalibrated (raw_*) times from the calibration line."""
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        t = time.monotonic()
        p = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.monotonic() - t
        if p.returncode != 0:
            sys.exit(f"{name} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
        lines = p.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"{name} seed {seed}: incorrect output\n{p.stderr[-2000:]}")
        got = {metric: v["value"] for metric, v in result["metrics"].items()}
        for line in lines:
            if line.startswith("retrobench: calib_ms="):
                for field in line.split()[1:]:
                    key, _, v = field.partition("=")
                    got[key] = float(v)
        for metric, v in got.items():
            values.setdefault(metric, []).append(v)
        print(f"{name} seed {seed} ({wall:.0f} s): " + " ".join(
            f"{k}={v:.4g}" for k, v in got.items()), flush=True)
    return values


def spread(vs):
    med = statistics.median(vs)
    q = statistics.quantiles(vs, n=4)
    return med, (q[2] - q[0]) / med if med else float("inf")


worst = 0.0
failed = []
# Each set runs every workload before the next set starts, so the sets
# of one workload are as far apart in time as the sets of all of them.
by_set = [{name: run_set(name) for name in names} for _ in range(args.sets)]
for name in names:
    sets = [s[name] for s in by_set]
    for metric in sets[0]:
        m = spec.get(metric)
        bound = m["bound"] if m else None
        for i, values in enumerate(sets):
            med, s = spread(values[metric])
            flag = ""
            if bound is not None:
                worst = max(worst, s / bound)
                flag = "ok" if s < bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
                if s > bound:
                    failed.append(f"{name} {metric} set {i + 1}: spread {s:.3f} > {bound}")
            drift = ""
            if i > 0:
                first = statistics.median(sets[0][metric])
                change = med / first - 1
                drift = f" vs set 1 {change:+.3f}"
                if bound is not None:
                    worse = change if m["better"] == "lower" else -change
                    if worse > bound:
                        failed.append(f"{name} {metric} set {i + 1}: {change:+.3f} vs set 1")
                        drift += " WORSE THAN BOUND"
            print(f"  {name:15} {metric:18} set {i + 1} median {med:12.5g} "
                  f"spread {s:7.4f} bound {bound} {flag}{drift}")
print(f"worst spread/bound: {worst:.3f}")
if failed:
    sys.exit("out of bounds:\n  " + "\n  ".join(failed))
