#!/usr/bin/env python3
"""Fit the speed exponent run.py applies to CPU-clock figures.

    python3 perfbench/fit.py [DIR]

DIR (default .bench_out) holds the runs-<workload>-<seed>.json files that
run.py writes: one raw result per process.  For each workload and each
CPU-clock figure it regresses log(figure) on log(s), where s is the
process's median reference-kernel time in ms, within seeds (both logs are
centred on their seed's mean, so the seeds' different inputs do not enter
the slope).  It prints the slope, the correlation r and the number of
processes, per workload and over all of them ("all").  Each figure is
fitted against the kernel runs of the phase it was measured in, as
run.py corrects it.  run.py's SPEED_EXPONENT is minus the slope for rates and the
slope for times.
"""

import glob
import json
import math
import os
import statistics
import sys


# Each CPU-clock figure and the phase whose kernel runs correct it.
PHASES = {"decides_per_cpu_s": "timed", "setup_s": "setup", "publish_us_p50": "publish"}


def figure(run, name):
    if name == "publish_us_p50":
        pub = sorted(run["publish_us"])
        return pub[len(pub) // 2] if pub else None
    return run[name]


def kernel_ms(run, phase):
    return statistics.median(run["reference_ns"][phase]) / 1e6


def fit(groups):
    """Least-squares slope and r of y on x, each centred within its group."""
    xs, ys = [], []
    for pts in groups:
        if len(pts) < 2:
            continue
        mx = statistics.fmean(x for x, _ in pts)
        my = statistics.fmean(y for _, y in pts)
        xs += [x - mx for x, _ in pts]
        ys += [y - my for _, y in pts]
    sxx = sum(x * x for x in xs)
    syy = sum(y * y for y in ys)
    if sxx == 0 or syy == 0:
        return None
    sxy = sum(x * y for x, y in zip(xs, ys))
    return sxy / sxx, sxy / math.sqrt(sxx * syy), len(xs)


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else ".bench_out"
    by_workload = {}
    for path in sorted(glob.glob(os.path.join(root, "runs-*-*.json"))):
        with open(path) as f:
            runs = json.load(f)
        if runs:
            by_workload.setdefault(runs[0]["workload"], []).append(runs)
    if not by_workload:
        sys.exit("fit.py: no runs-*.json files in %s" % root)
    by_workload["all"] = [runs for seeds in by_workload.values() for runs in seeds]
    for workload, seeds in sorted(by_workload.items()):
        procs = [r for runs in seeds for r in runs]
        kernel = [kernel_ms(r, "timed") for r in procs]
        print("%s: %d processes over %d workload seeds, timed-slice kernel %.2f-%.2f ms"
              % (workload, len(procs), len(seeds), min(kernel), max(kernel)))
        for name, phase in PHASES.items():
            groups = []
            for runs in seeds:
                pts = []
                for r in runs:
                    v = figure(r, name)
                    if v:
                        pts.append((math.log(kernel_ms(r, phase)), math.log(v)))
                groups.append(pts)
            res = fit(groups)
            if res is None:
                print("  %-18s no spread to fit" % name)
            else:
                print("  %-18s slope %+.3f  r %+.3f  n %d" % ((name,) + res))


if __name__ == "__main__":
    main()
