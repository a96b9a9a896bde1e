#!/usr/bin/env python3
"""DACS benchmark runner.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold_wire --seed 1 --seconds 12 --trace 0

It builds perfbench/dacsbench.exe from source (release profile, build
directory .bench_build, no shared dune cache), then runs the workload in
fresh processes, one after another, until their timed segments add up to
--seconds (at least MIN_RUNS of them).  Every process runs the same
seeded schedule, so the runner can gate:

  * correctness: each process compares every answer with Policy.evaluate
    and checks conservation (offered = permit + deny + failed);
  * determinism: every process must report identical virtual-clock
    metrics, counter-based layer metrics, allocation and decision digest.

With --trace 0 it prints the end-to-end metrics of BENCHMARK.json; with
--trace 1 it adds a traced process (per-layer replay table, spans written
to .bench_out/) and a history probe (churn_pull, then the workload, in one
process) and prints the per-layer metrics.  A table for people comes
first; the last line is the JSON result.  Any failed gate exits non-zero
without a result.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "dacsbench.exe")
OUT_DIR = ".bench_out"
WORKLOADS = ("cold_wire", "warm_l1", "churn_pull")
# Seed 1 is the default.  Seed 2 is held out: a later change that claims a
# gain must also hold on it, and must not be tuned on it.
DEFAULT_SEED = 1
MIN_RUNS = 3
MAX_RUNS = 12
MIN_TRACE_BASELINE_RUNS = 2
PROC_TIMEOUT = 100
BUILD_TIMEOUT = 850
WALL_BUDGET = 110  # seconds of untraced processes before the loop stops


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a DACS checkout (no dune-project or lib/ here)",
              file=sys.stderr)
        sys.exit(2)
    cmd = ["dune", "build", "--root", ".", "--profile", "release", "--cache=disabled",
           "--build-dir", BUILD_DIR, "./perfbench/dacsbench.exe"]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed:\n" + r.stderr[-4000:])


def proc(mode, workload, seed):
    cmd = [EXE, mode, "--workload", workload, "--seed", str(seed)]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=PROC_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail("%s run of %s timed out" % (mode, workload))
    if r.returncode != 0:
        fail("%s run of %s exited %d:\n%s" % (mode, workload, r.returncode, r.stderr[-2000:]))
    d = json.loads(r.stdout.strip().splitlines()[-1])
    if not d["correct"]:
        fail("correctness gate: %s seed %d: %d answers differ from Policy.evaluate, "
             "%d stale answers, conserved=%s"
             % (workload, seed, d["mismatches"], d["stale"], d["conserved"]))
    return d


def same_det(runs, what):
    first = runs[0]["det"]
    for r in runs[1:]:
        if r["det"] != first:
            keys = sorted(k for k in first if first[k] != r["det"].get(k))
            fail("determinism gate: %s differ between same-seed processes: %s" % (what, keys))


def untraced(workload, seed, seconds, min_runs):
    runs, spent, t0 = [], 0.0, time.monotonic()
    while len(runs) < min_runs or (spent < seconds and len(runs) < MAX_RUNS
                                   and time.monotonic() - t0 < WALL_BUDGET):
        runs.append(proc("run", workload, seed))
        spent += runs[-1]["timed_cpu_s"]
    same_det(runs, "untraced runs")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "runs-%s-%d.json" % (workload, seed)), "w") as f:
        json.dump(runs, f)
    return runs


def percentile(values, q):
    """Nearest-rank quantile."""
    v = sorted(values)
    if not v:
        return 0.0
    return v[max(0, min(len(v) - 1, math.ceil(q * len(v)) - 1))]


# CPU-clock metrics.  The host's speed moves by up to 2x, in episodes of
# seconds to minutes caused by other tenants, and a whole run can sit in
# one episode, so raw CPU times of two runs of the same code differ by more
# than any useful bound.  Each process therefore also times a fixed
# benchmark-owned kernel (Reference.kernel) after every set-up, every
# timed slice and every few probed publishes; the median kernel time of a
# phase over REFERENCE_MS is the process's slowdown s in that phase, and
# each figure is corrected by the s of the phase it was measured in.  The
# simulator slows less than the kernel.  perfbench/fit.py regresses
# log(figure) on log(s) within seeds; over 60 processes (5 seeds x 4 of
# each workload, 2-vCPU VM, s from 0.90 to 1.74) the slopes pooled over
# the workloads are -0.56 for decides per CPU-second (cold_wire -0.61,
# warm_l1 -0.34, churn_pull -0.67), +0.82 for set-up time and +0.64 for
# publish time.  Noise in s pulls a fitted slope below the true one, so
# the exponents are set on two ten-seed sets whose timed-slice kernel
# times differed by 80-95%: 0.8 kept the rate medians within 9% and the
# publish medians within 16% of each other, where the fitted 0.6 left 11-19%
# and 18-27%.  Set-up takes 1: each stand-up is timed just before its own
# kernel run and, like it, is allocation-bound; it held the set-up medians
# within 5% where 0.6 let them drift 19-23%.  Every CPU figure is scaled by
# s ** SPEED_EXPONENT of its phase: rates multiplied, times divided.  The
# result estimates the figure on a host where the kernel takes 1 ms.  The
# kernel's time depends in part on the program's heap (see reference.ml),
# so the raw figures and s are printed in the table and are per-layer
# metrics (raw.*, host.kernel_ms).
REFERENCE_MS = 1.0
SPEED_EXPONENT = {"setup": 1.0, "timed": 0.8, "publish": 0.8}


def kernel_ms(run, phase):
    return statistics.median(run["reference_ns"][phase]) / 1e6


def speed(run, phase):
    """Slowdown of this process's host during one phase, raised to the
    phase's SPEED_EXPONENT.  Phases: "setup" (the stand-ups), "timed"
    (the timed slices) and "publish" (the measured publishes)."""
    return (kernel_ms(run, phase) / REFERENCE_MS) ** SPEED_EXPONENT[phase]


def cpu_figures(runs, corrected=True):
    """The CPU-clock figures, speed-corrected or as measured."""
    k = speed if corrected else (lambda r, phase: 1.0)
    publish = [p / k(r, "publish") for r in runs for p in r["publish_us"]]
    return {
        "decides_per_cpu_s": statistics.median(
            r["decides_per_cpu_s"] * k(r, "timed") for r in runs),
        "setup_s": statistics.median(r["setup_s"] / k(r, "setup") for r in runs),
        "publish_us_p50": percentile(publish, 0.50),
        "publish_us_p90": percentile(publish, 0.90),
    }


def end_to_end(runs):
    det = runs[0]["det"]
    offered = sum(r["offered"] for r in runs)
    metrics = cpu_figures(runs)
    metrics.update({
        "alloc_words_per_decide": det["alloc_words_per_decide"],
        "peak_heap_mb": statistics.median(r["peak_heap_mb"] for r in runs),
        "virt_mean_ms": det["virt_mean_ms"],
        "virt_p99_ms": det["virt_p99_ms"],
        "virt_p999_ms": det["virt_p999_ms"],
        "msgs_per_decide": det["msgs_per_decide"],
        "wire_bytes_per_decide": det["wire_bytes_per_decide"],
        "answered_ratio": sum(r["answered"] for r in runs) / offered,
    })
    return metrics


COUNTERS = (
    "pep.l1_hit_ratio", "pep.stale_answer_ratio", "pep.coalesced_per_decide", "pep.shed_ratio",
    "decision_cache.region_drop_ratio", "decision_cache.key_bytes_per_entry",
    "pdp_tier.parts_per_frame", "pdp_tier.shard_load_skew", "pdp_service.queries_per_decide",
    "cache_hierarchy.attr_hit_ratio", "pip.frames_per_decide", "net.bytes_per_frame",
)


def per_layer(workload, seed, runs):
    spans = os.path.join(OUT_DIR, "spans-%s.jsonl" % workload)
    traced = proc("trace", workload, seed)
    same_det(runs + [traced], "traced and untraced runs")
    history = proc("history", workload, seed)
    det, hdet = runs[0]["det"], history["det"]
    untraced_rate = cpu_figures(runs)["decides_per_cpu_s"]
    metrics = {k: det[k] for k in COUNTERS}
    # The untraced figures as measured, beside the host slowdown that
    # end_to_end corrects them by.
    raw = cpu_figures(runs, corrected=False)
    for k in ("decides_per_cpu_s", "setup_s", "publish_us_p50"):
        metrics["raw." + k] = raw[k]
    metrics["host.kernel_ms"] = statistics.median(kernel_ms(r, "timed") for r in runs)
    metrics.update(traced["replay"])
    # The replay ran in the traced process, so its own raw rate is the base.
    metrics["unattributed_share"] = (
        1.0 - metrics["layer_sum_ns_per_decide"] * traced["decides_per_cpu_s"] / 1e9)
    metrics["trace_overhead_ratio"] = cpu_figures([traced])["decides_per_cpu_s"] / untraced_rate
    metrics["history.virt_p99_shift"] = hdet["virt_p99_ms"] / det["virt_p99_ms"] - 1.0
    notes = [
        "spans: %s" % spans,
        "history probe (churn_pull first, same process): digest %s, virt_mean_ms %.6f -> %.6f, "
        "virt_p99_ms %.6f -> %.6f, virt_p999_ms %.6f -> %.6f" % (
            "unchanged" if hdet["digest"] == det["digest"] else "MOVED",
            det["virt_mean_ms"], hdet["virt_mean_ms"], det["virt_p99_ms"], hdet["virt_p99_ms"],
            det["virt_p999_ms"], hdet["virt_p999_ms"]),
    ]
    return metrics, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build()
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    if args.trace:
        runs = untraced(args.workload, args.seed, args.seconds / 2, MIN_TRACE_BASELINE_RUNS)
        metrics, notes = per_layer(args.workload, args.seed, runs)
    else:
        runs = untraced(args.workload, args.seed, args.seconds, MIN_RUNS)
        metrics, notes = end_to_end(runs), []

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail("metrics not produced: %s" % missing)
    det = runs[0]["det"]
    offered = sum(r["offered"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print("workload %s  seed %d  processes %d  requests/process %d  timed cpu %.2f s"
          % (args.workload, args.seed, len(runs), runs[0]["offered"],
             sum(r["timed_cpu_s"] for r in runs)))
    print("reference kernel ms per process (timed slices): %s; raw decides/cpu-s: %s"
          % (" ".join("%.2f" % kernel_ms(r, "timed") for r in runs),
             " ".join("%.0f" % r["decides_per_cpu_s"] for r in runs)))
    print("gates: correctness ok, determinism ok; stale answers per process: %d"
          " (see perfbench/README.md, Gates)" % runs[0]["stale"])
    print("virtual latency over %d answers: p50 %.6f ms  mean %.6f ms  p99 %.6f ms  p999 %.6f ms;"
          "  failed_ratio %.6f" % (det["virt_n"], det["virt_p50_ms"], det["virt_mean_ms"],
                                   det["virt_p99_ms"], det["virt_p999_ms"], failed / offered))
    for m in wanted:
        print("  %-46s %16.6f %s" % (m["name"], metrics[m["name"]], m["unit"]))
    for n in notes:
        print(n)
    result = {
        "correct": True,
        "attempted": offered,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
