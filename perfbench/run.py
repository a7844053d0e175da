#!/usr/bin/env python3
"""Build and run the TileFlow benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search-3d --seed 1 --seconds 12 --trace 0

The script configures and builds perfbench/ (which compiles ../src) in
.bench_build/perfbench, runs one workload, and prints the result as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 1 the run also writes a Chrome trace
(.bench_build/perfbench/trace-<workload>.json); this script reads it and
adds the metrics derived from its spans. Build output and progress go
to standard error. The script exits non-zero, printing no result, when
the build or the run fails.
"""

import argparse
import bisect
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170

# Spans that only group other work: an operation, a GA generation, an
# MCTS batch and a thread-pool task. Search time inside them but outside
# every other span is time no layer accounts for.
CONTAINER_SPANS = {"bench.op", "ga.generation", "mcts.batch", "threadpool.task"}
EVALUATE_PHASES = ["validate", "data_movement", "resource", "latency", "energy"]


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=840).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def union_length(intervals):
    """Total length covered by a list of (start, end) intervals."""
    total = 0.0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def trace_metrics(path):
    """Metrics from the spans recorded while the operations ran."""
    with open(path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    ops = sorted((e["ts"], e["ts"] + e["dur"]) for e in events
                 if e["name"] == "bench.op")
    starts = [s for s, _ in ops]

    def op_of(event):
        # Operations run one after another, so at most one contains the
        # span's start.
        i = bisect.bisect_right(starts, event["ts"]) - 1
        if i >= 0 and event["ts"] <= ops[i][1]:
            return i
        return None

    layer = [[] for _ in ops]
    dur = {}
    task_runs = []
    for e in events:
        i = op_of(e)
        if i is None:
            continue
        dur[e["name"]] = dur.get(e["name"], 0.0) + e["dur"]
        if e["name"] == "threadpool.task":
            task_runs.append(e["dur"])
        if e["name"] not in CONTAINER_SPANS:
            end = min(e["ts"] + e["dur"], ops[i][1])
            layer[i].append((e["ts"], end))
    op_time = sum(e - s for s, e in ops)
    covered = sum(union_length(iv) for iv in layer)
    evaluate = dur.get("evaluate", 0.0)
    out = {
        "trace.coverage": (covered / op_time if op_time else 0.0, "ratio"),
        "threadpool.task_run_us.p50":
            (statistics.median(task_runs) if task_runs else 0.0, "us"),
    }
    for phase in EVALUATE_PHASES:
        share = dur.get("evaluate." + phase, 0.0) / evaluate if evaluate else 0.0
        out["evaluate.%s_share" % phase] = (share, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--seconds", required=True)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()
    # A SIGTERM unwinds through subprocess.run, which then kills and
    # waits for the child it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    build()
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--spec-dir", os.path.join(ROOT, "examples", "specs"),
           "--golden", os.path.join(HERE, "golden", "model_eval.tsv")]
    trace_path = os.path.join(BUILD, "trace-%s.json" % args.workload)
    if args.trace == "1":
        cmd += ["--trace-out", trace_path]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                         text=True, timeout=RUN_TIMEOUT_S)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.exit("perfbench: run failed with exit code %d" % run.returncode)
    result = json.loads(lines[-1])
    if args.trace == "1":
        result["metrics"].update(trace_metrics(trace_path))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
