#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0]

Runs `perfbench/run.py` once per workload and seed (the seconds from
BENCHMARK.json), then prints per metric the median over the runs and
the spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median. A
spread at or above a third of the metric's bound is flagged, except for
`setup_s`, whose bound applies to its median only. Raw results go to
stdout as one JSON line per run, prefixed `run:`, for the record.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values):
    """Interquartile distance over the median, with the quartiles of
    `statistics.quantiles(values, n=4)`."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args()
    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]

    steady = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        for seed in seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, os.path.join("perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", args.trace],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            print(f"run: {json.dumps({'workload': workload, 'seed': seed, 'exit': done.returncode, 'result': result})}")
            if done.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: FAILED (exit {done.returncode})")
                steady = False
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {workload}")
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            med, s = statistics.median(v), spread(v)
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s" and s >= bound / 3:
                flag = "  <-- spread >= bound/3"
                steady = False
            print(f"  {m['name']:<28} median {med:>14.6g}  spread {s:7.4f}"
                  f"  bound {bound if bound is not None else '-'}{flag}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
