#!/usr/bin/env python3
"""CI perf-regression gate over the criterion shim's JSON output.

The criterion shim (crates/shims/criterion) writes one JSON object per
bench binary when CRITERION_JSON=path is set:

    {"service/solve/16": {"min_ns": ..., "median_ns": ..., "p95_ns": ..., "samples": ...}, ...}

This script diffs one or more of those files against the committed
baseline (benches/baseline.json) and fails when any benchmark's median
regresses beyond the tolerance factor. Medians are compared (min is
noise-floor, p95 is jitter). The tolerance is variance-aware: the shim
records a bootstrap 95% confidence interval on each median
(median_ci_lo_ns / median_ci_hi_ns), and benchmarks whose *baseline*
interval is tight — width under 10% of the median — get the strict
tolerance (default 1.3x), because a >1.3x move on a benchmark that
reproducibly sits in a narrow band is a real regression, not noise.
Benchmarks with wide or missing intervals keep the generous default
(2.0x): CI runners are shared and the baseline may have been recorded
on different hardware, so for noisy benchmarks the gate only exists to
catch algorithmic regressions (O(n) -> O(n^2), a lost memoization),
not 10% drift.

Usage:
    # compare (the CI job):
    python3 ci/bench_gate.py --baseline benches/baseline.json out1.json out2.json

    # re-baseline after an intentional perf change or a bench rename:
    CRITERION_JSON=/tmp/jobview.json cargo bench -p moldable-bench --bench jobview
    CRITERION_JSON=/tmp/stream.json  cargo bench -p moldable-bench --bench stream_sim
    CRITERION_JSON=/tmp/service.json cargo bench -p moldable-bench --bench service
    CRITERION_JSON=/tmp/placement.json cargo bench -p moldable-bench --bench placement
    CRITERION_JSON=/tmp/convolve.json cargo bench -p moldable-bench --bench convolve
    CRITERION_JSON=/tmp/dual.json cargo bench -p moldable-bench --bench dual_algorithms
    python3 ci/bench_gate.py --update --baseline benches/baseline.json \
        /tmp/jobview.json /tmp/stream.json /tmp/service.json /tmp/placement.json \
        /tmp/convolve.json /tmp/dual.json

Exit status: 0 when every baselined benchmark is present and within
tolerance, 1 otherwise. Benchmarks present in the current run but not
in the baseline are reported as NEW and do not fail the gate (commit a
refreshed baseline to start tracking them).
"""

import argparse
import json
import os
import sys


def load_results(paths):
    merged = {}
    for path in paths:
        with open(path) as f:
            data = json.load(f)
        for name, record in data.items():
            if name in merged:
                print(f"error: benchmark `{name}` appears in more than one input file")
                sys.exit(1)
            merged[name] = record
    return merged


def fmt_ns(ns):
    if ns >= 1e9:
        return f"{ns / 1e9:.3f}s"
    if ns >= 1e6:
        return f"{ns / 1e6:.3f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.3f}us"
    return f"{ns}ns"


def tolerance_for(record, loose, tight):
    """Pick the per-benchmark tolerance from the baseline record's
    bootstrap CI: tight when the interval width is under 10% of the
    median, loose when it is wide or absent (old-format baselines)."""
    median = record.get("median_ns", 0)
    lo = record.get("median_ci_lo_ns")
    hi = record.get("median_ci_hi_ns")
    if lo is None or hi is None or not median:
        return loose
    if (hi - lo) / median < 0.10:
        return tight
    return loose


def check_ratios(current, specs):
    """Relational checks between two benchmarks of the same run:
    `NAME:BASE:R` requires median(NAME) <= R * median(BASE). Both sides
    come from the current results, so runner speed cancels out — this
    pins algorithmic relationships (e.g. hierarchical lowering within
    2x of the flat pass) that absolute baselines cannot express."""
    failures = []
    for spec in specs:
        try:
            name, base, factor = spec.rsplit(":", 2)
            factor = float(factor)
        except ValueError:
            failures.append(f"--max-ratio `{spec}`: expected NAME:BASE:R")
            continue
        missing = [bench for bench in (name, base) if bench not in current]
        if missing:
            failures.append(f"--max-ratio `{spec}`: missing benchmark(s) "
                            f"{', '.join(missing)} in this run")
            continue
        lhs, rhs = current[name]["median_ns"], current[base]["median_ns"]
        ratio = lhs / rhs if rhs else float("inf")
        status = "ok" if ratio <= factor else "FAIL"
        print(f"ratio {name} / {base}: {ratio:.2f}x (bar {factor:.2f}x) {status}")
        if status == "FAIL":
            failures.append(f"{name}: median {fmt_ns(lhs)} is {ratio:.2f}x the median "
                            f"of {base} ({fmt_ns(rhs)}); bar is {factor:.2f}x")
    return failures


def compare(baseline, current, loose_tol, tight_tol):
    rows = []
    failures = []
    for name in sorted(baseline):
        base_median = baseline[name]["median_ns"]
        tolerance = tolerance_for(baseline[name], loose_tol, tight_tol)
        if name not in current:
            failures.append(f"{name}: present in baseline but missing from this run "
                            f"(bench renamed or removed? re-baseline with --update)")
            rows.append((name, fmt_ns(base_median), "-", "-", "-", "MISSING"))
            continue
        cur_median = current[name]["median_ns"]
        ratio = cur_median / base_median if base_median else float("inf")
        status = "ok" if ratio <= tolerance else "FAIL"
        if status == "FAIL":
            failures.append(f"{name}: median {fmt_ns(cur_median)} is {ratio:.2f}x the "
                            f"baseline {fmt_ns(base_median)} (tolerance {tolerance:.2f}x)")
        rows.append((name, fmt_ns(base_median), fmt_ns(cur_median), f"{ratio:.2f}x",
                     f"{tolerance:.2f}x", status))
    for name in sorted(set(current) - set(baseline)):
        rows.append((name, "-", fmt_ns(current[name]["median_ns"]), "-", "-", "NEW"))

    header = ("benchmark", "baseline median", "current median", "ratio", "tolerance", "status")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(6)]
    line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", default="benches/baseline.json",
                        help="committed baseline file (default: benches/baseline.json)")
    parser.add_argument("--tolerance", type=float,
                        default=float(os.environ.get("BENCH_GATE_TOLERANCE", "2.0")),
                        help="max allowed current/baseline median ratio for noisy "
                             "benchmarks (default: 2.0, or $BENCH_GATE_TOLERANCE)")
    parser.add_argument("--tight-tolerance", type=float,
                        default=float(os.environ.get("BENCH_GATE_TIGHT_TOLERANCE", "1.3")),
                        help="tolerance for benchmarks whose baseline bootstrap CI "
                             "width is under 10%% of the median "
                             "(default: 1.3, or $BENCH_GATE_TIGHT_TOLERANCE)")
    parser.add_argument("--max-ratio", action="append", default=[],
                        metavar="NAME:BASE:R",
                        help="relational bar checked within the *current* run (no "
                             "baseline involved): median(NAME) must be <= R x "
                             "median(BASE). Repeatable. Same-run medians share the "
                             "runner, so R is an algorithmic bound, not a noise "
                             "tolerance.")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the current results instead of "
                             "comparing; refused if any shared benchmark regressed beyond "
                             "tolerance (see --force)")
    parser.add_argument("--force", action="store_true",
                        help="with --update: accept the new baseline even when it is a "
                             "regression against the old one (an intentional trade-off "
                             "being ratified, not an accident)")
    parser.add_argument("results", nargs="+", help="CRITERION_JSON output files")
    args = parser.parse_args()

    current = load_results(args.results)
    if not current:
        print("error: no benchmark results in the input files")
        return 1

    if args.update:
        # A baseline refresh must not quietly ratify a regression: diff
        # the shared benchmarks first and refuse if any one of them is
        # beyond tolerance, unless the caller insists with --force.
        # (Renamed/removed benchmarks never block an update — retiring
        # stale rows is exactly what --update is for.)
        try:
            with open(args.baseline) as f:
                old = json.load(f)
        except FileNotFoundError:
            old = {}
        regressions = []
        for name in sorted(set(old) & set(current)):
            base_median = old[name]["median_ns"]
            cur_median = current[name]["median_ns"]
            tolerance = tolerance_for(old[name], args.tolerance, args.tight_tolerance)
            ratio = cur_median / base_median if base_median else float("inf")
            if ratio > tolerance:
                regressions.append(f"{name}: median {fmt_ns(cur_median)} is {ratio:.2f}x "
                                   f"the old baseline {fmt_ns(base_median)} "
                                   f"(tolerance {tolerance:.2f}x)")
        if regressions and not args.force:
            print(f"refusing --update: the new results regress {len(regressions)} "
                  f"benchmark(s) beyond tolerance:")
            for regression in regressions:
                print(f"  - {regression}")
            print("re-run with --force to ratify an intentional regression")
            return 1
        if regressions:
            print(f"--force: accepting {len(regressions)} regression(s) into the baseline")
        with open(args.baseline, "w") as f:
            json.dump({name: current[name] for name in sorted(current)}, f, indent=2)
            f.write("\n")
        print(f"wrote {len(current)} benchmark baselines to {args.baseline}")
        return 0

    with open(args.baseline) as f:
        baseline = json.load(f)
    failures = compare(baseline, current, args.tolerance, args.tight_tolerance)
    failures += check_ratios(current, args.max_ratio)
    if failures:
        print(f"\nbench gate FAILED ({len(failures)} problem(s)):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    tight = sum(1 for r in baseline.values()
                if tolerance_for(r, args.tolerance, args.tight_tolerance) == args.tight_tolerance)
    print(f"\nbench gate passed: {len(baseline)} benchmarks "
          f"({tight} at the {args.tight_tolerance:.2f}x tight bar, "
          f"the rest within {args.tolerance:.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
