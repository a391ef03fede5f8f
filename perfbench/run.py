#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds, in release mode, the
`moldable-svc` binary and the benchmark's own measuring program
(`perfbench/harness`, a Cargo package outside the repository's
workspace) into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs
the workload. The last stdout line is the result object
`{"correct", "attempted", "failed", "metrics"}`; the line before it
carries the machine and the workload's diagnostics. The exit code is
the measuring program's: 0 only when every check passed.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("offline-compact", "stream-lublin", "svc-miss", "svc-hit")
# The first run in a fresh checkout compiles everything (two builds).
BUILD_TIMEOUT_S = 340
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(args, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        # Cargo's output goes to stderr so stdout stays the result.
        subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet"] + args,
            cwd=ROOT, env=env, stdout=sys.stderr, check=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"build failed: {e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        fail("need --seed >= 0 and 0 < --seconds <= 120")

    for needed in ("Cargo.toml", "src/bin/svc.rs", "crates/moldable-svc/Cargo.toml"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a full checkout of the repository")

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(["--bin", "moldable-svc"], target)
    build(["--manifest-path", os.path.join("perfbench", "harness", "Cargo.toml")], target)

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--svc-bin", os.path.join(release, "moldable-svc"),
        "--out-dir", os.path.join(target, "perfbench"),
    ]
    # In a process group of its own, so a timeout also stops the server it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
