#!/usr/bin/env python3
"""Build the e2ebench driver from source and run one workload.

Usage (from the repository root):

    python3 e2ebench/run.py --workload mobile_oltp --seed 1 --seconds 30 --trace 0

The driver is compiled from ../src with CMake into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench); the first
run builds it, later runs only re-check it. Build output goes to
standard error, so the last line of standard output is the driver's
JSON result. A traced run (--trace 1) also writes its spans to
<build dir>/spans/<workload>.tsv. Exits non-zero without a result when
the build or the run fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mobile_oltp", "snapshot_reads", "multiwriter_hotspot")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2ebench"


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"e2ebench: {err}", file=sys.stderr)
        return False


def build() -> Path:
    """Configure (first time) and build the driver; return its path."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        if not run_quiet(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            sys.exit("e2ebench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", str(out), "--target", "e2ebench",
                      "-j", jobs], BUILD_TIMEOUT_S):
        sys.exit("e2ebench: build failed")
    return out / "e2ebench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = build_dir() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans / f"{args.workload}.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
