#!/usr/bin/env python3
"""Determinism self-test of the e2ebench workloads.

Usage (from the repository root):

    python3 e2ebench/selftest.py

For every workload, at SCALE times its transaction count:

  1. two runs with one seed give bit-identical simulated metrics and
     counts (the driver's fingerprint over every simulated figure);
  2. a traced run closes its ledger and matches the untraced run's
     simulated figures (the driver marks the run incorrect otherwise);
  3. a second seed changes the inputs (another fingerprint) but not the
     workload's shape: the same pre-populated rows, the same statement
     mix within two percentage points, and for multiwriter_hotspot a
     conflict rate inside the 10-50% band.

Exits 0 when every check holds.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the build helper next to this file)

SEED_A = 7
SEED_B = 8
SCALE = 0.2


def drive(binary, workload, seed, trace, report):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--scale", str(SCALE),
           "--report", str(report), "--min-trials", "1",
           "--max-trials", "2" if trace else "1"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return result, json.loads(Path(report).read_text())


def simulated(report):
    """Every end-to-end figure of the modeled platform."""
    return {k: v["value"] for k, v in report["end_to_end"].items()
            if v["unit"].startswith("sim_") or "/sim_" in v["unit"]
            or v["unit"] == "B/B"}


def mix(shape):
    calls = ("bench.insert", "bench.update", "bench.remove", "bench.get",
             "bench.scan")
    total = sum(shape[c] for c in calls) or 1
    return {c: shape[c] / total for c in calls}


def check_workload(binary, workload, tmp):
    failures = []
    _, a1 = drive(binary, workload, SEED_A, 0, tmp / "a1.json")
    _, a2 = drive(binary, workload, SEED_A, 0, tmp / "a2.json")
    if a1["fingerprint"] != a2["fingerprint"] or simulated(a1) != simulated(a2):
        failures.append("same seed, different simulated figures")
    if a1["problems"]:
        failures.append(f"{a1['problems']} problems in the seed-{SEED_A} run")

    traced, _ = drive(binary, workload, SEED_A, 1, tmp / "t.json")
    if not traced["correct"]:
        failures.append("traced run incorrect (ledger gap, dropped events "
                        "or simulated figures changed by tracing)")

    _, b = drive(binary, workload, SEED_B, 0, tmp / "b.json")
    if b["fingerprint"] == a1["fingerprint"]:
        failures.append("a second seed did not change the inputs")
    sa, sb = a1["shape"], b["shape"]
    if sa["initial_rows"] != sb["initial_rows"]:
        failures.append("pre-populated row count depends on the seed")
    for call, share in mix(sa).items():
        if abs(share - mix(sb)[call]) > 0.02:
            failures.append(f"statement mix of {call} moved with the seed")
    if workload == "multiwriter_hotspot":
        for seed, shape in ((SEED_A, sa), (SEED_B, sb)):
            rate = shape["conflicts"] / max(1, shape["txns"])
            if not 0.10 <= rate <= 0.50:
                failures.append(f"seed {seed}: conflict rate {rate:.3f} "
                                "outside 10-50%")
    return failures


def main() -> int:
    binary = run.build()
    failed = False
    with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
        for workload in run.WORKLOADS:
            failures = check_workload(binary, workload, Path(tmp))
            print(f"{workload}: {'ok' if not failures else 'FAIL'}")
            for f in failures:
                print(f"  {f}")
            failed = failed or bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
