"""Benchmark smoke test: every declared workload runs, verifies and matches its digest.

Runs ``python3 bench/run.py --workload W --seed 1 --seconds 1`` from the
repository root for each workload in BENCHMARK.json.  A run passes when the
last line of its output is a JSON object with ``"correct": true`` and
``"failed": 0``; at seed 1, ``correct`` also requires the stored topology
digest of the first ops (``bench/digests.json``).  Exits 0 iff every run
passes, and prints one line per workload.

usage: python scripts/bench_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def smoke(workload: str) -> str | None:
    """None if the workload's run passes, else what went wrong."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "1"],
                          cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return f"last line is not JSON: {lines[-1][:200]}"
    if result.get("correct") is not True or result.get("failed") != 0:
        return (f"correct {result.get('correct')}, failed {result.get('failed')} "
                f"of {result.get('attempted')}")
    return None


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    failures = 0
    for workload in workloads:
        problem = smoke(workload)
        print(f"bench_smoke: {workload}: {problem or 'ok'}")
        failures += problem is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
