#!/usr/bin/env python
"""Exact-count gate on the ledger's traced fixed pass.

Runs ``benchmarks/ledger/bench.py`` with the arguments committed in
``scripts/ledger_counts.json`` (a traced pass of a fixed op count on a
fixed seed) and compares the descent's iteration counts it reports with
the committed ones.  The counts are deterministic: a change that keeps
every float of the solver keeps them exactly, so any difference means
the solver's arithmetic or its stopping changed.  Timings are printed
but not checked.

Usage::

    python scripts/check_ledger_counts.py

Exits non-zero when the run fails, any op fails or answers wrongly, or
any count differs from the committed one.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "benchmarks", "ledger", "bench.py")
EXPECTED = os.path.join(ROOT, "scripts", "ledger_counts.json")


def main():
    with open(EXPECTED) as handle:
        expected = json.load(handle)
    command = [sys.executable, BENCH] + expected["args"]
    print("$ " + " ".join(command), flush=True)
    run = subprocess.run(command, stdout=subprocess.PIPE, universal_newlines=True)
    sys.stdout.write(run.stdout)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"error: bench.py exited {run.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    failures = []
    if not result["correct"] or result["failed"]:
        failures.append(f"correct={result['correct']} failed={result['failed']}")
    metrics = result["metrics"]
    for name, want in expected["counts"].items():
        got = metrics.get(name, {}).get("value")
        print(f"{name:45s} expected {want!r:>10} got {got!r}")
        if got != want:
            failures.append(f"{name}: expected {want!r}, got {got!r}")
    for name in sorted(metrics):
        if name.endswith("core.solve_ms_per_call"):
            print(f"{name:45s} {metrics[name]['value']:.1f} ms (not checked)")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
