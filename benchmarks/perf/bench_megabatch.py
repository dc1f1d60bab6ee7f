#!/usr/bin/env python
"""Mega-batch benchmark: queued partition jobs solved solo vs packed.

Queues of 1/4/16 compatible partition jobs run through
:func:`repro.harness.runner.run_jobs` once solo (one
``run_jobs([job], jobs=1)`` call per job) and once packed (one
``run_jobs(jobs, jobs=1)`` call, whose inline loop packs the queue),
the per-job payloads are diffed bitwise (any mismatch is a hard
failure — packing is only legal because it is invisible), and the
solo/packed throughput ratio is written to ``BENCH_megabatch.json``.  Solver time per call is measured by the
performance ledger (``benchmarks/ledger/``, ``core.solve_ms_per_call``).

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_megabatch.py
    PYTHONPATH=src python benchmarks/perf/bench_megabatch.py --quick

``--quick`` is the CI smoke mode: 1 repeat, 4 restarts, a
300-iteration cap — it exists to prove the packed payloads match, not
to produce meaningful timings.

JSON schema (one entry per queue depth in ``results``)::

    {
      "meta":    {timestamp, python, numpy, platform, quick, scenario,
                  circuit, planes, restarts, repeats, max_iterations, seed},
      "results": [{circuit, gates, connections, planes, restarts, jobs,
                   solo_s, packed_s, solo_jobs_per_s, packed_jobs_per_s,
                   throughput_ratio, payloads_identical}],
      "summary": {max_throughput_ratio, all_payloads_identical}
    }

Timings are the best (minimum) of ``--repeats`` runs of each queue in a
single process on one machine.
"""

import argparse
import json
import math
import os
import platform
import sys
import time

import numpy as np

DEFAULT_MEGABATCH_OUTPUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_megabatch.json"
)

#: Queue depths measured.
MEGABATCH_JOB_COUNTS = (1, 4, 16)

#: Default circuit: packing amortizes per-iteration
#: Python/dispatch overhead, which dominates small solves — a queue of
#: small repeated requests is exactly the service workload the packer
#: targets (large single solves are already arithmetic-bound).
MEGABATCH_CIRCUIT = "KSA4"


def run_megabatch_benchmark(circuit, planes, restarts, repeats, max_iterations, seed, quick):
    """Solo vs packed execution of 1/4/16 queued compatible jobs.

    Every row re-solves the same queue twice — job by job, then as one
    packed queue — and diffs the per-job payloads bitwise
    (canonical JSON form, labels included).  ``payloads_identical``
    False anywhere is a benchmark failure, not a data point: packing
    must be invisible.
    """
    from repro.circuits.suite import build_circuit
    from repro.core.config import PartitionConfig
    from repro.harness.checkpoint import payload_to_jsonable
    from repro.harness.runner import SuiteJob, run_jobs

    netlist = build_circuit(circuit)
    config = PartitionConfig(seed=seed, restarts=restarts, max_iterations=max_iterations)
    rows = []
    for count in MEGABATCH_JOB_COUNTS:
        jobs = [
            SuiteJob(
                kind="partition", circuit=circuit, num_planes=planes,
                seed=seed + index, config=config,
            )
            for index in range(count)
        ]
        solo_s = math.inf
        packed_s = math.inf
        solo_payloads = packed_payloads = None
        for _ in range(repeats):
            start = time.perf_counter()
            solo_payloads = [run_jobs([job], jobs=1)[0] for job in jobs]
            solo_s = min(solo_s, time.perf_counter() - start)
            start = time.perf_counter()
            packed_payloads = run_jobs(jobs, jobs=1)
            packed_s = min(packed_s, time.perf_counter() - start)
        identical = [payload_to_jsonable(p) for p in solo_payloads] == [
            payload_to_jsonable(p) for p in packed_payloads
        ]
        rows.append(
            {
                "circuit": circuit,
                "gates": netlist.num_gates,
                "connections": netlist.num_connections,
                "planes": planes,
                "restarts": restarts,
                "jobs": count,
                "solo_s": round(solo_s, 6),
                "packed_s": round(packed_s, 6),
                "solo_jobs_per_s": round(count / solo_s, 3) if solo_s > 0 else math.inf,
                "packed_jobs_per_s": round(count / packed_s, 3) if packed_s > 0 else math.inf,
                "throughput_ratio": round(solo_s / packed_s, 3) if packed_s > 0 else math.inf,
                "payloads_identical": identical,
            }
        )
        print(
            f"{circuit:>8}  jobs={count:<3} solo {solo_s * 1e3:8.1f} ms   "
            f"packed {packed_s * 1e3:8.1f} ms   ratio {rows[-1]['throughput_ratio']:5.2f}x   "
            f"payloads identical: {identical}"
        )

    ratios = [r["throughput_ratio"] for r in rows if math.isfinite(r["throughput_ratio"])]
    return {
        "meta": {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": platform.platform(),
            "quick": quick,
            "scenario": "megabatch",
            "circuit": circuit,
            "planes": planes,
            "restarts": restarts,
            "repeats": repeats,
            "max_iterations": max_iterations,
            "seed": seed,
        },
        "results": rows,
        "summary": {
            "max_throughput_ratio": round(max(ratios), 3) if ratios else 0.0,
            "all_payloads_identical": all(r["payloads_identical"] for r in rows),
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--circuit", default=MEGABATCH_CIRCUIT)
    parser.add_argument("--planes", type=int, default=5)
    parser.add_argument("--restarts", type=int, default=8)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--max-iterations", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--output", default=DEFAULT_MEGABATCH_OUTPUT)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: 1 repeat, 4 restarts, 300-iteration cap",
    )
    args = parser.parse_args(argv)

    if args.planes < 2:
        parser.error("--planes must be >= 2 (K = 1 is the trivial single-plane partition)")
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.restarts < 1:
        parser.error("--restarts must be >= 1")

    if args.quick:
        args.repeats = 1
        args.restarts = 4
        args.max_iterations = 300

    report = run_megabatch_benchmark(
        circuit=args.circuit,
        planes=args.planes,
        restarts=args.restarts,
        repeats=args.repeats,
        max_iterations=args.max_iterations,
        seed=args.seed,
        quick=args.quick,
    )
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(
        f"\nmax throughput ratio "
        f"{report['summary']['max_throughput_ratio']}x  ->  {args.output}"
    )
    if not report["summary"]["all_payloads_identical"]:
        print("ERROR: packed payloads differ from solo payloads", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
