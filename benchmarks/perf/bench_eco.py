#!/usr/bin/env python
"""Incremental (ECO) re-partitioning benchmark: warm edit-to-answer vs cold.

For each circuit and edit size, applies a deterministic synthetic edit
(re-type a spread of gates to their dual cell, nudge the rest), then
times the full *edit-to-answer* chain both ways:

* **warm** — ``apply_diff`` + netlist rebuild + ``align_labels`` +
  :func:`repro.core.incremental.incremental_partition` (the exact chain
  the service's ``PATCH /v1/jobs/<key>`` route runs);
* **cold** — ``apply_diff`` + netlist rebuild + a full multi-restart
  :func:`repro.partition` (what every edit cost before the ECO path).

Each row records the speedup, the warm mode (``warm`` or a documented
cold fallback), and the quality delta of the warm answer against the
cold one; ``guard_ok`` asserts the warm cost sits within the ECO
quality-guard tolerance of the cold cost — a False anywhere is a
benchmark failure, not a data point.

The run finishes with an in-process service probe: a base job is
submitted to a :class:`~repro.service.server.PartitionService` backed by
a temporary result store, then PATCHed with an *empty* diff — the
returned payload must be byte-identical to the stored base payload and
counted as a cache hit (``service.eco.empty_diffs`` /
``service.eco.cache_hits``).

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_eco.py
    PYTHONPATH=src python benchmarks/perf/bench_eco.py --quick

``--quick`` is the CI smoke mode: one small circuit, one edit size, two
repeats — it proves the harness (and the bitwise empty-diff contract),
not the timings.

JSON schema::

    {
      "meta":    {timestamp, python, numpy, platform, quick, planes,
                  repeats, seed, fractions, quality_eps},
      "results": [{circuit, gates, connections, planes, edit_fraction,
                   edited_gates, touched_gates, region_gates,
                   region_fraction, mode, fallback_reason,
                   base_solve_s, warm_s, cold_s, speedup,
                   warm_cost, cold_cost, quality_delta_pct, guard_ok}],
      "summary": {qualifying_circuits, meets_10x_target, all_guard_ok,
                  empty_diff_bitwise_identical}
    }

``qualifying_circuits`` lists circuits of >= 1000 gates whose <= 1%
edit rows all reached >= 10x; ``meets_10x_target`` is True when at
least two qualify.  Timings are the best (minimum) of ``--repeats``
runs in a single process on one machine.
"""

import argparse
import json
import math
import os
import platform
import sys
import tempfile
import time

import numpy as np

DEFAULT_CIRCUITS = ("KSA16", "MULT8", "C3540")
DEFAULT_FRACTIONS = (0.001, 0.01, 0.05)
DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_eco.json"
)

#: Cell re-type map used by the synthetic edit: every swap preserves the
#: gate's port count, so the edit never changes netlist connectivity
#: shape — only cell identity (bias/area) and, for unswappable cells,
#: placement.
CELL_SWAP = {
    "AND2": "OR2", "OR2": "AND2",
    "XOR2": "XNOR2", "XNOR2": "XOR2",
    "NAND2": "NOR2", "NOR2": "NAND2",
}

#: The probe circuit for the empty-diff bitwise check (small: the probe
#: tests the service contract, not solver speed).
PROBE_CIRCUIT = "KSA8"


def make_edit(base_dict, fraction):
    """Deterministic synthetic ECO edit touching ``fraction`` of gates.

    Picks an even index spread, re-types swappable cells to their dual
    and nudges the rest by half a micron, so every selected gate lands
    in the diff as "modified".
    """
    num_gates = len(base_dict["gates"])
    count = max(1, int(round(num_gates * fraction)))
    picked = sorted(set(
        np.linspace(0, num_gates - 1, count).round().astype(int).tolist()
    ))
    edited = dict(base_dict)
    edited["gates"] = [dict(gate) for gate in base_dict["gates"]]
    for index in picked:
        gate = edited["gates"][index]
        swapped = CELL_SWAP.get(gate["cell"])
        if swapped is not None:
            gate["cell"] = swapped
        else:
            gate["x_um"] = (gate["x_um"] or 0.0) + 0.5
    edited["name"] = base_dict["name"] + "_eco"
    return edited, len(picked)


def bench_circuit(name, planes, repeats, seed, fractions, quality_eps):
    from repro.circuits.suite import build_circuit
    from repro.core.config import PartitionConfig
    from repro.core.incremental import (
        align_labels,
        incremental_partition,
        quality_ok,
    )
    from repro.core.partitioner import partition
    from repro.netlist.diff import apply_diff, netlist_diff, touched_gate_names
    from repro.netlist.library import default_library
    from repro.netlist.serialize import (
        library_fingerprint,
        netlist_from_dict,
        netlist_to_dict,
    )

    library = default_library()
    fingerprint = library_fingerprint(library)
    config = PartitionConfig()

    netlist = build_circuit(name)
    base_dict = netlist_to_dict(netlist)
    base_names = [gate.name for gate in netlist.gates]

    start = time.perf_counter()
    base_result = partition(netlist, planes, config, seed=seed)
    base_solve_s = time.perf_counter() - start

    rows = []
    for fraction in fractions:
        edited_dict, edited_gates = make_edit(base_dict, fraction)
        diff = netlist_diff(base_dict, edited_dict, fingerprint)
        touched = touched_gate_names(diff)

        warm_s = math.inf
        warm_result = warm_info = None
        for _ in range(repeats):
            start = time.perf_counter()
            applied = apply_diff(base_dict, diff)
            edited = netlist_from_dict(applied, library, validate=False)
            prev = align_labels(base_names, base_result.labels, edited)
            warm_result, warm_info = incremental_partition(
                edited, planes, prev, touched, config=config, seed=seed,
            )
            warm_s = min(warm_s, time.perf_counter() - start)

        cold_s = math.inf
        cold_result = None
        for _ in range(repeats):
            start = time.perf_counter()
            applied = apply_diff(base_dict, diff)
            edited = netlist_from_dict(applied, library, validate=False)
            cold_result = partition(edited, planes, config, seed=seed)
            cold_s = min(cold_s, time.perf_counter() - start)

        warm_cost = float(warm_result.integer_cost())
        cold_cost = float(cold_result.integer_cost())
        guard = bool(quality_ok(warm_cost, cold_cost, quality_eps))
        row = {
            "circuit": name,
            "gates": netlist.num_gates,
            "connections": netlist.num_connections,
            "planes": planes,
            "edit_fraction": fraction,
            "edited_gates": edited_gates,
            "touched_gates": warm_info["touched_gates"],
            "region_gates": warm_info["region_gates"],
            "region_fraction": round(warm_info["region_fraction"], 4),
            "mode": warm_info["mode"],
            "fallback_reason": warm_info["fallback_reason"],
            "base_solve_s": round(base_solve_s, 6),
            "warm_s": round(warm_s, 6),
            "cold_s": round(cold_s, 6),
            "speedup": round(cold_s / warm_s, 3) if warm_s > 0 else math.inf,
            "warm_cost": round(warm_cost, 6),
            "cold_cost": round(cold_cost, 6),
            "quality_delta_pct": round(
                100.0 * (warm_cost - cold_cost) / cold_cost, 3
            ) if cold_cost else 0.0,
            "guard_ok": guard,
        }
        rows.append(row)
        print(
            f"{name:>8}  G={netlist.num_gates:<5} edit={fraction * 100:5.1f}%  "
            f"warm {warm_s * 1e3:7.1f} ms   cold {cold_s * 1e3:7.1f} ms   "
            f"speedup {row['speedup']:6.2f}x   mode={row['mode']:<4}   "
            f"quality {row['quality_delta_pct']:+.2f}%   guard ok: {guard}"
        )
    return rows


def empty_diff_probe(planes, seed):
    """Submit a base job, PATCH an empty diff, compare payloads bitwise.

    Runs entirely in process against a :class:`PartitionService` backed
    by a temporary result store, mirroring what the HTTP route does.
    Returns a report dict; ``bitwise_identical`` must be True.
    """
    from repro.circuits.suite import build_circuit
    from repro.netlist.diff import diff_netlists
    from repro.obs.events import EventLog
    from repro.service.server import PartitionService
    from repro.service.store import ResultStore

    netlist = build_circuit(PROBE_CIRCUIT)
    diff = diff_netlists(netlist, netlist)  # identity edit

    with tempfile.TemporaryDirectory(prefix="bench-eco-store-") as root:
        service = PartitionService(
            workers=1,
            store=ResultStore(root=root, enabled=True),
            events=EventLog(enabled=False),
        ).start()
        try:
            body = {
                "kind": "partition",
                "circuit": PROBE_CIRCUIT,
                "num_planes": planes,
                "seed": seed,
            }
            _status, submitted = service.submit(body)
            base_key = submitted["key"]
            deadline = time.time() + 120.0
            while True:
                _status, status_payload = service.job_status(submitted["id"])
                if status_payload["state"] not in ("queued", "running"):
                    break
                if time.time() > deadline:
                    raise RuntimeError("base job did not finish in 120 s")
                time.sleep(0.01)
            _status, base_result = service.job_result(submitted["id"])

            _status, patched = service.eco_submit(base_key, {"diff": diff})
            _status, eco_result = service.job_result(patched["id"])

            identical = json.dumps(
                base_result["result"], sort_keys=True
            ) == json.dumps(eco_result["result"], sort_keys=True)
            metrics = service.metrics.as_dict()
            return {
                "circuit": PROBE_CIRCUIT,
                "bitwise_identical": identical,
                "empty_diff_counted": bool(patched.get("eco", {}).get("empty_diff")),
                "cache_hits": metrics.get(
                    "service.eco.cache_hits", {}
                ).get("value", 0),
                "empty_diffs": metrics.get(
                    "service.eco.empty_diffs", {}
                ).get("value", 0),
            }
        finally:
            service.stop()


def run_benchmark(circuits, planes, repeats, seed, fractions, quick):
    from repro import envcfg

    quality_eps = envcfg.resolve("REPRO_ECO_QUALITY_EPS")
    rows = []
    for name in circuits:
        rows.extend(
            bench_circuit(name, planes, repeats, seed, fractions, quality_eps)
        )

    probe = empty_diff_probe(planes, seed)
    print(
        f"\nempty-diff probe ({probe['circuit']}): bitwise identical: "
        f"{probe['bitwise_identical']}   counted as cache hit: "
        f"{probe['empty_diffs'] >= 1 and probe['cache_hits'] >= 1}"
    )

    qualifying = []
    for name in circuits:
        small_edits = [
            r for r in rows
            if r["circuit"] == name and r["edit_fraction"] <= 0.01
        ]
        if small_edits and small_edits[0]["gates"] >= 1000 and all(
            r["speedup"] >= 10.0 for r in small_edits
        ):
            qualifying.append(name)

    return {
        "meta": {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": platform.platform(),
            "quick": quick,
            "planes": planes,
            "repeats": repeats,
            "seed": seed,
            "fractions": list(fractions),
            "quality_eps": quality_eps,
        },
        "results": rows,
        "empty_diff_probe": probe,
        "summary": {
            "qualifying_circuits": qualifying,
            "meets_10x_target": len(qualifying) >= 2,
            "all_guard_ok": all(r["guard_ok"] for r in rows),
            "empty_diff_bitwise_identical": probe["bitwise_identical"],
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--circuits", nargs="+", default=None)
    parser.add_argument("--planes", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument(
        "--fractions", nargs="+", type=float, default=None,
        help="edit sizes as gate fractions (default: 0.001 0.01 0.05)",
    )
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: KSA16 only, one edit size, 2 repeats — proves "
             "the harness and the empty-diff contract, not the timings",
    )
    args = parser.parse_args(argv)

    if args.planes < 2:
        parser.error("--planes must be >= 2")
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.fractions is not None and any(
        not 0 < f < 1 for f in args.fractions
    ):
        parser.error("--fractions must be gate fractions in (0, 1)")

    if args.quick:
        args.repeats = min(args.repeats, 2)
        if args.circuits is None:
            args.circuits = ["KSA16"]
        if args.fractions is None:
            # Small enough that the warm path actually runs (a 1% edit
            # on a dense small adder can exceed the region threshold).
            args.fractions = [0.001]
    if args.circuits is None:
        args.circuits = list(DEFAULT_CIRCUITS)
    if args.fractions is None:
        args.fractions = list(DEFAULT_FRACTIONS)

    report = run_benchmark(
        circuits=args.circuits,
        planes=args.planes,
        repeats=args.repeats,
        seed=args.seed,
        fractions=args.fractions,
        quick=args.quick,
    )
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    summary = report["summary"]
    print(
        f"\nqualifying circuits (>=1k gates, >=10x for <=1% edits): "
        f"{summary['qualifying_circuits']}  ->  {args.output}"
    )
    failed = False
    if not summary["all_guard_ok"]:
        print("ERROR: quality guard failed on a benchmarked point", file=sys.stderr)
        failed = True
    if not summary["empty_diff_bitwise_identical"]:
        print("ERROR: empty-diff PATCH payload differs from the stored base",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
