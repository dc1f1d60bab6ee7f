#!/usr/bin/env python
"""Survey of the multilevel engine's coarse solve over suite circuits.

Solves every ``(circuit, K, seed)`` with ``engine="multilevel"`` and
records, per solve, each restart's coarse iteration count and whether
its coarse descent converged, the solve's CPU time, d<=1, I_comp, the
best restart's integer cost and a digest of the labels.  The summary
reports how many coarse restarts stopped without converging and how
many of those ran to the 2000-iteration ``max_iterations`` cap (the
others stopped at the coarse budget), the largest coarse iteration
count of a converging restart, the total and slowest CPU time and the
quality means: the data the coarse iteration budget of
:mod:`repro.core.multilevel` is set from.

Usage::

    PYTHONPATH=src python scripts/coarse_survey.py --seeds 0-9 --output survey.json
    PYTHONPATH=src python scripts/coarse_survey.py --seeds 0-9 --against parent.json
    PYTHONPATH=src python scripts/coarse_survey.py --cycles MULT8:4:1

``--cycles MULT8:4:1`` instead prints, from the per-iteration solver
telemetry of that one solve, each coarse restart's iteration count and,
for one that did not converge, the period of its cost over its last
200 iterations (to a relative 1e-9), its smallest relative cost change after iteration 100
(the margin test wants 1e-4) and its last costs.

``--against`` reads an earlier survey's JSON (for example one run on
another checkout) and also prints how many answers (label digests)
changed and how many of them come from a solve that had an unconverged
restart there.  Circuits that fall through to the plain batched
solve at some K (too small to coarsen) have no coarse restarts there
and are left out of the counts.
"""

import argparse
import hashlib
import json
import sys
import time

#: Every suite circuit that coarsens at K = 4..10 (KSA4 falls through).
DEFAULT_CIRCUITS = (
    "KSA8", "KSA16", "KSA32", "MULT4", "MULT8", "ID4", "ID8",
    "C432", "C499", "C1355", "C1908", "C3540",
)


def _range(text):
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def survey(circuits, planes, seeds):
    from repro.circuits.suite import build_circuit
    from repro.core.config import PartitionConfig
    from repro.core.partitioner import partition
    from repro.metrics.report import evaluate_partition

    config = PartitionConfig(engine="multilevel")
    solves = []
    for name in circuits:
        netlist = build_circuit(name)
        for k in planes:
            for seed in seeds:
                started = time.process_time()
                result = partition(netlist, k, config=config, seed=seed)
                cpu_s = time.process_time() - started
                stats = result.restart_stats
                if "coarse_iterations" not in stats[0]:
                    continue
                report = evaluate_partition(result)
                solves.append({
                    "circuit": name, "k": k, "seed": seed,
                    "coarse_iterations": [s["coarse_iterations"] for s in stats],
                    "coarse_converged": [s["coarse_converged"] for s in stats],
                    "cpu_s": cpu_s,
                    "d_le_1": report.frac_d_le_1,
                    "i_comp_pct": report.i_comp_pct,
                    "best_integer_cost": min(s["integer_cost"] for s in stats),
                    "labels": hashlib.sha256(result.labels.tobytes()).hexdigest()[:16],
                })
                print(f"{name:>6} K={k:<2} seed={seed}  coarse {solves[-1]['coarse_iterations']}"
                      f"  {cpu_s:.3f} s", file=sys.stderr)
    return solves


def cycles(circuit, k, seed):
    """Per-restart telemetry of one solve's coarse descent."""
    from repro import obs
    from repro.circuits.suite import build_circuit
    from repro.core.config import PartitionConfig
    from repro.core.partitioner import partition

    with obs.capture() as scope:
        partition(build_circuit(circuit), k, config=PartitionConfig(engine="multilevel"),
                  seed=seed)
    coarse_run = scope.telemetry.runs[0]["run"]
    for restart in range(scope.telemetry.runs[0]["restarts"]):
        totals = [r["total"] for r in scope.telemetry.records
                  if r["run"] == coarse_run and r["restart"] == restart]
        line = f"restart {restart}: {len(totals)} evaluations"
        tail = totals[-200:]
        period = next((p for p in range(1, 50) if all(
            abs(a - b) <= 1e-9 * abs(b) for a, b in zip(tail[p:], tail[:-p]))), None)
        if len(totals) > 200 and period:
            changes = [abs(b / a - 1) for a, b in zip(totals[100:], totals[101:])]
            line += (f", cost period {period} over the last 200, smallest relative "
                     f"change after iteration 100 {min(changes):.2e}, last costs "
                     + " ".join(f"{x:.6f}" for x in totals[-4:]))
        print(line)


def summarize(solves):
    """Counts over every coarse restart, totals and means over solves."""
    from repro.core.config import PartitionConfig

    restarts = [
        (count, converged)
        for solve in solves
        for count, converged in zip(solve["coarse_iterations"], solve["coarse_converged"])
    ]
    count = len(solves)
    unconverged = [iterations for iterations, converged in restarts if not converged]
    return {
        "solves": count,
        "coarse_restarts": len(restarts),
        "unconverged_restarts": len(unconverged),
        "capped_restarts": unconverged.count(PartitionConfig().max_iterations),
        "largest_converging_count": max(
            (iterations for iterations, converged in restarts if converged), default=0
        ),
        "cpu_s": round(sum(s["cpu_s"] for s in solves), 2),
        "slowest_solve_s": round(max((s["cpu_s"] for s in solves), default=0.0), 3),
        "mean_d_le_1": round(sum(s["d_le_1"] for s in solves) / count, 4),
        "mean_i_comp_pct": round(sum(s["i_comp_pct"] for s in solves) / count, 4),
        "mean_best_integer_cost": round(
            sum(s["best_integer_cost"] for s in solves) / count, 4
        ),
    }


def changed_answers(solves, reference):
    """``(changed, changed where the reference had an unconverged restart)``."""
    key = lambda s: (s["circuit"], s["k"], s["seed"])  # noqa: E731
    before = {key(s): s for s in reference}
    changed = [s for s in solves if key(s) in before and s["labels"] != before[key(s)]["labels"]]
    capped = [s for s in changed if not all(before[key(s)]["coarse_converged"])]
    return len(changed), len(capped)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--circuits", nargs="+", default=list(DEFAULT_CIRCUITS))
    parser.add_argument("--planes", type=_range, default=_range("4-10"),
                        help="K range, e.g. 4-10")
    parser.add_argument("--seeds", type=_range, default=_range("0-9"),
                        help="seed range, e.g. 0-9")
    parser.add_argument("--output", help="write the solves and summary as JSON")
    parser.add_argument("--against", help="an earlier survey's JSON to diff answers with")
    parser.add_argument("--cycles", metavar="CIRCUIT:K:SEED",
                        help="print one solve's coarse telemetry instead of surveying")
    args = parser.parse_args(argv)

    if args.cycles:
        circuit, k, seed = args.cycles.split(":")
        cycles(circuit, int(k), int(seed))
        return 0

    solves = survey(args.circuits, args.planes, args.seeds)
    summary = summarize(solves)
    if args.against:
        with open(args.against) as handle:
            reference = json.load(handle)
        changed, capped = changed_answers(solves, reference["solves"])
        summary["answers_changed"] = changed
        summary["answers_changed_with_unconverged_reference_restart"] = capped
        summary["reference"] = reference["summary"]
    if args.output:
        with open(args.output, "w") as handle:
            json.dump({"summary": summary, "solves": solves}, handle, indent=1)
            handle.write("\n")
    print(json.dumps(summary, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
