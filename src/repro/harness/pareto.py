"""K x cost-weight Pareto sweeps with a per-point energy estimate.

The paper's eq. (8) weights ``c1..c4`` trade interconnect quality
(d <= 1) against bias/area balance (I_comp / A_FS) but are left
"constants which can be tuned", and Table III reports a single plane
count per circuit.  A designer wants the whole trade surface: this
module sweeps a grid of plane counts K and weight ratios, evaluates
every point, and extracts the Pareto-efficient frontier over four
objectives (all minimized):

1. ``1 - d<=1`` — the crossing fraction;
2. ``I_comp %`` — worst-plane bias compensation;
3. ``A_FS %`` — free space consumed by dummies;
4. ``-(K - 1)`` — bias-line saving (more planes = fewer bias lines,
   so the saving is maximized by negating it).

Every point also carries the RSFQ-resistive vs ERSFQ-recycled bias
power estimate from :func:`repro.recycling.ersfq.estimate_bias_power`,
so the frontier answers "what does this trade-off cost in energy".

Entry points
------------
* :func:`sweep_weights` — the original in-process ratio sweep at a
  fixed K (kept for figures and quick exploration);
* :func:`execute_sweep` — the service/CLI sweep executor: fans a
  validated ``kind="sweep"`` request's (K x ratio) grid through
  :func:`repro.harness.runner.run_jobs`, deduping each grid point
  through the result store under its own solo-partition request key;
* :func:`render_frontier` / :func:`render_sweep` — ASCII scatter of
  the cloud + frontier for bench artifacts and the CLI.

Sweep knobs (``REPRO_SWEEP_*``) are declared in :mod:`repro.envcfg`.
"""

from dataclasses import dataclass

import numpy as np

from repro import envcfg
from repro.core.partitioner import partition
from repro.metrics.report import evaluate_partition
from repro.recycling.ersfq import DEFAULT_CLOCK_GHZ, estimate_bias_power

#: default weight-ratio ladder (c1 multiplier over the balance weights)
DEFAULT_RATIOS = (0.2, 1.0, 4.0, 16.0, 64.0)


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated (K, weights) grid point."""

    num_planes: int
    c1: float
    c2: float
    c3: float
    c4: float
    crossing_fraction: float  # 1 - d<=1
    i_comp_pct: float
    a_fs_pct: float
    bias_lines_saved: int  # K - 1 serial-chain merges
    energy: dict
    report: object

    @property
    def weights(self):
        return {"c1": self.c1, "c2": self.c2, "c3": self.c3, "c4": self.c4}

    @property
    def objectives(self):
        """Minimization tuple; the saving enters negated so that more
        recycled bias lines dominates fewer, all else equal."""
        return (
            self.crossing_fraction,
            self.i_comp_pct,
            self.a_fs_pct,
            -float(self.bias_lines_saved),
        )


def point_from_report(report, weights, clock_ghz=DEFAULT_CLOCK_GHZ):
    """Build a :class:`SweepPoint` from an evaluated partition report.

    ``weights`` is a full ``{"c1": ..., "c2": ..., "c3": ..., "c4": ...}``
    mapping — the sweep records the complete tuple so every artifact is
    reproducible from its own metadata.
    """
    energy = estimate_bias_power(report.bias.per_plane_ma, clock_ghz=clock_ghz)
    return SweepPoint(
        num_planes=int(report.num_planes),
        c1=float(weights["c1"]),
        c2=float(weights["c2"]),
        c3=float(weights["c3"]),
        c4=float(weights["c4"]),
        crossing_fraction=1.0 - report.frac_d_le_1,
        i_comp_pct=float(report.i_comp_pct),
        a_fs_pct=float(report.a_fs_pct),
        bias_lines_saved=int(report.num_planes) - 1,
        energy=energy.as_dict(),
        report=report,
    )


def pareto_front(points):
    """Non-dominated subset under weak N-objective dominance.

    ``other`` dominates ``point`` iff it is no worse in every objective
    and strictly better in at least one; points with identical
    objective tuples never dominate each other, so duplicates are all
    retained.  Sorted by the objective tuple.
    """
    front = []
    for point in points:
        dominated = any(
            all(o <= p for o, p in zip(other.objectives, point.objectives))
            and other.objectives != point.objectives
            for other in points
        )
        if not dominated:
            front.append(point)
    return sorted(front, key=lambda p: p.objectives)


def sweep_weights(netlist, num_planes, base_config, ratios=DEFAULT_RATIOS, seed=None):
    """Partition at each weight ratio; returns ``(points, front)``.

    Each ratio ``r`` scales the interconnect weight ``c1`` by ``r``
    while keeping the balance weights at their base values, so the
    sweep walks the d<=1 / I_comp trade-off curve at a fixed K.
    """
    points = []
    for ratio in ratios:
        config = base_config.with_(c1=base_config.c1 * ratio)
        report = evaluate_partition(
            partition(netlist, num_planes, config=config, seed=seed)
        )
        points.append(
            point_from_report(
                report,
                {"c1": config.c1, "c2": config.c2, "c3": config.c3, "c4": config.c4},
            )
        )
    return points, pareto_front(points)


def sweep_grid(normalized):
    """Expand a validated sweep request into solvable grid points.

    Returns ``(grid, skipped_k, num_gates)`` where each grid entry is a
    dict with ``num_planes``/``ratio``/``weights``/``request``/``key``.
    K values beyond the gate count cannot host one gate per plane and
    are recorded in ``skipped_k`` instead of failing the sweep.
    """
    from repro.circuits.suite import build_circuit
    from repro.service.api import request_key, resolve_weights, sweep_point_request

    if "netlist" in normalized:
        num_gates = len(normalized["netlist"]["gates"])
    else:
        num_gates = len(build_circuit(normalized["circuit"]).gates)
    grid, skipped = [], []
    for k in normalized["k_values"]:
        if k > num_gates:
            skipped.append(int(k))
            continue
        for ratio in normalized["weight_ratios"]:
            request = sweep_point_request(normalized, k, ratio)
            grid.append(
                {
                    "num_planes": int(k),
                    "ratio": float(ratio),
                    "weights": resolve_weights(request),
                    "request": request,
                    "key": request_key(request),
                }
            )
    return grid, skipped, num_gates


def execute_sweep(normalized, store=None, jobs=None, run_kwargs=None):
    """Run a validated ``kind="sweep"`` request; returns ``(payload, stats)``.

    Every grid point is the *exact* solo partition request a client
    could POST on its own: points already present in ``store`` are
    reused, the misses fan through :func:`run_jobs`, and fresh payloads
    are stored under the point's own request key — so sweeps and solo
    jobs dedupe against each other bitwise in both directions.
    """
    from repro.cache.store import canonical_jsonable
    from repro.harness.checkpoint import payload_from_jsonable, payload_to_jsonable
    from repro.harness.runner import run_jobs
    from repro.service.api import request_to_job

    grid, skipped, num_gates = sweep_grid(normalized)
    for entry in grid:
        stored = store.get(entry["key"]) if store is not None else None
        entry["payload"] = payload_from_jsonable(stored) if stored is not None else None
        entry["cached"] = entry["payload"] is not None

    misses = [entry for entry in grid if entry["payload"] is None]
    if misses:
        payloads = run_jobs(
            [request_to_job(entry["request"]) for entry in misses],
            jobs=envcfg.resolve("REPRO_SWEEP_JOBS", jobs),
            **(run_kwargs or {}),
        )
        for entry, payload in zip(misses, payloads):
            entry["payload"] = payload
            if store is not None:
                store.put(entry["key"], payload, meta={"request": entry["request"]})

    clock_ghz = normalized.get("clock_ghz", DEFAULT_CLOCK_GHZ)
    points = [
        point_from_report(entry["payload"]["report"], entry["weights"], clock_ghz)
        for entry in grid
    ]
    front_ids = {id(p) for p in pareto_front(points)}
    payload = {
        "kind": "sweep",
        "circuit": normalized.get("circuit") or normalized["netlist"].get("name"),
        "num_gates": int(num_gates),
        "clock_ghz": float(clock_ghz),
        "k_values": list(normalized["k_values"]),
        "weight_ratios": list(normalized["weight_ratios"]),
        "skipped_k": skipped,
        "points": [
            {
                "num_planes": entry["num_planes"],
                "ratio": entry["ratio"],
                "weights": entry["weights"],
                "request_key": entry["key"],
                "cached": entry["cached"],
                "metrics": {
                    "crossing_fraction": point.crossing_fraction,
                    "frac_d_le_1": point.report.frac_d_le_1,
                    "i_comp_pct": point.i_comp_pct,
                    "a_fs_pct": point.a_fs_pct,
                    "bias_lines_saved": point.bias_lines_saved,
                    "b_cir_ma": point.report.b_cir_ma,
                    "b_max_ma": point.report.b_max_ma,
                },
                "energy": point.energy,
                "on_frontier": id(point) in front_ids,
            }
            for entry, point in zip(grid, points)
        ],
        "frontier": [i for i, point in enumerate(points) if id(point) in front_ids],
    }
    stats = {
        "points": len(grid),
        "cache_hits": sum(1 for entry in grid if entry["cached"]),
        "solved": len(misses),
        "skipped_k": len(skipped),
    }
    return canonical_jsonable(payload), stats


def render_frontier(points, front, width=52, height=14, title="weight-sweep Pareto frontier"):
    """ASCII scatter: '.' = dominated point, 'O' = frontier point."""
    if not points:
        return f"{title}: <no points>"
    width = max(int(width), 2)
    height = max(int(height), 2)
    xs = np.array([p.crossing_fraction for p in points])
    ys = np.array([p.i_comp_pct for p in points])
    x_low, x_high = float(xs.min()), float(xs.max())
    y_low, y_high = float(ys.min()), float(ys.max())
    x_span = (x_high - x_low) or 1.0
    y_span = (y_high - y_low) or 1.0

    grid = [[" "] * width for _ in range(height)]
    front_set = {id(p) for p in front}

    def plot(point, marker):
        column = int((point.crossing_fraction - x_low) / x_span * (width - 1))
        row = int((point.i_comp_pct - y_low) / y_span * (height - 1))
        grid[height - 1 - row][column] = marker

    for point in points:
        if id(point) not in front_set:
            plot(point, ".")
    for point in front:  # frontier on top
        plot(point, "O")

    lines = [f"{title}  (x: crossing fraction, y: I_comp %)"]
    lines.append(f"{y_high:7.1f} +" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append(" " * 7 + "|" + "".join(row))
    lines.append(f"{y_low:7.1f} +" + "".join(grid[-1]))
    label_low, label_high = f"{x_low:.2f}", f"{x_high:.2f}"
    pad = max(1, width - len(label_low) - len(label_high))
    lines.append(" " * 8 + label_low + " " * pad + label_high)
    return "\n".join(lines)


class _RenderPoint:
    """Minimal shim so stored sweep payload dicts render like points."""

    __slots__ = ("crossing_fraction", "i_comp_pct")

    def __init__(self, metrics):
        self.crossing_fraction = metrics["crossing_fraction"]
        self.i_comp_pct = metrics["i_comp_pct"]


def render_sweep(payload, width=52, height=14):
    """Render a sweep payload's frontier (works on stored JSON dicts)."""
    points = [_RenderPoint(p["metrics"]) for p in payload["points"]]
    front = [points[i] for i in payload["frontier"]]
    title = f"sweep Pareto frontier ({payload['circuit']})"
    return render_frontier(points, front, width=width, height=height, title=title)
