"""Warm-start incremental re-partitioning for ECO edits.

An engineering change order touches a handful of gates; the partition of
everything else is still near-optimal (the scalable-assignment and SFQ
partitioning literature both observe that assignment quality survives
local perturbation).  :func:`incremental_partition` exploits that:

1. Expand the touched gates into a *perturbed region* — every gate
   within :func:`resolve_eco_halo` undirected hops (BFS over the edited
   netlist).
2. Collapse everything **outside** the region into K pinned per-plane
   super-gates carrying the aggregate bias/area of their plane, so the
   subproblem costs O(region + K) per iteration instead of O(netlist) —
   the plane-balance terms (F2/F3) of the collapsed problem equal the
   full netlist's exactly, and region-crossing connections keep their
   plane distance (F1).
3. Run a short descent on the subproblem (``DEFAULT_ECO_ITERATIONS``
   iterations, ``DEFAULT_ECO_RESTARTS`` restarts) — restart 0 polishes
   the carried assignment itself, restart 1 re-randomizes the region to
   explore.  Each restart is rounded, spliced into the carried
   assignment and scored by **full-netlist** integer cost.

Two guards keep the fast path honest, both falling back to a cold
:func:`~repro.core.partitioner.partition`:

* **Size threshold** — when the region exceeds
  :func:`resolve_eco_threshold` of the netlist, locality is gone and a
  cold solve is both better and barely slower.
* **Quality guard** — when the warm result's integer cost regresses
  past ``(1 + eps)`` of the deterministic carried-forward reference
  assignment (previous labels, new gates placed by neighbor majority),
  the edit invalidated the old structure; solve cold.

The returned ``info`` dict records which path ran and why, and the
service exports it as ``service.eco.*`` counters (docs/eco.md).
"""

import numpy as np

from repro import envcfg
from repro.core.assignment import random_assignment, round_assignment
from repro.core.config import PartitionConfig
from repro.core.cost import integer_cost
from repro.core.optimizer import minimize_assignment_batch
from repro.core.partitioner import PartitionResult, partition, resolve_pinned
from repro.netlist.graph import adjacency_lists, bounded_bfs_levels
from repro.obs import OBS
from repro.utils.errors import PartitionError
from repro.utils.rng import make_rng, spawn_rngs

#: Default halo radius (hops) around touched gates.
DEFAULT_ECO_HALO = 2
#: Iteration budget of the warm region polish.  The carried assignment
#: is already near-optimal, so a short descent converges; the quality
#: guard catches the exceptions and re-solves cold.
DEFAULT_ECO_ITERATIONS = 12
#: Restart budget of the warm solve: the carried polish plus one
#: re-randomized explorer.  More restarts almost never beat the polish
#: on a local edit (the guard protects the rare case they would).
DEFAULT_ECO_RESTARTS = 2
#: Default maximum region fraction before the warm path solves cold.
DEFAULT_ECO_THRESHOLD = 0.25
#: Default quality-guard tolerance.
DEFAULT_ECO_QUALITY_EPS = 0.05

#: Absolute slop added to every cost comparison so exactly-equal costs
#: never trip the guard on floating-point noise.
_COST_ATOL = 1e-9


def resolve_eco_halo(value=None):
    """Halo radius: explicit ``value``, else REPRO_ECO_HALO, else 2."""
    if value is not None:
        halo = int(value)
    else:
        halo = envcfg.number(
            "REPRO_ECO_HALO", int, lambda v: v >= 0, "an integer >= 0"
        )
        if halo is None:
            halo = DEFAULT_ECO_HALO
    if halo < 0:
        raise PartitionError(f"ECO halo must be >= 0, got {halo}")
    return halo


def resolve_eco_threshold(value=None):
    """Region-size threshold: ``value``, else REPRO_ECO_THRESHOLD, else 0.25."""
    if value is not None:
        threshold = float(value)
    else:
        threshold = envcfg.number(
            "REPRO_ECO_THRESHOLD", float, lambda v: 0 < v <= 1,
            "a fraction in (0, 1]",
        )
        if threshold is None:
            threshold = DEFAULT_ECO_THRESHOLD
    if not 0 < threshold <= 1:
        raise PartitionError(
            f"ECO threshold must be a fraction in (0, 1], got {threshold}"
        )
    return threshold


def resolve_eco_quality_eps(value=None):
    """Quality guard: ``value``, else REPRO_ECO_QUALITY_EPS, else 0.05."""
    if value is not None:
        eps = float(value)
    else:
        eps = envcfg.number(
            "REPRO_ECO_QUALITY_EPS", float, lambda v: v >= 0, "a float >= 0"
        )
        if eps is None:
            eps = DEFAULT_ECO_QUALITY_EPS
    if eps < 0:
        raise PartitionError(f"ECO quality eps must be >= 0, got {eps}")
    return eps


def quality_ok(candidate_cost, reference_cost, eps):
    """True when ``candidate_cost`` is within ``(1 + eps)`` of the reference."""
    return candidate_cost <= reference_cost * (1.0 + eps) + _COST_ATOL


def align_labels(base_names, base_labels, edited_netlist):
    """Carry a base assignment over to an edited netlist by gate name.

    Returns an ``(G_edited,)`` int array: the base plane for every gate
    that survives the edit, ``-1`` for gates the edit added.  Label
    semantics follow gate *names* (gate identity), so reordering and
    removals are handled for free.
    """
    base_labels = np.asarray(base_labels, dtype=np.intp)
    if len(base_names) != base_labels.shape[0]:
        raise PartitionError(
            f"base assignment has {base_labels.shape[0]} labels for "
            f"{len(base_names)} gate names"
        )
    edited_names = [gate.name for gate in edited_netlist.gates]
    if edited_names == list(base_names):
        # Gate set and order unchanged (retype/move-only edit): the
        # labels transfer positionally.
        return base_labels.copy()
    by_name = {name: int(label) for name, label in zip(base_names, base_labels)}
    carried = np.full(edited_netlist.num_gates, -1, dtype=np.intp)
    for index, name in enumerate(edited_names):
        if name in by_name:
            carried[index] = by_name[name]
    return carried


def carry_forward_labels(netlist, num_planes, prev_labels, pinned=None):
    """Deterministic full assignment extending ``prev_labels``.

    Gates with a previous plane keep it; new gates (label ``-1``) are
    placed in index order by majority vote of their already-labeled
    undirected neighbors (ties toward the lowest plane), falling back to
    the plane with the smallest accumulated bias current.  This is the
    reference assignment the quality guard compares against — the best
    answer available without running any solver.
    """
    labels = np.asarray(prev_labels, dtype=np.intp).copy()
    if labels.shape != (netlist.num_gates,):
        raise PartitionError(
            f"previous labels shape {labels.shape} does not match netlist "
            f"({netlist.num_gates} gates)"
        )
    if labels.size and labels.max() >= num_planes:
        raise PartitionError("previous labels out of range for requested K")
    for gate, plane in (pinned or {}).items():
        labels[gate] = plane
    missing = np.flatnonzero(labels < 0)
    if missing.size == 0:
        return labels
    neighbors = adjacency_lists(netlist, directed=False)
    bias = netlist.bias_vector_ma()
    plane_bias = np.zeros(num_planes, dtype=float)
    placed = labels >= 0
    np.add.at(plane_bias, labels[placed], bias[placed])
    for gate in missing:
        votes = np.zeros(num_planes, dtype=np.intp)
        for other in neighbors[gate]:
            if labels[other] >= 0:
                votes[labels[other]] += 1
        if votes.any():
            plane = int(np.argmax(votes))  # argmax ties break low
        else:
            plane = int(np.argmin(plane_bias))
        labels[gate] = plane
        plane_bias[plane] += bias[gate]
    return labels


def _resolve_touched(netlist, touched):
    """Touched gate references (names/indices/Gates) as a sorted index set."""
    indices = set()
    for ref in touched or ():
        indices.add(netlist.gate(ref).index)
    return indices


def incremental_partition(
    netlist,
    num_planes,
    prev_labels,
    touched,
    config=None,
    seed=None,
    pinned=None,
    halo=None,
    threshold=None,
    quality_eps=None,
):
    """Re-partition an edited netlist warm-started from a previous result.

    Parameters
    ----------
    netlist:
        The **edited** :class:`~repro.netlist.netlist.Netlist`.
    num_planes:
        K, same semantics as :func:`~repro.core.partitioner.partition`.
    prev_labels:
        ``(G,)`` previous plane per gate in *edited* gate order, ``-1``
        for gates without one (added by the edit) — the shape
        :func:`align_labels` produces.
    touched:
        Gates the edit perturbed (names, indices or Gate objects); gates
        with ``prev_labels == -1`` are always treated as touched.
    halo, threshold, quality_eps:
        Override the ``REPRO_ECO_*`` knobs for this call.

    Returns
    -------
    (PartitionResult, info)
        ``info["mode"]`` is ``"warm"`` or ``"cold"``;
        ``info["fallback_reason"]`` explains a cold result
        (``"region-threshold"`` or ``"quality-guard"``) and is ``None``
        for warm ones (including the trivial no-op edit).
    """
    if config is None:
        config = PartitionConfig()
    halo = resolve_eco_halo(halo)
    threshold = resolve_eco_threshold(threshold)
    quality_eps = resolve_eco_quality_eps(quality_eps)

    if netlist.num_gates == 0:
        raise PartitionError(f"netlist {netlist.name!r} has no gates")
    if not 1 <= num_planes <= netlist.num_gates:
        raise PartitionError(
            f"cannot split {netlist.num_gates} gates into {num_planes} planes"
        )

    prev = np.asarray(prev_labels, dtype=np.intp)
    if prev.shape != (netlist.num_gates,):
        raise PartitionError(
            f"previous labels shape {prev.shape} does not match netlist "
            f"({netlist.num_gates} gates)"
        )
    if prev.size and prev.max() >= num_planes:
        raise PartitionError(
            f"previous labels reference plane {int(prev.max())} "
            f"but K={num_planes}"
        )

    pinned_user = resolve_pinned(netlist, num_planes, pinned)

    touched_idx = _resolve_touched(netlist, touched)
    touched_idx.update(int(i) for i in np.flatnonzero(prev < 0))

    info = {
        "mode": "warm",
        "fallback_reason": None,
        "halo": halo,
        "threshold": threshold,
        "quality_eps": quality_eps,
        "touched_gates": len(touched_idx),
        "region_gates": 0,
        "region_fraction": 0.0,
    }

    edges = netlist.edge_array()
    bias = netlist.bias_vector_ma()
    area = netlist.area_vector_um2()

    def finish_cold(reason):
        result = partition(netlist, num_planes, config, seed=seed, pinned=pinned_user)
        info["mode"] = "cold"
        info["fallback_reason"] = reason
        info["cost"] = float(result.integer_cost())
        if OBS.enabled:
            OBS.metrics.counter("eco.cold_fallbacks").inc()
        return result, info

    with OBS.trace.span(
        "eco", circuit=netlist.name, planes=num_planes,
        gates=netlist.num_gates, touched=len(touched_idx),
    ):
        if OBS.enabled:
            OBS.metrics.counter("eco.calls").inc()

        if num_planes == 1:
            labels = np.zeros(netlist.num_gates, dtype=np.intp)
            result = PartitionResult(
                netlist=netlist, num_planes=1, labels=labels,
                config=config, pinned=pinned_user,
            )
            info["cost"] = float(result.integer_cost())
            return result, info

        carried = carry_forward_labels(netlist, num_planes, prev, pinned=pinned_user)
        reference_cost = float(
            integer_cost(carried, num_planes, edges, bias, area, config)
        )
        info["reference_cost"] = reference_cost

        if not touched_idx:
            # Empty edit: the previous assignment is already the answer.
            result = PartitionResult(
                netlist=netlist, num_planes=num_planes, labels=carried,
                config=config, pinned=pinned_user,
            )
            info["cost"] = reference_cost
            return result, info

        levels = bounded_bfs_levels(netlist, sorted(touched_idx), halo)
        region = np.flatnonzero(levels >= 0)
        info["region_gates"] = int(region.size)
        info["region_fraction"] = float(region.size / netlist.num_gates)

        if region.size / netlist.num_gates > threshold:
            return finish_cold("region-threshold")

        # Collapse everything outside the region into K pinned per-plane
        # super-gates, so the warm solve costs O(region), not O(netlist).
        # Plane totals are preserved exactly — super-gate k carries the
        # aggregate bias/area of every outside gate on plane k — so the
        # F2/F3 balance terms of the subproblem match the full netlist;
        # F1/F4 differ only in their constant normalizers, which cannot
        # change which region assignment the descent prefers.
        num_region = int(region.size)
        in_region = np.zeros(netlist.num_gates, dtype=bool)
        in_region[region] = True
        local = np.full(netlist.num_gates, -1, dtype=np.intp)
        local[region] = np.arange(num_region)
        outside = np.flatnonzero(~in_region)

        sub_bias = np.concatenate([
            bias[region],
            np.bincount(carried[outside], weights=bias[outside],
                        minlength=num_planes),
        ])
        sub_area = np.concatenate([
            area[region],
            np.bincount(carried[outside], weights=area[outside],
                        minlength=num_planes),
        ])

        # Edge remap: region-region edges survive; a region-outside edge
        # points at the super-gate of the outside endpoint's plane (the
        # plane distance is all F1 sees); outside-outside edges are
        # constants and drop.
        if edges.size:
            u, v = edges[:, 0], edges[:, 1]
            sub_u = np.where(in_region[u], local[u], num_region + carried[u])
            sub_v = np.where(in_region[v], local[v], num_region + carried[v])
            keep = in_region[u] | in_region[v]
            sub_edges = np.stack([sub_u[keep], sub_v[keep]], axis=1)
        else:
            sub_edges = edges.reshape(0, 2)

        sub_pinned = {num_region + k: k for k in range(num_planes)}
        for gate, plane in pinned_user.items():
            if in_region[gate]:
                sub_pinned[int(local[gate])] = plane

        # Warm start: restart 0 polishes the carried assignment itself
        # (one-hot region rows); later restarts re-randomize the region
        # so they still explore.  Super-gate rows are one-hot always.
        restarts = min(config.restarts, DEFAULT_ECO_RESTARTS)
        rng = make_rng(config.seed if seed is None else seed)
        streams = spawn_rngs(rng, restarts)
        stack = np.zeros(
            (restarts, num_region + num_planes, num_planes), dtype=float
        )
        stack[:, np.arange(num_region), carried[region]] = 1.0
        stack[:, num_region + np.arange(num_planes), np.arange(num_planes)] = 1.0
        for restart, stream in enumerate(streams[1:], start=1):
            stack[restart, :num_region, :] = random_assignment(
                num_region, num_planes, stream
            )

        fine_config = config.with_(
            max_iterations=min(DEFAULT_ECO_ITERATIONS, config.max_iterations),
            restarts=restarts,
        )
        info["iteration_cap"] = fine_config.max_iterations

        with OBS.trace.span("eco_solve", region=num_region):
            traces = minimize_assignment_batch(
                num_planes, sub_edges, sub_bias, sub_area, fine_config,
                rngs=streams, w0=stack, pinned=sub_pinned,
            )

        # Round each restart's region rows, splice into the carried
        # assignment, and score on the FULL netlist — restart selection
        # and the quality guard both judge real cost, not the collapsed
        # approximation.
        best_labels, best_cost, best_trace = None, np.inf, None
        restart_costs = []
        seen = {}
        for trace in traces:
            region_labels = round_assignment(trace.w[:num_region])
            key = region_labels.tobytes()
            cost = seen.get(key)
            if cost is None:
                labels = carried.copy()
                labels[region] = region_labels
                for gate, plane in pinned_user.items():
                    labels[gate] = plane
                cost = float(
                    integer_cost(labels, num_planes, edges, bias, area, config)
                )
                seen[key] = cost
                if cost < best_cost:
                    best_labels, best_cost, best_trace = labels, cost, trace
            restart_costs.append(cost)
        result = PartitionResult(
            netlist=netlist, num_planes=num_planes, labels=best_labels,
            config=fine_config, pinned=pinned_user, trace=best_trace,
            restart_costs=restart_costs,
        )
        warm_cost = best_cost
        info["cost"] = warm_cost

        if not quality_ok(warm_cost, reference_cost, quality_eps):
            return finish_cold("quality-guard")

        if OBS.enabled:
            OBS.metrics.counter("eco.warm_solves").inc()
        return result, info
