"""Heavy-edge graph coarsening (the multilevel V-cycle's first leg).

The Karypis-Kumar multilevel scheme collapses strongly connected node
pairs into supernodes until the graph is small enough to solve cheaply.
Two consumers share this module:

* the classic multilevel *baseline*
  (:func:`repro.baselines.multilevel.multilevel_partition`), which
  refines with greedy integer moves on the way back up;
* the ``engine="multilevel"`` solver accelerator
  (:mod:`repro.core.multilevel`), which solves the coarsest problem
  with the batched gradient kernel and interpolates the relaxed ``w``
  down as a warm start for the paper's own descent.

Bias and area add under merging; parallel edges keep their multiplicity
as separate unit rows, so the F1 interconnection term of the coarse
problem counts exactly the fine-level connections it represents, and a
pair's matching weight is the number of rows joining it.
"""

import numpy as np


def heavy_edge_matching(num_nodes, edges, rng, frozen=None):
    """One coarsening step: match each node with its heaviest unmatched
    neighbor, a pair's weight being the number of edge rows joining it.
    Returns ``(coarse_count, fine_to_coarse)``.

    ``frozen`` nodes (e.g. gates pinned to a plane) never match — they
    survive as singleton supernodes so constraints stay well-defined on
    every level.
    """
    order = rng.permutation(num_nodes)
    # parallel rows per neighbor pair
    neighbor_weight = [dict() for _ in range(num_nodes)]
    for u, v in edges:
        if u == v:
            continue
        neighbor_weight[u][v] = neighbor_weight[u].get(v, 0) + 1
        neighbor_weight[v][u] = neighbor_weight[v].get(u, 0) + 1

    match = np.full(num_nodes, -1, dtype=np.intp)
    if frozen is not None:
        for node in frozen:
            match[node] = node  # self-match: never paired, stays singleton
    for node in order:
        if match[node] != -1:
            continue
        best, best_weight = -1, 0
        for neighbor, weight in neighbor_weight[node].items():
            if match[neighbor] == -1 and weight > best_weight:
                best, best_weight = neighbor, weight
        if best != -1:
            match[node] = best
            match[best] = node

    fine_to_coarse = np.full(num_nodes, -1, dtype=np.intp)
    next_id = 0
    for node in range(num_nodes):
        if fine_to_coarse[node] != -1:
            continue
        fine_to_coarse[node] = next_id
        if match[node] != -1 and match[node] != node:
            fine_to_coarse[match[node]] = next_id
        next_id += 1
    return next_id, fine_to_coarse


def project_edges(edges, fine_to_coarse):
    """Map edges through a coarsening; drop self-loops, keep parallel rows."""
    if edges.shape[0] == 0:
        return edges
    mapped = fine_to_coarse[edges]
    keep = mapped[:, 0] != mapped[:, 1]
    return mapped[keep]


def coarsen_problem(num_nodes, edges, bias, area, coarsest_nodes, rng, frozen=None):
    """Repeated heavy-edge matching down to ``coarsest_nodes`` nodes.

    Returns ``(levels, maps)`` where ``levels[i]`` is the tuple
    ``(bias, area, edges)`` of level ``i`` (level 0 = the input
    problem) and ``maps[i]`` sends level-``i`` node ids to level
    ``i+1``.  Stops early when matching makes no progress
    (no edges left to contract).
    """
    edges = np.asarray(edges, dtype=np.intp)
    levels = [(np.asarray(bias, dtype=float), np.asarray(area, dtype=float), edges)]
    maps = []
    frozen = set() if frozen is None else set(int(f) for f in frozen)
    while num_nodes > coarsest_nodes:
        level_bias, level_area, level_edges = levels[-1]
        coarse_count, fine_to_coarse = heavy_edge_matching(
            num_nodes, level_edges, rng, frozen=frozen or None
        )
        if coarse_count >= num_nodes:  # no matching progress (no edges left)
            break
        coarse_bias = np.bincount(fine_to_coarse, weights=level_bias, minlength=coarse_count)
        coarse_area = np.bincount(fine_to_coarse, weights=level_area, minlength=coarse_count)
        maps.append(fine_to_coarse)
        levels.append((coarse_bias, coarse_area, project_edges(level_edges, fine_to_coarse)))
        frozen = {int(fine_to_coarse[f]) for f in frozen}
        num_nodes = coarse_count
    return levels, maps


def compose_maps(maps):
    """Fold per-level ``fine_to_coarse`` maps into one level-0 -> coarsest map."""
    composed = maps[0]
    for fine_to_coarse in maps[1:]:
        composed = fine_to_coarse[composed]
    return composed

