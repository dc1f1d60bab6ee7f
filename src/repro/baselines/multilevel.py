"""Multilevel K-way partitioning (the scheme of the paper's ref. [18]).

Section IV-A claims ground-plane partitioning "can not be formulated as
a classic K-way partitioning problem".  The strongest way to examine
that claim is to *build* the classic machinery — the Karypis-Kumar
multilevel scheme — adapted only in its objective:

1. **coarsen** — heavy-edge matching collapses strongly connected gate
   pairs into supernodes (bias and area add; parallel edges stay
   separate unit rows, preserving the F1 term), repeated until the
   graph is small;
2. **initial partition** — the coarsest graph is partitioned with the
   paper's own gradient descent (it is tiny, so this is cheap and keeps
   the comparison within-family);
3. **uncoarsen + refine** — labels project back level by level, with
   greedy steepest-descent passes on the *exact serial-plane integer
   cost* at every level.

So the only "classic" ingredient missing from the paper's framing —
the distance-aware cost — is simply used as the refinement objective,
which the multilevel framework accepts without complaint.
"""

import numpy as np

from repro.core.assignment import round_assignment
from repro.core.coarsening import coarsen_problem
from repro.core.config import PartitionConfig
from repro.core.optimizer import minimize_assignment_batch
from repro.core.partitioner import PartitionResult, _repair_empty_planes
from repro.core.refinement import _IncrementalCost, greedy_improve
from repro.obs import OBS
from repro.utils.errors import PartitionError
from repro.utils.rng import make_rng


def multilevel_partition(netlist, num_planes, seed=None, config=None, coarsest_nodes=None, refine_passes=6):
    """Multilevel partition of a netlist into K serial planes.

    Parameters
    ----------
    coarsest_nodes:
        Stop coarsening at this node count (default ``max(40, 6K)``).
    refine_passes:
        Greedy refinement pass budget per level.
    """
    if num_planes < 1:
        raise PartitionError(f"num_planes must be >= 1, got {num_planes}")
    if num_planes > netlist.num_gates:
        raise PartitionError(
            f"cannot split {netlist.num_gates} gates into {num_planes} planes"
        )
    config = config or PartitionConfig()
    rng = make_rng(config.seed if seed is None else seed)
    if coarsest_nodes is None:
        coarsest_nodes = max(40, 6 * num_planes)

    if num_planes == 1:
        return PartitionResult(
            netlist=netlist,
            num_planes=1,
            labels=np.zeros(netlist.num_gates, dtype=np.intp),
            config=config,
        )

    # ---- coarsening (shared with the engine="multilevel" accelerator,
    # see repro.core.coarsening) ---------------------------------------
    bias = netlist.bias_vector_ma()
    area = netlist.area_vector_um2()
    edges = netlist.edge_array()
    with OBS.trace.span("multilevel_coarsen", gates=netlist.num_gates) as span:
        levels, maps = coarsen_problem(
            netlist.num_gates, edges, bias, area, coarsest_nodes, rng
        )
        span.set(levels=len(maps), coarsest_nodes=int(levels[-1][0].shape[0]))
    if OBS.enabled:
        OBS.metrics.counter("baseline.multilevel.coarsen_levels").inc(len(maps))

    # ---- initial partition on the coarsest level --------------------
    coarse_bias, coarse_area, coarse_edges = levels[-1]
    with OBS.trace.span("multilevel_initial", nodes=int(coarse_bias.shape[0])):
        trace = minimize_assignment_batch(
            num_planes, coarse_edges, coarse_bias, coarse_area, config, rngs=[rng]
        )[0]
        labels = round_assignment(trace.w)

    # ---- uncoarsen + refine -----------------------------------------
    with OBS.trace.span("multilevel_refine", levels=len(maps)):
        for level_index in range(len(maps) - 1, -1, -1):
            fine_to_coarse = maps[level_index]
            labels = labels[fine_to_coarse]
            fine_bias, fine_area, fine_edges = levels[level_index]
            state = _IncrementalCost(labels, num_planes, fine_edges, fine_bias, fine_area, config)
            greedy_improve(state, num_planes, max_passes=refine_passes)
            labels = state.labels

    if not maps:
        # graph was already at/below the coarsest size: the loop above
        # never ran, so refine the initial partition directly (with the
        # wider move set — tiny instances afford it)
        state = _IncrementalCost(labels, num_planes, edges, bias, area, config)
        greedy_improve(
            state, num_planes, max_passes=refine_passes, candidate_planes="all"
        )
        labels = state.labels

    labels = np.asarray(labels, dtype=np.intp)
    if config.ensure_nonempty:
        labels, _moved = _repair_empty_planes(labels, num_planes, netlist)
    return PartitionResult(
        netlist=netlist, num_planes=num_planes, labels=labels, config=config, trace=trace
    )
