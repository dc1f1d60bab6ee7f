"""Coarse-to-fine warm-started solves — ``engine="multilevel"``.

A standard accelerator from the multilevel partitioning literature
(hMETIS-style V-cycles, Karypis et al.), applied here as a *warm start*
rather than a replacement for the paper's algorithm:

1. **coarsen** — heavy-edge matching (:mod:`repro.core.coarsening`)
   collapses strongly connected gate pairs; bias/area add, parallel
   edges stay separate unit rows, so the coarse cost terms mirror the
   fine ones;
2. **coarse solve** — every restart runs Algorithm 1 on the coarsest
   problem through the batched fused kernel, capped at
   :data:`COARSE_ITERATION_BUDGET` iterations.  The coarse problem has
   tens of nodes instead of thousands, so these iterations are nearly
   free — but under the fixed step its rows move tens of times further
   per iteration than fine rows, and a few percent of coarse restarts
   fall into a limit cycle that never meets the margin test; the
   budget stops those without cutting any restart that converges;
3. **interpolate** — each restart's relaxed coarse ``w`` is prolongated
   to the fine level (every fine gate inherits its supernode's row;
   rows stay normalized by construction);
4. **refine** — the standard batched gradient descent runs on the fine
   problem from that warm start, capped at
   ``config.multilevel_fine_iterations`` per restart.  The cap matters:
   a warm start from a *converged* coarse solution sits in a gentle
   valley where the relative-change stopping margin keeps firing for
   hundreds of tail iterations that polish the relaxed cost without
   changing the rounded labels, so an uncapped warm-started descent
   actually runs *longer* than a cold one.  A short budget keeps the
   interpolated structure (d<=1 typically 0.9+ vs 0.6 cold) and cuts
   fine-level work well below a cold-start batched solve.

The interpolated rows are constant within each supernode, so plain
argmax rounding would commit whole clusters to one plane and wreck the
integer-level bias balance; :func:`~repro.core.partitioner.partition`
therefore rounds this engine's traces with the capacity-aware
:func:`~repro.core.assignment.round_assignment_balanced` — but only
when coarsening actually ran (``trace.coarse_levels`` is set).

Pinned gates stay singleton supernodes through every level, so hard
constraints hold on the coarse problem too.  When the problem is small
(within 2x of the coarsest size) or has no contractible edges, this
degrades gracefully to the plain *uncapped* batched solve — cold start,
same iterations and relaxed solution as ``engine="batched"``.  Those
fall-through traces carry no ``coarse_*`` attributes, and the
partitioner rounds them with the plain argmax, so small circuits get
*exactly* the batched engine's labels and metrics (previously the
capacity-aware rounding applied anyway and cost measurable quality on
sub-floor circuits, e.g. KSA4 in BENCH_suite.json).
"""

import numpy as np

from repro.core.coarsening import compose_maps, coarsen_problem
from repro.core.optimizer import (
    _pin_index,
    _reseed_assignment,
    _validate_problem,
    minimize_assignment_batch,
)
from repro.obs import OBS
from repro.utils.rng import make_rng, spawn_rngs


#: Iteration cap of the coarse solve (the fine level keeps
#: ``multilevel_fine_iterations``).  Under the fixed step a coarse
#: restart either meets the margin test or falls into a limit cycle it
#: never leaves (docs/algorithm.md, "The multilevel coarse solve").  Set
#: from ``scripts/coarse_survey.py`` over the suite at K = 4..10: above
#: the largest iteration count of any converging coarse restart, 1276
#: over seeds 0-9 and 1341 over seeds 10-19.  Even, so a period-2 cycle
#: stops in the phase the 2000-iteration default cap stopped it in.
COARSE_ITERATION_BUDGET = 1400

#: Version of the multilevel engine's answers; part of every service
#: request key and of a multilevel job's checkpoint key.  Bump it when
#: a multilevel answer can change, so stored ones are neither served
#: nor resumed.  v2: the coarse solve stops at
#: :data:`COARSE_ITERATION_BUDGET`.
MULTILEVEL_VERSION = 2


def default_coarsest_nodes(num_planes):
    """Coarsening floor: enough supernodes that K planes stay meaningful."""
    return max(40, 6 * num_planes)


def minimize_assignment_multilevel(
    num_planes, edges, bias, area, config, rngs=None, pinned=None, restarts=None,
    coarsen_rng=None,
):
    """Run warm-started coarse-to-fine solves for all restarts.

    Parameters match :func:`repro.core.optimizer.minimize_assignment_batch`;
    ``coarsen_rng`` seeds the heavy-edge matching order (one extra
    deterministic stream so restart initializations stay identical to
    ``engine="batched"``'s for the same seed).

    Returns a list of :class:`~repro.core.optimizer.GradientDescentTrace`
    (one per restart) whose ``w``/``iterations``/``converged`` describe
    the *fine-level* descent; coarse-solve effort is reported on the
    side attributes ``coarse_iterations`` / ``coarse_converged`` /
    ``coarse_levels``.
    """
    bias_arr, pinned = _validate_problem(num_planes, bias, pinned)
    num_gates = bias_arr.shape[0]

    if rngs is None or isinstance(rngs, (int, np.integer, np.random.Generator)):
        count = int(restarts if restarts is not None else config.restarts)
        rngs = spawn_rngs(make_rng(rngs), count)
    rngs = list(rngs)

    coarsest = config.multilevel_coarsest_nodes or default_coarsest_nodes(num_planes)
    if num_gates <= 2 * coarsest:
        # Too small for coarsening to pay for itself (the coarse problem
        # would be barely smaller than the fine one): run the plain
        # uncapped batched solve instead.
        return minimize_assignment_batch(
            num_planes, edges, bias_arr, area, config, rngs=rngs, pinned=pinned,
        )
    with OBS.trace.span("multilevel_coarsen", gates=num_gates) as span:
        levels, maps = coarsen_problem(
            num_gates,
            np.asarray(edges, dtype=np.intp),
            bias_arr,
            area,
            coarsest,
            make_rng(coarsen_rng),
            frozen=pinned.keys() if pinned else None,
        )
        span.set(levels=len(maps), coarsest_nodes=int(levels[-1][0].shape[0]))

    if not maps:
        # Nothing to coarsen (tiny circuit or edgeless graph): the warm
        # start would just be a second cold solve, so skip straight to
        # the plain batched engine.
        return minimize_assignment_batch(
            num_planes, edges, bias_arr, area, config, rngs=rngs, pinned=pinned,
        )

    composed = compose_maps(maps)
    coarse_bias, coarse_area, coarse_edges = levels[-1]
    coarse_pinned = {int(composed[gate]): plane for gate, plane in pinned.items()}

    coarse_cap = min(config.max_iterations, COARSE_ITERATION_BUDGET)
    with OBS.trace.span("multilevel_coarse_solve", nodes=int(coarse_bias.shape[0])):
        coarse_traces = minimize_assignment_batch(
            num_planes,
            coarse_edges,
            coarse_bias,
            coarse_area,
            config.with_(max_iterations=coarse_cap),
            rngs=rngs,
            pinned=coarse_pinned,
        )

    # Prolongation: every fine gate takes its supernode's relaxed row.
    # Rows sum to 1 at the coarse level, so the fine stack needs no
    # re-normalization before the descent takes over.
    stack = np.stack([trace.w for trace in coarse_traces])[:, composed, :]

    # A coarse restart that ended quarantined (or otherwise produced a
    # non-finite w) would poison the fine-level batch through its warm
    # start; replace such rows with a fresh deterministic cold start.
    bad_rows = ~np.isfinite(stack.reshape(stack.shape[0], -1)).all(axis=1)
    if bad_rows.any():
        for r in np.flatnonzero(bad_rows):
            stack[r] = _reseed_assignment(
                num_gates, num_planes, r, 0, _pin_index(pinned)
            )
        if OBS.enabled:
            OBS.metrics.counter("multilevel.stack_reseeded").inc(int(bad_rows.sum()))

    fine_config = config.with_(
        max_iterations=min(config.multilevel_fine_iterations, config.max_iterations)
    )
    with OBS.trace.span("multilevel_fine_solve", gates=num_gates):
        traces = minimize_assignment_batch(
            num_planes, edges, bias_arr, area, fine_config, w0=stack, pinned=pinned,
        )

    if OBS.enabled:
        OBS.metrics.counter("multilevel.coarse_iterations").inc(
            sum(t.iterations for t in coarse_traces)
        )
        OBS.metrics.counter("multilevel.fine_iterations").inc(
            sum(t.iterations for t in traces)
        )
        if coarse_cap < config.max_iterations:
            # Neither converged nor quarantined: stopped at the cap.
            OBS.metrics.counter("multilevel.coarse_budget_stops").inc(
                sum(not (t.converged or t.quarantined) for t in coarse_traces)
            )

    for trace, coarse in zip(traces, coarse_traces):
        trace.coarse_iterations = coarse.iterations
        trace.coarse_converged = coarse.converged
        trace.coarse_levels = len(maps)
    return traces
