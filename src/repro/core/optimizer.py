"""Gradient-descent solver — Algorithm 1 of the paper.

The loop is the paper's, line for line:

1. random row-normalized initialization (lines 3-11; see
   :func:`repro.core.assignment.random_assignment`),
2. evaluate ``cost_new`` (line 13) and stop when
   ``|cost_new / cost_old - 1| <= margin`` (lines 14-16),
3. take a gradient step with the analytic gradients of eq. (10)
   (lines 17-21), clip every entry to ``[0, 1]`` (lines 22-23),
4. finally round each gate to its argmax plane (lines 27-30; done by the
   caller via :func:`repro.core.assignment.round_assignment`).

Additions over the pseudo-code, all off by default or harmless:
an iteration safety cap, an explicit learning rate (the paper folds it
into ``c1..c4``), an optional row re-normalization projection, and a
recorded cost trace for the convergence figure.

All restarts advance in lockstep on an ``(R, G, K)`` stack through the
fused one-pass :class:`~repro.core.kernel.FusedKernel`, with per-restart
convergence masking: a restart that satisfies the margin criterion
freezes — its ``w``, history and final terms stop changing — while the
remaining restarts keep iterating on a compacted stack.  Every restart
performs bitwise the same float arithmetic it would perform alone (see
the equivalence contract in :mod:`repro.core.kernel`), so a batch of
``R`` restarts yields exactly the traces of ``R`` single-restart solves.

One iteration allocates nothing of the problem's size.  The loop owns
two ``(R, G, K)`` state buffers and alternates them: one holds the
current ``w``, the other receives the gradient and is stepped, clipped
and row-normalized in place into the next ``w`` (the kernel keeps its
own intermediates in its workspace).  Convergence masking compacts
both buffers in place and continues on their leading rows.

One iteration also makes as few numpy calls as it can: the loop calls
the kernel's unchecked ``_evaluate`` and keeps the rare events — a
non-finite or diverging cost (reseed or quarantine), a restart's first
finite cost, a cost of exactly 0.0 — behind one test per iteration
(every cost's magnitude under its restart's divergence limit, no
previous cost equal to 0.0); when it fails, :func:`_screen` and the
general stop rule run for that iteration.  Each iteration records its
restarts, their costs (inf where poisoned) and the ``(5, n)`` terms;
each trace's Python-float ``cost_history``, its ``iterations`` and its
``final_terms`` (from its last finite record) are rebuilt once, after
the loop.  Pinned gates are held by two fancy-index writes per step,
with index arrays built once per solve.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.core.assignment import normalize_rows, random_assignment, row_sum
from repro.core.cost import CostTerms
from repro.core.kernel import FusedKernel
from repro.obs import OBS
from repro.utils.errors import PartitionError
from repro.utils.rng import make_rng, spawn_rngs

#: How often the batched engine restarts a poisoned trajectory (non-finite
#: cost/gradient, runaway divergence) from a fresh deterministic
#: initialization before freezing ("quarantining") the restart.
MAX_RESEEDS = 2

#: A restart whose cost exceeds its first finite cost by this factor is
#: treated as diverging (a blown-up learning rate produces exactly this
#: signature before overflowing to inf).
DIVERGENCE_FACTOR = 1e6

#: SeedSequence prefix of the deterministic reseed streams, so recovery
#: initializations never collide with user-provided restart seeds.
_RESEED_TAG = 0x5EED


@dataclass
class GradientDescentTrace:
    """Outcome of one gradient-descent run.

    Attributes
    ----------
    w:
        Final relaxed assignment matrix, shape ``(G, K)``.
    cost_history:
        ``cost_new`` at every iteration of the while-loop (the value that
        triggered the stop is the last entry).
    converged:
        True when the margin criterion fired, False when the iteration
        cap stopped the loop.
    iterations:
        Number of gradient steps actually taken.
    final_terms:
        :class:`~repro.core.cost.CostTerms` at the final evaluated ``w``
        (reused from the last loop evaluation, never recomputed).
    telemetry:
        Per-iteration observability records (cost-term breakdown,
        relative change, gradient norm — see
        :mod:`repro.obs.telemetry`).  ``None`` unless observability was
        enabled (:func:`repro.obs.enable`) during the solve.
    reseeds:
        How many times the batched engine threw this restart's
        trajectory away (non-finite cost/gradient or divergence) and
        restarted it from a fresh deterministic initialization.  Always
        0 on the finite path.
    quarantined:
        True when the restart kept producing non-finite/diverging
        evaluations after :data:`MAX_RESEEDS` reseeds and was frozen
        (``converged=False``) so it could not poison the batch.
    """

    w: np.ndarray
    cost_history: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    final_terms: object = None
    telemetry: list = None
    reseeds: int = 0
    quarantined: bool = False

    @property
    def final_cost(self):
        return self.cost_history[-1] if self.cost_history else float("nan")


def _validate_problem(num_planes, bias, pinned):
    """Shared solver-input validation; returns ``(bias, pinned dict)``."""
    bias = np.asarray(bias, dtype=float)
    num_gates = bias.shape[0]
    if num_planes < 1:
        raise PartitionError(f"num_planes must be >= 1, got {num_planes}")
    if num_planes > num_gates:
        raise PartitionError(
            f"cannot split {num_gates} gates into {num_planes} planes "
            "(every plane needs at least one gate)"
        )
    pinned = dict(pinned or {})
    for gate, plane in pinned.items():
        if not 0 <= gate < num_gates:
            raise PartitionError(f"pinned gate index {gate} out of range")
        if not 0 <= plane < num_planes:
            raise PartitionError(f"pinned gate {gate}: plane {plane} out of range")
    return bias, pinned


def _pin_index(pinned):
    """``(gates, planes)`` index arrays of a ``{gate: plane}`` mapping.

    ``None`` when nothing is pinned.  Built once per solve, so holding
    the pins costs two fancy-index writes per iteration.
    """
    if not pinned:
        return None
    gates = np.fromiter(pinned.keys(), dtype=np.intp, count=len(pinned))
    planes = np.fromiter(pinned.values(), dtype=np.intp, count=len(pinned))
    return gates, planes


def _clamp_pinned(w, pins):
    """Hold pinned rows one-hot; works on ``(G, K)`` and ``(R, G, K)``.

    ``pins`` is :func:`_pin_index`'s ``(gates, planes)`` pair or None.
    """
    if pins is not None:
        gates, planes = pins
        w[..., gates, :] = 0.0
        w[..., gates, planes] = 1.0
    return w


def minimize_assignment_batch(
    num_planes,
    edges,
    bias,
    area,
    config,
    rngs=None,
    w0=None,
    pinned=None,
    restarts=None,
    restart_tags=None,
):
    """Run Algorithm 1 from several restarts in lockstep.

    All restarts advance together as one ``(R, G, K)`` tensor through
    the fused cost/gradient kernel: labels, edge differences, per-plane
    sums and row means are computed once per iteration for the whole
    batch, inputs are validated once up front, and the F1 gradient
    scatter uses the kernel's precomputed segment-sum.

    Convergence masking: a restart whose margin criterion fires is
    frozen — its matrix, cost history, iteration count and final terms
    stop changing — and the remaining restarts continue on a compacted
    stack, so late iterations only pay for the restarts still live.

    Parameters
    ----------
    num_planes:
        K, the number of ground planes.
    edges:
        ``(|E|, 2)`` connection array (gate indices).
    bias, area:
        Per-gate ``b_i`` (mA) and ``a_i`` vectors, shape ``(G,)``.
    config:
        :class:`~repro.core.config.PartitionConfig`.
    rngs:
        Per-restart seeds/generators (a sequence — its length defines
        ``R``), or a single seed/generator from which ``restarts``
        (default ``config.restarts``) independent streams are spawned.
        Ignored when ``w0`` is given.
    w0:
        Optional explicit initial stack ``(R, G, K)``; a single
        ``(G, K)`` matrix is broadcast to all restarts.
    pinned:
        Optional ``{gate index: plane}`` hard constraints (extension)
        applied to every restart: those rows are held one-hot
        throughout the descent.  Physically motivated by I/O: pads
        share the common perimeter ground, so gates wired to I/O must
        sit on a plane the designer chooses.
    restarts:
        Batch size when ``rngs`` is not a sequence; defaults to
        ``config.restarts``.
    restart_tags:
        Optional per-restart integers keying the deterministic reseed
        streams of poisoned trajectories (default: the batch index).
        The mega-batch packer passes each job's *local* restart indices
        here so a packed restart reseeds from exactly the stream its
        solo solve would use.

    Returns
    -------
    list of :class:`GradientDescentTrace`, one per restart, each
    bit-identical to what a single-restart call returns for the same
    initialization and tag.
    """
    bias, pinned = _validate_problem(num_planes, bias, pinned)
    num_gates = bias.shape[0]
    kernel = FusedKernel(num_planes, edges, bias, area)

    if w0 is not None:
        w0 = np.array(w0, dtype=float)
        if w0.ndim == 2:
            w0 = np.repeat(w0[None], 1 if restarts is None else int(restarts), axis=0)
        if w0.ndim != 3 or w0.shape[1:] != (num_gates, num_planes):
            raise PartitionError(
                f"w0 must have shape (R, {num_gates}, {num_planes}), got {w0.shape}"
            )
        stack = w0
    else:
        if rngs is None or isinstance(rngs, (int, np.integer, np.random.Generator)):
            count = int(restarts if restarts is not None else config.restarts)
            rngs = spawn_rngs(make_rng(rngs), count)
        rngs = list(rngs)
        if not rngs:
            raise PartitionError("minimize_assignment_batch needs at least one restart")
        stack = np.stack(
            [random_assignment(num_gates, num_planes, rng=make_rng(r)) for r in rngs]
        )

    num_restarts = stack.shape[0]
    pins = _pin_index(pinned)
    stack = _clamp_pinned(np.ascontiguousarray(stack), pins)
    if restart_tags is None:
        tags = np.arange(num_restarts)
    else:
        tags = np.asarray(restart_tags, dtype=np.intp)
        if tags.shape != (num_restarts,):
            raise PartitionError(
                f"restart_tags must have one entry per restart "
                f"({num_restarts}), got shape {tags.shape}"
            )

    obs = OBS if OBS.enabled else None
    run = obs.telemetry.begin_run("batched", num_restarts) if obs is not None else None
    traces = [
        GradientDescentTrace(w=stack[r], telemetry=[] if obs is not None else None)
        for r in range(num_restarts)
    ]
    with OBS.trace.span("descent_batch", restarts=num_restarts):
        _descend_batch(kernel, config, traces, stack, pins, obs, run, tags)
    return traces


def _reseed_assignment(num_gates, num_planes, restart, attempt, pins):
    """Deterministic fresh initialization of a poisoned restart.

    Seeded by (tag, restart index, reseed attempt), so recovery is
    reproducible and independent of the original restart streams.
    ``restart`` is the restart's *tag* — its local index within the
    owning job — so a mega-batched restart recovers from exactly the
    stream its solo solve would.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([_RESEED_TAG, int(restart), int(attempt)])
    )
    w = random_assignment(num_gates, num_planes, rng=rng)
    return _clamp_pinned(w, pins)


def _compact_rows(buffer, kept):
    """Move rows ``kept`` (ascending) of ``buffer`` to its leading rows.

    In place and in ascending order: row ``kept[i] >= i`` is read before
    any later write can reach it.
    """
    for i, j in enumerate(kept):
        if i != j:
            buffer[i] = buffer[j]


def _screen(cost_new, active, live, gradient, traces, first_cost, limit, tags, pins, obs):
    """The rare-event half of one iteration: ``(cost_new, bad, quarantine)``.

    Runs only when the loop's one cheap test fails: some cost is
    non-finite or crosses its restart's divergence limit, or some
    restart has no first finite cost yet.  Reseeds or quarantines every
    poisoned row (see :func:`_descend_batch`), records each restart's
    first finite cost and refreshes the rows' divergence ``limit`` in
    place: ``DIVERGENCE_FACTOR`` times a positive first cost, inf for a
    first cost <= 0, NaN while there is none.  ``bad`` marks the
    poisoned rows, whose returned ``cost_new`` is inf, and
    ``quarantine`` the ones frozen for good.
    """
    num_gates, num_planes = live.shape[1:]
    cost_bad = ~np.isfinite(cost_new)
    baseline = first_cost[active]
    diverged = (
        ~cost_bad
        & np.isfinite(baseline)
        & (baseline > 0.0)
        & (cost_new > baseline * DIVERGENCE_FACTOR)
    )
    bad = cost_bad | diverged
    quarantine = np.zeros(active.size, dtype=bool)
    if bad.any():
        for j in np.flatnonzero(bad):
            r = int(active[j])
            if obs is not None:
                name = "solver.diverged" if diverged[j] else "solver.nonfinite_detected"
                obs.metrics.counter(name).inc()
            attempt = traces[r].reseeds + 1
            if attempt <= MAX_RESEEDS:
                traces[r].reseeds = attempt
                live[j] = _reseed_assignment(num_gates, num_planes, tags[r], attempt, pins)
                first_cost[r] = np.nan
                if obs is not None:
                    obs.metrics.counter("solver.restarts_reseeded").inc()
            else:
                # Frozen on a uniform (finite, never-winning)
                # assignment so downstream rounding stays valid.
                traces[r].quarantined = True
                live[j] = np.full((num_gates, num_planes), 1.0 / num_planes)
                _clamp_pinned(live[j], pins)
                quarantine[j] = True
                if obs is not None:
                    obs.metrics.counter("solver.restarts_quarantined").inc()
            # Neutralize this row for the shared step; a reseeded
            # restart takes its first real step next iteration, from
            # cost_old = inf like any fresh start.
            gradient[j] = 0.0
        cost_new = np.where(bad, np.inf, cost_new)

    good = ~bad
    owners = active[good]
    unset = ~np.isfinite(first_cost[owners])
    first_cost[owners[unset]] = cost_new[good][unset]
    baseline = first_cost[active]
    limit[:] = np.where(
        baseline > 0.0,
        baseline * DIVERGENCE_FACTOR,
        np.where(np.isnan(baseline), np.nan, np.inf),
    )
    return cost_new, bad, quarantine


def _descend_batch(kernel, config, traces, stack, pins, obs, run, tags):
    """The batched descent loop of :func:`minimize_assignment_batch`.

    Split out so the timing span around it stays exception-safe without
    indenting the whole loop.  Descends from ``stack`` (which it uses as
    one of its two state buffers) and fills in every field of
    ``traces``.

    Graceful degradation: an evaluation that produces a non-finite cost
    or gradient — or a cost more than :data:`DIVERGENCE_FACTOR` above
    the restart's first finite cost — marks that restart's trajectory as
    poisoned.  Instead of letting NaNs propagate through the shared
    stack bookkeeping (or letting one runaway restart spin every
    iteration to the cap), the restart is reseeded from a deterministic
    fresh initialization (up to :data:`MAX_RESEEDS` times) and after
    that quarantined: frozen with ``converged=False`` on a uniform
    assignment, while the healthy restarts keep descending untouched.
    On a fully finite problem none of this triggers and the arithmetic
    is bitwise identical to the same restarts solved one at a time.

    All of that sits behind one test per iteration: every cost's
    magnitude is under its row's divergence ``limit`` (NaN until the
    restart has a first finite cost, so the test fails then) and no
    previous cost is exactly 0.0.  When it holds, the margin test is a
    plain ``|cost_new / cost_old - 1| <= margin``; otherwise
    :func:`_screen` and the general stop rule run.  A non-finite
    gradient drives ``w`` non-finite through the update and surfaces as
    a non-finite *cost* on the next evaluation, so the cost test covers
    both, one iteration late at worst (the cap-exit path catches the
    final iteration's stragglers).
    """
    num_restarts, num_gates, num_planes = stack.shape
    if num_restarts == 0:
        return
    margin = config.margin
    step = -config.learning_rate
    renormalize = config.renormalize_rows
    first_cost = np.full(num_restarts, np.nan)
    # Per live row: the previous cost (Algorithm 1's cost_old) and the
    # divergence limit of the fast test.
    cost_old = np.full(num_restarts, np.inf)
    limit = np.full(num_restarts, np.nan)
    # Per iteration: the live restarts, their costs (inf where poisoned)
    # and the (5, n) f1..f4/total terms.
    records = []
    final_w = [None] * num_restarts
    # Restart indices still descending; row j of the leading block of
    # both state buffers belongs to restart active[j].
    active = np.arange(num_restarts)
    current, spare = stack, np.empty_like(stack)
    row_sums = np.empty((num_restarts, num_gates))

    for _ in range(config.max_iterations):
        n = active.size
        live = current[:n]
        gradient = spare[:n]
        terms = kernel._evaluate(live, n, config, gradient)
        cost_new = terms[4]

        healthy = np.less(np.abs(cost_new), limit)
        healthy &= cost_old != 0.0
        if np.logical_and.reduce(healthy):
            # Algorithm 1 line 14; every cost_old is finite and nonzero.
            ratio = np.divide(cost_new, cost_old)
            ratio -= 1.0
            np.abs(ratio, out=ratio)
            stop = np.less_equal(ratio, margin)
            drop = stop
            bad = None
        else:
            cost_new, bad, quarantine = _screen(
                cost_new, active, live, gradient, traces, first_cost, limit, tags, pins, obs
            )
            # Line 14 with its edge cases: cost_old is inf on each
            # restart's first pass (and after a reseed), so nothing stops
            # before one step; poisoned rows carry cost_new = inf, so
            # they never stop here; a cost that reaches exactly 0.0
            # stops on the next 0.0.
            finite = np.isfinite(cost_old) & (cost_old != 0.0)
            ratio = np.abs(
                np.where(finite, cost_new, 0.0) / np.where(finite, cost_old, 1.0) - 1.0
            )
            stop = (finite & (ratio <= margin)) | ((cost_old == 0.0) & (cost_new == 0.0))
            drop = stop | quarantine
        records.append((active, cost_new, terms))

        if obs is not None:
            obs.metrics.counter("kernel.evaluations").inc()
            obs.metrics.counter("kernel.restart_evaluations").inc(n)
            if bad is None:
                bad = np.zeros(n, dtype=bool)
                finite = ~bad
            # Read-only pass over this iteration's evaluation, taken
            # before the in-place descent step reuses the gradient
            # buffer.  A restart stopping this iteration never computes
            # a step, so its grad_norm is recorded as None.  Poisoned
            # rows are skipped — their term values are non-finite and
            # the restart restarts from scratch anyway.  A restart's
            # steps so far equal its records so far.
            grad_norms = np.sqrt(np.einsum("rgk,rgk->r", gradient, gradient))
            for j, r in enumerate(active):
                if bad[j]:
                    continue
                record = obs.telemetry.record(
                    run, int(r), len(traces[r].telemetry),
                    float(terms[0, j]), float(terms[1, j]), float(terms[2, j]),
                    float(terms[3, j]), float(cost_new[j]),
                    float(ratio[j]) if finite[j] else None,
                    None if stop[j] else float(grad_norms[j]), n,
                )
                traces[r].telemetry.append(record)

        if np.logical_or.reduce(drop):
            for j in drop.nonzero()[0]:
                r = int(active[j])
                traces[r].converged = bool(stop[j])
                final_w[r] = live[j].copy()
            keep = ~drop
            active = active[keep]
            if active.size == 0:
                break
            kept = keep.nonzero()[0]
            _compact_rows(live, kept)
            _compact_rows(gradient, kept)
            n = active.size
            live = live[:n]
            gradient = gradient[:n]
            cost_new = cost_new[keep]
            limit = limit[keep]

        # In-place descent step into the gradient buffer, which becomes
        # the next ``w``.  Bitwise identical to ``clip(live - lr *
        # gradient)``: IEEE multiply by ``-lr`` flips sign exactly and
        # ``a + (-b) == a - b``.  Rows reseeded this iteration carry a
        # zeroed gradient, so the step leaves their fresh initialization
        # untouched.
        gradient *= step
        gradient += live
        gradient.clip(0.0, 1.0, out=gradient)
        if renormalize:
            # normalize_rows inlined for its common case (every row sum
            # positive; NaN fails the test too).
            sums = row_sum(gradient, out=row_sums[:n])
            if np.minimum.reduce(sums, axis=None) > 0.0:
                np.divide(gradient, sums[..., None], out=gradient)
            else:
                normalize_rows(gradient, out=gradient, sums=sums)
        if pins is not None:
            _clamp_pinned(gradient, pins)
        cost_old = cost_new
        current, spare = spare, current

    # Restarts stopped by the iteration cap keep their last stepped w.
    # A gradient that went non-finite on the very last iteration leaves
    # w poisoned with no further cost evaluation to flag it, so
    # quarantine those rows here.
    no_terms = set()
    for j, r in enumerate(active.tolist()):
        if np.isfinite(current[j]).all():
            final_w[r] = current[j].copy()
        else:
            traces[r].quarantined = True
            final_w[r] = _clamp_pinned(np.full((num_gates, num_planes), 1.0 / num_planes), pins)
            no_terms.add(r)
            if obs is not None:
                obs.metrics.counter("solver.nonfinite_detected").inc()
                obs.metrics.counter("solver.restarts_quarantined").inc()

    # Each restart's finite records in iteration order: a stable sort by
    # owner.  Every finite evaluation was followed by a step, except the
    # one that fired the margin stop.
    owners, costs, terms = (np.concatenate(parts, axis=-1) for parts in zip(*records))
    finite = np.isfinite(costs)
    owners, costs, terms = owners[finite], costs[finite], terms[:, finite]
    order = np.argsort(owners, kind="stable")
    costs = costs[order].tolist()
    counts = np.bincount(owners, minlength=num_restarts).tolist()
    start = 0
    for r, trace in enumerate(traces):
        end = start + counts[r]
        trace.w = final_w[r]
        trace.cost_history = costs[start:end]
        trace.iterations = counts[r] - int(trace.converged)
        if counts[r] and r not in no_terms:
            # A quarantined restart that never produced a finite
            # evaluation has no terms to materialize.
            trace.final_terms = CostTerms(*terms[:, order[end - 1]].tolist())
        start = end
