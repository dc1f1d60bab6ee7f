"""Cross-job mega-batch packing: many compatible solves, one kernel.

The batched engine already amortizes kernel overhead across the
restarts of *one* :func:`~repro.core.partitioner.partition` call.  This
module extends the same trick across *jobs*: :func:`partition_packed`
takes one problem (netlist, plane count, pinned gates) and the
``(config, seed)`` runs of several queued jobs whose configs differ at
most in ``restarts`` and ``seed``; their restarts are concatenated into
one ``(ΣR, G, K)`` stack and descended together through a single
:func:`~repro.core.optimizer.minimize_assignment_batch` call — one
rank-4 gemm per iteration for the whole group instead of one solve per
job.  One problem per call means a group can never mix netlists, plane
counts or pins; :func:`comparable_config` is the one statement of which
config fields may differ.

Bitwise-identity argument (the correctness gate)
------------------------------------------------
Every piece a solo solve depends on is reproduced exactly:

* **Initialization** — each job's restart streams are spawned exactly
  as :func:`partition` spawns them (``spawn_rngs(make_rng(seed),
  restarts)``) and concatenated in job order, so restart ``i`` of job
  ``j`` starts from the very same generator state.
* **Descent arithmetic** — the fused kernel's per-batch-slice
  operations are independent of the leading batch size (see the
  equivalence contract in :mod:`repro.core.kernel`), so slice ``i`` of
  the packed stack steps through bitwise the same floats as slice ``i``
  of the job's solo stack.  Convergence masking is per-restart and the
  margin test reads only that restart's own history.
* **Reseed recovery** — poisoned-trajectory reseeds are keyed by the
  restart's *tag*, and the packer passes each job's local restart
  indices as tags, so a packed restart recovers from exactly the stream
  its solo solve would (``restart_tags`` in
  :func:`~repro.core.optimizer.minimize_assignment_batch`).
* **Finalization** — per-job rounding, integer-cost scoring and
  empty-plane repair run through the same
  :func:`~repro.core.partitioner.finalize_traces` tail as a solo call,
  on that job's own trace slice.

``tests/test_megabatch.py`` pins all of this down, including ragged
restart counts and single-job groups.
"""

from repro.core.config import PartitionConfig
from repro.core.optimizer import minimize_assignment_batch
from repro.core.partitioner import finalize_traces, resolve_pinned
from repro.obs import OBS
from repro.utils.errors import PartitionError
from repro.utils.rng import make_rng, spawn_rngs

#: Config fields that may differ between packed jobs (everything else
#: must match for the solves to share one kernel).
_PACK_FREE_FIELDS = ("restarts", "seed")


def comparable_config(config):
    """``config`` (default when ``None``) with the pack-free fields reset
    to their defaults: two solves of one problem pack together exactly
    when these are equal."""
    default = PartitionConfig()
    config = default if config is None else config
    return config.with_(**{name: getattr(default, name) for name in _PACK_FREE_FIELDS})


def partition_packed(netlist, num_planes, runs, pinned=None):
    """Solve several runs of one partition problem as one batch.

    ``runs`` lists ``(config, seed)`` pairs, one per job, with
    :func:`~repro.core.partitioner.partition` semantics (``config=None``
    is the default config, ``seed=None`` falls back to ``config.seed``);
    ``netlist``, ``num_planes`` and ``pinned`` are shared by every run.
    Returns one :class:`~repro.core.partitioner.PartitionResult` per
    run, in order, each bitwise-identical to the solo
    ``partition(netlist, num_planes, config, seed, pinned)`` call.
    Raises :class:`PartitionError` when the configs differ beyond
    ``restarts``/``seed``, the engine is not ``"batched"`` or K < 2 —
    callers group jobs with :func:`repro.harness.megabatch.job_pack_key`,
    which rules all of this out.
    """
    runs = [(config if config is not None else PartitionConfig(), seed) for config, seed in runs]
    if not runs:
        return []
    base_config = runs[0][0]
    if base_config.engine != "batched":
        raise PartitionError(
            f"mega-batch packing requires engine='batched', got {base_config.engine!r}"
        )
    if num_planes < 2:
        # K == 1 is the trivial partition; packing buys nothing and the
        # solo path special-cases it before any solve.
        raise PartitionError("mega-batch packing requires num_planes >= 2")
    base_comparable = comparable_config(base_config)
    if any(comparable_config(config) != base_comparable for config, _seed in runs[1:]):
        raise PartitionError("mega-batch group mixes solver configs (beyond restarts/seed)")

    edges = netlist.edge_array()
    bias = netlist.bias_vector_ma()
    area = netlist.area_vector_um2()
    pinned_index = resolve_pinned(netlist, num_planes, pinned)

    # Concatenate each job's restart streams exactly as its solo
    # partition() call would spawn them, tagging every restart with its
    # job-local index so reseed recovery stays per-job deterministic.
    streams = []
    tags = []
    for config, seed in runs:
        seed = config.seed if seed is None else seed
        streams.extend(spawn_rngs(make_rng(seed), config.restarts))
        tags.extend(range(config.restarts))

    with OBS.trace.span(
        "megabatch_solve",
        circuit=netlist.name,
        planes=num_planes,
        jobs=len(runs),
        restarts=len(streams),
    ):
        if OBS.enabled:
            OBS.metrics.counter("megabatch.groups").inc()
            OBS.metrics.counter("megabatch.packed_jobs").inc(len(runs))
            OBS.metrics.counter("megabatch.packed_restarts").inc(len(streams))
        traces = minimize_assignment_batch(
            num_planes,
            edges,
            bias,
            area,
            base_config,
            rngs=streams,
            pinned=pinned_index,
            restart_tags=tags,
        )

    # Unpack: each job finalizes its own trace slice through the same
    # scoring/repair tail as a solo partition() call.
    results = []
    offset = 0
    for config, _seed in runs:
        job_traces = traces[offset:offset + config.restarts]
        offset += config.restarts
        results.append(
            finalize_traces(
                netlist, num_planes, config, job_traces, dict(pinned_index), edges, bias, area
            )
        )
    return results
