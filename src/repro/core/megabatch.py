"""Cross-job mega-batch packing: many compatible solves, one kernel.

The batched engine already amortizes kernel overhead across the
restarts of *one* :func:`~repro.core.partitioner.partition` call.  This
module extends the same trick across *jobs*: when several queued
partition requests share the identical problem (same netlist arrays,
plane count, pinned constraints and solver config up to ``restarts``
and ``seed``), their restarts are concatenated into one ``(ΣR, G, K)``
stack and descended together through a single
:func:`~repro.core.optimizer.minimize_assignment_batch` call — one
rank-4 gemm per iteration for the whole group instead of one solve per
job.

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

from dataclasses import dataclass

import numpy as np

from repro.core.config import PartitionConfig
from repro.core.optimizer import minimize_assignment_batch
from repro.core.partitioner import finalize_traces, partition
from repro.obs import OBS
from repro.utils.errors import PartitionError
from repro.utils.rng import make_rng, spawn_rngs

#: Config fields that may differ between packed jobs (everything else
#: must match for the solves to share one kernel).
_PACK_FREE_FIELDS = ("restarts", "seed")


@dataclass(frozen=True)
class SolveSpec:
    """One job's partition request, as the packer sees it.

    ``netlist`` must be the *same problem* for every spec in a group
    (the packer verifies the arrays); ``config``/``seed``/``pinned``
    follow :func:`~repro.core.partitioner.partition` semantics —
    ``seed=None`` falls back to ``config.seed``, pinned keys may be
    gate names, indices or Gate objects.
    """

    netlist: object
    num_planes: int
    config: PartitionConfig = None
    seed: object = None
    pinned: dict = None

    def resolved_config(self):
        return self.config if self.config is not None else PartitionConfig()


def _comparable_config(config):
    """The config with pack-free fields neutralized, for equality checks."""
    return config.with_(**{name: getattr(PartitionConfig(), name) for name in _PACK_FREE_FIELDS})


def _resolve_pinned(netlist, num_planes, pinned):
    """Gate-ref pinned mapping -> index mapping (partition's semantics)."""
    pinned_index = {}
    for gate_ref, plane in (pinned or {}).items():
        plane = int(plane)
        if not 0 <= plane < num_planes:
            raise PartitionError(f"pinned plane {plane} out of range for K={num_planes}")
        pinned_index[netlist.gate(gate_ref).index] = plane
    return pinned_index


def partition_packed(specs):
    """Solve a compatible group of :class:`SolveSpec` jobs as one batch.

    Returns one :class:`~repro.core.partitioner.PartitionResult` per
    spec, in order, each bitwise-identical to what a solo
    :func:`~repro.core.partitioner.partition` call on that spec would
    produce.  Raises :class:`PartitionError` when the specs are not
    actually compatible (different problem arrays, plane counts, pinned
    sets, or configs differing beyond ``restarts``/``seed``) or when a
    spec's engine is not ``"batched"`` — callers group jobs with
    :func:`repro.harness.megabatch.job_pack_key`, which guarantees all
    of this.
    """
    specs = list(specs)
    if not specs:
        return []

    first = specs[0]
    netlist = first.netlist
    num_planes = int(first.num_planes)
    base_config = first.resolved_config()
    if base_config.engine != "batched":
        raise PartitionError(
            f"mega-batch packing requires engine='batched', got {base_config.engine!r}"
        )
    if num_planes < 2:
        # K == 1 is the trivial partition; packing buys nothing and the
        # solo path special-cases it before any solve.
        raise PartitionError("mega-batch packing requires num_planes >= 2")

    edges = netlist.edge_array()
    bias = netlist.bias_vector_ma()
    area = netlist.area_vector_um2()
    pinned_index = _resolve_pinned(netlist, num_planes, first.pinned)
    base_comparable = _comparable_config(base_config)

    # Verify group compatibility: cheap array comparisons, loud failure.
    for spec in specs[1:]:
        if int(spec.num_planes) != num_planes:
            raise PartitionError("mega-batch group mixes plane counts")
        if _comparable_config(spec.resolved_config()) != base_comparable:
            raise PartitionError(
                "mega-batch group mixes solver configs (beyond restarts/seed)"
            )
        if _resolve_pinned(spec.netlist, num_planes, spec.pinned) != pinned_index:
            raise PartitionError("mega-batch group mixes pinned constraints")
        if spec.netlist is not netlist and not (
            np.array_equal(spec.netlist.edge_array(), edges)
            and np.array_equal(spec.netlist.bias_vector_ma(), bias)
            and np.array_equal(spec.netlist.area_vector_um2(), area)
        ):
            raise PartitionError("mega-batch group mixes problem arrays")

    # Concatenate each job's restart streams exactly as its solo
    # partition() call would spawn them, tagging every restart with its
    # job-local index so reseed recovery stays per-job deterministic.
    streams = []
    tags = []
    counts = []
    for spec in specs:
        config = spec.resolved_config()
        seed = config.seed if spec.seed is None else spec.seed
        streams.extend(spawn_rngs(make_rng(seed), config.restarts))
        tags.extend(range(config.restarts))
        counts.append(config.restarts)

    with OBS.trace.span(
        "megabatch_solve",
        circuit=netlist.name,
        planes=num_planes,
        jobs=len(specs),
        restarts=len(streams),
    ):
        if OBS.enabled:
            OBS.metrics.counter("megabatch.groups").inc()
            OBS.metrics.counter("megabatch.packed_jobs").inc(len(specs))
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
    for spec, count in zip(specs, counts):
        job_traces = traces[offset:offset + count]
        offset += count
        results.append(
            finalize_traces(
                spec.netlist,
                num_planes,
                spec.resolved_config(),
                job_traces,
                dict(pinned_index),
                edges,
                bias,
                area,
            )
        )
    return results


def partition_solo(spec):
    """The unpacked reference path for one spec (used by benchmarks)."""
    return partition(
        spec.netlist,
        spec.num_planes,
        config=spec.config,
        seed=spec.seed,
        pinned=spec.pinned,
    )
