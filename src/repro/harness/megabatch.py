"""Mega-batch grouping and execution for the suite runner.

This is the harness-side half of cross-job kernel packing
(:mod:`repro.core.megabatch` is the solver-side half): it decides which
:class:`~repro.harness.runner.SuiteJob` items may share one packed
solve (:func:`job_pack_key`; the lease queue,
:mod:`repro.harness.leases`, groups by it at grant time, at most
:data:`MAX_GROUP_SIZE` jobs a group) and executes a group through the
packer with payloads shaped exactly like
:func:`~repro.harness.runner.execute_job` (:func:`execute_group`).

Packing is strictly an execution strategy: per-job payloads are
bitwise-identical to solo solves, so checkpoints, caches and the
service result store never see the difference.  The runner's inline
drain packs whenever it holds two or more compatible pending jobs and
no fault plan is active; the pool path never packs.  Only
``kind="partition"`` jobs of the gradient method and the batched
engine are grouped, and only with jobs whose checkpoint key differs
from theirs at most in ``restarts``/``seed`` — the same circuit or
inline netlist, planes, refine flag, pins and the rest of the config.
Everything else (plan jobs, the multilevel engine, mixed configs)
falls through to the normal per-job path untouched.
"""

import dataclasses

from repro.core.megabatch import comparable_config, partition_packed
from repro.harness.checkpoint import job_key

#: Maximum number of jobs packed into one group.
MAX_GROUP_SIZE = 16


def job_pack_key(job):
    """Hashable grouping key for ``job``, or ``None`` when unpackable.

    The key is the job's checkpoint :func:`~repro.harness.checkpoint.job_key`
    with ``seed`` cleared and the config passed through
    :func:`~repro.core.megabatch.comparable_config`, so two jobs share
    it exactly when everything that decides their answers but
    ``restarts``/``seed`` is equal — the same problem for
    :func:`repro.core.megabatch.partition_packed`.
    """
    if job.kind != "partition" or job.method != "gradient":
        return None
    if job.num_planes is None or int(job.num_planes) < 2:
        return None
    config = comparable_config(job.config)
    if config.engine != "batched":
        return None
    return job_key(dataclasses.replace(job, seed=None, config=config))


def execute_group(jobs):
    """Execute a packable group; one payload per job, in order.

    Payloads are structurally and bitwise identical to what
    :func:`repro.harness.runner.execute_job` returns for each job solo:
    the netlist is loaded once by the same loader, the solves run
    packed, and per-job refinement and the payload builder run on each
    job's own result.
    """
    from repro.core.refinement import refine_greedy
    from repro.harness.runner import load_job_netlist, partition_payload  # runner imports us

    first = jobs[0]
    results = partition_packed(
        load_job_netlist(first),
        first.num_planes,
        [(job.config, job.seed) for job in jobs],
        pinned=first.pinned,
    )
    return [
        partition_payload(job, refine_greedy(result) if job.refine else result)
        for job, result in zip(jobs, results)
    ]
