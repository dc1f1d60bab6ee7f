"""Tests for cross-job mega-batch packing.

The one property that makes packing legal is bitwise invisibility:
every payload a packed execution produces must equal the solo payload
for the same job.  These tests pin that from the core packer
(:mod:`repro.core.megabatch`) through the runner hook
(``run_jobs(megabatch=True)``) to the service drain loop
(:class:`~repro.service.jobs.JobManager`), including ragged restart
counts, single-job groups and pinned constraints.
"""

import numpy as np
import pytest

from repro.core.config import PartitionConfig
from repro.core.megabatch import SolveSpec, partition_packed, partition_solo
from repro.core.partitioner import partition
from repro.harness.megabatch import (
    DEFAULT_MEGABATCH_LIMIT,
    find_groups,
    job_pack_key,
    megabatch_enabled,
    resolve_megabatch_limit,
)
from repro.harness.runner import SuiteJob, run_jobs
from repro.utils.errors import PartitionError

FAST = PartitionConfig(restarts=2, max_iterations=200, seed=0)


def _assert_results_bitwise_equal(packed, solo):
    assert np.array_equal(packed.labels, solo.labels)
    assert packed.restart_costs == solo.restart_costs
    assert packed.repaired_gates == solo.repaired_gates
    assert np.array_equal(packed.trace.w, solo.trace.w)
    assert packed.restart_stats == solo.restart_stats


# ----------------------------------------------------------------------
# Core packer: partition_packed vs partition
# ----------------------------------------------------------------------
def test_packed_matches_solo_same_config(mixed_netlist):
    specs = [
        SolveSpec(netlist=mixed_netlist, num_planes=3, config=FAST, seed=seed)
        for seed in (0, 7, 42)
    ]
    packed = partition_packed(specs)
    for spec, result in zip(specs, packed):
        _assert_results_bitwise_equal(result, partition_solo(spec))


def test_packed_matches_solo_ragged_restarts(mixed_netlist):
    """Jobs may differ in restart count; each still matches its solo run."""
    specs = [
        SolveSpec(netlist=mixed_netlist, num_planes=3, config=FAST, seed=1),
        SolveSpec(
            netlist=mixed_netlist, num_planes=3,
            config=FAST.with_(restarts=5), seed=2,
        ),
        SolveSpec(
            netlist=mixed_netlist, num_planes=3,
            config=FAST.with_(restarts=1), seed=3,
        ),
    ]
    packed = partition_packed(specs)
    for spec, result in zip(specs, packed):
        _assert_results_bitwise_equal(result, partition_solo(spec))


def test_packed_single_spec_group(mixed_netlist):
    spec = SolveSpec(netlist=mixed_netlist, num_planes=2, config=FAST, seed=9)
    (result,) = partition_packed([spec])
    _assert_results_bitwise_equal(result, partition_solo(spec))


def test_packed_empty_group():
    assert partition_packed([]) == []


def test_packed_respects_pinned(mixed_netlist):
    pinned = {"a0": 1, "b0": 0}
    specs = [
        SolveSpec(
            netlist=mixed_netlist, num_planes=3, config=FAST,
            seed=seed, pinned=pinned,
        )
        for seed in (4, 5)
    ]
    packed = partition_packed(specs)
    for spec, result in zip(specs, packed):
        _assert_results_bitwise_equal(result, partition_solo(spec))
        assert result.labels[mixed_netlist.gate("a0").index] == 1
        assert result.labels[mixed_netlist.gate("b0").index] == 0


def test_packed_seed_falls_back_to_config(mixed_netlist):
    spec = SolveSpec(
        netlist=mixed_netlist, num_planes=2, config=FAST.with_(seed=17)
    )
    (result,) = partition_packed([spec])
    _assert_results_bitwise_equal(
        result, partition(mixed_netlist, 2, config=FAST.with_(seed=17))
    )


def test_packed_rejects_incompatible_groups(mixed_netlist, chain_netlist):
    base = SolveSpec(netlist=mixed_netlist, num_planes=3, config=FAST, seed=0)
    with pytest.raises(PartitionError, match="plane counts"):
        partition_packed(
            [base, SolveSpec(netlist=mixed_netlist, num_planes=2, config=FAST)]
        )
    with pytest.raises(PartitionError, match="solver configs"):
        partition_packed(
            [base, SolveSpec(
                netlist=mixed_netlist, num_planes=3,
                config=FAST.with_(max_iterations=50),
            )]
        )
    with pytest.raises(PartitionError, match="pinned"):
        partition_packed(
            [base, SolveSpec(
                netlist=mixed_netlist, num_planes=3, config=FAST,
                pinned={"a0": 0},
            )]
        )
    with pytest.raises(PartitionError, match="problem arrays"):
        partition_packed(
            [base, SolveSpec(netlist=chain_netlist, num_planes=3, config=FAST)]
        )


def test_packed_rejects_wrong_engine_and_k(mixed_netlist):
    with pytest.raises(PartitionError, match="engine"):
        partition_packed(
            [SolveSpec(
                netlist=mixed_netlist, num_planes=3,
                config=FAST.with_(engine="multilevel"),
            )]
        )
    with pytest.raises(PartitionError, match="num_planes"):
        partition_packed(
            [SolveSpec(netlist=mixed_netlist, num_planes=1, config=FAST)]
        )


# ----------------------------------------------------------------------
# Grouping: job_pack_key / find_groups
# ----------------------------------------------------------------------
def _job(circuit="KSA4", planes=3, seed=0, **kwargs):
    kwargs.setdefault("config", FAST)
    return SuiteJob(
        kind="partition", circuit=circuit, num_planes=planes, seed=seed, **kwargs
    )


def test_job_pack_key_groups_compatible_jobs():
    a = job_pack_key(_job(seed=0))
    b = job_pack_key(_job(seed=99, config=FAST.with_(restarts=7)))
    assert a is not None and a == b


def test_job_pack_key_rejects_unpackable_jobs():
    assert job_pack_key(SuiteJob(kind="plan", circuit="KSA4")) is None
    assert job_pack_key(_job(method="spectral")) is None
    assert job_pack_key(_job(planes=1)) is None
    assert job_pack_key(_job(config=FAST.with_(engine="multilevel"))) is None


def test_job_pack_key_separates_distinct_problems():
    base = job_pack_key(_job())
    assert job_pack_key(_job(circuit="KSA8")) != base
    assert job_pack_key(_job(planes=4)) != base
    assert job_pack_key(_job(refine=True)) != base
    assert job_pack_key(_job(pinned={"x0_0": 0})) != base
    assert job_pack_key(_job(config=FAST.with_(max_iterations=77))) != base


def test_find_groups_chunks_and_drops_singletons():
    jobs = [_job(seed=i) for i in range(5)]            # one key, 5 jobs
    jobs.append(_job(circuit="KSA8", seed=0))          # singleton key
    jobs.append(SuiteJob(kind="plan", circuit="KSA4"))  # unpackable
    groups = find_groups(jobs, list(range(len(jobs))), limit=3)
    assert groups == [[0, 1, 2], [3, 4]]
    # A chunk remainder of one job is not worth a packed solve.
    groups = find_groups(jobs, [0, 1, 2, 3], limit=3)
    assert groups == [[0, 1, 2]]


def test_megabatch_env_resolution():
    assert megabatch_enabled(True, {}) is True
    assert megabatch_enabled(None, {}) is False
    assert megabatch_enabled(None, {"REPRO_MEGABATCH": "1"}) is True
    assert megabatch_enabled(False, {"REPRO_MEGABATCH": "1"}) is False
    assert resolve_megabatch_limit(None, {}) == DEFAULT_MEGABATCH_LIMIT
    assert resolve_megabatch_limit(4, {}) == 4
    assert resolve_megabatch_limit(None, {"REPRO_MEGABATCH_LIMIT": "3"}) == 3


# ----------------------------------------------------------------------
# Runner hook: run_jobs(megabatch=True) payload identity
# ----------------------------------------------------------------------
def test_run_jobs_megabatch_payloads_identical():
    from repro.harness.checkpoint import payload_to_jsonable

    jobs = [_job(seed=seed) for seed in range(3)]
    jobs.append(_job(planes=2, seed=0))  # singleton: solo path inside
    jobs.append(_job(seed=1, refine=True))
    solo = run_jobs(jobs, jobs=1, megabatch=False)
    packed = run_jobs(jobs, jobs=1, megabatch=True)
    assert [payload_to_jsonable(p) for p in solo] == [
        payload_to_jsonable(p) for p in packed
    ]


def test_run_jobs_megabatch_disabled_by_default(monkeypatch):
    """Without the flag or argument, run_jobs never imports the packer."""
    import repro.harness.megabatch as megabatch_mod

    monkeypatch.delenv("REPRO_MEGABATCH", raising=False)
    monkeypatch.setattr(
        megabatch_mod, "find_groups",
        lambda *a, **k: pytest.fail("packing ran while disabled"),
    )
    payloads = run_jobs([_job(seed=0), _job(seed=1)], jobs=1)
    assert len(payloads) == 2


# ----------------------------------------------------------------------
# Service drain loop
# ----------------------------------------------------------------------
def test_job_manager_megabatch_drains_compatible_queue():
    from repro.obs import MetricsRegistry
    from repro.service.api import request_key, validate_request
    from repro.service.jobs import JobManager

    def submit_all(megabatch):
        metrics = MetricsRegistry()
        mgr = JobManager(
            workers=1, queue_size=16, retries=0, backoff=0.0,
            metrics=metrics, megabatch=megabatch,
        )
        jobs = []
        for seed in range(4):
            normalized = validate_request(
                {"circuit": "KSA4", "num_planes": 3, "seed": seed}
            )
            job, _ = mgr.submit(request_key(normalized), normalized)
            jobs.append(job)
        # Mixed-in incompatible job must survive the drain untouched.
        normalized = validate_request(
            {"circuit": "KSA4", "num_planes": 2, "seed": 0}
        )
        job, _ = mgr.submit(request_key(normalized), normalized)
        jobs.append(job)
        mgr.start()
        try:
            for job in jobs:
                assert job.done_event.wait(120)
                assert job.state == "done"
        finally:
            mgr.stop()
        return [job.payload for job in jobs], metrics

    solo_payloads, _ = submit_all(False)
    packed_payloads, metrics = submit_all(True)
    assert solo_payloads == packed_payloads
    snapshot = metrics.as_dict()
    assert snapshot["service.megabatch.groups"]["value"] >= 1
    assert snapshot["service.megabatch.packed_jobs"]["value"] >= 2


def test_job_manager_megabatch_forced_off_for_process_isolation():
    from repro.service.jobs import JobManager

    mgr = JobManager(workers=1, isolation="process", megabatch=True)
    assert mgr.megabatch is False


def test_job_manager_running_count_idle():
    from repro.service.jobs import JobManager

    mgr = JobManager(workers=1)
    assert mgr.running_count() == 0


def test_service_metrics_exposes_gauges():
    from repro.service.server import PartitionService
    from repro.service.store import ResultStore

    service = PartitionService(
        workers=1, store=ResultStore(enabled=False), megabatch=True
    )
    try:
        status, payload = service.metrics_payload()
        assert status == 200
        metrics = payload["metrics"]
        assert metrics["service.queue.depth"]["kind"] == "gauge"
        assert metrics["service.queue.depth"]["value"] == 0
        assert metrics["service.jobs.inflight"]["kind"] == "gauge"
        assert metrics["service.jobs.inflight"]["value"] == 0
    finally:
        service.stop()
