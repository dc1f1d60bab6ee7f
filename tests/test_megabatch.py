"""Tests for cross-job mega-batch packing.

The one property that makes packing legal is bitwise invisibility:
every payload a packed execution produces must equal the solo payload
for the same job.  These tests pin that from the core packer
(:mod:`repro.core.megabatch`) through the lease queue's grant-time
grouping and the runner's inline drain (``run_jobs(..., jobs=1)``) to
the service drain loop
(:class:`~repro.service.jobs.JobManager`), including ragged restart
counts, single-job groups and pinned constraints.
"""

import numpy as np
import pytest

from repro.core.config import PartitionConfig
from repro.core.megabatch import partition_packed
from repro.core.partitioner import partition
import repro.harness.megabatch as megabatch_mod
from repro.harness.checkpoint import payload_to_jsonable
from repro.harness.faults import FaultPlan
from repro.harness.leases import LeaseQueue, LeaseTask
from repro.harness.megabatch import job_pack_key
from repro.harness.runner import SuiteJob, execute_job, last_report, run_jobs
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
def _assert_packed_matches_partition(netlist, num_planes, runs, pinned=None):
    packed = partition_packed(netlist, num_planes, runs, pinned=pinned)
    assert len(packed) == len(runs)
    for (config, seed), result in zip(runs, packed):
        solo = partition(netlist, num_planes, config=config, seed=seed, pinned=pinned)
        _assert_results_bitwise_equal(result, solo)
    return packed


def test_packed_matches_solo_same_config(mixed_netlist):
    _assert_packed_matches_partition(
        mixed_netlist, 3, [(FAST, seed) for seed in (0, 7, 42)]
    )


def test_packed_matches_solo_ragged_restarts(mixed_netlist):
    """Jobs may differ in restart count; each still matches its solo run."""
    _assert_packed_matches_partition(
        mixed_netlist, 3,
        [(FAST, 1), (FAST.with_(restarts=5), 2), (FAST.with_(restarts=1), 3)],
    )


def test_packed_single_spec_group(mixed_netlist):
    _assert_packed_matches_partition(mixed_netlist, 2, [(FAST, 9)])


def test_packed_empty_group(mixed_netlist):
    assert partition_packed(mixed_netlist, 3, []) == []


def test_packed_respects_pinned(mixed_netlist):
    pinned = {"a0": 1, "b0": 0}
    packed = _assert_packed_matches_partition(
        mixed_netlist, 3, [(FAST, 4), (FAST, 5)], pinned=pinned
    )
    for result in packed:
        assert result.labels[mixed_netlist.gate("a0").index] == 1
        assert result.labels[mixed_netlist.gate("b0").index] == 0


def test_packed_seed_falls_back_to_config(mixed_netlist):
    """``seed=None`` falls back to ``config.seed``; ``config=None`` is
    the default config."""
    _assert_packed_matches_partition(mixed_netlist, 2, [(FAST.with_(seed=17), None)])
    _assert_packed_matches_partition(mixed_netlist, 2, [(None, 3)])


def test_packed_rejects_incompatible_groups(mixed_netlist):
    with pytest.raises(PartitionError, match="solver configs"):
        partition_packed(
            mixed_netlist, 3, [(FAST, 0), (FAST.with_(max_iterations=50), 1)]
        )
    with pytest.raises(PartitionError, match="out of range"):
        partition_packed(mixed_netlist, 3, [(FAST, 0)], pinned={"a0": 3})


def test_packed_rejects_wrong_engine_and_k(mixed_netlist):
    with pytest.raises(PartitionError, match="engine"):
        partition_packed(mixed_netlist, 3, [(FAST.with_(engine="multilevel"), 0)])
    with pytest.raises(PartitionError, match="num_planes"):
        partition_packed(mixed_netlist, 1, [(FAST, 0)])


# ----------------------------------------------------------------------
# Grouping: job_pack_key / LeaseQueue grants
# ----------------------------------------------------------------------
def _job(circuit="KSA4", planes=3, seed=0, **kwargs):
    kwargs.setdefault("config", FAST)
    return SuiteJob(
        kind="partition", circuit=circuit, num_planes=planes, seed=seed, **kwargs
    )


def _inline_netlist(circuit):
    from repro.circuits.suite import build_circuit
    from repro.netlist.serialize import netlist_to_dict

    return netlist_to_dict(build_circuit(circuit))


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
    assert job_pack_key(_job(config=FAST.with_(c1=81.0))) != base
    # Inline netlists separate by content, not by name.
    inline = _inline_netlist("KSA4")
    edited = dict(inline, edges=inline["edges"][1:])
    assert job_pack_key(_job(netlist_json=inline)) != job_pack_key(
        _job(netlist_json=edited)
    )
    assert job_pack_key(_job(netlist_json=inline)) == job_pack_key(
        _job(netlist_json=_inline_netlist("KSA4"), seed=5)
    )
    # No config is the default config.
    assert job_pack_key(_job(config=None)) == job_pack_key(
        _job(config=PartitionConfig(), seed=3)
    )


def _grants(jobs, pending=None, gated=(), now=1.0):
    """Job indices of successive grants of a packing queue."""
    queue = LeaseQueue(retries=0, backoff=0.0, pack=True)
    for index in range(len(jobs)) if pending is None else pending:
        task = queue.submit(LeaseTask(jobs[index], index))
        if index in gated:
            task.not_before = now + 60.0
    grants = []
    while True:
        granted = queue.grant(now)
        if not granted:
            return grants
        grants.append([task.index for task in granted])


def test_lease_queue_grant_chunks_and_drops_singletons(monkeypatch):
    monkeypatch.setattr(megabatch_mod, "MAX_GROUP_SIZE", 3)
    jobs = [_job(seed=i) for i in range(5)]            # one key, 5 jobs
    jobs.append(_job(circuit="KSA8", seed=0))          # singleton key
    jobs.append(SuiteJob(kind="plan", circuit="KSA4"))  # unpackable
    assert _grants(jobs) == [[0, 1, 2], [3, 4], [5], [6]]
    # A chunk remainder of one job is granted alone.
    assert _grants(jobs, pending=[0, 1, 2, 3]) == [[0, 1, 2], [3]]


def test_lease_queue_grants_an_incompatible_head_alone():
    jobs = [SuiteJob(kind="plan", circuit="KSA4"), _job(seed=0),
            _job(circuit="KSA8"), _job(seed=1)]
    assert _grants(jobs) == [[0], [1, 3], [2]]


def test_lease_queue_does_not_pack_backoff_gated_tasks():
    jobs = [_job(seed=i) for i in range(4)]
    assert _grants(jobs, gated={0, 2}) == [[1, 3]]


def test_lease_queue_grants_keep_submission_order():
    jobs = [_job(seed=i) for i in range(4)] + [_job(planes=2, seed=i) for i in range(2)]
    assert _grants(jobs, pending=[4, 2, 0, 5, 3]) == [[4, 5], [2, 0, 3]]


def test_megabatch_env_resolution(monkeypatch):
    """Draining is not a knob: REPRO_MEGABATCH no longer exists, and an
    inline manager without deep tracing always drains."""
    from repro import envcfg
    from repro.service.jobs import JobManager

    assert "REPRO_MEGABATCH" not in {var.name for var in envcfg.ENV_VARS}
    monkeypatch.setenv("REPRO_MEGABATCH", "0")
    assert JobManager().megabatch is True
    assert JobManager(tracing=True).megabatch is False


# ----------------------------------------------------------------------
# Runner: the inline loop packs by job_pack_key
# ----------------------------------------------------------------------
def _jsonable(payloads):
    return [payload_to_jsonable(payload) for payload in payloads]


@pytest.fixture()
def packed_groups(monkeypatch):
    """Sizes of the groups the runner hands to ``execute_group``."""
    sizes = []
    execute_group = megabatch_mod.execute_group

    def spy(jobs):
        sizes.append(len(jobs))
        return execute_group(jobs)

    monkeypatch.setattr(megabatch_mod, "execute_group", spy)
    return sizes


def test_run_jobs_megabatch_payloads_identical(packed_groups):
    jobs = [_job(seed=seed) for seed in range(3)]
    jobs.append(_job(planes=2, seed=0))  # singleton: solo path inside
    jobs.append(_job(seed=1, refine=True))
    inline = _inline_netlist("KSA4")
    jobs += [_job(seed=seed, netlist_json=inline) for seed in (4, 5)]
    packed = run_jobs(jobs, jobs=1)
    assert packed_groups == [3, 2]
    assert _jsonable(packed) == _jsonable(execute_job(job) for job in jobs)


def test_run_jobs_does_not_pack_under_a_fault_plan(packed_groups):
    jobs = [_job(seed=0), _job(seed=1)]
    payloads = run_jobs(jobs, jobs=1, fault_plan=FaultPlan.parse("crash@7"))
    assert packed_groups == []
    assert _jsonable(payloads) == _jsonable(execute_job(job) for job in jobs)


def test_run_jobs_pool_path_does_not_pack(monkeypatch):
    monkeypatch.setattr(
        megabatch_mod, "execute_group",
        lambda *a, **k: pytest.fail("the pool path packed"),
    )
    jobs = [_job(seed=0), _job(seed=1)]
    payloads = run_jobs(jobs, jobs=2)
    assert _jsonable(payloads) == _jsonable(execute_job(job) for job in jobs)


def test_lone_pending_job_computes_no_pack_key(monkeypatch):
    monkeypatch.setattr(
        megabatch_mod, "job_pack_key",
        lambda *a, **k: pytest.fail("a lone job computed a pack key"),
    )
    job = _job(seed=0)
    payloads = run_jobs([job], jobs=1)
    assert _jsonable(payloads) == _jsonable([execute_job(job)])


def test_failed_group_falls_back_to_uncharged_per_job_attempts(monkeypatch):
    groups = []

    def broken(jobs):
        groups.append(len(jobs))
        raise RuntimeError("packed solve failed")

    monkeypatch.setattr(megabatch_mod, "execute_group", broken)
    jobs = [_job(seed=0), _job(seed=1)]
    payloads = run_jobs(jobs, jobs=1, retries=0)
    report = last_report()
    assert groups == [2]
    assert report.failures == [] and report.executed == 2
    assert _jsonable(payloads) == _jsonable(execute_job(job) for job in jobs)


# ----------------------------------------------------------------------
# Service drain loop
# ----------------------------------------------------------------------
def test_job_manager_megabatch_drains_compatible_queue(tmp_path):
    from repro.obs import MetricsRegistry
    from repro.obs.events import EventLog
    from repro.service.api import request_key, request_to_job, validate_request
    from repro.service.jobs import JobManager
    from repro.service.store import ResultStore

    requests = [
        validate_request({"circuit": "KSA4", "num_planes": 3, "seed": seed})
        for seed in range(4)
    ]
    # Mixed-in incompatible job must survive the drain untouched.
    requests.append(validate_request({"circuit": "KSA4", "num_planes": 2, "seed": 0}))
    metrics = MetricsRegistry()
    events = EventLog()
    mgr = JobManager(
        workers=1, queue_size=16, retries=0, backoff=0.0,
        metrics=metrics, events=events,
        store=ResultStore(root=str(tmp_path), enabled=True),
    )
    jobs = [mgr.submit(request_key(normalized), normalized)[0]
            for normalized in requests]
    mgr.start()
    try:
        for job in jobs:
            assert job.done_event.wait(120)
            assert job.state == "done"
    finally:
        mgr.stop()
    packed_sequences = [
        [event["event"] for event in events.for_job(job.id)] for job in jobs
    ]
    snapshot = metrics.as_dict()

    solo_payloads = [
        payload_to_jsonable(execute_job(request_to_job(normalized)))
        for normalized in requests
    ]
    assert [job.payload for job in jobs] == solo_payloads
    assert snapshot["service.megabatch.groups"]["value"] == 1
    assert snapshot["service.megabatch.packed_jobs"]["value"] == 4
    # A packed job lives through the same lifecycle as a solo job.
    solo_sequence = ["queued", "leased", "solving", "solved", "stored", "done"]
    assert packed_sequences == [solo_sequence] * len(jobs)
    for phase in ("queue_wait", "solve", "finalize", "store"):
        assert snapshot[f"service.job.{phase}_seconds"]["count"] == 5


def _requests(count):
    from repro.service.api import request_key, validate_request

    normalized = [
        validate_request({"circuit": "KSA4", "num_planes": 3, "seed": seed})
        for seed in range(count)
    ]
    return [(request_key(request), request) for request in normalized]


def test_failed_drained_group_settles_each_job_once(monkeypatch, tmp_path):
    """A drained group whose packed solve raises, with job 1 always
    failing: job 1 gets exactly retries + 1 attempts, its mates one
    attempt each, and every job logs each lifecycle event once."""
    import repro.harness.runner as runner_mod
    from repro.obs.events import EventLog
    from repro.service.api import request_to_job
    from repro.service.jobs import JobManager
    from repro.service.store import ResultStore

    requests = _requests(3)
    solo = [payload_to_jsonable(execute_job(request_to_job(request)))
            for _key, request in requests]
    calls = []

    def flaky(job):
        calls.append(job.seed)
        if job.seed == 1:
            raise RuntimeError(f"seed {job.seed} always fails")
        return execute_job(job)

    def broken(jobs):
        raise RuntimeError("packed solve failed")

    monkeypatch.setattr(runner_mod, "execute_job", flaky)
    monkeypatch.setattr(megabatch_mod, "execute_group", broken)
    events = EventLog()
    mgr = JobManager(workers=1, queue_size=8, retries=1, backoff=0.0,
                     events=events,
                     store=ResultStore(root=str(tmp_path), enabled=True))
    jobs = [mgr.submit(key, request)[0] for key, request in requests]
    mgr.start()
    try:
        assert mgr.drain(timeout=120)
    finally:
        mgr.stop()
    assert sorted(calls) == [0, 1, 1, 2]
    assert [job.state for job in jobs] == ["done", "failed", "done"]
    assert jobs[1].error == "crashed, crashed [seed 1 always fails]"
    assert [jobs[0].payload, jobs[2].payload] == [solo[0], solo[2]]
    sequences = [[event["event"] for event in events.for_job(job.id)]
                 for job in jobs]
    done = ["queued", "leased", "solving", "solved", "stored", "done"]
    assert sequences == [done, ["queued", "leased", "solving", "failed"], done]


def test_lone_queued_job_computes_no_pack_key(monkeypatch):
    from repro.service.jobs import JobManager

    def refuse(job):
        raise AssertionError("a lone queued job computed a pack key")

    monkeypatch.setattr(megabatch_mod, "job_pack_key", refuse)
    mgr = JobManager(workers=1, retries=0)
    (key, request), = _requests(1)
    job, _ = mgr.submit(key, request)
    mgr.start()
    try:
        assert job.done_event.wait(60)
    finally:
        mgr.stop()
    assert job.state == "done"


def test_store_hit_builds_no_suite_job(monkeypatch, tmp_path):
    import repro.service.jobs as jobs_mod
    from repro.service.api import request_to_job
    from repro.service.store import ResultStore

    (key, request), = _requests(1)
    store = ResultStore(root=str(tmp_path), enabled=True)
    store.put(key, execute_job(request_to_job(request)), meta={"request": request})

    def refuse(normalized):
        raise AssertionError("a store hit built a SuiteJob")

    monkeypatch.setattr(jobs_mod, "request_to_job", refuse)
    job, outcome = jobs_mod.JobManager(store=store).submit(key, request)
    assert outcome == "cached" and job.state == "done"


def test_cancel_behind_a_packable_head_cancels_only_that_job():
    from repro.obs import MetricsRegistry
    from repro.obs.events import EventLog
    from repro.service.jobs import JobManager

    metrics = MetricsRegistry()
    events = EventLog()
    mgr = JobManager(workers=1, retries=0, metrics=metrics, events=events)
    jobs = [mgr.submit(key, request)[0] for key, request in _requests(3)]
    assert mgr.cancel(jobs[1].id) is jobs[1]
    assert mgr.queue_depth() == 2
    mgr.start()
    try:
        assert mgr.drain(timeout=120)
    finally:
        mgr.stop()
    assert [job.state for job in jobs] == ["done", "cancelled", "done"]
    assert [event["event"] for event in events.for_job(jobs[1].id)] == [
        "queued", "cancelled"]
    assert metrics.as_dict()["service.megabatch.packed_jobs"]["value"] == 2


def test_job_manager_megabatch_forced_off_for_process_isolation():
    from repro.service.jobs import JobManager

    mgr = JobManager(workers=1, isolation="process")
    assert mgr.megabatch is False


def test_job_manager_running_count_idle():
    from repro.service.jobs import JobManager

    mgr = JobManager(workers=1)
    assert mgr.running_count() == 0


def test_service_metrics_exposes_gauges():
    from repro.service.server import PartitionService
    from repro.service.store import ResultStore

    service = PartitionService(workers=1, store=ResultStore(enabled=False))
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
