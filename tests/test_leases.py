"""Tests of the lease queue state machine and the runner's pool slots.

The queue (:mod:`repro.harness.leases`) is driven directly for its
attempt accounting; the slots are driven through ``run_jobs`` with
fault plans, checking that a dead or hung slot charges only its own job
and that no process or thread outlives a run.
"""

import json
import multiprocessing
import threading
import time

import pytest

from repro.core.config import PartitionConfig
from repro.harness.checkpoint import SuiteCheckpoint, job_key, payload_to_jsonable
from repro.harness.faults import FaultPlan
from repro.harness.leases import LeaseQueue, LeaseTask
from repro.harness.runner import JobError, SuiteJob, execute_job, last_report, run_jobs

FAST = PartitionConfig(restarts=2, max_iterations=200)


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    from repro.cache import reset_default_cache
    from repro.circuits import suite

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-root"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_FAULT", raising=False)
    monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", "30")
    reset_default_cache()
    suite._NETLIST_CACHE.clear()
    yield
    reset_default_cache()
    suite._NETLIST_CACHE.clear()


def _jobs(count):
    return [
        SuiteJob(kind="partition", circuit="KSA4", num_planes=k, seed=1, config=FAST)
        for k in range(2, 2 + count)
    ]


def _canonical(payload):
    return json.dumps(payload_to_jsonable(payload), sort_keys=True)


# ----------------------------------------------------------------------
# The queue's attempt accounting
# ----------------------------------------------------------------------
def test_failed_attempt_requeues_behind_its_backoff_gate():
    queue = LeaseQueue(retries=2, backoff=30.0)
    task = queue.submit(LeaseTask(_jobs(1)[0], 0))
    (granted,) = queue.grant(time.time())
    failure = queue.fail(granted, "crashed", "boom")
    assert (failure.index, failure.kind, failure.attempt) == (0, "crashed", 1)
    assert task.state == "pending" and queue.pending == [task]
    assert queue.grant(time.time()) == []
    assert queue.grant(task.not_before)[0].attempts == 2


def test_exhausted_task_fails_with_its_history():
    queue = LeaseQueue(retries=1, backoff=0.0)
    task = queue.submit(LeaseTask(_jobs(1)[0], 0))
    for kind in ("crashed", "timed-out"):
        queue.grant(time.time())
        queue.fail(task, kind, kind)
    assert task.state == "failed"
    assert queue.pending == []
    assert [(f.kind, f.attempt) for f in task.failures] == [
        ("crashed", 1), ("timed-out", 2)]


def test_invalid_payload_is_reported_and_leaves_the_task_leased():
    queue = LeaseQueue(retries=0, backoff=0.0)
    task = queue.submit(LeaseTask(_jobs(1)[0], 0))
    queue.grant(time.time())
    assert "not a dict" in queue.complete(task, "garbage")
    assert task.state == "leased" and task.payload is None
    payload = execute_job(task.job)
    assert queue.complete(task, payload) is None
    assert task.state == "done" and task.payload is payload


def test_failed_group_is_released_uncharged_and_never_packs_again():
    queue = LeaseQueue(retries=0, backoff=0.0, pack=True)
    jobs = [SuiteJob(kind="partition", circuit="KSA4", num_planes=3, seed=s, config=FAST)
            for s in range(3)]
    tasks = [queue.submit(LeaseTask(job, index)) for index, job in enumerate(jobs)]
    group = queue.grant(time.time())
    assert group == tasks
    assert queue.complete_group(group, None) is False
    assert queue.pending == tasks
    assert [task.attempts for task in tasks] == [0, 0, 0]
    assert [task.failures for task in tasks] == [[], [], []]
    assert [queue.grant(time.time()) for _ in tasks] == [[task] for task in tasks]
    assert [task.attempts for task in tasks] == [1, 1, 1]


# ----------------------------------------------------------------------
# Pool slots: a dead or hung child charges only its own job
# ----------------------------------------------------------------------
def test_killed_slot_charges_only_its_own_job(tmp_path):
    jobs = _jobs(4)
    path = str(tmp_path / "cp.jsonl")
    with pytest.raises(JobError):
        run_jobs(jobs, jobs=2, retries=1, backoff=0.01, checkpoint=path,
                 fault_plan=FaultPlan.parse("kill@0x2"))
    report = last_report()
    assert report.failed_jobs == [0]
    assert report.failure_counts() == {"crashed": 2}
    assert {failure.index for failure in report.failures} == {0}
    stored = SuiteCheckpoint(path).load()
    assert set(stored) == {job_key(job) for job in jobs[1:]}
    for job in jobs[1:]:
        assert _canonical(stored[job_key(job)]) == _canonical(execute_job(job))


# ----------------------------------------------------------------------
# Hygiene: no thread or process outlives a run
# ----------------------------------------------------------------------
def test_inline_runs_start_no_threads_or_processes():
    job = _jobs(1)[0]
    threads = threading.active_count()
    children = multiprocessing.active_children()
    for _ in range(20):
        run_jobs([job], jobs=1)
    assert threading.active_count() == threads
    assert multiprocessing.active_children() == children


def test_pool_run_with_a_timed_out_hang_leaves_nothing_behind():
    from repro import obs

    jobs = _jobs(3)
    threads = threading.active_count()
    children = multiprocessing.active_children()
    obs.enable()
    try:
        payloads = run_jobs(jobs, jobs=2, timeout=2.0, backoff=0.0,
                            fault_plan=FaultPlan.parse("hang@1"))
        rebuilds = obs.OBS.metrics.as_dict()["runner.pool_rebuilds"]["value"]
    finally:
        obs.disable(reset=True)
    assert threading.active_count() == threads
    assert multiprocessing.active_children() == children
    # The hung slot alone was killed, charged and respawned.
    assert [(f.index, f.kind) for f in last_report().failures] == [(1, "timed-out")]
    assert rebuilds == 1
    assert [_canonical(p) for p in payloads] == [_canonical(execute_job(j)) for j in jobs]
