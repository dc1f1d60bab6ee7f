"""Unit tests of the fleet coordinator: leases, heartbeats, requeue.

Jobs go in through :class:`repro.service.jobs.JobManager` with
``isolation="fleet"`` (the coordinator leases straight from its queue)
and come out as the manager's job state, payload and error.  No HTTP
and no worker threads, so every failure path is deterministic: lease
expiry is forced through ``reap_expired(now=...)`` instead of waiting
for wall-clock time.
"""

import threading
import time

import pytest

from repro.fleet.coordinator import FleetCoordinator
from repro.harness.checkpoint import payload_to_jsonable
from repro.harness.runner import execute_job
from repro.obs import EventLog, MetricsRegistry
from repro.service.api import request_key, request_to_job, validate_request
from repro.service.jobs import JobManager

REQ = {"circuit": "KSA4", "num_planes": 3, "seed": 31}


@pytest.fixture(scope="module")
def solved():
    """``(normalized request, key, JSON-able payload)`` once."""
    normalized = validate_request(dict(REQ))
    key = request_key(normalized)
    payload = payload_to_jsonable(execute_job(request_to_job(normalized)))
    return normalized, key, payload


@pytest.fixture()
def fleet():
    """``make(**coordinator_kwargs)`` -> a started fleet-mode manager
    and its coordinator (which counts and emits into the manager's
    ``metrics`` and ``events``, and takes its retries, backoff and
    timeout)."""
    managers = []

    def make(workers=1, metrics=None, events=None, retries=2, backoff=0.0,
             timeout=None, **kwargs):
        kwargs.setdefault("lease_ttl", 30.0)
        kwargs.setdefault("reap_interval", 3600.0)  # reaper effectively manual
        coordinator = FleetCoordinator(**kwargs)
        manager = JobManager(workers=workers, isolation="fleet",
                             fleet=coordinator, metrics=metrics,
                             events=events, retries=retries, backoff=backoff,
                             timeout=timeout).start()
        managers.append(manager)
        return manager, coordinator

    yield make
    for manager in managers:
        manager.stop()
        manager.fleet.stop()


def submit(manager, solved, seed=None):
    normalized, key, _payload = solved
    if seed is not None:
        normalized = validate_request(dict(REQ, seed=seed))
        key = request_key(normalized)
    job, outcome = manager.submit(key, normalized)
    assert outcome == "queued"
    return job


def test_lease_grant_carries_the_wire_job_and_attempt(solved, fleet):
    manager, coordinator = fleet()
    job = submit(manager, solved)
    grants = coordinator.lease("w1", max_jobs=2)
    assert len(grants) == 1
    grant = grants[0]
    assert grant["key"] == job.key
    assert grant["attempt"] == 1
    assert grant["deadline_s"] == 30.0
    assert grant["job"]["circuit"] == "KSA4"
    assert grant["job"]["seed"] == 31
    assert (grant["trace"], grant["tracing"]) == (None, False)
    assert job.state == "running"
    # nothing else to grant
    assert coordinator.lease("w1") == []


def test_valid_completion_resolves_the_task(solved, fleet):
    _normalized, _key, payload = solved
    manager, coordinator = fleet()
    job = submit(manager, solved)
    grant = coordinator.lease("w1")[0]
    status = coordinator.complete("w1", grant["lease"], ok=True,
                                  payload=payload)
    assert status == "accepted"
    assert job.done_event.is_set()
    assert job.state == "done" and job.error is None
    assert job.payload == payload
    roster = coordinator.workers_snapshot()
    assert roster["workers"][0]["completed"] == 1
    assert roster["pending"] == 0 and roster["leased"] == 0
    assert manager.running_count() == 0


def test_invalid_payload_charges_a_retry_then_recovers(solved, fleet):
    _normalized, _key, payload = solved
    metrics = MetricsRegistry()
    manager, coordinator = fleet(metrics=metrics)
    job = submit(manager, solved)
    grant = coordinator.lease("w1")[0]
    status = coordinator.complete(
        "w1", grant["lease"], ok=True,
        payload={"labels": "garbage", "report": None},
    )
    assert status == "requeued"
    assert job.state == "running"
    retry = coordinator.lease("w2")[0]
    assert retry["attempt"] == 2
    assert coordinator.complete("w2", retry["lease"], ok=True,
                                payload=payload) == "accepted"
    assert job.state == "done" and job.payload == payload
    counters = metrics.as_dict()
    assert counters["fleet.failures.invalid-result"]["value"] == 1
    assert counters["fleet.requeues"]["value"] == 1
    assert counters["fleet.retries"]["value"] == 1


def test_reported_failures_exhaust_retries_with_full_history(solved, fleet):
    manager, coordinator = fleet(retries=1)
    job = submit(manager, solved)
    for expected_attempt in (1, 2):
        grant = coordinator.lease("w1")[0]
        assert grant["attempt"] == expected_attempt
        status = coordinator.complete(
            "w1", grant["lease"], ok=False, kind="crashed",
            message=f"boom {expected_attempt}",
        )
    assert status == "failed"
    assert job.state == "failed" and job.payload is None
    assert job.error == (
        "fleet job failed after 2 attempt(s) (1 retries): "
        "attempt 1: crashed: boom 1; attempt 2: crashed: boom 2"
    )
    assert manager.running_count() == 0


def test_unknown_failure_kind_maps_to_crashed(solved, fleet):
    manager, coordinator = fleet(retries=0)
    job = submit(manager, solved)
    grant = coordinator.lease("w1")[0]
    coordinator.complete("w1", grant["lease"], ok=False,
                         kind="exploded", message="?")
    assert job.state == "failed"
    assert "attempt 1: crashed: ?" in job.error


def test_expired_lease_is_reclaimed_and_requeued(solved, fleet):
    metrics = MetricsRegistry()
    manager, coordinator = fleet(metrics=metrics)
    job = submit(manager, solved)
    grant = coordinator.lease("w1")[0]
    assert coordinator.reap_expired(now=time.time() + 29.0) == 0
    assert coordinator.reap_expired(now=time.time() + 31.0) == 1
    assert job.state == "running"
    assert manager.queue_depth() == 1
    counters = metrics.as_dict()
    assert counters["fleet.lease.expired"]["value"] == 1
    assert counters["fleet.failures.timed-out"]["value"] == 1
    retry = coordinator.lease("w2")[0]
    assert retry["attempt"] == 2
    # the dead worker's late completion is dropped as stale
    assert coordinator.complete("w1", grant["lease"], ok=True,
                                payload={}) == "stale"
    assert job.state == "running"


def test_expiry_that_exhausts_retries_fails_the_job(solved, fleet):
    manager, coordinator = fleet(retries=0)
    job = submit(manager, solved)
    coordinator.lease("w1")
    assert coordinator.reap_expired(now=time.time() + 31.0) == 1
    assert job.state == "failed"
    assert "attempt 1: timed-out: lease" in job.error


def test_heartbeat_extends_the_lease_deadline(solved, fleet):
    manager, coordinator = fleet()
    submit(manager, solved)
    grant = coordinator.lease("w1")[0]
    lease_id = grant["lease"]
    with coordinator._cond:
        _task, _worker, before, _solve_by = coordinator._leases[lease_id]
    response = coordinator.heartbeat("w1", [lease_id, "no-such-lease"])
    assert response["extended"] == [lease_id]
    assert response["unknown"] == ["no-such-lease"]
    with coordinator._cond:
        _task, _worker, after, _solve_by = coordinator._leases[lease_id]
    assert after >= before


def test_heartbeats_never_extend_a_lease_past_its_solve_deadline(solved, fleet):
    """A node whose daemon thread keeps beating while its solve spins is
    charged ``timed-out`` at the job's timeout, not held forever."""
    _normalized, _key, payload = solved
    metrics = MetricsRegistry()
    manager, coordinator = fleet(timeout=5.0, metrics=metrics)
    job = submit(manager, solved)
    leased_by = time.time()
    grant = coordinator.lease("w1")[0]
    lease_id = grant["lease"]
    for _beat in range(3):
        assert coordinator.heartbeat("w1", [lease_id])["extended"] == [lease_id]
        # Well inside the lease TTL, and inside the solve deadline.
        assert coordinator.reap_expired(now=time.time() + 4.0) == 0
    # Past the solve deadline, though the last beat was under 30 s ago.
    assert coordinator.reap_expired(now=leased_by + 5.5 + 1.0) == 1
    assert job.state == "running"  # requeued: retries remain
    (task,) = manager._queue.pending
    assert [(f.kind, f.attempt) for f in task.failures] == [("timed-out", 1)]
    assert "passed its solve deadline (5.0 s)" in task.failures[0].message
    assert metrics.as_dict()["fleet.failures.timed-out"]["value"] == 1
    assert coordinator.complete("w1", lease_id, ok=True,
                                payload=payload) == "stale"
    retry = coordinator.lease("w2")[0]
    assert retry["attempt"] == 2
    assert coordinator.complete("w2", retry["lease"], ok=True,
                                payload=payload) == "accepted"
    assert job.state == "done" and job.payload == payload


def test_backoff_gates_the_requeued_job(solved, fleet):
    manager, coordinator = fleet(backoff=30.0)
    submit(manager, solved)
    grant = coordinator.lease("w1")[0]
    coordinator.complete("w1", grant["lease"], ok=False, kind="crashed")
    # still inside the backoff window: nothing leasable
    assert coordinator.lease("w1", wait=0.0) == []
    assert manager.queue_depth() == 1
    assert coordinator.workers_snapshot()["pending"] == 1


def test_roster_tracks_multiple_workers(solved, fleet):
    manager, coordinator = fleet()
    submit(manager, solved, seed=31)
    submit(manager, solved, seed=32)
    first = coordinator.lease("w1")[0]
    coordinator.lease("w2")
    snapshot = coordinator.workers_snapshot()
    ids = [worker["id"] for worker in snapshot["workers"]]
    assert ids == ["w1", "w2"]
    active = {w["id"]: w["active_leases"] for w in snapshot["workers"]}
    assert active == {"w1": 1, "w2": 1}
    assert snapshot["leased"] == 2
    assert first["lease"] != ""


def test_one_lease_takes_more_jobs_than_the_manager_has_workers(solved, fleet):
    """Fleet concurrency is the nodes', not ``workers``: two queued jobs
    both go to one ``max_jobs=2`` lease of a ``workers=1`` manager,
    which starts no thread."""
    threads = threading.active_count()
    manager, coordinator = fleet(workers=1)
    assert threading.active_count() == threads
    jobs = [submit(manager, solved, seed=seed) for seed in (41, 42)]
    grants = coordinator.lease("w1", max_jobs=2)
    assert [grant["job"]["seed"] for grant in grants] == [41, 42]
    assert [job.state for job in jobs] == ["running", "running"]
    assert manager.queue_depth() == 0


def test_queued_fleet_job_cancels_until_a_node_leases_it(solved, fleet):
    manager, coordinator = fleet()
    first = submit(manager, solved, seed=51)
    second = submit(manager, solved, seed=52)
    assert manager.cancel(first.id).state == "cancelled"
    grants = coordinator.lease("w1", max_jobs=2)
    assert [grant["key"] for grant in grants] == [second.key]
    # leased: a cancel no longer drops it
    assert manager.cancel(second.id).state == "running"


def test_fleet_job_lifecycle_events_wrap_the_fleet_events(solved, fleet):
    _normalized, _key, payload = solved
    events = EventLog()
    manager, coordinator = fleet(events=events)
    job = submit(manager, solved)
    grant = coordinator.lease("w1")[0]
    coordinator.complete("w1", grant["lease"], ok=False, kind="crashed")
    retry = coordinator.lease("w1")[0]
    coordinator.complete("w1", retry["lease"], ok=True, payload=payload)
    assert [event["event"] for event in events.for_job(job.id)] == [
        "queued", "fleet.queued", "leased", "solving", "fleet.leased",
        "fleet.requeued", "fleet.leased", "fleet.completed",
        "solved", "done",
    ]


def test_fleet_mode_refuses_a_sweep(fleet):
    from repro.service.errors import ConflictError

    manager, _coordinator = fleet()
    normalized = validate_request({"kind": "sweep", "circuit": "KSA4",
                                   "k_values": [2, 3]})
    with pytest.raises(ConflictError, match="fleet"):
        manager.submit(request_key(normalized), normalized)
