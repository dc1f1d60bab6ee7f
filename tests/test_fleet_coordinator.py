"""Unit tests of the fleet coordinator: leases, heartbeats, requeue.

These drive :class:`repro.fleet.coordinator.FleetCoordinator` directly
(no HTTP, no worker threads) so every failure path is deterministic:
lease expiry is forced through ``reap_expired(now=...)`` instead of
waiting for wall-clock time.
"""

import pytest

from repro.fleet.coordinator import FleetCoordinator
from repro.harness.checkpoint import payload_to_jsonable
from repro.harness.runner import execute_job
from repro.obs import MetricsRegistry
from repro.service.api import request_key, request_to_job, validate_request
from repro.utils.errors import ReproError

REQ = {"circuit": "KSA4", "num_planes": 3, "seed": 31}


@pytest.fixture(scope="module")
def solved():
    """``(normalized request, key, SuiteJob, JSON-able payload)`` once."""
    normalized = validate_request(dict(REQ))
    key = request_key(normalized)
    job = request_to_job(normalized)
    payload = payload_to_jsonable(execute_job(job))
    return normalized, key, job, payload


def make_coordinator(**kwargs):
    kwargs.setdefault("lease_ttl", 30.0)
    kwargs.setdefault("retries", 2)
    kwargs.setdefault("backoff", 0.0)
    kwargs.setdefault("reap_interval", 3600.0)  # reaper effectively manual
    return FleetCoordinator(**kwargs)


def submit(coordinator, solved):
    _normalized, key, job, _payload = solved
    return coordinator.submit(key, job, job_id="job-1")


def test_lease_grant_carries_the_wire_job_and_attempt(solved):
    coordinator = make_coordinator()
    try:
        task = submit(coordinator, solved)
        grants = coordinator.lease("w1", max_jobs=2)
        assert len(grants) == 1
        grant = grants[0]
        assert grant["key"] == task.key
        assert grant["attempt"] == 1
        assert grant["deadline_s"] == 30.0
        assert grant["job"]["circuit"] == "KSA4"
        assert grant["job"]["seed"] == 31
        # nothing else to grant
        assert coordinator.lease("w1") == []
    finally:
        coordinator.stop()


def test_valid_completion_resolves_the_task(solved):
    _normalized, _key, _job, payload = solved
    coordinator = make_coordinator()
    try:
        task = submit(coordinator, solved)
        grant = coordinator.lease("w1")[0]
        status = coordinator.complete("w1", grant["lease"], ok=True,
                                      payload=payload)
        assert status == "accepted"
        got, snapshot = task.wait(timeout=1.0)
        assert snapshot is None
        assert payload_to_jsonable(got) == payload
        roster = coordinator.workers_snapshot()
        assert roster["workers"][0]["completed"] == 1
        assert roster["pending"] == 0 and roster["leased"] == 0
    finally:
        coordinator.stop()


def test_invalid_payload_charges_a_retry_then_recovers(solved):
    _normalized, _key, _job, payload = solved
    metrics = MetricsRegistry()
    coordinator = make_coordinator(metrics=metrics)
    try:
        task = submit(coordinator, solved)
        grant = coordinator.lease("w1")[0]
        status = coordinator.complete(
            "w1", grant["lease"], ok=True,
            payload={"labels": "garbage", "report": None},
        )
        assert status == "requeued"
        retry = coordinator.lease("w2")[0]
        assert retry["attempt"] == 2
        assert coordinator.complete("w2", retry["lease"], ok=True,
                                    payload=payload) == "accepted"
        task.wait(timeout=1.0)
        assert task.failures[0].kind == "invalid-result"
        assert metrics.as_dict()["fleet.requeues"]["value"] == 1
        assert metrics.as_dict()["fleet.retries"]["value"] == 1
    finally:
        coordinator.stop()


def test_reported_failures_exhaust_retries_with_full_history(solved):
    coordinator = make_coordinator(retries=1)
    try:
        task = submit(coordinator, solved)
        for expected_attempt in (1, 2):
            grant = coordinator.lease("w1")[0]
            assert grant["attempt"] == expected_attempt
            status = coordinator.complete(
                "w1", grant["lease"], ok=False, kind="crashed",
                message=f"boom {expected_attempt}",
            )
        assert status == "failed"
        with pytest.raises(ReproError, match="boom 1.*boom 2"):
            task.wait(timeout=1.0)
        assert len(task.failures) == 2
    finally:
        coordinator.stop()


def test_unknown_failure_kind_maps_to_crashed(solved):
    coordinator = make_coordinator(retries=0)
    try:
        task = submit(coordinator, solved)
        grant = coordinator.lease("w1")[0]
        coordinator.complete("w1", grant["lease"], ok=False,
                             kind="exploded", message="?")
        assert task.failures[0].kind == "crashed"
    finally:
        coordinator.stop()


def test_expired_lease_is_reclaimed_and_requeued(solved):
    metrics = MetricsRegistry()
    coordinator = make_coordinator(metrics=metrics)
    try:
        task = submit(coordinator, solved)
        grant = coordinator.lease("w1")[0]
        import time

        assert coordinator.reap_expired(now=time.time() + 29.0) == 0
        assert coordinator.reap_expired(now=time.time() + 31.0) == 1
        assert task.state == "pending"
        assert task.failures[0].kind == "timed-out"
        assert metrics.as_dict()["fleet.lease.expired"]["value"] == 1
        retry = coordinator.lease("w2")[0]
        assert retry["attempt"] == 2
        # the dead worker's late completion is dropped as stale
        assert coordinator.complete("w1", grant["lease"], ok=True,
                                    payload={}) == "stale"
    finally:
        coordinator.stop()


def test_heartbeat_extends_the_lease_deadline(solved):
    coordinator = make_coordinator()
    try:
        submit(coordinator, solved)
        grant = coordinator.lease("w1")[0]
        lease_id = grant["lease"]
        with coordinator._cond:
            _task, _worker, before = coordinator._leases[lease_id]
        response = coordinator.heartbeat("w1", [lease_id, "no-such-lease"])
        assert response["extended"] == [lease_id]
        assert response["unknown"] == ["no-such-lease"]
        with coordinator._cond:
            _task, _worker, after = coordinator._leases[lease_id]
        assert after >= before
    finally:
        coordinator.stop()


def test_backoff_gates_the_requeued_job(solved):
    coordinator = make_coordinator(backoff=30.0)
    try:
        submit(coordinator, solved)
        grant = coordinator.lease("w1")[0]
        coordinator.complete("w1", grant["lease"], ok=False, kind="crashed")
        # still inside the backoff window: nothing leasable
        assert coordinator.lease("w1", wait=0.0) == []
        assert coordinator.pending_count() == 1
    finally:
        coordinator.stop()


def test_roster_tracks_multiple_workers(solved):
    _normalized, key, job, _payload = solved
    coordinator = make_coordinator()
    try:
        coordinator.submit(key, job)
        coordinator.submit(key + "x", job)
        first = coordinator.lease("w1")[0]
        coordinator.lease("w2")
        snapshot = coordinator.workers_snapshot()
        ids = [worker["id"] for worker in snapshot["workers"]]
        assert ids == ["w1", "w2"]
        active = {w["id"]: w["active_leases"] for w in snapshot["workers"]}
        assert active == {"w1": 1, "w2": 1}
        assert snapshot["leased"] == 2
        assert first["lease"] != ""
    finally:
        coordinator.stop()
