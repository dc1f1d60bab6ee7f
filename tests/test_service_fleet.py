"""End-to-end tests of fleet isolation: coordinator + worker nodes.

Each test boots a real fleet-mode HTTP server (the coordinator) and one
or more :class:`repro.fleet.worker.FleetWorker` nodes — in-thread for
the cooperative paths, a real subprocess for the ``kill`` chaos test
(``os._exit`` must not take pytest down with it) and the signal tests
of ``repro-gpp worker``.  The acceptance
contract throughout: payloads served through the fleet are bitwise
identical to a local ``execute_job`` run, worker death included.
"""

import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.fleet.worker import FleetWorker
from repro.harness.checkpoint import payload_to_jsonable
from repro.harness.faults import FaultPlan
from repro.harness.runner import execute_job
from repro.service import ServiceClient, build_server
from repro.service.api import request_to_job, validate_request
from repro.service.store import ResultStore
from repro.utils.errors import ReproError

REQ = {"circuit": "KSA4", "num_planes": 3, "seed": 404}


@contextlib.contextmanager
def fleet_server(tmp_path, **opts):
    opts.setdefault("workers", 2)
    opts.setdefault("queue_size", 16)
    opts.setdefault("retries", 2)
    opts.setdefault("backoff", 0.0)
    opts.setdefault("isolation", "fleet")
    opts.setdefault("store", ResultStore(root=str(tmp_path), enabled=True))
    server = build_server(host="127.0.0.1", port=0, **opts)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, ServiceClient(server.url, timeout=60.0)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5)


@contextlib.contextmanager
def fleet_worker(server, worker_id, **opts):
    opts.setdefault("poll", 0.2)
    worker = FleetWorker(server.url, worker_id=worker_id, **opts)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    try:
        yield worker
    finally:
        worker.stop()
        thread.join(5)


def local_payload(request):
    return payload_to_jsonable(
        execute_job(request_to_job(validate_request(dict(request))))
    )


def canonical(jsonable):
    return json.dumps(jsonable, sort_keys=True)


def fleet_counters(client):
    metrics = client.metrics()["metrics"]
    return {name: entry["value"] for name, entry in metrics.items()
            if name.startswith("fleet.")}


def test_fleet_served_partition_bitwise_identical(tmp_path):
    with fleet_server(tmp_path) as (server, client):
        with fleet_worker(server, "w1"):
            served = client.partition(REQ)
        counters = fleet_counters(client)
    local = execute_job(request_to_job(validate_request(dict(REQ))))
    assert np.array_equal(served["labels"], local["labels"])
    assert canonical(payload_to_jsonable(served)) == canonical(
        payload_to_jsonable(local)
    )
    assert counters["fleet.jobs.submitted"] == 1
    assert counters["fleet.completions"] == 1


def test_healthz_exposes_fleet_roster_and_heartbeat_ages(tmp_path):
    with fleet_server(tmp_path) as (server, client):
        with fleet_worker(server, "roster-w"):
            client.partition(REQ)
            health = client.health()
    assert health["isolation"] == "fleet"
    fleet = health["fleet"]
    assert fleet["lease_ttl_s"] == 30.0
    roster = {worker["id"]: worker for worker in fleet["workers"]}
    assert roster["roster-w"]["completed"] == 1
    assert roster["roster-w"]["last_heartbeat_age_s"] < 30.0
    assert "pending" in fleet and "leased" in fleet


def test_two_workers_split_the_queue_and_results_stay_bitwise(tmp_path):
    requests = [dict(REQ, seed=seed) for seed in range(101, 107)]
    with fleet_server(tmp_path) as (server, client):
        with fleet_worker(server, "wa"), fleet_worker(server, "wb"):
            jobs = [client.submit(request) for request in requests]
            for job in jobs:
                client.wait(job["id"], timeout=60.0)
            served = [client.result(job["id"])["result"] for job in jobs]
            health = client.health()
    for request, payload in zip(requests, served):
        assert canonical(payload) == canonical(local_payload(request))
    done = sum(worker["completed"] for worker in health["fleet"]["workers"])
    assert done == len(requests)


def test_worker_crash_fault_is_requeued_and_converges(tmp_path):
    """A crash-injected attempt charges a retry; the payload still
    matches a clean local run bitwise."""
    with fleet_server(tmp_path) as (server, client):
        with fleet_worker(server, "crashy",
                          fault_plan=FaultPlan.parse("crash@0")):
            served = client.partition(REQ)
        counters = fleet_counters(client)
    assert canonical(payload_to_jsonable(served)) == canonical(
        local_payload(REQ)
    )
    assert counters["fleet.requeues"] >= 1
    assert counters["fleet.failures.crashed"] >= 1


def test_corrupt_fault_is_rejected_as_invalid_result(tmp_path):
    with fleet_server(tmp_path) as (server, client):
        with fleet_worker(server, "mangler",
                          fault_plan=FaultPlan.parse("corrupt@0")):
            served = client.partition(REQ)
        counters = fleet_counters(client)
    assert canonical(payload_to_jsonable(served)) == canonical(
        local_payload(REQ)
    )
    assert counters["fleet.failures.invalid-result"] >= 1


def test_hang_fault_loses_heartbeats_and_lease_expires_to_clean_worker(
    tmp_path, monkeypatch
):
    """The heartbeat-loss story: a hung node freezes (heartbeats
    included), its lease expires within the TTL, and a clean worker
    finishes the job with a bitwise-identical payload."""
    monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", "30")
    with fleet_server(tmp_path, lease_ttl=1.0) as (server, client):
        hung = FleetWorker(server.url, worker_id="hung", poll=0.1,
                           fault_plan=FaultPlan.parse("hang@0"))
        hung_thread = threading.Thread(target=hung.run, daemon=True)
        hung_thread.start()
        try:
            job = client.submit(REQ)
            # wait until the hung node has frozen mid-lease
            deadline = time.monotonic() + 10.0
            while not hung._frozen.is_set():
                assert time.monotonic() < deadline, "hang fault never fired"
                time.sleep(0.02)
            with fleet_worker(server, "clean", poll=0.1):
                status = client.wait(job["id"], timeout=30.0)
                assert status["state"] == "done"
                served = client.result(job["id"])["result"]
            counters = fleet_counters(client)
        finally:
            hung.stop()
    assert canonical(served) == canonical(local_payload(REQ))
    assert counters["fleet.lease.expired"] >= 1
    assert counters["fleet.requeues"] >= 1
    assert counters["fleet.failures.timed-out"] >= 1


def test_fleet_server_passes_lease_ttl_knob(tmp_path):
    with fleet_server(tmp_path, lease_ttl=2.5) as (server, client):
        assert server.service.fleet.lease_ttl == 2.5
        health = client.health()
        assert health["fleet"]["lease_ttl_s"] == 2.5


def test_fleet_routes_conflict_on_non_fleet_server(tmp_path):
    from repro.service import ServiceHTTPError

    with fleet_server(tmp_path, isolation="inline") as (_server, client):
        with pytest.raises(ServiceHTTPError) as excinfo:
            client._request("POST", "/fleet/v1/lease", {"worker": "w"})
        assert excinfo.value.status == 409


def test_exhausted_fleet_job_fails_the_service_job(tmp_path):
    with fleet_server(tmp_path, retries=0) as (server, client):
        with fleet_worker(server, "always-crashes",
                          fault_plan=FaultPlan.parse("crash@0x9,crash@1x9")):
            job = client.submit(REQ)
            status = client.wait(job["id"], timeout=30.0)
    assert status["state"] == "failed"
    assert "crash" in status["error"]


def test_subprocess_worker_kill_chaos_converges_bitwise(tmp_path):
    """The tentpole chaos contract: a worker node hard-killed mid-job
    (``os._exit`` via ``REPRO_FAULT=kill@0``) loses its lease, the
    coordinator requeues, and every payload still matches a clean local
    run bitwise."""
    requests = [dict(REQ, seed=seed) for seed in range(880, 884)]
    store = ResultStore(root=str(tmp_path), enabled=True)
    with fleet_server(tmp_path, store=store, lease_ttl=1.5) as (server, client):
        env = dict(os.environ)
        env.update({
            "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src"),
            "REPRO_CACHE_DIR": str(tmp_path),
            "REPRO_FAULT": "kill@0",
        })
        doomed = subprocess.Popen(
            [sys.executable, "-m", "repro.harness.cli", "worker",
             "--coordinator", server.url, "--id", "doomed",
             "--max-inflight", "1", "--poll", "0.1"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        try:
            jobs = [client.submit(request) for request in requests]
            # the doomed worker must die before the clean one mops up,
            # otherwise it could execute every job faultlessly
            doomed.wait(timeout=60)
            assert doomed.returncode == 17  # os._exit(17) fired
            with fleet_worker(server, "mop-up", poll=0.1):
                for job in jobs:
                    client.wait(job["id"], timeout=60.0)
                served = [client.result(job["id"])["result"] for job in jobs]
            counters = fleet_counters(client)
        finally:
            if doomed.poll() is None:
                doomed.kill()
            doomed.stdout.close()
    for request, payload in zip(requests, served):
        assert canonical(payload) == canonical(local_payload(request))
    assert counters["fleet.lease.expired"] >= 1
    assert counters["fleet.requeues"] >= 1


#: Runs the CLI with SIGINT ignored, as a shell's background job starts.
_SIGINT_IGNORED = (
    "import runpy, signal; signal.signal(signal.SIGINT, signal.SIG_IGN); "
    "runpy.run_module('repro.harness.cli', run_name='__main__')"
)


@pytest.mark.parametrize("signum, entry", [
    (signal.SIGINT, ["-m", "repro.harness.cli"]),
    (signal.SIGINT, ["-c", _SIGINT_IGNORED]),
    (signal.SIGTERM, ["-m", "repro.harness.cli"]),
], ids=["sigint", "sigint-ignored", "sigterm"])
def test_worker_command_stops_on_sigint_and_sigterm(tmp_path, signum, entry):
    """``repro-gpp worker`` exits 0 when signalled mid long-poll, also
    when it inherited SIGINT ignored."""
    with fleet_server(tmp_path) as (server, _client):
        env = dict(os.environ)
        env.update({
            "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src"),
            "REPRO_CACHE_DIR": str(tmp_path),
        })
        worker = subprocess.Popen(
            [sys.executable, *entry, "worker", "--coordinator", server.url,
             "--id", "signalled", "--poll", "5"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        try:
            assert b"ready" in worker.stdout.readline()
            time.sleep(0.2)
            worker.send_signal(signum)
            assert worker.wait(timeout=10) == 0
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.wait()
            worker.stdout.close()


def test_worker_batch_lease_executes_multiple_jobs(tmp_path):
    """A multi-job lease runs through one run_jobs call (the megabatch
    seam) and every payload is still stored and bitwise-correct."""
    requests = [dict(REQ, seed=seed) for seed in (71, 72)]
    with fleet_server(tmp_path) as (server, client):
        jobs = [client.submit(request) for request in requests]
        with fleet_worker(server, "batcher", max_inflight=2, poll=0.2):
            for job in jobs:
                client.wait(job["id"], timeout=60.0)
            served = [client.result(job["id"])["result"] for job in jobs]
    for request, payload in zip(requests, served):
        assert canonical(payload) == canonical(local_payload(request))


def test_fleet_results_land_in_the_shared_store(tmp_path):
    store = ResultStore(root=str(tmp_path), enabled=True)
    with fleet_server(tmp_path, store=store) as (server, client):
        with fleet_worker(server, "w1"):
            client.partition(REQ)
        # a repeat submit is answered from the store, no fleet round trip
        before = fleet_counters(client)["fleet.jobs.submitted"]
        repeat = client.submit(REQ)
        assert repeat["outcome"] == "cached"
        assert fleet_counters(client)["fleet.jobs.submitted"] == before
    normalized = validate_request(dict(REQ))
    from repro.service.api import request_key

    entry = store.get_with_meta(request_key(normalized))
    assert entry is not None
    payload, meta = entry
    assert meta["request"] == normalized
    assert canonical(payload) == canonical(local_payload(REQ))


def test_coordinator_is_the_only_retry_owner(tmp_path, monkeypatch):
    """A job that raises on every attempt runs once per lease: under
    coordinator ``retries=2`` that is exactly 3 executions, because the
    worker's own ``run_jobs`` does not retry."""
    import repro.harness.runner as runner_mod

    calls = []

    def always_raises(job):
        calls.append(job.seed)
        raise ReproError("solver exploded")

    monkeypatch.setattr(runner_mod, "execute_job", always_raises)
    with fleet_server(tmp_path, retries=2) as (server, client):
        with fleet_worker(server, "doomed-solver"):
            job = client.submit(REQ)
            status = client.wait(job["id"], timeout=30.0)
        counters = fleet_counters(client)
    assert status["state"] == "failed"
    assert "solver exploded" in status["error"]
    assert len(calls) == 3
    assert counters["fleet.failures.crashed"] == 3


def test_solved_fleet_job_is_stored_once(tmp_path, monkeypatch):
    """The coordinator's service stores a fleet result; the worker does
    not write the same key a second time."""
    puts = []
    real_put = ResultStore.put

    def counting_put(self, key, payload, meta=None):
        puts.append(key)
        return real_put(self, key, payload, meta=meta)

    monkeypatch.setattr(ResultStore, "put", counting_put)
    with fleet_server(tmp_path) as (server, client):
        with fleet_worker(server, "w1"):
            client.partition(REQ)
    from repro.service.api import request_key

    assert puts == [request_key(validate_request(dict(REQ)))]


def test_failed_batch_lease_settles_each_lease_from_one_run(monkeypatch):
    """Three KSA4 K=3 leases whose packed solve raises, seed 1 always
    failing: the worker settles every lease from its one ``run_jobs``
    call — seed 1 reports its failure, seeds 0 and 2 the payloads the
    ``JobError`` carries — so no job is solved twice."""
    import repro.harness.megabatch as megabatch_mod
    import repro.harness.runner as runner_mod
    from repro.harness.wire import job_to_wire

    requests = [validate_request(dict(REQ, seed=seed)) for seed in range(3)]
    jobs = [request_to_job(request) for request in requests]
    solo = [payload_to_jsonable(execute_job(job)) for job in jobs]
    calls = []

    def flaky(job):
        calls.append(job.seed)
        if job.seed == 1:
            raise RuntimeError("seed 1 always fails")
        return execute_job(job)

    def broken(group):
        raise RuntimeError("packed solve failed")

    monkeypatch.setattr(runner_mod, "execute_job", flaky)
    monkeypatch.setattr(megabatch_mod, "execute_group", broken)
    worker = FleetWorker("http://127.0.0.1:9", worker_id="batcher")
    posts = []
    monkeypatch.setattr(worker, "_post", lambda path, body: posts.append(body) or {})
    worker._execute_batch(
        [{"lease": f"lease-{i}", "job": job_to_wire(job)} for i, job in enumerate(jobs)]
    )
    assert calls == [0, 1, 2]
    assert [post["lease"] for post in posts] == ["lease-0", "lease-1", "lease-2"]
    assert [post["ok"] for post in posts] == [True, False, True]
    assert (posts[1]["kind"], posts[1]["message"]) == ("crashed", "seed 1 always fails")
    assert [canonical(posts[0]["payload"]), canonical(posts[2]["payload"])] == [
        canonical(solo[0]), canonical(solo[2])
    ]
    assert (worker.jobs_executed, worker.jobs_failed) == (2, 1)
