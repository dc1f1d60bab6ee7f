"""End-to-end HTTP tests of the partitioning service.

Each test boots a real ``ThreadingHTTPServer`` on an ephemeral port and
talks to it through :class:`repro.service.client.ServiceClient` — the
same stack the CLI, benchmark and CI smoke use.
"""

import contextlib
import threading

import numpy as np
import pytest

from repro.circuits.suite import build_circuit
from repro.harness.faults import FaultPlan
from repro.harness.runner import execute_job
from repro.netlist.serialize import netlist_to_dict
from repro.service import ServiceClient, ServiceHTTPError, build_server
from repro.service.api import request_to_job, validate_request
from repro.service.errors import QueueFullError
from repro.service.store import ResultStore
from repro.utils.errors import ReproError


@contextlib.contextmanager
def running_server(tmp_path, **opts):
    opts.setdefault("workers", 2)
    opts.setdefault("queue_size", 8)
    opts.setdefault("retries", 0)
    opts.setdefault("backoff", 0.0)
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


REQ = {"circuit": "KSA4", "num_planes": 3, "seed": 2020}


def test_health_reports_versions_and_queue(tmp_path):
    with running_server(tmp_path) as (_server, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["versions"]["netlist_format"] == 1
        assert health["queue_size"] == 8
        assert health["workers"] == 2
        assert health["store_enabled"]


def test_served_partition_bitwise_identical_to_cli_run(tmp_path):
    """The acceptance contract: HTTP result == local run, bit for bit."""
    with running_server(tmp_path) as (_server, client):
        served = client.partition(REQ)
    local = execute_job(request_to_job(validate_request(REQ)))
    assert np.array_equal(served["labels"], local["labels"])
    assert served["report"].b_max_ma == local["report"].b_max_ma


def test_inline_netlist_submission_bitwise_identical(tmp_path):
    netlist = netlist_to_dict(build_circuit("KSA4"))
    request = {"netlist": netlist, "num_planes": 3, "seed": 2020}
    with running_server(tmp_path) as (_server, client):
        served = client.partition(request)
    local = execute_job(request_to_job(validate_request(REQ)))
    assert np.array_equal(served["labels"], local["labels"])


def test_repeat_request_hits_result_store_and_metrics_show_it(tmp_path):
    with running_server(tmp_path) as (_server, client):
        first = client.submit(REQ)
        client.wait(first["id"])
        second = client.submit(REQ)
        assert second["outcome"] == "cached"
        assert second["state"] == "done"
        metrics = client.metrics()
        assert metrics["metrics"]["service.store.hits"]["value"] == 1
        assert metrics["store"]["hits"] == 1
        served_again = client.result(second["id"])["result"]
        served_first = client.result(first["id"])["result"]
        assert served_again == served_first


def test_full_queue_returns_429_with_retry_after(tmp_path):
    with running_server(tmp_path, workers=1, queue_size=1,
                        retry_after=3) as (server, client):
        # Drain no jobs: with the workers stopped, queued jobs stay
        # queued, so capacity is hit deterministically.
        server.service.manager.stop()
        first = client.submit(dict(REQ, seed=1))
        assert first["state"] == "queued"
        with pytest.raises(QueueFullError) as excinfo:
            client.submit(dict(REQ, seed=2))
        assert excinfo.value.retry_after == 3
        metrics = client.metrics()
        assert metrics["metrics"]["service.queue.rejections"]["value"] == 1


def test_injected_crash_gives_clean_500_and_server_keeps_serving(tmp_path):
    plan = FaultPlan.parse("crash@0x99")
    with running_server(tmp_path, workers=1,
                        fault_plan=plan) as (server, client):
        job = client.submit(dict(REQ, seed=41))
        status = client.wait(job["id"])
        assert status["state"] == "failed"
        assert "crash" in status["error"]
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.result(job["id"])
        assert excinfo.value.status == 500
        assert "crash" in str(excinfo.value)
        # Same server, fault cleared: next job succeeds.
        server.service.manager.fault_plan = None
        served = client.partition(dict(REQ, seed=42))
        assert len(served["labels"]) > 0


def test_injected_hang_times_out_cleanly(tmp_path):
    plan = FaultPlan.parse("hang@0x99")
    with running_server(tmp_path, workers=1,
                        fault_plan=plan) as (server, client):
        job = client.submit(dict(REQ, seed=43))
        status = client.wait(job["id"])
        assert status["state"] == "failed"
        server.service.manager.fault_plan = None
        assert client.health()["status"] == "ok"
        served = client.partition(dict(REQ, seed=44))
        assert len(served["labels"]) > 0


def test_result_of_unfinished_job_is_409(tmp_path):
    with running_server(tmp_path, workers=1, queue_size=2) as (server, client):
        server.service.manager.stop()
        job = client.submit(dict(REQ, seed=45))
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.result(job["id"])
        assert excinfo.value.status == 409


def test_cancel_queued_job_over_http(tmp_path):
    with running_server(tmp_path, workers=1, queue_size=2) as (server, client):
        server.service.manager.stop()
        job = client.submit(dict(REQ, seed=46))
        cancelled = client.cancel(job["id"])
        assert cancelled["state"] == "cancelled"
        status = client.status(job["id"])
        assert status["state"] == "cancelled"
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.result(job["id"])
        assert excinfo.value.status == 409


def test_validation_errors_are_400(tmp_path):
    with running_server(tmp_path) as (_server, client):
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.submit({"circuit": "NOPE", "num_planes": 3, "seed": 1})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.submit({"circuit": "KSA4", "num_planes": 3, "seed": "x"})
        assert excinfo.value.status == 400
        assert "seed" in str(excinfo.value)
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.submit({"circuit": "KSA4", "num_planes": 3, "seed": 1,
                           "engine": "loop"})
        assert excinfo.value.status == 400
        assert "engine must be one of" in str(excinfo.value)


def test_unknown_routes_and_jobs_are_404(tmp_path):
    with running_server(tmp_path) as (_server, client):
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.status("not-a-job")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceHTTPError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404


def test_job_list_and_request_spans(tmp_path):
    with running_server(tmp_path) as (_server, client):
        client.partition(dict(REQ, seed=47))
        jobs = client.jobs()
        assert len(jobs) == 1
        assert jobs[0]["state"] == "done"
        metrics = client.metrics()
        assert metrics["metrics"]["service.http.requests"]["value"] >= 3
        assert "service.request" in metrics["spans"]


def test_client_reports_unreachable_server():
    client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
    with pytest.raises(ReproError, match="cannot reach service"):
        client.health()
