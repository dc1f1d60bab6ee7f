"""End-to-end observability of the service stack.

The acceptance contract of this layer: one HTTP ``POST /v1/jobs``
against a 2-worker server — inline, process-isolated or fleet —
produces **one connected span tree** — root carrying the request id,
leaves including the solver spans — verified by replaying the JSONL
trace exported from ``GET /v1/trace``; ``GET /metrics`` speaks clean
Prometheus text exposition; the job event log tells the lifecycle
story; and payloads stay bitwise-identical with everything enabled.
Deep-traced solves run concurrently: each job records into its own
``obs.capture`` scope.
"""

import contextlib
import io
import threading

import numpy as np
import pytest

from repro import obs
from repro.fleet.worker import FleetWorker
from repro.harness.runner import execute_job
from repro.obs import OBS, TRACE_HEADER, EventLog, TraceContext, lint_exposition
from repro.obs.export import read_trace_jsonl
from repro.obs.report import render_waterfall, span_trees
from repro.service import ServiceClient, build_server
from repro.service import jobs as jobs_mod
from repro.service.api import request_key, request_to_job, validate_request
from repro.service.jobs import JobManager
from repro.service.server import route_label
from repro.service.store import ResultStore


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


@contextlib.contextmanager
def fleet_worker(server):
    worker = FleetWorker(server.url, worker_id="trace-node", poll=0.2)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    try:
        yield worker
    finally:
        worker.stop()
        thread.join(5)


REQ = {"circuit": "KSA4", "num_planes": 3, "seed": 2020}


def tree_paths(node):
    yield node["path"]
    for child in node["children"]:
        yield from tree_paths(child)


def leaves(node):
    if not node["children"]:
        yield node
    for child in node["children"]:
        yield from leaves(child)


def is_solver_path(path):
    return "partition" in path.split("/")


def one_request_tree(trace_text, request_id):
    """The single span tree ``request_id`` produced in an exported trace."""
    parsed = read_trace_jsonl(io.StringIO(trace_text))
    requests, _skipped = span_trees(parsed["spans"])
    assert request_id in requests
    roots = requests[request_id]
    assert len(roots) == 1, "one request must produce exactly one tree"
    assert roots[0]["ctx"]["request"] == request_id
    return parsed, roots[0]


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable(reset=True)
    yield
    obs.disable(reset=True)


# ---------------------------------------------------------------------------
# the tentpole: one POST -> one connected span tree


@pytest.mark.parametrize("isolation", ["inline", "process"])
def test_one_post_yields_one_connected_span_tree(tmp_path, isolation):
    with running_server(tmp_path, isolation=isolation, tracing=True) as (
        server, client,
    ):
        job = client.submit(REQ)
        assert "trace" in job, "submit response must carry the trace ids"
        request_id = job["trace"]["request_id"]
        client.wait(job["id"], timeout=120)
        trace_text = client.trace_text()

    parsed, root = one_request_tree(trace_text, request_id)
    assert parsed["header"]["schema_version"] == 2
    paths = set(tree_paths(root))
    # Service-side phases...
    assert any("service.job" in p.split("/") for p in paths)
    assert any("solve" in p.split("/") for p in paths)
    # ...and the solver spans (recorded in the pool worker under
    # process isolation) landed in the same tree.
    assert any(is_solver_path(p) for p in paths)
    assert any(is_solver_path(leaf["path"]) for leaf in leaves(root)), (
        "leaves must include solver spans")

    # The waterfall renderer replays the same file.
    report = render_waterfall(parsed, request=request_id)
    assert f"request {request_id}" in report
    assert "service.job" in report


@pytest.mark.parametrize("node_capture", [False, True],
                         ids=["node-capture-off", "node-capture-on"])
def test_fleet_node_solver_spans_join_the_request_tree(tmp_path, node_capture):
    """Deep tracing through a fleet: the node's solver spans come back
    with its report — also when the node's own process capture is on."""
    if node_capture:
        obs.enable()
    with running_server(tmp_path, isolation="fleet", tracing=True,
                        retries=2) as (server, client):
        with fleet_worker(server):
            job = client.submit(REQ)
            request_id = job["trace"]["request_id"]
            client.wait(job["id"], timeout=120)
        served = client.result(job["id"])["result"]
        trace_text = client.trace_text()

    local = execute_job(request_to_job(validate_request(REQ)))
    assert served["labels"] == local["labels"].tolist()
    _parsed, root = one_request_tree(trace_text, request_id)
    assert root["path"] == "service.request"
    assert any(is_solver_path(leaf["path"]) for leaf in leaves(root)), (
        "the fleet node's solver spans must land in the request's tree")


@pytest.mark.parametrize("mode", ["deep-tracing", "process-capture"])
def test_captured_inline_solves_run_concurrently(monkeypatch, mode):
    """Two captured inline solves must be in flight at once: each
    job's ``run_jobs`` waits for the other at a barrier."""
    barrier = threading.Barrier(2, timeout=10)
    real_run_jobs = jobs_mod.run_jobs

    def rendezvous(*args, **kwargs):
        barrier.wait()
        return real_run_jobs(*args, **kwargs)

    monkeypatch.setattr(jobs_mod, "run_jobs", rendezvous)
    deep = mode == "deep-tracing"
    if not deep:
        obs.enable()
    snapshots = []
    manager = JobManager(workers=2, isolation="inline", retries=0,
                         backoff=0.0, tracing=deep,
                         trace_sink=snapshots.append).start()
    contexts = [TraceContext.new() for _ in range(2)]
    try:
        submitted = []
        for seed, ctx in zip((1, 2), contexts):
            normalized = validate_request(dict(REQ, seed=seed))
            job, _ = manager.submit(request_key(normalized), normalized, ctx=ctx)
            submitted.append(job)
        for job in submitted:
            assert job.done_event.wait(60)
    finally:
        manager.stop()
    assert [job.state for job in submitted] == ["done", "done"]

    if deep:
        assert len(snapshots) == 2
        by_request = {}
        for snap in snapshots:
            requests, skipped = span_trees(snap["events"])
            assert skipped == 0 and len(requests) == 1
            by_request.update(requests)
        assert set(by_request) == {ctx.request_id for ctx in contexts}
        for roots in by_request.values():
            assert len(roots) == 1 and roots[0]["path"] == "service.job"
            assert any(is_solver_path(p) for p in tree_paths(roots[0]))
        assert OBS.trace.aggregates == {}, "deep traces go to the sink only"
    else:
        assert snapshots == []
        partitions = [event for event in OBS.trace.events
                      if event["name"] == "partition"]
        assert len(partitions) == 2
        assert OBS.trace.aggregates["service.job/solve/partition"].count == 2


def test_client_supplied_header_continues_the_callers_trace(tmp_path):
    ctx = TraceContext.new()
    with running_server(tmp_path) as (_server, client):
        job = client.submit(REQ, ctx=ctx)
        assert job["trace"]["trace_id"] == ctx.trace_id
        assert job["trace"]["request_id"] == ctx.request_id
        client.wait(job["id"], timeout=120)


def test_trace_header_round_trips_on_responses(tmp_path):
    import urllib.request

    with running_server(tmp_path) as (server, _client):
        ctx = TraceContext.new()
        request = urllib.request.Request(
            f"{server.url}/healthz", headers={TRACE_HEADER: ctx.to_header()}
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            echoed = response.headers.get(TRACE_HEADER)
        assert echoed is not None
        parsed = TraceContext.from_header(echoed)
        assert parsed.trace_id == ctx.trace_id
        assert parsed.request_id == ctx.request_id
        # The server answered from a *child* span of the caller's.
        assert parsed.span_id != ctx.span_id


@pytest.mark.parametrize("isolation", ["inline", "process"])
def test_payloads_bitwise_identical_with_tracing_and_events_on(
        tmp_path, isolation):
    with running_server(
        tmp_path, isolation=isolation, tracing=True, events=EventLog()
    ) as (_server, client):
        served = client.partition(REQ)
    local = execute_job(request_to_job(validate_request(REQ)))
    assert np.array_equal(served["labels"], local["labels"])


# ---------------------------------------------------------------------------
# event log over HTTP


def test_job_events_route_tells_the_lifecycle_story(tmp_path):
    with running_server(tmp_path) as (_server, client):
        job = client.submit(REQ)
        client.wait(job["id"], timeout=120)
        payload = client.job_events(job["id"])
    assert payload["schema_version"] == 1
    names = [event["event"] for event in payload["events"]]
    assert names[0] == "queued"
    assert names[-1] == "done"
    for expected in ("leased", "solving", "solved", "stored"):
        assert expected in names
    # Events are stamped with the job's trace/request identity.
    assert all(event.get("request") for event in payload["events"])
    assert payload["count"] == len(payload["events"])


def test_events_route_404s_for_unknown_job(tmp_path):
    from repro.service import ServiceHTTPError

    with running_server(tmp_path) as (_server, client):
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.job_events("deadbeef")
        assert excinfo.value.status == 404


def test_cached_submit_emits_cached_and_done(tmp_path):
    with running_server(tmp_path) as (_server, client):
        first = client.submit(REQ)
        client.wait(first["id"], timeout=120)
        second = client.submit(REQ)
        assert second["outcome"] == "cached"
        names = [e["event"] for e in client.job_events(second["id"])["events"]]
    assert names == ["cached", "done"]


def test_events_disabled_via_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_EVENTS", "0")
    with running_server(tmp_path) as (_server, client):
        assert client.health()["events_enabled"] is False
        job = client.submit(REQ)
        client.wait(job["id"], timeout=120)
        assert client.job_events(job["id"])["events"] == []


# ---------------------------------------------------------------------------
# /metrics exposition + /healthz


def test_metrics_route_stays_json_by_default(tmp_path):
    with running_server(tmp_path) as (_server, client):
        client.health()
        payload = client.metrics()
    assert "metrics" in payload and "spans" in payload


def test_metrics_exposition_lints_clean_and_has_phase_histograms(tmp_path):
    with running_server(tmp_path) as (_server, client):
        job = client.submit(REQ)
        client.wait(job["id"], timeout=120)
        text = client.metrics_text()
    assert lint_exposition(text) == []
    assert "# TYPE repro_service_job_queue_wait_seconds histogram" in text
    assert "# TYPE repro_service_job_solve_seconds histogram" in text
    assert "# TYPE repro_service_job_finalize_seconds histogram" in text
    assert "# TYPE repro_service_job_store_seconds histogram" in text
    assert "# TYPE repro_service_http_seconds_jobs_submit histogram" in text
    assert "repro_span_calls_total" in text


def test_accept_header_negotiates_exposition(tmp_path):
    import urllib.request

    with running_server(tmp_path) as (server, _client):
        request = urllib.request.Request(
            f"{server.url}/metrics", headers={"Accept": "text/plain"}
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            body = response.read().decode()
    assert lint_exposition(body) == []


def test_healthz_gains_version_uptime_and_flags(tmp_path):
    from repro import __version__

    with running_server(tmp_path) as (_server, client):
        health = client.health()
    assert health["version"] == __version__
    assert health["uptime_s"] >= 0
    assert health["versions"]["events_schema"] == 1
    assert health["tracing"] is False
    assert health["events_enabled"] is True
    # Pre-existing keys are untouched.
    for key in ("status", "workers", "isolation", "queue_depth",
                "queue_size", "running", "megabatch", "store_enabled"):
        assert key in health


def test_route_labels_are_bounded():
    assert route_label("POST", "/v1/jobs") == "jobs.submit"
    assert route_label("GET", "/v1/jobs/abc123") == "jobs.status"
    assert route_label("GET", "/v1/jobs/abc123/result") == "jobs.result"
    assert route_label("GET", "/v1/jobs/abc123/events") == "jobs.events"
    assert route_label("POST", "/v1/jobs/abc123/cancel") == "jobs.cancel"
    assert route_label("GET", "/healthz") == "healthz"
    assert route_label("GET", "/metrics") == "metrics"
    assert route_label("GET", "/v1/trace") == "trace"
    assert route_label("GET", "/anything/else") == "other"
    assert route_label("DELETE", "/v1/jobs") == "other"


def test_contexts_disabled_env_restores_plain_behavior(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CONTEXT", "0")
    with running_server(tmp_path) as (server, client):
        job = client.submit(REQ)
        assert "trace" not in job
        client.wait(job["id"], timeout=120)
        import urllib.request

        with urllib.request.urlopen(f"{server.url}/healthz", timeout=30) as r:
            assert r.headers.get(TRACE_HEADER) is None


# ---------------------------------------------------------------------------
# client backpressure hardening


def test_retry_after_parsing_never_crashes():
    from repro.service.client import _retry_after_seconds

    assert _retry_after_seconds("2") == 2.0
    assert _retry_after_seconds("1.5") == 1.5
    assert _retry_after_seconds(3) == 3.0
    assert _retry_after_seconds(None, default=1.0) == 1.0
    assert _retry_after_seconds("garbage", default=1.0) == 1.0
    assert _retry_after_seconds("Wed, 21 Oct 2015 07:28:00 GMT", default=2.0) == 2.0
    assert _retry_after_seconds("-5", default=1.0) == 1.0
    assert _retry_after_seconds("0", default=1.0) == 1.0


def test_backpressure_wait_is_capped(tmp_path):
    from repro.service.errors import QueueFullError

    client = ServiceClient("http://127.0.0.1:1")
    calls = []

    def fake_submit(_body, ctx=None):
        calls.append(1)
        raise QueueFullError("full", retry_after=1000.0)

    client.submit = fake_submit
    with pytest.raises(QueueFullError):
        # One sleep would already blow max_wait, so the second rejection
        # must re-raise instead of sleeping ~17 minutes.
        client.submit_with_backpressure({}, max_attempts=10, max_wait=0.0)
    assert len(calls) == 1
    assert client.backpressure_waits == 0


def test_backpressure_counts_waits(tmp_path, monkeypatch):
    from repro.service.errors import QueueFullError

    client = ServiceClient("http://127.0.0.1:1")
    attempts = []

    def fake_submit(_body, ctx=None):
        attempts.append(1)
        if len(attempts) < 3:
            raise QueueFullError("full", retry_after=0.0)
        return {"state": "queued", "id": "x"}

    client.submit = fake_submit
    monkeypatch.setattr("time.sleep", lambda _s: None)
    job = client.submit_with_backpressure({}, max_attempts=5, max_wait=10.0)
    assert job["id"] == "x"
    assert client.backpressure_waits == 2
