"""Scoped capture: ``obs.capture`` windows behind one context variable.

``OBS`` resolves on the capture active in the current context; a
``with obs.capture():`` block records into a private scope that nothing
else sees, a new thread sees the process capture, and a scope leaves
only as a snapshot merged with :func:`repro.obs.merge_snapshot`.
"""

import multiprocessing
import sys
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import obs
from repro.harness.runner import SuiteJob, _worker_run, run_jobs
from repro.obs import OBS, TraceContext

JOB = SuiteJob(kind="partition", circuit="KSA4", num_planes=3, seed=5)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable(reset=True)
    yield
    obs.disable(reset=True)


def _counter(capture, name):
    entry = capture.metrics.as_dict().get(name)
    return entry["value"] if entry else 0


def test_nested_and_sibling_scopes_are_isolated():
    process_metrics = OBS.metrics
    with obs.capture() as outer:
        assert OBS.enabled and OBS.metrics is outer.metrics
        OBS.metrics.counter("outer").inc()
        with OBS.trace.span("outer.span"):
            with obs.capture() as inner:
                assert OBS.metrics is inner.metrics
                OBS.metrics.counter("inner").inc()
                with OBS.trace.span("inner.span"):
                    pass
            assert OBS.metrics is outer.metrics
    with obs.capture() as sibling:
        OBS.metrics.counter("sibling").inc()

    assert OBS.metrics is process_metrics and not OBS.enabled
    assert set(outer.metrics.as_dict()) == {"outer"}
    assert set(inner.metrics.as_dict()) == {"inner"}
    assert set(sibling.metrics.as_dict()) == {"sibling"}
    # The inner scope's span stack starts empty: no leaked parent path.
    assert set(outer.trace.aggregates) == {"outer.span"}
    assert set(inner.trace.aggregates) == {"inner.span"}
    assert process_metrics.as_dict() == {}


def test_scope_context_parents_its_spans():
    ctx = TraceContext.new()
    with obs.capture(ctx) as scope:
        with OBS.trace.span("child"):
            pass
    (event,) = scope.trace.events
    assert event["ctx"]["parent"] == ctx.span_id
    assert event["ctx"]["trace"] == ctx.trace_id


def test_a_new_thread_sees_the_process_capture():
    process_metrics = OBS.metrics
    seen = {}

    def probe():
        seen["metrics"] = OBS.metrics
        seen["enabled"] = OBS.enabled

    with obs.capture() as scope:
        thread = threading.Thread(target=probe)
        thread.start()
        thread.join(10)
        assert not thread.is_alive()
        assert OBS.metrics is scope.metrics
    assert seen == {"metrics": process_metrics, "enabled": False}


def test_forked_pool_worker_opens_its_own_scope():
    """A forked worker inherits the submitting thread's scope — with its
    open span and recorded metrics — and must not record into it."""
    fork = multiprocessing.get_context("fork")
    with obs.capture() as scope:
        OBS.metrics.counter("scope.marker").inc()
        with OBS.trace.span("outer"):
            with ProcessPoolExecutor(max_workers=1, mp_context=fork) as pool:
                _payload, snap = pool.submit(
                    _worker_run, True, None, "run", 0, 1, JOB).result(120)
                _payload, quiet = pool.submit(
                    _worker_run, False, None, "run", 1, 1, JOB).result(120)
    assert "scope.marker" not in snap["metrics"]
    assert snap["metrics"]["partition.calls"]["value"] == 1
    paths = set(snap["spans"])
    assert "partition" in paths
    assert not any(path.startswith("outer") for path in paths)
    assert quiet is None
    assert _counter(scope, "scope.marker") == 1


def test_pool_snapshots_merge_into_the_callers_scope():
    with obs.capture() as scope:
        OBS.metrics.counter("scope.marker").inc()
        with OBS.trace.span("outer"):
            run_jobs([JOB], jobs=1, retries=0, force_pool=True)
    assert _counter(scope, "scope.marker") == 1
    assert _counter(scope, "partition.calls") == 1
    assert "partition" in scope.trace.aggregates
    assert "outer/runner.pool" in scope.trace.aggregates
    assert OBS.metrics.as_dict() == {}


def test_concurrent_merges_sum_every_counter_exactly():
    with obs.capture() as source:
        for index in range(20):
            OBS.metrics.counter(f"c{index}").inc(index + 1)
            OBS.metrics.histogram(f"h{index}").observe(0.5)
        OBS.telemetry.begin_run("batched", 1)
        with OBS.trace.span("s"):
            pass
    snap = source.snapshot()
    target = obs.Observability()
    threads_n, merges_n = 8, 40
    start = threading.Barrier(threads_n, timeout=30)

    def merge(thread_index):
        start.wait()
        for merge_index in range(merges_n):
            origin = f"t{thread_index}/m{merge_index}"
            assert target.merge_snapshot(dict(snap, origin=origin))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # provoke interleaving of the merges
    try:
        threads = [threading.Thread(target=merge, args=(i,))
                   for i in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)

    total = threads_n * merges_n
    metrics = target.metrics.as_dict()
    for index in range(20):
        assert metrics[f"c{index}"]["value"] == total * (index + 1)
        histogram = metrics[f"h{index}"]
        assert histogram["count"] == total
        assert histogram["sum"] == total * 0.5
        assert sum(histogram["buckets"].values()) == total
    assert target.trace.aggregates["s"].count == total
    assert len(target.trace.events) == total
    runs = [record["run"] for record in target.telemetry.runs]
    assert sorted(runs) == list(range(total))


def test_disable_reset_leaves_no_scope_behind():
    process_metrics = OBS.metrics
    obs.enable()
    with obs.capture():
        OBS.metrics.counter("inside").inc()
        obs.disable(reset=True)  # acts on the scope, not the process
        assert not OBS.enabled and OBS.metrics.as_dict() == {}
    assert OBS.enabled and OBS.metrics is process_metrics
    obs.disable(reset=True)
    assert not OBS.enabled
    assert OBS.metrics is process_metrics
    assert OBS.metrics.as_dict() == {} and OBS.trace.aggregates == {}
