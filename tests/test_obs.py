"""Tests for the repro.obs observability substrate (tracer + metrics)."""

import io
import time

import pytest

from repro import obs
from repro.obs import (
    NOOP_SPAN,
    OBS,
    MetricsRegistry,
    Tracer,
    read_trace_jsonl,
    write_trace_jsonl,
)
from repro.obs.telemetry import TRACE_SCHEMA_VERSION, SolverTelemetry


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable(reset=True)
    yield
    obs.disable(reset=True)


# ---------------------------------------------------------------------------
# tracer


def test_disabled_tracer_returns_shared_noop():
    tracer = Tracer()
    span = tracer.span("anything", attr=1)
    assert span is NOOP_SPAN
    with span as inner:
        assert inner is NOOP_SPAN
        inner.set(more="attrs")  # no-op, must not raise
    assert tracer.aggregates == {}
    assert tracer.events == []


def test_span_nesting_builds_slash_paths():
    tracer = Tracer()
    tracer.enabled = True
    with tracer.span("partition"):
        with tracer.span("solve"):
            with tracer.span("descent"):
                pass
            with tracer.span("descent"):
                pass
        with tracer.span("score"):
            pass
    paths = set(tracer.aggregates)
    assert paths == {
        "partition",
        "partition/solve",
        "partition/solve/descent",
        "partition/score",
    }
    assert tracer.aggregates["partition/solve/descent"].count == 2
    assert tracer.aggregates["partition"].count == 1
    # parent wall time includes the children
    assert (
        tracer.aggregates["partition"].total_s
        >= tracer.aggregates["partition/solve"].total_s
    )


def test_sibling_spans_do_not_nest():
    tracer = Tracer()
    tracer.enabled = True
    with tracer.span("a"):
        pass
    with tracer.span("b"):
        pass
    assert set(tracer.aggregates) == {"a", "b"}


def test_span_attrs_and_set():
    tracer = Tracer()
    tracer.enabled = True
    with tracer.span("solve", engine="batched") as span:
        span.set(iterations=42)
    agg = tracer.aggregates["solve"]
    assert agg.attrs == {"engine": "batched", "iterations": 42}
    assert tracer.events[0]["attrs"] == {"engine": "batched", "iterations": 42}
    assert tracer.events[0]["duration_s"] >= 0.0


def test_span_records_on_exception_and_unwinds_stack():
    tracer = Tracer()
    tracer.enabled = True
    with pytest.raises(ValueError):
        with tracer.span("outer"):
            with tracer.span("inner"):
                raise ValueError("boom")
    assert tracer.aggregates["outer/inner"].failures == 1
    assert tracer.aggregates["outer"].failures == 1
    assert tracer._stack == []
    # a fresh span afterwards is a root again
    with tracer.span("after"):
        pass
    assert "after" in tracer.aggregates


def test_tracer_event_cap_drops_beyond_max_events():
    tracer = Tracer(max_events=3)
    tracer.enabled = True
    for _ in range(5):
        with tracer.span("s"):
            pass
    assert len(tracer.events) == 3
    assert tracer.events_dropped == 2
    assert tracer.aggregates["s"].count == 5  # aggregates are never dropped


def test_tracer_reset_and_merge():
    first = Tracer()
    first.enabled = True
    with first.span("x"):
        pass
    second = Tracer()
    second.enabled = True
    with second.span("x"):
        pass
    with second.span("y"):
        pass
    first.merge(second)
    assert first.aggregates["x"].count == 2
    assert first.aggregates["y"].count == 1
    assert len(first.events) == 3
    first.reset()
    assert first.aggregates == {} and first.events == []
    assert first.enabled  # reset keeps the switch


def test_render_table_lists_all_paths():
    tracer = Tracer()
    tracer.enabled = True
    with tracer.span("partition"):
        with tracer.span("solve"):
            pass
    table = tracer.render_table()
    assert "partition" in table and "solve" in table
    assert "calls" in table and "total ms" in table


# ---------------------------------------------------------------------------
# metrics registry


def test_counter_gauge_histogram_basics():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.counter("c").inc(4)
    registry.gauge("g").set(2.5)
    hist = registry.histogram("h", buckets=(1.0, 10.0))
    for value in (0.5, 5.0, 50.0):
        hist.observe(value)
    data = registry.as_dict()
    assert data["c"] == {"kind": "counter", "value": 5}
    assert data["g"] == {"kind": "gauge", "value": 2.5}
    assert data["h"]["count"] == 3
    assert data["h"]["min"] == 0.5 and data["h"]["max"] == 50.0
    assert data["h"]["buckets"] == {"1.0": 1, "10.0": 1, "+inf": 1}


def test_counter_rejects_decrease_and_kind_conflicts():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.counter("c").inc(-1)
    registry.counter("c")
    with pytest.raises(ValueError):
        registry.gauge("c")


def test_registry_merge():
    a = MetricsRegistry()
    b = MetricsRegistry()
    a.counter("calls").inc(2)
    b.counter("calls").inc(3)
    b.counter("only_b").inc(7)
    a.gauge("g").set(1)
    b.gauge("g").set(9)
    b.gauge("empty_gauge")
    a.histogram("h", buckets=(1.0,)).observe(0.5)
    b.histogram("h", buckets=(1.0,)).observe(2.0)
    a.merge(b)
    data = a.as_dict()
    assert data["calls"]["value"] == 5
    assert data["only_b"]["value"] == 7
    assert data["g"]["value"] == 9  # latest write wins
    assert data["h"]["count"] == 2
    assert data["h"]["buckets"] == {"1.0": 1, "+inf": 1}


def test_registry_merge_mismatched_buckets_falls_back_to_overflow():
    a = MetricsRegistry()
    b = MetricsRegistry()
    a.histogram("h", buckets=(1.0,)).observe(0.5)
    b.histogram("h", buckets=(2.0,)).observe(0.5)
    a.merge(b)
    data = a.as_dict()["h"]
    assert data["count"] == 2
    assert data["buckets"]["+inf"] == 1


def test_registry_reset():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.reset()
    assert len(registry) == 0
    assert "c" not in registry


def test_registry_render_table():
    registry = MetricsRegistry()
    registry.counter("kernel.evaluations").inc(3)
    registry.histogram("h").observe(1.0)
    table = registry.render_table()
    assert "kernel.evaluations" in table and "counter" in table
    assert "count=1" in table


# ---------------------------------------------------------------------------
# global switch, env toggle, traced decorator


def test_enable_disable_roundtrip():
    assert not obs.enabled()
    obs.enable()
    assert obs.enabled() and OBS.trace.enabled
    with OBS.trace.span("x"):
        pass
    obs.disable()
    assert not obs.enabled()
    assert "x" in OBS.trace.aggregates  # disable alone keeps the data
    obs.disable(reset=True)
    assert OBS.trace.aggregates == {}


def test_env_trace_path_semantics():
    assert obs.env_trace_path({}) is None
    assert obs.env_trace_path({"REPRO_TRACE": ""}) is None
    assert obs.env_trace_path({"REPRO_TRACE": "0"}) is None
    assert obs.env_trace_path({"REPRO_TRACE": "1"}) is None
    assert obs.env_trace_path({"REPRO_TRACE": "TRUE"}) is None
    assert obs.env_trace_path({"REPRO_TRACE": "out.jsonl"}) == "out.jsonl"


def test_apply_env_enables_capture():
    assert not obs.apply_env({})
    assert not obs.enabled()
    assert obs.apply_env({"REPRO_TRACE": "1"})
    assert obs.enabled()


def test_traced_decorator():
    calls = []

    @obs.traced("unit_test_op", result_attrs=lambda r: {"result": r})
    def op(x):
        calls.append(x)
        return x * 2

    assert op(3) == 6  # disabled: plain call, nothing recorded
    assert "unit_test_op" not in OBS.trace.aggregates
    obs.enable()
    assert op(5) == 10
    assert OBS.trace.aggregates["unit_test_op"].count == 1
    assert OBS.trace.aggregates["unit_test_op"].attrs == {"result": 10}
    assert OBS.metrics.counter("unit_test_op.calls").value == 1


# ---------------------------------------------------------------------------
# JSONL trace round trip


def test_trace_jsonl_roundtrip():
    tracer = Tracer()
    tracer.enabled = True
    with tracer.span("partition", circuit="KSA8"):
        with tracer.span("solve"):
            time.sleep(0)
    registry = MetricsRegistry()
    registry.counter("kernel.evaluations").inc(12)
    telemetry = SolverTelemetry()
    run = telemetry.begin_run("batched", 2)
    telemetry.record(run, 0, 0, 0.1, 0.2, 0.3, -0.4, 1.0, None, 2.5, 2)
    telemetry.record(run, 1, 0, 0.1, 0.2, 0.3, -0.4, 0.9, 0.05, None, 2)

    buffer = io.StringIO()
    lines = write_trace_jsonl(
        buffer, tracer=tracer, metrics=registry, telemetry=telemetry, meta={"m": 1}
    )
    text = buffer.getvalue()
    assert lines == len(text.splitlines())

    parsed = read_trace_jsonl(io.StringIO(text))
    assert parsed["header"]["schema_version"] == TRACE_SCHEMA_VERSION
    assert parsed["header"]["meta"] == {"m": 1}
    assert parsed["runs"] == [{"run": run, "engine": "batched", "restarts": 2}]
    assert parsed["iterations"] == telemetry.records
    assert [s["path"] for s in parsed["spans"]] == ["partition/solve", "partition"]
    assert parsed["metrics"]["kernel.evaluations"]["value"] == 12


def test_trace_jsonl_roundtrip_via_file(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    telemetry = SolverTelemetry()
    run = telemetry.begin_run("batched", 1)
    telemetry.record(run, 0, 0, 1, 2, 3, 4, 5, None, 6.0, 1)
    write_trace_jsonl(path, telemetry=telemetry)
    parsed = read_trace_jsonl(path)
    assert parsed["iterations"] == telemetry.records
    assert parsed["spans"] == [] and parsed["metrics"] == {}


def test_read_trace_rejects_malformed_files():
    with pytest.raises(ValueError):
        read_trace_jsonl(io.StringIO(""))
    with pytest.raises(ValueError):
        read_trace_jsonl(io.StringIO('{"type": "iteration"}\n'))
    good_header = '{"type": "header", "schema_version": 1}\n'
    with pytest.raises(ValueError):
        read_trace_jsonl(io.StringIO(good_header + '{"type": "martian"}\n'))


# ---------------------------------------------------------------------------
# cross-process snapshots


def _record_some_activity():
    obs.enable()
    with OBS.trace.span("work"):
        OBS.metrics.counter("jobs").inc(3)
    run = OBS.telemetry.begin_run("batched", 2)
    OBS.telemetry.record(run, 0, 0, 1, 2, 3, 4, 5, None, 6.0, 1)


def test_snapshot_is_plain_data():
    import json

    _record_some_activity()
    snap = obs.snapshot()
    json.dumps(snap)  # must ship over a process boundary as-is
    assert snap["metrics"]["jobs"]["value"] == 3
    assert "work" in snap["spans"]
    assert snap["telemetry"]["records"][0]["run"] == 0


def test_merge_snapshot_exactly_once_per_origin():
    _record_some_activity()
    snap = obs.snapshot(origin="worker-1")
    obs.disable(reset=True)
    obs.enable()

    assert obs.merge_snapshot(snap) is True
    assert obs.merge_snapshot(snap) is False  # repeated merge is a no-op
    assert OBS.metrics.counter("jobs").value == 3  # not 6
    assert OBS.trace.aggregates["work"].count == 1


def test_merge_snapshot_distinct_origins_accumulate():
    _record_some_activity()
    snap_a = obs.snapshot(origin="worker-a")
    snap_b = dict(snap_a, origin="worker-b")
    obs.disable(reset=True)
    obs.enable()

    assert obs.merge_snapshot(snap_a) and obs.merge_snapshot(snap_b)
    assert OBS.metrics.counter("jobs").value == 6


def test_merge_snapshot_rebases_telemetry_runs():
    _record_some_activity()
    snap = obs.snapshot(origin="worker-1")
    obs.disable(reset=True)
    obs.enable()

    # The parent already holds one run; the worker's run 0 must not collide.
    parent_run = OBS.telemetry.begin_run("batched", 1)
    assert parent_run == 0
    obs.merge_snapshot(snap)
    assert [run["run"] for run in OBS.telemetry.runs] == [0, 1]
    assert OBS.telemetry.records[-1]["run"] == 1


def test_reset_forgets_merged_origins():
    _record_some_activity()
    snap = obs.snapshot(origin="worker-1")
    obs.disable(reset=True)
    obs.enable()

    assert obs.merge_snapshot(snap) is True
    obs.reset()
    assert obs.merge_snapshot(snap) is True  # a fresh window merges again
    assert OBS.metrics.counter("jobs").value == 3
