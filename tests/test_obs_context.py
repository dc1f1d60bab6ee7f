"""Trace context: deterministic ids, wire/header forms, tracer wiring."""

import pytest

from repro import obs
from repro.obs import OBS, TraceContext, Tracer
from repro.obs.context import context_enabled
from repro.obs.telemetry import TRACE_SCHEMA_VERSION


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable(reset=True)
    yield
    obs.disable(reset=True)


# ---------------------------------------------------------------------------
# identity derivation


def test_new_context_has_well_formed_ids():
    ctx = TraceContext.new()
    assert len(ctx.trace_id) == 32
    assert len(ctx.request_id) == 16
    assert len(ctx.span_id) == 16
    assert ctx.parent_id is None


def test_child_derivation_is_deterministic_per_key():
    ctx = TraceContext(trace_id="a" * 32, request_id="b" * 16, span_id="c" * 16)
    again = TraceContext(trace_id="a" * 32, request_id="b" * 16, span_id="c" * 16)
    assert ctx.child("job").span_id == again.child("job").span_id
    assert ctx.child("job").parent_id == ctx.span_id
    assert ctx.child("job").span_id != ctx.child("other").span_id


def test_anonymous_children_get_distinct_sequential_ids():
    ctx = TraceContext.new()
    first, second = ctx.child(), ctx.child()
    assert first.span_id != second.span_id
    assert first.parent_id == second.parent_id == ctx.span_id


def test_namespaced_keeps_position_but_forks_derivation():
    ctx = TraceContext.new().child("job")
    left = ctx.namespaced("job0/a1")
    right = ctx.namespaced("job1/a1")
    # Same tree position...
    assert left.span_id == right.span_id == ctx.span_id
    assert left.parent_id == right.parent_id == ctx.parent_id
    # ...but disjoint child subtrees that both parent back to it.
    assert left.child("solve").span_id != right.child("solve").span_id
    assert left.child("solve").parent_id == ctx.span_id


def test_wire_round_trip():
    ctx = TraceContext.new().child("job").namespaced("w1")
    back = TraceContext.from_wire(ctx.to_wire())
    assert (back.trace_id, back.request_id, back.span_id, back.parent_id,
            back.salt) == (ctx.trace_id, ctx.request_id, ctx.span_id,
                           ctx.parent_id, ctx.salt)


@pytest.mark.parametrize("bad", [None, "x", 7, {}, {"trace": "a"},
                                 {"trace": 1, "request": "b", "span": "c"}])
def test_from_wire_rejects_malformed(bad):
    assert TraceContext.from_wire(bad) is None


def test_header_round_trip():
    ctx = TraceContext.new()
    parsed = TraceContext.from_header(ctx.to_header())
    assert parsed.trace_id == ctx.trace_id
    assert parsed.span_id == ctx.span_id
    assert parsed.request_id == ctx.request_id


@pytest.mark.parametrize("bad", [None, "", "garbage", "a-b", "a-b-c-d",
                                 "ZZZZZZZZ-" + "a" * 16 + "-" + "b" * 16])
def test_from_header_ignores_malformed(bad):
    assert TraceContext.from_header(bad) is None


def test_context_enabled_env_convention():
    assert context_enabled({})
    assert context_enabled({"REPRO_TRACE_CONTEXT": "1"})
    assert not context_enabled({"REPRO_TRACE_CONTEXT": "0"})
    assert not context_enabled({"REPRO_TRACE_CONTEXT": "off"})


# ---------------------------------------------------------------------------
# tracer integration


def test_spans_without_context_record_exactly_the_v1_shape():
    tracer = Tracer()
    tracer.enabled = True
    with tracer.span("solo", attr=1):
        pass
    (event,) = tracer.events
    assert set(event) == {"path", "name", "start_s", "duration_s", "attrs"}
    assert event["attrs"] == {"attr": 1}


def test_spans_under_a_context_link_into_one_tree():
    tracer = Tracer()
    tracer.enabled = True
    root_ctx = TraceContext.new()
    tracer.context = root_ctx
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    inner, outer = tracer.events
    assert outer["ctx"]["parent"] == root_ctx.span_id
    assert inner["ctx"]["parent"] == outer["ctx"]["span"]
    assert inner["ctx"]["trace"] == outer["ctx"]["trace"] == root_ctx.trace_id
    assert inner["ctx"]["request"] == root_ctx.request_id
    assert "start_unix" in inner and "start_unix" in outer
    # Exiting all spans restores the original context.
    assert tracer.context is root_ctx


def test_explicit_ctx_pins_a_span_and_restores_on_exit():
    tracer = Tracer()
    tracer.enabled = True
    carried = TraceContext.new().child("job")
    with tracer.span("service.job", ctx=carried):
        assert tracer.context is carried
    assert tracer.context is None
    (event,) = tracer.events
    assert event["ctx"]["span"] == carried.span_id


def test_tracer_reset_clears_context():
    tracer = Tracer()
    tracer.context = TraceContext.new()
    tracer.reset()
    assert tracer.context is None


def test_trace_schema_version_bumped_for_ctx_records():
    # v2: span records may carry start_unix + a ctx block.
    assert TRACE_SCHEMA_VERSION == 2


# ---------------------------------------------------------------------------
# cross-process re-parenting through the suite runner


def test_pool_workers_reparent_under_the_parent_context():
    """--jobs 2 with capture + context on: worker spans come back merged
    and every one of them links into the parent's trace."""
    from repro.harness.runner import SuiteJob, run_jobs

    obs.enable()
    root_ctx = TraceContext.new()
    OBS.trace.context = root_ctx
    jobs = [
        SuiteJob(kind="partition", circuit="KSA4", num_planes=3, seed=s)
        for s in (1, 2)
    ]
    payloads = run_jobs(jobs, jobs=2, retries=0, force_pool=True)
    assert len(payloads) == 2
    ctx_events = [e for e in OBS.trace.events if "ctx" in e]
    assert ctx_events, "worker spans must carry trace context"
    assert {e["ctx"]["trace"] for e in ctx_events} == {root_ctx.trace_id}
    assert {e["ctx"]["request"] for e in ctx_events} == {root_ctx.request_id}
    # Each worker's root solver span parents directly under the span
    # that was live in the parent when the pool fanned out.
    roots = [e for e in ctx_events if e["ctx"]["parent"] == root_ctx.span_id]
    assert len(roots) >= 2
    # Disjoint subtrees: the two workers share no span ids.
    span_ids = [e["ctx"]["span"] for e in ctx_events]
    assert len(span_ids) == len(set(span_ids))


def test_megabatch_snapshot_round_trip_preserves_ctx_events():
    """A mega-batch group's capture snapshots and merges losslessly."""
    from repro.harness.runner import SuiteJob, execute_job, run_jobs

    jobs = [
        SuiteJob(kind="partition", circuit="KSA4", num_planes=3, seed=s)
        for s in (1, 2)
    ]
    solo = [execute_job(job) for job in jobs]
    obs.enable()
    OBS.trace.context = TraceContext.new()
    packed = run_jobs(jobs, jobs=1, retries=0)
    assert OBS.metrics.counter("runner.megabatch.packed_jobs").value == 2
    import numpy as np

    for a, b in zip(solo, packed):
        assert np.array_equal(a["labels"], b["labels"])

    snap = OBS.snapshot(origin="test/megabatch")
    ctx_events = [e for e in snap["events"] if "ctx" in e]
    assert ctx_events
    fresh = obs.Observability()
    assert fresh.merge_snapshot(snap)
    assert not fresh.merge_snapshot(snap)  # exactly once per origin
    assert [e for e in fresh.trace.events if "ctx" in e] == ctx_events
