"""repro.obs — dependency-free observability: spans, metrics, telemetry.

An :class:`Observability` *capture* bundles

* ``OBS.trace`` — the hierarchical span timer
  (:class:`~repro.obs.tracer.Tracer`);
* ``OBS.metrics`` — the counters/gauges/histograms registry
  (:class:`~repro.obs.metrics.MetricsRegistry`);
* ``OBS.telemetry`` — per-iteration solver records
  (:class:`~repro.obs.telemetry.SolverTelemetry`).

Scope rule: :data:`OBS` is the one name every call site imports, and
each attribute of it resolves on the capture *active in the current
context* (a :class:`contextvars.ContextVar`).  The default is the
process capture, which a new thread also sees.  :func:`capture` opens a
private, enabled capture for the ``with`` block and is the only way
code opens one; threads running concurrent scopes never share a span
stack, so none of them waits on another.  What a scope recorded leaves
it only as data: :meth:`Observability.snapshot` exports it and
:func:`merge_snapshot` folds it into the capture active at the call
(exactly once per origin, under a short lock, so concurrent scopes can
fold into the process capture).  A process-pool worker forked inside a
scope inherits that scope, so a worker always opens its own.

Everything is **off by default** and instrumented call sites are
written so the disabled path costs one attribute check (``if
OBS.enabled:``) or one no-op context manager — see
``tests/test_obs_overhead.py`` for the enforced budget.  Turn the
active capture on with :func:`enable` / the ``REPRO_TRACE`` environment
variable / the CLI ``--trace`` / ``--profile`` flags, and read results via
``OBS.trace.render_table()``, ``OBS.metrics.as_dict()`` or
:func:`repro.obs.export.write_trace_jsonl`.

``REPRO_TRACE`` semantics (checked at import and again by the CLI so
monkeypatched environments behave):

* unset / ``""`` / ``"0"`` — disabled;
* ``"1"``, ``"true"``, ``"yes"``, ``"on"`` (any case) — capture
  enabled, nothing auto-written;
* anything else — treated as an output path: capture enabled and the
  CLI writes the JSONL trace there on exit.

Typical library use::

    from repro.obs import OBS, enable, disable

    enable()
    result = partition(netlist, 5)
    print(OBS.trace.render_table())
    print(result.trace.telemetry[:3])   # per-iteration F1..F4 records
    disable(reset=True)

    with capture() as scope:            # a private window, e.g. per job
        partition(netlist, 5)
    merge_snapshot(scope.snapshot())    # fold it into the outer capture
"""

import contextlib
import contextvars
import functools
import os
import threading
import uuid

from repro import envcfg
from repro.obs.context import TRACE_HEADER, TraceContext, context_enabled
from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    EventLog,
    default_events,
    read_events,
    set_default_events,
)
from repro.obs.export import read_trace_jsonl, write_telemetry_csv, write_trace_jsonl
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.promtext import lint_exposition, render_exposition, render_metrics
from repro.obs.telemetry import ITERATION_FIELDS, TRACE_SCHEMA_VERSION, SolverTelemetry
from repro.obs.tracer import NOOP_SPAN, Span, Tracer

__all__ = [
    "OBS",
    "Observability",
    "Tracer",
    "Span",
    "NOOP_SPAN",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "SolverTelemetry",
    "TRACE_SCHEMA_VERSION",
    "ITERATION_FIELDS",
    "TRACE_HEADER",
    "TraceContext",
    "context_enabled",
    "EVENT_SCHEMA_VERSION",
    "EventLog",
    "default_events",
    "set_default_events",
    "read_events",
    "render_metrics",
    "render_exposition",
    "lint_exposition",
    "capture",
    "enable",
    "disable",
    "enabled",
    "reset",
    "snapshot",
    "merge_snapshot",
    "env_trace_path",
    "apply_env",
    "traced",
    "write_trace_jsonl",
    "read_trace_jsonl",
    "write_telemetry_csv",
]

_TRUTHY = set(envcfg.TRUTHY_VALUES)


class Observability:
    """Bundle of tracer + metrics + telemetry with one master switch."""

    __slots__ = ("enabled", "trace", "metrics", "telemetry", "_merged_origins",
                 "_lock")

    def __init__(self):
        self.enabled = False
        self.trace = Tracer()
        self.metrics = MetricsRegistry()
        self.telemetry = SolverTelemetry()
        self._merged_origins = set()
        self._lock = threading.Lock()

    def enable(self):
        self.enabled = True
        self.trace.enabled = True
        return self

    def disable(self, reset=False):
        self.enabled = False
        self.trace.enabled = False
        if reset:
            self.reset()
        return self

    def reset(self):
        self.trace.reset()
        self.metrics.reset()
        self.telemetry.reset()
        self._merged_origins = set()
        return self

    # -- cross-process aggregation -------------------------------------
    def snapshot(self, origin=None):
        """Export everything recorded so far as plain JSON-able data.

        ``origin`` uniquely identifies the producing capture window (a
        fresh uuid per call by default); :meth:`merge_snapshot` uses it
        to guarantee each snapshot is folded in exactly once.  Workers
        of the parallel suite runner call this after each job and ship
        the result back over the process boundary (no live instrument
        objects are pickled).
        """
        if origin is None:
            origin = f"{os.getpid()}-{uuid.uuid4().hex}"
        with self._lock:
            return {
                "origin": origin,
                "metrics": self.metrics.as_dict(),
                "spans": self.trace.as_dict(),
                "events": list(self.trace.events),
                "events_dropped": self.trace.events_dropped,
                "telemetry": {
                    "runs": [dict(r) for r in self.telemetry.runs],
                    "records": [dict(r) for r in self.telemetry.records],
                },
            }

    def merge_snapshot(self, snap):
        """Fold a :meth:`snapshot` into this capture's collectors.

        Returns True when merged, False when the snapshot's origin was
        already merged (so repeated merges never silently double-count).
        Telemetry run ids are re-based onto this capture's run counter
        so records from different workers never collide.  Concurrent
        merges into one capture serialize on a short internal lock.
        """
        with self._lock:
            origin = snap.get("origin")
            if origin is not None and origin in self._merged_origins:
                return False
            self.metrics.merge_dict(snap.get("metrics", {}))
            self.trace.merge_dict(
                snap.get("spans", {}),
                events=snap.get("events", ()),
                events_dropped=snap.get("events_dropped", 0),
            )
            telemetry = snap.get("telemetry") or {}
            run_offset = len(self.telemetry.runs)
            for run in telemetry.get("runs", ()):
                run = dict(run)
                run["run"] = run.get("run", 0) + run_offset
                self.telemetry.runs.append(run)
            for record in telemetry.get("records", ()):
                record = dict(record)
                record["run"] = record.get("run", 0) + run_offset
                self.telemetry.records.append(record)
            if origin is not None:
                self._merged_origins.add(origin)
            return True


_ACTIVE = contextvars.ContextVar("repro.obs.active", default=Observability())
_active = _ACTIVE.get


class _ActiveCapture:
    """:data:`OBS`: every attribute resolves on the active capture."""

    __slots__ = ()

    enabled = property(lambda self: _active().enabled)
    trace = property(lambda self: _active().trace)
    metrics = property(lambda self: _active().metrics)
    telemetry = property(lambda self: _active().telemetry)

    def __getattr__(self, name):
        return getattr(_active(), name)


#: The capture active in the current context (see the module docstring).
OBS = _ActiveCapture()


@contextlib.contextmanager
def capture(ctx=None):
    """Run the ``with`` block in a private, enabled capture; yields it.

    ``ctx`` (a :class:`TraceContext`) becomes the scope tracer's
    context, so its spans link into the tree that context belongs to.
    The scope is read after the block via its
    :meth:`~Observability.snapshot`.
    """
    scope = Observability().enable()
    scope.trace.context = ctx
    token = _ACTIVE.set(scope)
    try:
        yield scope
    finally:
        _ACTIVE.reset(token)


def enable():
    """Turn on span, metric and solver-telemetry capture."""
    return OBS.enable()


def disable(reset=False):
    """Turn capture off; optionally drop everything recorded so far."""
    return OBS.disable(reset=reset)


def enabled():
    return OBS.enabled


def reset():
    return OBS.reset()


def snapshot(origin=None):
    """Export the active capture's recorded state as plain JSON-able data."""
    return OBS.snapshot(origin=origin)


def merge_snapshot(snap):
    """Fold a snapshot into the active capture (exactly once per origin)."""
    return OBS.merge_snapshot(snap)


def traced(name, result_attrs=None):
    """Decorator: run the function under a span named ``name``.

    When capture is disabled the wrapper adds one attribute check and a
    plain call — suitable for cool paths (parsers, planners), not for
    per-iteration hot loops (those check ``OBS.enabled`` inline).

    ``result_attrs``, when given, maps the function's return value to a
    dict of span attributes (e.g. ``lambda netlist: {"gates":
    netlist.num_gates}``); it only runs while capture is enabled.  A
    ``<name>.calls`` counter is incremented per traced call.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not OBS.enabled:
                return fn(*args, **kwargs)
            OBS.metrics.counter(f"{name}.calls").inc()
            with OBS.trace.span(name) as span:
                result = fn(*args, **kwargs)
                if result_attrs is not None:
                    span.set(**result_attrs(result))
                return result

        return wrapper

    return decorate


def env_trace_path(environ=None):
    """The output path carried by ``REPRO_TRACE``, or ``None``.

    A bare truthy toggle (``1``/``true``/...) enables capture without
    naming a file, so this returns ``None`` for it.
    """
    value = envcfg.raw("REPRO_TRACE", environ)
    if not value or value == "0" or value.lower() in _TRUTHY:
        return None
    return value


def apply_env(environ=None):
    """Honor ``REPRO_TRACE`` (see the module docstring); returns whether
    capture ended up enabled."""
    value = envcfg.raw("REPRO_TRACE", environ)
    if value and value != "0":
        OBS.enable()
        return True
    return OBS.enabled


apply_env()
