"""Hierarchical span timer.

A *span* is a named, timed region of code opened with
``trace.span("solve")`` as a context manager.  Spans nest: a span opened
while another is active becomes its child, and its *path* is the
slash-joined chain of names from the root (``"partition/solve"``).  The
tracer keeps two views of the completed spans:

* an **aggregate** per path — call count, total/min/max wall time and
  the attributes of the most recent call — rendered by
  :meth:`Tracer.render_table`;
* an ordered **event list** (bounded, see ``max_events``) for JSONL
  export, one record per completed span.

Overhead contract: when the tracer is disabled (the default),
:meth:`Tracer.span` returns a shared no-op context manager after a
single attribute check — no allocation, no clock read.  Hot loops may
therefore be instrumented unconditionally; see
``tests/test_obs_overhead.py`` for the enforced <2 % budget.

The tracer is deliberately dependency-free (standard library only),
and one tracer serves one thread at a time: the span stack is one plain
list.  Concurrent work records into separate tracers — each
:func:`repro.obs.capture` scope owns one — that are folded together
with :meth:`merge` / :meth:`merge_dict`.

Trace context (:mod:`repro.obs.context`): a tracer may carry a
:class:`~repro.obs.context.TraceContext` in :attr:`Tracer.context`.
While one is set, every completed span event additionally records a
``ctx`` dict (``trace``/``span``/``parent``/``request`` ids) plus a
``start_unix`` wall-clock stamp, and entering a span derives a child
context (restored on exit) so nested spans link into one tree that
survives process boundaries.  With no context set — the default —
events record exactly as before and the per-span overhead is one
``None`` check.
"""

import time


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs):
        return self


NOOP_SPAN = _NoopSpan()


class Span:
    """One live span; records itself into the tracer on exit."""

    __slots__ = ("tracer", "name", "attrs", "path", "start", "duration_s",
                 "ctx", "start_unix", "_saved_ctx")

    def __init__(self, tracer, name, attrs, ctx=None):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.path = None
        self.start = None
        self.duration_s = None
        self.ctx = ctx
        self.start_unix = None
        self._saved_ctx = None

    def set(self, **attrs):
        """Attach (or update) attributes on the live span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self):
        stack = self.tracer._stack
        parent = stack[-1] if stack else None
        self.path = f"{parent.path}/{self.name}" if parent is not None else self.name
        stack.append(self)
        self._saved_ctx = self.tracer.context
        if self._saved_ctx is not None:
            if self.ctx is None:
                self.ctx = self._saved_ctx.child()
            self.tracer.context = self.ctx
        elif self.ctx is not None:
            self.tracer.context = self.ctx
        self.start_unix = time.time()
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.duration_s = time.perf_counter() - self.start
        if self.ctx is not None:
            self.tracer.context = self._saved_ctx
        stack = self.tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        else:  # pragma: no cover - unbalanced exit; keep the stack sane
            while stack and stack[-1] is not self:
                stack.pop()
            if stack:
                stack.pop()
        self.tracer.record(
            self.path, self.name, self.start, self.duration_s, self.attrs,
            ctx=self.ctx, start_unix=self.start_unix,
            failed=exc_type is not None,
        )
        return False


class SpanAggregate:
    """Accumulated statistics of every completed span sharing a path."""

    __slots__ = ("path", "count", "total_s", "min_s", "max_s", "failures", "attrs")

    def __init__(self, path):
        self.path = path
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0
        self.failures = 0
        self.attrs = {}

    def add(self, duration_s, attrs, failed):
        self.count += 1
        self.total_s += duration_s
        self.min_s = min(self.min_s, duration_s)
        self.max_s = max(self.max_s, duration_s)
        if failed:
            self.failures += 1
        if attrs:
            self.attrs = dict(attrs)

    def as_dict(self):
        return {
            "path": self.path,
            "count": self.count,
            "total_s": self.total_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
            "failures": self.failures,
            "attrs": dict(self.attrs),
        }


class Tracer:
    """Span collector; see the module docstring for the model."""

    def __init__(self, max_events=100_000):
        self.enabled = False
        self.max_events = int(max_events)
        self._stack = []
        self.aggregates = {}
        self.events = []
        self.events_dropped = 0
        self.context = None  # optional repro.obs.context.TraceContext
        self._epoch = time.perf_counter()

    # -- capture -------------------------------------------------------
    def span(self, name, ctx=None, **attrs):
        """Open a span; returns :data:`NOOP_SPAN` while disabled.

        ``ctx`` pins the span to an explicit
        :class:`~repro.obs.context.TraceContext` (e.g. one carried over
        a process boundary) instead of deriving a child of the tracer's
        current context.
        """
        if not self.enabled:
            return NOOP_SPAN
        return Span(self, name, attrs, ctx=ctx)

    def record(self, path, name, start, duration_s, attrs, ctx=None,
               start_unix=None, failed=False):
        """Record one completed span: its aggregate and its event.

        :class:`Span` calls this on exit.  A caller that timed a span
        itself (``start`` is a ``time.perf_counter`` reading) records it
        here directly, e.g. under a lock, with no ``Span`` or throwaway
        tracer in between.
        """
        aggregate = self.aggregates.get(path)
        if aggregate is None:
            aggregate = self.aggregates[path] = SpanAggregate(path)
        aggregate.add(duration_s, attrs, failed)
        if len(self.events) < self.max_events:
            event = {
                "path": path,
                "name": name,
                "start_s": start - self._epoch,
                "duration_s": duration_s,
                "attrs": dict(attrs),
            }
            if ctx is not None:
                event["start_unix"] = start_unix
                event["ctx"] = {
                    "trace": ctx.trace_id,
                    "span": ctx.span_id,
                    "parent": ctx.parent_id,
                    "request": ctx.request_id,
                }
            self.events.append(event)
        else:
            self.events_dropped += 1

    # -- lifecycle -----------------------------------------------------
    def reset(self):
        """Drop all recorded spans (the enabled flag is untouched)."""
        self._stack = []
        self.aggregates = {}
        self.events = []
        self.events_dropped = 0
        self.context = None
        self._epoch = time.perf_counter()

    def merge(self, other):
        """Fold another tracer's aggregates and events into this one."""
        for path, theirs in other.aggregates.items():
            mine = self.aggregates.get(path)
            if mine is None:
                mine = self.aggregates[path] = SpanAggregate(path)
            mine.count += theirs.count
            mine.total_s += theirs.total_s
            mine.min_s = min(mine.min_s, theirs.min_s)
            mine.max_s = max(mine.max_s, theirs.max_s)
            mine.failures += theirs.failures
            if theirs.attrs:
                mine.attrs = dict(theirs.attrs)
        room = self.max_events - len(self.events)
        self.events.extend(other.events[:room])
        self.events_dropped += other.events_dropped + max(0, len(other.events) - room)
        return self

    def merge_dict(self, aggregates, events=(), events_dropped=0):
        """Fold an :meth:`as_dict`-shaped aggregate mapping (plus raw
        event records) into this tracer.

        The cross-process counterpart of :meth:`merge`: worker tracers
        export plain dicts, the parent folds them in.  Event ``start_s``
        values stay relative to the worker's epoch — aggregate totals
        are the meaningful cross-process quantity.
        """
        for path, theirs in aggregates.items():
            mine = self.aggregates.get(path)
            if mine is None:
                mine = self.aggregates[path] = SpanAggregate(path)
            count = int(theirs.get("count", 0))
            mine.count += count
            mine.total_s += float(theirs.get("total_s", 0.0))
            if count:
                mine.min_s = min(mine.min_s, float(theirs.get("min_s", float("inf"))))
            mine.max_s = max(mine.max_s, float(theirs.get("max_s", 0.0)))
            mine.failures += int(theirs.get("failures", 0))
            if theirs.get("attrs"):
                mine.attrs = dict(theirs["attrs"])
        events = list(events)
        room = self.max_events - len(self.events)
        self.events.extend(events[:room])
        self.events_dropped += int(events_dropped) + max(0, len(events) - room)
        return self

    # -- export --------------------------------------------------------
    def as_dict(self):
        return {path: agg.as_dict() for path, agg in sorted(self.aggregates.items())}

    def render_table(self, title="span timings"):
        """Human-readable table of aggregated spans, sorted by path.

        Child spans are indented under their parents so the hierarchy
        reads at a glance.
        """
        if not self.aggregates:
            return f"{title}: <no spans recorded>"
        rows = []
        for path in sorted(self.aggregates):
            agg = self.aggregates[path]
            depth = path.count("/")
            label = "  " * depth + path.rsplit("/", 1)[-1]
            mean_ms = agg.total_s / agg.count * 1e3
            rows.append(
                (label, agg.count, agg.total_s * 1e3, mean_ms, agg.max_s * 1e3)
            )
        headers = ("span", "calls", "total ms", "mean ms", "max ms")
        body = [
            (label, str(count), f"{total:.2f}", f"{mean:.3f}", f"{peak:.3f}")
            for label, count, total, mean, peak in rows
        ]
        widths = [
            max(len(headers[i]), max(len(row[i]) for row in body)) for i in range(5)
        ]
        lines = [title]
        lines.append(
            "  ".join(
                headers[i].ljust(widths[i]) if i == 0 else headers[i].rjust(widths[i])
                for i in range(5)
            )
        )
        lines.append("  ".join("-" * widths[i] for i in range(5)))
        for row in body:
            lines.append(
                "  ".join(
                    row[i].ljust(widths[i]) if i == 0 else row[i].rjust(widths[i])
                    for i in range(5)
                )
            )
        if self.events_dropped:
            lines.append(f"({self.events_dropped} span events dropped beyond max_events)")
        return "\n".join(lines)
