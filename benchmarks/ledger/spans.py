"""Span recording, the JSONL span file, and the self-time reducer.

A span is one call of a wrapped entry point: ``name`` (the layer it
belongs to), ``start``/``end`` in ``time.perf_counter`` seconds (the
system-wide monotonic clock on Linux, so spans of the benchmark, the
server and a fleet worker share one time axis), ``parent`` (the id of
the enclosing span on the same thread, or ``None``) and optional
attributes (the request ``key``, the client ``op`` id, iteration
counts, ...).
"""

import contextlib
import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict


class SpanRecorder:
    """Collects spans in memory; :meth:`dump` writes them as JSONL."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name, **attrs):
        """Record the enclosed block as one span; yields its attribute dict."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        except BaseException:
            attrs["error"] = True
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                {"id": span_id, "name": name, "start": start, "end": end,
                 "parent": parent, **attrs}
            )

    def wrap(self, func, name, call_attrs=None, result_attrs=None):
        """``func`` recording each call as a span named ``name``.

        ``call_attrs(args, kwargs)`` and ``result_attrs(result)`` return
        extra attributes; a failure inside them never reaches the caller.
        """

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                if call_attrs is not None:
                    attrs.update(_safe(call_attrs, args, kwargs))
                result = func(*args, **kwargs)
                if result_attrs is not None:
                    attrs.update(_safe(result_attrs, result))
                return result

        return wrapper

    def dump(self, path, **meta):
        """Write a header line plus one line per span."""
        with open(path, "w") as handle:
            handle.write(json.dumps({"header": True, "pid": os.getpid(), **meta}) + "\n")
            for span in list(self.spans):
                handle.write(json.dumps(span) + "\n")


def _safe(func, *args):
    try:
        return func(*args) or {}
    except Exception:  # noqa: BLE001 - attributes are best effort
        return {}


def read_spans(path):
    """``(header, spans)`` of a JSONL span file."""
    with open(path) as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    return lines[0], lines[1:]


def self_times(spans):
    """``{span id: seconds}``: each span's duration minus its children's."""
    children = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] += span["end"] - span["start"]
    return {
        span["id"]: span["end"] - span["start"] - children[span["id"]]
        for span in spans
    }


def outermost(spans):
    """Spans not nested inside another span of the same name."""
    by_id = {span["id"]: span for span in spans}
    found = []
    for span in spans:
        parent = by_id.get(span["parent"])
        nested = False
        while parent is not None:
            if parent["name"] == span["name"]:
                nested = True
                break
            parent = by_id.get(parent["parent"])
        if not nested:
            found.append(span)
    return found


def in_window(span, window):
    """True when ``span`` started inside ``window`` (``None`` = always)."""
    return window is None or window[0] <= span["start"] <= window[1]


def layer_self(spans, window=None):
    """``{layer: seconds}``: summed self time of the spans in ``window``.

    ``spans`` holds the spans of one process (parents are process-local).
    """
    own = self_times(spans)
    totals = defaultdict(float)
    for span in spans:
        if in_window(span, window):
            totals[span["name"]] += own[span["id"]]
    return dict(totals)


def layer_calls(spans, window=None):
    """``{layer: count}`` of outermost entries into each layer."""
    counts = defaultdict(int)
    for span in outermost(spans):
        if in_window(span, window):
            counts[span["name"]] += 1
    return dict(counts)
