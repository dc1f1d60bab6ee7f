"""Trace context: request/trace/span identity that crosses processes.

A :class:`TraceContext` names *where in a request's span tree we are*:

* ``trace_id`` — one id per end-to-end request (32 hex chars);
* ``request_id`` — the human-facing correlation id the service echoes
  back to clients (16 hex chars; distinct from ``trace_id`` so a retry
  of the same logical request can reuse the trace while getting a fresh
  request id, or vice versa);
* ``span_id`` / ``parent_id`` — the current span and its parent (16 hex
  chars each), which is what links recorded span events into one tree.

Propagation is **deterministic**: a child span id is
``sha256(trace_id/span_id/salt/key)[:16]`` (:meth:`TraceContext.child`),
so two processes that independently derive the same child (e.g. a retry
of the same job attempt) agree on its id, and the id never depends on
wall clock or PRNG state.  Cross-worker uniqueness comes from
:meth:`TraceContext.namespaced`: the pool runner salts each worker's
context with ``job<index>/a<attempt>`` before deriving, so two jobs
fanned out under one parent span produce disjoint subtree ids that both
parent back to the same originating span.

Wire forms:

* ``X-Repro-Trace: <trace_id>-<span_id>-<request_id>`` — the HTTP
  header (:meth:`to_header` / :meth:`from_header`; a malformed header
  is *ignored*, never an error — the server then starts a fresh trace);
* :meth:`to_wire` / :meth:`from_wire` — a plain dict that survives
  JSON and pickle, which carries the context into pool workers (the
  runner's ``base_ctx``) and fleet nodes (the lease's ``trace``).

The ``REPRO_TRACE_CONTEXT`` knob (default **enabled**; set to
``0/off/false/no`` to disable) governs whether the service and CLI
attach contexts at all — with it off, spans record exactly as before
this module existed.
"""

import hashlib
import os
import re

from repro import envcfg

#: The HTTP header carrying a serialized context between client and server.
TRACE_HEADER = "X-Repro-Trace"

_ID_RE = re.compile(r"^[0-9a-f]{8,32}$")


def context_enabled(environ=None):
    """Whether trace-context propagation is on (``REPRO_TRACE_CONTEXT``)."""
    return not envcfg.flag_disabled("REPRO_TRACE_CONTEXT", environ)


def _derive(trace_id, span_id, salt, key):
    blob = f"{trace_id}/{span_id}/{salt}/{key}".encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class TraceContext:
    """One position in a request's span tree; see the module docstring."""

    __slots__ = ("trace_id", "request_id", "span_id", "parent_id", "salt",
                 "_children")

    def __init__(self, trace_id, request_id, span_id, parent_id=None, salt=""):
        self.trace_id = trace_id
        self.request_id = request_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.salt = salt
        self._children = 0

    @classmethod
    def new(cls, request_id=None, trace_id=None):
        """A fresh root context; its ``span_id`` is the tree's root span."""
        if not (trace_id and request_id):
            fresh = os.urandom(24).hex()  # both ids from one syscall
            trace_id = trace_id or fresh[:32]
            request_id = request_id or fresh[32:]
        return cls(trace_id, request_id, _derive(trace_id, "", "", "root"))

    def child(self, key=None):
        """Derive the context of a child span (deterministic per key).

        Without ``key`` a per-context counter is used, so sequential
        anonymous children of one live span still get distinct ids.
        """
        if key is None:
            key = str(self._children)
            self._children += 1
        return TraceContext(
            self.trace_id,
            self.request_id,
            _derive(self.trace_id, self.span_id, self.salt, key),
            parent_id=self.span_id,
        )

    def namespaced(self, salt):
        """A copy whose future children derive under an extra salt.

        The position (span/parent ids) is unchanged — only derivation
        diverges, which is how parallel workers sharing one parent span
        avoid id collisions while still re-parenting under it.
        """
        combined = f"{self.salt}/{salt}" if self.salt else salt
        return TraceContext(self.trace_id, self.request_id, self.span_id,
                            parent_id=self.parent_id, salt=combined)

    # -- serialization -------------------------------------------------
    def to_wire(self):
        """Plain-dict form (JSON- and pickle-safe)."""
        out = {
            "trace": self.trace_id,
            "request": self.request_id,
            "span": self.span_id,
        }
        if self.parent_id is not None:
            out["parent"] = self.parent_id
        if self.salt:
            out["salt"] = self.salt
        return out

    @classmethod
    def from_wire(cls, data):
        """Rebuild from :meth:`to_wire`; ``None`` on malformed input."""
        if not isinstance(data, dict):
            return None
        trace_id = data.get("trace")
        request_id = data.get("request")
        span_id = data.get("span")
        if not (isinstance(trace_id, str) and isinstance(request_id, str)
                and isinstance(span_id, str)):
            return None
        return cls(trace_id, request_id, span_id,
                   parent_id=data.get("parent"), salt=data.get("salt") or "")

    def to_header(self):
        """The ``X-Repro-Trace`` header value of this context."""
        return f"{self.trace_id}-{self.span_id}-{self.request_id}"

    @classmethod
    def from_header(cls, value):
        """Parse an ``X-Repro-Trace`` header; ``None`` when absent/bad.

        A malformed header must never fail a request — the caller falls
        back to a fresh context.
        """
        if not value or not isinstance(value, str):
            return None
        parts = value.strip().split("-")
        if len(parts) != 3 or not all(_ID_RE.match(part) for part in parts):
            return None
        trace_id, span_id, request_id = parts
        return cls(trace_id, request_id, span_id)

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"TraceContext(trace={self.trace_id[:8]}.., "
                f"request={self.request_id}, span={self.span_id}, "
                f"parent={self.parent_id})")
