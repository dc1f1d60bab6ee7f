"""The partitioning HTTP server: a strict HTTP/1.x handler on its own
accept loop.

Routes (all JSON in, JSON out)::

    POST /v1/jobs              submit a partition/plan request
                               202 queued / deduped, 200 result-store hit,
                               400 invalid, 429 + Retry-After when full
    GET  /v1/jobs              list known jobs (status dicts)
    GET  /v1/jobs/<id>         one job's status
    GET  /v1/jobs/<id>/result  the payload: 200 done, 409 not finished,
                               500 failed (body carries the error)
    POST /v1/jobs/<id>/cancel  best-effort cancel
    GET  /v1/jobs/<id>/events  the job's lifecycle event records
    GET  /healthz              liveness + schema versions + queue state
    GET  /metrics              service counters, result-store stats and
                               per-route span timings (JSON by default;
                               ``?format=prometheus`` or an Accept
                               header preferring text/plain switches to
                               Prometheus text exposition)
    GET  /v1/trace             the server's span/metric state as a
                               JSONL trace file (replayable with
                               repro.obs.export.read_trace_jsonl)

With ``--isolation fleet`` the server doubles as the fleet
coordinator (see :mod:`repro.fleet`)::

    POST /fleet/v1/lease       worker pulls leased jobs (long-poll)
    POST /fleet/v1/heartbeat   worker extends its lease deadlines
    POST /fleet/v1/complete    worker reports a payload or a failure
    GET  /fleet/v1/workers     roster + queue state (also in /healthz)

Observability: the server owns a private
:class:`~repro.obs.metrics.MetricsRegistry` and
:class:`~repro.obs.tracer.Tracer`, separate from the process capture
``OBS``.  Handler threads time each request themselves and record its
span, counters and latency straight into the server tracer and registry
under one lock (:meth:`PartitionService.record_request`); under deep
tracing each job's capture-scope snapshot is folded in under the same
lock (:meth:`PartitionService.absorb`; see :mod:`repro.service.jobs`).

Trace context: unless ``REPRO_TRACE_CONTEXT`` is off (read once, when
the service is built), every request gets a
:class:`~repro.obs.context.TraceContext` — continued from an
``X-Repro-Trace`` header when the client sent one, fresh otherwise —
that is echoed on the response, pinned to the request span and carried
into the job (:meth:`JobManager.submit`), so one POST yields one
connected span tree whose root carries the request id.  Per-route
latency lands in bounded ``service.http.seconds.<route>`` histograms
(ids collapse into the route label, so label cardinality stays fixed).

Connections: daemon handler threads wait in ``accept()`` on the
listening socket themselves, so each connection is served on the thread
that accepted it, with no hand-off between threads.  A thread whose
connection ended waits there for the next one (at most
:data:`IDLE_HANDLER_THREADS` wait; the rest exit), and a thread that
accepts while no other waits starts one more first, so there is no cap:
fleet lease long-polls and slow clients each hold their own thread.  A
socket read or write that waits :data:`HANDLER_TIMEOUT_S` seconds closes
the connection without an answer.

The request reader is strict (RFC 9112) and accepts only HTTP/1.0 and
HTTP/1.1 with ``Content-Length`` bodies; anything else is answered with
the API's ``{"error", "message"}`` JSON and a closed connection:

* HTTP/2 and later → 505; any other request line that is not
  ``METHOD SP target SP HTTP/1.x`` → 400; a method other than GET, POST
  and PATCH → 501; a request line over 64 KiB → 414;
* a header line over 64 KiB, or more than 100 header lines (the blank
  line that ends them counted, as the stdlib counts) → 431; a line with no
  colon, whitespace before the colon, an obs-fold or a control
  character → 400;
* any ``Transfer-Encoding`` → 411; a ``Content-Length`` that is not a
  non-negative integer, two that disagree, or one over
  :data:`MAX_BODY_BYTES` → 400.

HTTP/1.1 connections stay open unless the client sends ``Connection:
close``; HTTP/1.0 ones close unless it sends ``keep-alive``.  A response
sent before the request body was read also closes the connection.
``Expect: 100-continue`` gets its interim ``100 Continue`` just before
the body is read, and every response leaves in one ``sendall``.  A body
that is not JSON, or nests too deep to parse, is a 400.

Determinism: the server never mutates a request — the job built from it
is field-for-field the one the CLI builds (see
:func:`repro.service.api.request_to_job`), so a served assignment is
bitwise-identical to a local run with the same inputs.  A repeated
``POST /v1/jobs`` body is not validated again: the request memo
(:class:`_RequestMemo`) hands back the normalized request and key its
first copy validated to, a dict every job of that body shares and no
reader mutates.
"""

import contextvars
import io
import json
import re
import socket
import sys
import threading
import time
import traceback
from collections import OrderedDict
from email.utils import formatdate
from http import HTTPStatus
from urllib.parse import parse_qs

from repro import __version__, envcfg
from repro.obs import (
    EVENT_SCHEMA_VERSION,
    TRACE_HEADER,
    EventLog,
    MetricsRegistry,
    TraceContext,
    Tracer,
    context_enabled,
    render_exposition,
    write_trace_jsonl,
)
from repro.service.api import (
    eco_request_key,
    request_key,
    schema_versions,
    validate_eco_body,
    validate_request,
)
from repro.service.errors import (
    BadRequestError,
    ConflictError,
    JobFailedError,
    NotFoundError,
    QueueFullError,
    ServiceError,
)
from repro.service.jobs import JobManager
from repro.service.store import ResultStore
from repro.utils.errors import NetlistError

#: Hard cap on accepted request bodies (a serialized netlist of the
#: largest suite circuit is ~1.5 MB; 32 MB leaves ample headroom).
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Handler threads kept waiting in ``accept()`` for the next connection.
IDLE_HANDLER_THREADS = 4

#: Seconds a handler waits on one socket read or write (the request
#: line, headers, body, or a client not reading its response) before it
#: closes the connection.  Server-side waits, such as a fleet lease
#: long-poll, are not socket reads and are not bounded by it.
HANDLER_TIMEOUT_S = 30.0

#: Bound on the JSON text of result payloads the server keeps encoded
#: (see :class:`_ResultText`); a larger payload is not kept.
RESULT_TEXT_BYTES = 1024 * 1024

#: Longest ``POST /v1/jobs`` body the request memo keeps, and the most
#: bodies it keeps (see :class:`_RequestMemo`).  A suite-circuit request
#: is under 200 bytes; an inline netlist is never kept.
REQUEST_MEMO_BODY_BYTES = 512
REQUEST_MEMO_ENTRIES = 256


def route_label(method, path):
    """Bounded route label of a request (job ids collapse away).

    Histogram/counter labels must come from a fixed set — one label per
    distinct URL would grow the registry without bound — so unknown
    paths all fold into ``"other"``.
    """
    parts = [part for part in path.split("/") if part]
    if method == "GET":
        if path == "/healthz":
            return "healthz"
        if path == "/metrics":
            return "metrics"
        if parts == ["fleet", "v1", "workers"]:
            return "fleet.workers"
        if parts == ["v1", "trace"]:
            return "trace"
        if parts == ["v1", "jobs"]:
            return "jobs.list"
        if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            return "jobs.status"
        if len(parts) == 4 and parts[:2] == ["v1", "jobs"]:
            if parts[3] == "result":
                return "jobs.result"
            if parts[3] == "events":
                return "jobs.events"
    elif method == "POST":
        if parts == ["v1", "jobs"]:
            return "jobs.submit"
        if parts == ["v1", "sweeps"]:
            return "sweeps.submit"
        if len(parts) == 3 and parts[:2] == ["fleet", "v1"]:
            if parts[2] in ("lease", "heartbeat", "complete"):
                return f"fleet.{parts[2]}"
        if len(parts) == 4 and parts[:2] == ["v1", "jobs"] and parts[3] == "cancel":
            return "jobs.cancel"
    elif method == "PATCH":
        if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            return "jobs.eco"
    return "other"


def _validated(body):
    """``(normalized request, request_key)`` of a parsed body, or a 400."""
    try:
        normalized = validate_request(body)
        return normalized, request_key(normalized)
    except RecursionError:
        # An inline netlist may carry extra values nested too deep for
        # the canonical walk of request_key.
        raise BadRequestError("request body nests too deep") from None


class PartitionService:
    """Everything one server instance owns: manager, store, telemetry."""

    def __init__(self, workers=None, queue_size=None, timeout=None,
                 retries=None, backoff=None, isolation=None, store=None,
                 retry_after=None, fault_plan=None, events=None,
                 tracing=False, lease_ttl=None):
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self.tracer.enabled = True
        self._telemetry_lock = threading.Lock()
        self.store = store if store is not None else ResultStore()
        self.events = events if events is not None else EventLog.service_default()
        isolation = envcfg.resolve("REPRO_SERVICE_ISOLATION", isolation)
        self.fleet = None
        if isolation == "fleet":
            from repro.fleet.coordinator import FleetCoordinator

            self.fleet = FleetCoordinator(lease_ttl=lease_ttl)
        self.manager = JobManager(
            workers=workers,
            queue_size=queue_size,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            isolation=isolation,
            fleet=self.fleet,
            store=self.store,
            retry_after=retry_after,
            fault_plan=fault_plan,
            metrics=self.metrics,
            events=self.events if self.events.enabled else None,
            tracing=tracing,
            trace_sink=self.absorb,
        )
        self.requests = _RequestMemo()
        self.trace_contexts = context_enabled()  # REPRO_TRACE_CONTEXT
        self.started_at = time.time()

    def start(self):
        self.manager.start()
        if self.fleet is not None:
            self.fleet.start()
        return self

    def stop(self):
        self.manager.stop()
        if self.fleet is not None:
            self.fleet.stop()
        return self

    def record_request(self, status, route=None, started=None, duration_s=None,
                       path=None, ctx=None, start_unix=None, failed=False):
        """Count one response; for a routed request (``route`` given)
        also record its ``service.request`` span, timed by the handler
        from ``started`` (a ``time.perf_counter`` reading), and its
        latency, straight into the server tracer and metrics."""
        with self._telemetry_lock:
            self.metrics.counter("service.http.requests").inc()
            self.metrics.counter(f"service.http.status.{status}").inc()
            if route is not None:
                self.tracer.record(
                    "service.request", "service.request", started, duration_s,
                    {"route": route, "path": path}, ctx=ctx,
                    start_unix=start_unix, failed=failed,
                )
                self.metrics.histogram(
                    f"service.http.seconds.{route}"
                ).observe(duration_s)

    def absorb(self, snapshot):
        """The job manager's trace sink (deep tracing only).

        Folds a job's capture-scope snapshot (phase and solver spans,
        solver metrics) into the server tracer/metrics; solver telemetry
        records are dropped — per-iteration dumps belong to CLI trace
        files, not a long-running server's memory.
        """
        with self._telemetry_lock:
            self.metrics.merge_dict(snapshot.get("metrics", {}))
            self.tracer.merge_dict(
                snapshot.get("spans", {}),
                events=snapshot.get("events", ()),
                events_dropped=snapshot.get("events_dropped", 0),
            )

    # -- route logic (transport-free; the handler is a thin shell) -----
    def submit(self, body, ctx=None):
        """``POST /v1/jobs``.  ``body`` is the parsed request, or the raw
        body bytes: a repeat of bytes that validated before takes its
        normalized request and key from the request memo."""
        if isinstance(body, bytes):
            known = self.requests.get(body)
            if known is None:
                known = _validated(_parse_body(body))
                self.requests.put(body, *known)
            normalized, key = known
        else:
            normalized, key = _validated(body)
        job, outcome = self.manager.submit(key, normalized, ctx=ctx)
        status = 200 if outcome == "cached" else 202
        payload = job.to_dict()
        payload["outcome"] = outcome
        return status, payload

    def sweep_submit(self, body, ctx=None):
        """``POST /v1/sweeps``: a K x weight-ratio Pareto sweep job.

        Thin shell over :meth:`submit` that forces ``kind="sweep"``: the
        sweep flows through the normal :class:`JobManager` machinery
        under its own content key (so a repeated sweep is answered from
        the result store), and its grid points store individually under
        their solo partition keys (see
        :func:`repro.harness.pareto.execute_sweep`).  ``kind="sweep"``
        on plain ``POST /v1/jobs`` works identically; this route exists
        so sweep traffic gets its own counters and latency label.
        """
        with self._telemetry_lock:
            self.metrics.counter("service.sweep.requests").inc()
        if not isinstance(body, dict):
            raise BadRequestError(
                f"request body must be a JSON object, got {type(body).__name__}"
            )
        body = dict(body)
        if body.setdefault("kind", "sweep") != "sweep":
            raise BadRequestError(
                f"POST /v1/sweeps requires kind='sweep', got {body['kind']!r}"
            )
        return self.submit(body, ctx=ctx)

    def eco_submit(self, base_key, body, ctx=None):
        """``PATCH /v1/jobs/<request_key>``: re-partition an edited netlist.

        ``base_key`` addresses a stored result; the body carries a
        netlist diff (:mod:`repro.netlist.diff`) plus optional
        halo/threshold/quality_eps overrides.  The edit flows through
        the normal :class:`JobManager` machinery as a ``kind="eco"``
        job content-keyed on ``(base_key, diff_key, knobs)`` — so a
        repeated identical edit is answered from the result store, and
        an *empty* diff short-circuits to the stored base payload,
        bitwise, counted as a cache hit.
        """
        from repro.netlist.diff import (
            apply_diff,
            diff_key,
            is_empty_diff,
            touched_gate_names,
        )
        from repro.netlist.library import default_library
        from repro.netlist.serialize import library_fingerprint, netlist_to_dict

        with self._telemetry_lock:
            self.metrics.counter("service.eco.requests").inc()
        params = validate_eco_body(body)
        diff = params["diff"]

        if self.store is None or not self.store.enabled:
            raise NotFoundError(
                "the result store is disabled; ECO edits need the stored "
                "base result to warm-start from"
            )
        entry = self.store.get_with_meta(base_key)
        if entry is None:
            raise NotFoundError(
                f"no stored result for request key {base_key!r}; "
                "submit the base job first"
            )
        _stored_payload, meta = entry
        base_request = (meta or {}).get("request")
        if not isinstance(base_request, dict):
            raise ConflictError(
                "stored result carries no request metadata; re-submit the "
                "base job to refresh it"
            )
        if (
            base_request.get("kind") != "partition"
            or base_request.get("method") != "gradient"
            or base_request.get("refine")
        ):
            raise BadRequestError(
                "ECO edits only apply to unrefined gradient partition "
                f"results; the stored base is kind={base_request.get('kind')!r} "
                f"method={base_request.get('method')!r} "
                f"refine={base_request.get('refine')!r}"
            )

        if "netlist" in base_request:
            base_netlist = base_request["netlist"]
        else:
            from repro.circuits.suite import build_circuit

            base_netlist = netlist_to_dict(build_circuit(base_request["circuit"]))

        fingerprint = library_fingerprint(default_library())
        if diff["library_fingerprint"] != fingerprint:
            raise BadRequestError(
                f"diff library fingerprint {diff['library_fingerprint'][:12]} "
                f"does not match this server's library ({fingerprint[:12]}); "
                "re-diff against the current library revision"
            )
        if diff["base_name"] != base_netlist["name"]:
            raise BadRequestError(
                f"diff targets base netlist {diff['base_name']!r} but the "
                f"stored result partitioned {base_netlist['name']!r}"
            )

        if is_empty_diff(diff):
            # Identity edit: the stored base payload IS the answer.
            # Re-submitting the base request hits the store fast path,
            # which returns the stored bytes untouched.
            with self._telemetry_lock:
                self.metrics.counter("service.eco.empty_diffs").inc()
                self.metrics.counter("service.eco.cache_hits").inc()
            job, outcome = self.manager.submit(base_key, base_request, ctx=ctx)
            status = 200 if outcome == "cached" else 202
            payload = job.to_dict()
            payload["outcome"] = outcome
            payload["eco"] = {"base_key": base_key, "empty_diff": True}
            return status, payload

        try:
            edited = apply_diff(base_netlist, diff)
        except NetlistError as error:
            raise BadRequestError(str(error)) from None

        num_planes = base_request["num_planes"]
        if num_planes > len(edited["gates"]):
            raise BadRequestError(
                f"the edit leaves {len(edited['gates'])} gates, fewer than "
                f"the base partition's {num_planes} planes"
            )

        # Previous plane per *edited* gate, by gate name (-1 for added).
        base_names = [gate["name"] for gate in base_netlist["gates"]]
        stored_labels = _stored_payload.get("labels") or []
        if len(stored_labels) != len(base_names):
            raise ConflictError(
                "stored base payload does not match the base netlist "
                f"({len(stored_labels)} labels for {len(base_names)} gates)"
            )
        by_name = dict(zip(base_names, (int(l) for l in stored_labels)))
        prev_labels = [by_name.get(gate["name"], -1) for gate in edited["gates"]]

        # Base pins survive only for gates the edit kept.
        pinned = None
        if base_request.get("pinned"):
            surviving = {gate["name"] for gate in edited["gates"]}
            pinned = {
                name: plane
                for name, plane in base_request["pinned"].items()
                if name in surviving
            } or None

        digest = diff_key(diff)
        eco_params = {"touched": touched_gate_names(diff)}
        for name in ("halo", "threshold", "quality_eps"):
            if name in params:
                eco_params[name] = params[name]
        normalized = {
            "kind": "eco",
            "netlist": edited,
            "num_planes": num_planes,
            "method": "gradient",
            "engine": base_request.get("engine", "batched"),
            "seed": base_request.get("seed", 0),
            "refine": False,
            "prev_labels": prev_labels,
            "eco": eco_params,
            "base_key": base_key,
            "diff_key": digest,
        }
        if pinned:
            normalized["pinned"] = pinned

        key = eco_request_key(base_key, digest, params)
        job, outcome = self.manager.submit(key, normalized, ctx=ctx)
        if outcome == "cached":
            with self._telemetry_lock:
                self.metrics.counter("service.eco.cache_hits").inc()
        status = 200 if outcome == "cached" else 202
        payload = job.to_dict()
        payload["outcome"] = outcome
        payload["eco"] = {"base_key": base_key, "diff_key": digest,
                          "empty_diff": False}
        return status, payload

    def job_status(self, job_id):
        return 200, self.manager.get(job_id).to_dict()

    def job_list(self):
        return 200, {"jobs": [job.to_dict() for job in self.manager.list_jobs()]}

    def job_result(self, job_id):
        job = self.manager.get(job_id)
        if job.state in ("queued", "running"):
            raise ConflictError(
                f"job {job_id} is {job.state}; poll status until it finishes"
            )
        if job.state == "cancelled":
            raise ConflictError(f"job {job_id} was cancelled")
        if job.state == "failed":
            raise JobFailedError(f"job {job_id} failed: {job.error}")
        return 200, {
            "id": job.id,
            "key": job.key,
            "state": job.state,
            "cached": job.cached,
            "result": job.payload,
        }

    def job_cancel(self, job_id):
        return 200, self.manager.cancel(job_id).to_dict()

    def job_events(self, job_id):
        """The lifecycle event records of one job (404 when unknown)."""
        job = self.manager.get(job_id)
        events = self.events.for_job(job.id) if self.events.enabled else []
        return 200, {
            "id": job.id,
            "schema_version": EVENT_SCHEMA_VERSION,
            "count": len(events),
            "events": events,
        }

    def health(self):
        payload = {
            "status": "draining" if self.manager.draining else "ok",
            "version": __version__,
            "versions": schema_versions(),
            "uptime_s": time.time() - self.started_at,
            "workers": self.manager.workers,
            "isolation": self.manager.isolation,
            "queue_depth": self.manager.queue_depth(),
            "queue_size": self.manager.queue_size,
            "running": self.manager.running_count(),
            "draining": self.manager.draining,
            "megabatch": self.manager.megabatch,
            "store_enabled": self.store.enabled,
            "tracing": self.manager.tracing,
            "events_enabled": self.events.enabled,
        }
        if self.fleet is not None:
            # Live fleet state: roster with last-heartbeat ages plus the
            # coordinator-side queue — the operator's one-stop view.
            payload["fleet"] = self.fleet.workers_snapshot()
        return 200, payload

    # -- fleet routes (coordinator side of the lease protocol) ---------
    def _require_fleet(self):
        if self.fleet is None:
            raise ConflictError(
                "this server is not a fleet coordinator; start it with "
                "--isolation fleet (or REPRO_SERVICE_ISOLATION=fleet)"
            )
        return self.fleet

    def fleet_lease(self, body):
        fleet = self._require_fleet()
        if not isinstance(body, dict) or not body.get("worker"):
            raise BadRequestError(
                "lease body must be a JSON object with a 'worker' id"
            )
        max_jobs = body.get("max_jobs", 1)
        wait = body.get("wait", 0.0)
        try:
            max_jobs = max(1, int(max_jobs))
            wait = max(0.0, float(wait))
        except (TypeError, ValueError, OverflowError):
            raise BadRequestError(
                f"max_jobs/wait must be numbers, got {max_jobs!r}/{wait!r}"
            ) from None
        leases = fleet.lease(str(body["worker"]), max_jobs=max_jobs, wait=wait)
        return 200, {"leases": leases, "draining": self.manager.draining}

    def fleet_heartbeat(self, body):
        fleet = self._require_fleet()
        if not isinstance(body, dict) or not body.get("worker"):
            raise BadRequestError(
                "heartbeat body must be a JSON object with a 'worker' id"
            )
        lease_ids = body.get("leases") or []
        if not isinstance(lease_ids, list):
            raise BadRequestError("'leases' must be a list of lease ids")
        return 200, fleet.heartbeat(str(body["worker"]),
                                    [str(l) for l in lease_ids])

    def fleet_complete(self, body):
        fleet = self._require_fleet()
        if not isinstance(body, dict) or not body.get("worker"):
            raise BadRequestError(
                "complete body must be a JSON object with a 'worker' id"
            )
        if not body.get("lease"):
            raise BadRequestError("complete body must carry the 'lease' id")
        status = fleet.complete(
            str(body["worker"]),
            str(body["lease"]),
            ok=bool(body.get("ok")),
            payload=body.get("payload"),
            kind=body.get("kind"),
            message=body.get("message"),
            snapshot=body.get("snapshot"),
        )
        return 200, {"status": status}

    def fleet_workers(self):
        return 200, self._require_fleet().workers_snapshot()

    def _sample_gauges_locked(self):
        """Set the live gauges at scrape time, so a metrics route reports
        the instantaneous queue/worker state, not a stale value."""
        self.metrics.gauge("service.queue.depth").set(self.manager.queue_depth())
        self.metrics.gauge("service.jobs.inflight").set(self.manager.running_count())

    def metrics_payload(self):
        with self._telemetry_lock:
            self._sample_gauges_locked()
            metrics = self.metrics.as_dict()
            spans = self.tracer.as_dict()
        return 200, {
            "metrics": metrics,
            "spans": spans,
            "store": self.store.snapshot_stats(),
            "queue_depth": self.manager.queue_depth(),
        }

    def metrics_exposition(self):
        """The same state as :meth:`metrics_payload`, rendered in
        Prometheus text exposition format."""
        with self._telemetry_lock:
            self._sample_gauges_locked()
            text = render_exposition(
                self.metrics,
                tracer=self.tracer,
                store_stats=self.store.snapshot_stats(),
            )
        return 200, text

    def trace_export(self):
        """The server's spans + metrics as a JSONL trace document."""
        buffer = io.StringIO()
        with self._telemetry_lock:
            write_trace_jsonl(
                buffer,
                tracer=self.tracer,
                metrics=self.metrics,
                meta={
                    "source": "repro-gpp service",
                    "uptime_s": time.time() - self.started_at,
                },
            )
        return 200, buffer.getvalue()


class _ProtocolError(ServiceError):
    """A request head the reader rejects; answered, then the connection closes."""

    def __init__(self, status, code, message):
        super().__init__(message)
        self.status = status
        self.code = code


_TOKEN = rb"[!#$%&'*+\-.^_`|~0-9A-Za-z]+"
#: ``METHOD SP request-target SP HTTP-version CRLF`` (RFC 9112 §3); a
#: bare LF ends a line too (§2.2).
_REQUEST_LINE = re.compile(
    rb"(" + _TOKEN + rb") ([\x21-\x7e]+) HTTP/([0-9])\.([0-9])\r?\n"
)
#: ``field-name ":" OWS field-value OWS CRLF`` (RFC 9112 §5): no space
#: before the colon, no obs-fold, no control characters but HTAB.
_FIELD_LINE = re.compile(rb"(" + _TOKEN + rb"):([\t\x20-\x7e\x80-\xff]*)\r?\n")

#: Longest request line or header line, and most header lines (the
#: blank line that ends the head included) — the stdlib's limits.
_MAX_LINE = 65536
_MAX_HEADER_LINES = 100

#: Largest single socket read of a request head, and of a body.
_RECV_BYTES = 65536
_BODY_RECV_BYTES = 1024 * 1024

_METHODS = ("GET", "POST", "PATCH")
_REASONS = {status.value: status.phrase for status in HTTPStatus}
_SERVER_HEADER = f"Server: repro-gpp-service Python/{sys.version.split()[0]}\r\n"
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
_TRACE_KEY = TRACE_HEADER.lower()


def _shown(line):
    """A rejected request line, as an error message quotes it."""
    return line.rstrip(b"\r\n")[:200].decode("latin-1")


def _parse_body(raw):
    """The JSON value of a request body, or a 400."""
    try:
        return json.loads(raw)
    except RecursionError:
        # json.loads recurses once per nesting level.
        raise BadRequestError("request body nests too deep") from None
    except ValueError as error:
        raise BadRequestError(f"request body is not valid JSON: {error}") from None


class _RequestMemo:
    """``POST /v1/jobs`` bodies that validated, by their exact bytes.

    Each maps to the ``(normalized request, request_key)`` its first
    copy validated to; every job of that body shares the normalized
    dict, which no reader mutates.  Only suite-circuit requests of at
    most :data:`REQUEST_MEMO_BODY_BYTES` are kept, at most
    :data:`REQUEST_MEMO_ENTRIES` of them, oldest out first; a sweep is
    not kept, because its validation reads the environment.  A body
    that failed validation is never kept.
    """

    def __init__(self):
        self._entries = {}
        self._lock = threading.Lock()

    def get(self, raw):
        return self._entries.get(raw)

    def put(self, raw, normalized, key):
        if (len(raw) > REQUEST_MEMO_BODY_BYTES or "circuit" not in normalized
                or normalized["kind"] == "sweep"):
            return
        with self._lock:
            if len(self._entries) >= REQUEST_MEMO_ENTRIES:
                del self._entries[next(iter(self._entries))]
            self._entries[raw] = (normalized, key)


class _ResultText:
    """The JSON text of result payloads, remembered by object identity.

    A result-store read of an unchanged entry hands every reader the
    same payload object, which no reader mutates (see "What a hit
    reads" in docs/service.md), and a finished job's payload is set
    once; so the text encoded for one fetch of a payload serves every
    later fetch of it.  An entry holds its payload, so its id cannot be
    reused while remembered; at most :data:`RESULT_TEXT_BYTES` of text
    are kept, least recently used out first.
    """

    def __init__(self):
        self._texts = OrderedDict()  # id(payload) -> (payload, text)
        self._bytes = 0
        self._lock = threading.Lock()

    def body(self, fields):
        """``json.dumps(fields).encode()`` for a result route's body,
        whose last field is ``"result"``."""
        fields = dict(fields)
        payload = fields.pop("result")
        fields["result"] = None
        with self._lock:
            known = self._texts.get(id(payload))
            if known is not None:
                self._texts.move_to_end(id(payload))
        if known is None:
            text = json.dumps(payload).encode()
            if len(text) <= RESULT_TEXT_BYTES:
                self._remember(payload, text)
        else:
            text = known[1]
        head = json.dumps(fields).encode()[:-len(b"null}")]
        return b"".join((head, text, b"}"))

    def _remember(self, payload, text):
        with self._lock:
            if id(payload) in self._texts:
                return
            self._texts[id(payload)] = (payload, text)
            self._bytes += len(text)
            while self._bytes > RESULT_TEXT_BYTES:
                _id, (_payload, evicted) = self._texts.popitem(last=False)
                self._bytes -= len(evicted)


class _Handler:
    """One client connection: a strict HTTP/1.x request reader and a
    one-send response writer around :class:`PartitionService` routes.

    Requests are read in order on one connection; see the module
    docstring for what the reader accepts and rejects.
    """

    timeout = HANDLER_TIMEOUT_S

    def __init__(self, sock, client_address, server):
        self.sock = sock
        self.client_address = client_address
        self.server = server
        self.service = server.service
        self._buf = b""  # bytes received and not yet read from _pos on
        self._pos = 0

    def serve(self):
        """Serve requests until either side ends the connection."""
        self.sock.settimeout(self.timeout)
        try:
            while True:
                try:
                    if not self._read_head():
                        return
                except _ProtocolError as error:
                    self._send_json(error.status,
                                    {"error": error.code, "message": str(error)})
                    self.service.record_request(error.status)
                    return
                self._dispatch()
                if self.close_connection:
                    return
        except (socket.timeout, ConnectionError):
            # A socket read or write waited HANDLER_TIMEOUT_S, or the
            # client went away: drop the connection without answering.
            return

    # -- request head --------------------------------------------------
    def _recv(self):
        """Append what the client sent next to the unread bytes; False
        when it closed instead."""
        data = self.sock.recv(_RECV_BYTES)
        if not data:
            return False
        self._buf = self._buf[self._pos:] + data
        self._pos = 0
        return True

    def _line(self):
        """The next line, as ``readline(_MAX_LINE + 1)`` of a file
        would return it: the line with its newline, ``_MAX_LINE + 1``
        bytes of a longer one, or what came before the stream ended."""
        limit = _MAX_LINE + 1
        while True:
            buf, pos = self._buf, self._pos
            end = buf.find(b"\n", pos, pos + limit)
            if end >= 0:
                self._pos = end + 1
                return buf[pos:end + 1]
            if len(buf) - pos >= limit or not self._recv():
                line = buf[pos:pos + limit]
                self._pos = pos + len(line)
                return line

    def _read_head(self):
        """Read one request head into ``self``; False when the client
        closed instead.  Raises :class:`_ProtocolError` on a bad head."""
        self.requestline = None
        self.close_connection = True
        self._persistent_asked = True  # unknown until the head parses
        self.http11 = True
        self._trace_ctx = None
        self._body_left = 0
        line = self._line()
        if line in (b"\r\n", b"\n"):
            # One empty line before a request is ignored (RFC 9112 §2.2).
            line = self._line()
        if len(line) > _MAX_LINE:
            raise _ProtocolError(414, "uri-too-long",
                                 f"request line exceeds {_MAX_LINE} bytes")
        if not line.endswith(b"\n"):
            return False
        self.requestline = line
        match = _REQUEST_LINE.fullmatch(line)
        if match is None or match.group(3) == b"0":
            raise _ProtocolError(
                400, "bad-request",
                "request line must be 'METHOD SP target SP HTTP/1.x', "
                f"got {_shown(line)!r}",
            )
        method, target, major, minor = match.groups()
        if major != b"1":
            raise _ProtocolError(
                505, "http-version-not-supported",
                f"HTTP/{major.decode()}.{minor.decode()} is not supported; "
                "use HTTP/1.0 or HTTP/1.1",
            )
        self.http11 = minor != b"0"

        headers = {}
        lines = 0
        while True:
            line = self._line()
            if len(line) > _MAX_LINE:
                raise _ProtocolError(431, "header-fields-too-large",
                                     f"header line exceeds {_MAX_LINE} bytes")
            lines += 1
            if lines > _MAX_HEADER_LINES:
                raise _ProtocolError(
                    431, "header-fields-too-large",
                    f"more than {_MAX_HEADER_LINES - 1} header fields",
                )
            if line in (b"\r\n", b"\n"):
                break
            if not line.endswith(b"\n"):
                return False
            field = _FIELD_LINE.fullmatch(line)
            if field is None:
                raise _ProtocolError(
                    400, "bad-request",
                    f"malformed header line {_shown(line)!r}",
                )
            name = field.group(1).decode("ascii").lower()
            value = field.group(2).strip(b" \t").decode("latin-1")
            seen = headers.setdefault(name, value)
            if name == "content-length" and seen != value:
                raise _ProtocolError(
                    400, "bad-request",
                    f"conflicting Content-Length headers {seen!r} and {value!r}",
                )

        if "transfer-encoding" in headers:
            raise _ProtocolError(
                411, "length-required",
                "Transfer-Encoding is not supported; send the body with a "
                "Content-Length",
            )
        length = headers.get("content-length")
        if length is not None:
            if not (length.isdigit() and length.isascii()):
                raise _ProtocolError(
                    400, "bad-request",
                    f"Content-Length must be a non-negative integer, got {length!r}",
                )
            # int() refuses over 4300 digits; no body has over 20.
            if len(length) > 20 or int(length) > MAX_BODY_BYTES:
                raise _ProtocolError(
                    400, "bad-request",
                    f"request body of {length[:24]} bytes exceeds the "
                    f"{MAX_BODY_BYTES} limit",
                )
            self._body_left = int(length)
        self.method = method.decode("ascii")
        if self.method not in _METHODS:
            raise _ProtocolError(501, "not-implemented",
                                 f"unsupported method {self.method!r}")

        target = target.decode("ascii")
        if target.startswith("//"):
            # '//x' reads as a host to clients; serve it as '/x'.
            target = "/" + target.lstrip("/")
        self.target = target
        self.headers = headers
        connection = headers.get("connection")
        tokens = (
            {token.strip() for token in connection.lower().split(",")}
            if connection else ()
        )
        if self.http11:
            self.close_connection = "close" in tokens
        else:
            self.close_connection = "keep-alive" not in tokens
        self._persistent_asked = not self.close_connection
        self._expect_continue = (
            self.http11 and headers.get("expect", "").lower() == "100-continue"
        )
        return True

    def _read_raw(self):
        """The request body's bytes; a 400 when there are none."""
        length = self._body_left
        if not length:
            raise BadRequestError("request body must be a JSON object")
        if self._expect_continue:
            self.sock.sendall(_CONTINUE)
        self._body_left = 0
        buf, pos = self._buf, self._pos
        if len(buf) - pos >= length:
            self._pos = pos + length
            return buf[pos:pos + length]
        chunks = [buf[pos:]]
        got = len(chunks[0])
        self._buf, self._pos = b"", 0
        while got < length:
            # Never past the body: the next request's bytes stay unread.
            data = self.sock.recv(min(length - got, _BODY_RECV_BYTES))
            if not data:
                self.close_connection = True
                raise BadRequestError(
                    f"request body ended after {got} of {length} bytes"
                )
            chunks.append(data)
            got += len(data)
        return b"".join(chunks)

    def _read_body(self):
        return _parse_body(self._read_raw())

    # -- response ------------------------------------------------------
    def _send_json(self, status, payload, headers=()):
        return self._send(status, json.dumps(payload).encode(),
                          "application/json", headers)

    def _send_text(self, status, text, content_type="text/plain; charset=utf-8"):
        return self._send(status, text.encode(), content_type)

    def _send(self, status, body, content_type, headers=()):
        """Write the whole response with one ``sendall``."""
        if self._body_left:
            # The request body was never read, so the next request
            # would start inside it: this response is the last.
            self.close_connection = True
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, '')}\r\n",
            _SERVER_HEADER,
            self.server.date_header(),
            f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n",
        ]
        if self._trace_ctx is not None:
            head.append(f"{TRACE_HEADER}: {self._trace_ctx.to_header()}\r\n")
        for name, value in headers:
            head.append(f"{name}: {value}\r\n")
        if self.close_connection:
            # Said only where the client may expect the connection to
            # stay open; a client that asked to close knows.
            if self._persistent_asked:
                head.append("Connection: close\r\n")
        elif not self.http11:
            head.append("Connection: keep-alive\r\n")
        head.append("\r\n")
        self.sock.sendall("".join(head).encode("latin-1") + body)
        if self.server.verbose:
            self._log(status)
        return status

    def _log(self, status):
        line = (self.requestline or b"-").rstrip(b"\r\n").decode("latin-1")
        stamp = time.strftime("%d/%b/%Y %H:%M:%S")
        sys.stderr.write(f'{self.client_address[0]} - - [{stamp}] "{line}" {status} -\n')

    # -- routing -------------------------------------------------------
    def _request_context(self):
        """This request's trace context (``None`` with contexts off).

        Continues the caller's context when an ``X-Repro-Trace`` header
        parses, otherwise roots a fresh trace — so every request has a
        request id even when the client sent nothing.
        """
        if not self.service.trace_contexts:
            return None
        incoming = TraceContext.from_header(self.headers.get(_TRACE_KEY))
        if incoming is not None:
            return incoming.child("request")
        return TraceContext.new()

    def _dispatch(self):
        method = self.method
        path = self.target.split("?")[0].rstrip("/") or "/"
        route = route_label(method, path)
        self._trace_ctx = ctx = self._request_context()
        start_unix = time.time() if ctx is not None else None
        status = 500
        failed = True
        started = time.perf_counter()
        try:
            status = self._route(method, path)
            failed = False
        except QueueFullError as error:
            status = self._send_json(
                error.status,
                {"error": error.code, "message": str(error),
                 "retry_after": error.retry_after},
                headers=(("Retry-After", str(error.retry_after)),),
            )
        except ServiceError as error:
            status = self._send_json(
                error.status, {"error": error.code, "message": str(error)}
            )
        except ConnectionError:
            status = 499  # client went away mid-response; nothing to send
            self.close_connection = True
        except socket.timeout:
            # A socket read or write waited HANDLER_TIMEOUT_S: drop the
            # connection without answering.
            status = 408
            self.close_connection = True
        except Exception as error:  # noqa: BLE001 - last-resort shield
            # The server must keep serving no matter what a request did.
            try:
                status = self._send_json(
                    500, {"error": "internal", "message": str(error)}
                )
            except Exception:
                status = 500
                self.close_connection = True
        finally:
            self.service.record_request(
                status, route=route, started=started,
                duration_s=time.perf_counter() - started,
                path=f"{method} {path}", ctx=ctx, start_unix=start_unix,
                failed=failed,
            )

    def _wants_exposition(self):
        """Content negotiation of ``GET /metrics``.

        ``?format=prometheus`` (or ``text``) forces the text exposition,
        ``?format=json`` forces JSON; otherwise an Accept header that
        asks for ``text/plain`` without also accepting JSON wins.  The
        default stays JSON — existing clients see no change.
        """
        query = self.target.split("?", 1)[1] if "?" in self.target else ""
        fmt = (parse_qs(query).get("format") or [""])[0].lower()
        if fmt in ("prometheus", "text", "exposition"):
            return True
        if fmt == "json":
            return False
        accept = self.headers.get("accept") or ""
        return "text/plain" in accept and "application/json" not in accept

    def _route(self, method, path):
        parts = [part for part in path.split("/") if part]

        if method == "GET":
            if path == "/healthz":
                return self._send_json(*self.service.health())
            if path == "/metrics":
                if self._wants_exposition():
                    return self._send_text(*self.service.metrics_exposition())
                return self._send_json(*self.service.metrics_payload())
            if parts == ["v1", "trace"]:
                return self._send_text(
                    *self.service.trace_export(),
                    content_type="application/x-ndjson",
                )
            if parts == ["v1", "jobs"]:
                return self._send_json(*self.service.job_list())
            if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                return self._send_json(*self.service.job_status(parts[2]))
            if len(parts) == 4 and parts[:2] == ["v1", "jobs"] and parts[3] == "result":
                status, fields = self.service.job_result(parts[2])
                return self._send(status, self.server.results.body(fields),
                                  "application/json")
            if len(parts) == 4 and parts[:2] == ["v1", "jobs"] and parts[3] == "events":
                return self._send_json(*self.service.job_events(parts[2]))
            if parts == ["fleet", "v1", "workers"]:
                return self._send_json(*self.service.fleet_workers())
        elif method == "POST":
            if parts == ["fleet", "v1", "lease"]:
                return self._send_json(*self.service.fleet_lease(self._read_body()))
            if parts == ["fleet", "v1", "heartbeat"]:
                return self._send_json(
                    *self.service.fleet_heartbeat(self._read_body())
                )
            if parts == ["fleet", "v1", "complete"]:
                return self._send_json(
                    *self.service.fleet_complete(self._read_body())
                )
            if parts == ["v1", "jobs"]:
                return self._send_json(
                    *self.service.submit(self._read_raw(), ctx=self._trace_ctx)
                )
            if parts == ["v1", "sweeps"]:
                return self._send_json(
                    *self.service.sweep_submit(self._read_body(), ctx=self._trace_ctx)
                )
            if len(parts) == 4 and parts[:2] == ["v1", "jobs"] and parts[3] == "cancel":
                return self._send_json(*self.service.job_cancel(parts[2]))
        elif method == "PATCH":
            if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                return self._send_json(
                    *self.service.eco_submit(
                        parts[2], self._read_body(), ctx=self._trace_ctx
                    )
                )
        raise NotFoundError(f"no route {method} {path}")


class PartitionHTTPServer:
    """The listening socket of one :class:`PartitionService` and the
    handler threads that accept and serve its connections (module
    docstring).
    """

    # The stdlib default listen backlog of 5 drops connections under a
    # modest burst (the 16-client benchmark hits it); job-level load is
    # bounded separately by the job queue, so accept generously here.
    request_queue_size = 128

    def __init__(self, address, service, verbose=False):
        self.service = service
        self.verbose = verbose
        self._lock = threading.Lock()
        self._accepting = 0  # handler threads in (or on their way to) accept()
        self._stopping = True  # until serve_forever starts
        self._stop_requested = threading.Event()
        self._stopped = threading.Event()
        self._date = (0, "")  # (unix second, its Date header line)
        self.results = _ResultText()
        self.socket = socket.create_server(address, backlog=self.request_queue_size)
        self.server_address = self.socket.getsockname()

    def serve_forever(self):
        """Serve connections until :meth:`shutdown`.

        This thread only waits: handler threads accept connections
        themselves, so a connection is served on the thread that
        accepted it, with no hand-off between threads.
        """
        self._stopped.clear()
        with self._lock:
            self._stopping = False
            self._accepting += 1
        self._start_handler()
        try:
            self._stop_requested.wait()
        finally:
            self._stop_accepting()
            self._stop_requested.clear()
            self._stopped.set()

    def _start_handler(self):
        threading.Thread(target=self._handler_loop, daemon=True).start()

    def _handler_loop(self):
        """Accept a connection and serve it, then wait in ``accept()``
        again; the thread ends when :data:`IDLE_HANDLER_THREADS` others
        already wait there, or when the server stops."""
        while True:
            try:
                request, client_address = self.socket.accept()
            except OSError:
                if self._stopping:
                    with self._lock:
                        self._accepting -= 1
                    return
                continue  # a failed accept, such as out of descriptors
            with self._lock:
                self._accepting -= 1
                stopping = self._stopping
                spawn = not stopping and self._accepting == 0
                if spawn:
                    self._accepting += 1
            if stopping:
                request.close()
                return
            if spawn:
                # Someone must be in accept() while this thread serves:
                # a fleet long-poll or a slow client can hold it long.
                self._start_handler()
            # A fresh context per connection, as a fresh thread would have.
            contextvars.Context().run(self._serve_connection, request, client_address)
            with self._lock:
                if self._stopping or self._accepting >= IDLE_HANDLER_THREADS:
                    return
                self._accepting += 1

    def _serve_connection(self, request, client_address):
        try:
            _Handler(request, client_address, self).serve()
        except Exception:
            self.handle_error(client_address)
        finally:
            try:
                request.shutdown(socket.SHUT_WR)
            except OSError:
                pass  # the client already went away
            request.close()

    def _stop_accepting(self):
        """End the handler threads waiting in ``accept()``: one
        connection to the listener wakes each."""
        with self._lock:
            self._stopping = True
            waiting = self._accepting
        host, port = self.server_address[:2]
        if host == "0.0.0.0":
            host = "127.0.0.1"
        for _ in range(waiting):
            try:
                socket.create_connection((host, port), timeout=1.0).close()
            except OSError:
                return  # the listener is already closed

    def date_header(self):
        """The ``Date`` header line, formatted at most once per second."""
        now = int(time.time())
        second, line = self._date
        if second != now:
            line = f"Date: {formatdate(now, usegmt=True)}\r\n"
            self._date = (now, line)
        return line

    def handle_error(self, client_address):
        """Print a handler's traceback unless the client hung up."""
        if not isinstance(sys.exc_info()[1], ConnectionError):
            print(f"Exception serving {client_address}:", file=sys.stderr)
            traceback.print_exc()

    def server_close(self):
        """Close the listener.  Threads still serving a connection are
        daemons and end with it."""
        self._stop_accepting()
        self.socket.close()

    @property
    def url(self):
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def shutdown(self):
        """Stop :meth:`serve_forever` (wait for it to return), then the
        service."""
        self._stop_requested.set()
        self._stopped.wait()
        self.service.stop()


def build_server(host=None, port=None, verbose=False, **service_opts):
    """A ready (not yet serving) server; ``port=0`` picks a free port.

    Every knob resolves before the socket binds, and the service starts
    only once it is bound, so a bad value or a taken port fails with
    nothing left running.
    """
    address = (envcfg.resolve("REPRO_SERVICE_HOST", host),
               envcfg.resolve("REPRO_SERVICE_PORT", port))
    service = PartitionService(**service_opts)
    server = PartitionHTTPServer(address, service, verbose=verbose)
    service.start()
    return server


#: Drain bound when neither ``drain_timeout`` nor REPRO_JOB_TIMEOUT is
#: set: long enough for any admitted suite job, short enough that an
#: orchestrator's kill grace period is not exhausted by a hung solve.
DEFAULT_DRAIN_TIMEOUT = 30.0


def serve(host=None, port=None, verbose=False, ready_line=True,
          drain_timeout=None, **service_opts):
    """Run the server in this thread until interrupted (the CLI path).

    SIGTERM/SIGINT trigger a *graceful* shutdown: new submits are
    rejected with HTTP 503 (``draining``), admitted jobs finish —
    bounded by ``drain_timeout``, else ``REPRO_JOB_TIMEOUT``, else
    :data:`DEFAULT_DRAIN_TIMEOUT` seconds — the event log is flushed,
    and only then does the listener stop.  A second signal skips the
    drain and shuts down immediately.  Signal handlers only install in
    the main thread; elsewhere (tests embedding serve()) the behavior
    is unchanged.
    """
    import signal

    server = build_server(host=host, port=port, verbose=verbose, **service_opts)
    service = server.service
    draining = threading.Event()

    def _drain_and_stop():
        service.manager.begin_drain()
        bound = drain_timeout
        if bound is None:
            bound = envcfg.resolve("REPRO_JOB_TIMEOUT")
        if bound is None:
            bound = DEFAULT_DRAIN_TIMEOUT
        drained = service.manager.drain(timeout=bound)
        if service.events is not None and service.events.enabled:
            service.events.emit(
                "server.shutdown", drained=drained,
                drain_timeout_s=float(bound),
            )
            service.events.flush()
        print(
            "repro-gpp service drained cleanly" if drained
            else f"repro-gpp service drain timed out after {bound}s",
            flush=True,
        )
        server.shutdown()

    def _handle_signal(signum, _frame):
        if draining.is_set():
            # Second signal: the operator means it — stop now.
            threading.Thread(target=server.shutdown, daemon=True).start()
            return
        draining.set()
        print(
            f"repro-gpp service draining (signal {signum}); "
            "new submits answer 503",
            flush=True,
        )
        # Drain on a helper thread: signal handlers run on the main
        # thread, which is busy inside serve_forever().
        threading.Thread(target=_drain_and_stop, daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _handle_signal)
        signal.signal(signal.SIGINT, _handle_signal)
    except ValueError:
        pass  # not the main thread; no signal-driven shutdown

    if ready_line:
        print(f"repro-gpp service listening on {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    return server
