"""The partitioning HTTP server (stdlib ``ThreadingHTTPServer``).

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
``OBS``.  Request handler threads record each request into a
short-lived private tracer and merge it into the server tracer under a
lock; under deep tracing each job's capture-scope snapshot is folded in
the same way (:meth:`PartitionService.absorb`; see
:mod:`repro.service.jobs`).

Trace context: unless ``REPRO_TRACE_CONTEXT`` is off, every request
gets a :class:`~repro.obs.context.TraceContext` — continued from an
``X-Repro-Trace`` header when the client sent one, fresh otherwise —
that is echoed on the response, pinned to the request span and carried
into the job (:meth:`JobManager.submit`), so one POST yields one
connected span tree whose root carries the request id.  Per-route
latency lands in bounded ``service.http.seconds.<route>`` histograms
(ids collapse into the route label, so label cardinality stays fixed).

Connections: each accepted connection runs on a daemon handler thread.
A thread whose connection ended parks for the next one (at most
:data:`IDLE_HANDLER_THREADS` park; the rest exit), and a new thread
starts only when none is parked, so there is no cap: fleet lease
long-polls and slow clients each hold their own thread.  A socket read
that waits :data:`HANDLER_TIMEOUT_S` seconds closes the connection, and
a request whose ``Content-Length`` is not a non-negative integer gets a
400 and a closed connection.

Determinism: the server never mutates a request — the job built from it
is field-for-field the one the CLI builds (see
:func:`repro.service.api.request_to_job`), so a served assignment is
bitwise-identical to a local run with the same inputs.
"""

import contextvars
import io
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
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

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8731
DEFAULT_QUEUE_SIZE = 64
DEFAULT_RETRY_AFTER = 1
DEFAULT_MAX_WORKERS = 4

#: Handler threads kept parked for the next connection.
IDLE_HANDLER_THREADS = 4

#: Seconds a handler waits on one socket read or write (the request
#: line, headers, body, or a client not reading its response) before it
#: closes the connection.  Server-side waits, such as a fleet lease
#: long-poll, are not socket reads and are not bounded by it.
HANDLER_TIMEOUT_S = 30.0


def resolve_host(host=None, environ=None):
    if host:
        return host
    return envcfg.raw("REPRO_SERVICE_HOST", environ) or DEFAULT_HOST


def resolve_port(port=None, environ=None):
    if port is not None:
        return int(port)
    value = envcfg.number(
        "REPRO_SERVICE_PORT", int, lambda v: v >= 0, "an integer >= 0", environ
    )
    return DEFAULT_PORT if value is None else value


def resolve_workers(workers=None, environ=None):
    import os

    if workers is not None:
        return max(1, int(workers))
    value = envcfg.number(
        "REPRO_SERVICE_WORKERS", int, lambda v: v >= 1, "an integer >= 1", environ
    )
    if value is not None:
        return value
    return min(os.cpu_count() or 1, DEFAULT_MAX_WORKERS)


def resolve_queue_size(queue_size=None, environ=None):
    if queue_size is not None:
        return max(1, int(queue_size))
    value = envcfg.number(
        "REPRO_SERVICE_QUEUE", int, lambda v: v >= 1, "an integer >= 1", environ
    )
    return DEFAULT_QUEUE_SIZE if value is None else value


def resolve_retry_after(retry_after=None, environ=None):
    if retry_after is not None:
        return max(1, int(retry_after))
    value = envcfg.number(
        "REPRO_SERVICE_RETRY_AFTER", float, lambda v: v > 0,
        "a number of seconds > 0", environ,
    )
    return DEFAULT_RETRY_AFTER if value is None else max(1, int(value))


def resolve_isolation(isolation=None, environ=None):
    if isolation is not None:
        return isolation
    return envcfg.choice(
        "REPRO_SERVICE_ISOLATION", ("inline", "process", "fleet"), "inline",
        environ,
    )


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


class PartitionService:
    """Everything one server instance owns: manager, store, telemetry."""

    def __init__(self, workers=None, queue_size=None, timeout=None,
                 retries=None, backoff=None, isolation=None, store=None,
                 retry_after=None, fault_plan=None, events=None,
                 tracing=False, lease_ttl=None, heartbeat=None):
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self.tracer.enabled = True
        self._telemetry_lock = threading.Lock()
        self.store = store if store is not None else ResultStore()
        self.events = events if events is not None else EventLog.service_default()
        isolation = resolve_isolation(isolation)
        self.fleet = None
        if isolation == "fleet":
            from repro.fleet.coordinator import FleetCoordinator

            self.fleet = FleetCoordinator(
                lease_ttl=lease_ttl,
                heartbeat=heartbeat,
                retries=retries,
                backoff=backoff,
                metrics=self.metrics,
                events=self.events if self.events.enabled else None,
            )
        self.manager = JobManager(
            workers=resolve_workers(workers),
            queue_size=resolve_queue_size(queue_size),
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            isolation=isolation,
            fleet=self.fleet,
            store=self.store,
            retry_after=resolve_retry_after(retry_after),
            fault_plan=fault_plan,
            metrics=self.metrics,
            events=self.events if self.events.enabled else None,
            tracing=tracing,
            trace_sink=self.absorb,
        )
        self.started_at = time.time()

    def start(self):
        self.manager.start()
        return self

    def stop(self):
        self.manager.stop()
        if self.fleet is not None:
            self.fleet.stop()
        return self

    def record_request(self, tracer, status, route=None, duration_s=None):
        """Merge a request-scoped tracer + count the response status."""
        with self._telemetry_lock:
            self.tracer.merge(tracer)
            self.metrics.counter("service.http.requests").inc()
            self.metrics.counter(f"service.http.status.{status}").inc()
            if route is not None and duration_s is not None:
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
        normalized = validate_request(body)
        key = request_key(normalized)
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
        except (TypeError, ValueError):
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

    def metrics_payload(self):
        with self._telemetry_lock:
            # Live gauges, sampled at scrape time so the route reports
            # the instantaneous queue/worker state, not a stale value.
            self.metrics.gauge("service.queue.depth").set(
                self.manager.queue_depth()
            )
            self.metrics.gauge("service.jobs.inflight").set(
                self.manager.running_count()
            )
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
            self.metrics.gauge("service.queue.depth").set(
                self.manager.queue_depth()
            )
            self.metrics.gauge("service.jobs.inflight").set(
                self.manager.running_count()
            )
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


class _Handler(BaseHTTPRequestHandler):
    """Thin JSON shell around :class:`PartitionService` route logic."""

    server_version = "repro-gpp-service"
    protocol_version = "HTTP/1.1"
    timeout = HANDLER_TIMEOUT_S
    # Buffer the response; _send flushes it, so headers and body leave
    # in one send.
    wbufsize = -1
    _trace_ctx = None  # set per request by _dispatch

    @property
    def service(self):
        return self.server.service

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):
            BaseHTTPRequestHandler.log_message(self, format, *args)

    # -- JSON plumbing -------------------------------------------------
    def _read_body(self):
        header = self.headers.get("Content-Length")
        try:
            length = int(header or 0)
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            # The body stays unread, so the connection cannot carry a
            # next request.
            self.close_connection = True
            if length < 0:
                raise BadRequestError(
                    f"Content-Length must be a non-negative integer, got {header!r}"
                )
            raise BadRequestError(
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES} limit"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise BadRequestError("request body must be a JSON object")
        try:
            return json.loads(raw)
        except ValueError as error:
            raise BadRequestError(f"request body is not valid JSON: {error}") from None

    def _send_json(self, status, payload, headers=()):
        return self._send(status, json.dumps(payload).encode(),
                          "application/json", headers)

    def _send_text(self, status, text, content_type="text/plain; charset=utf-8"):
        return self._send(status, text.encode(), content_type)

    def _send(self, status, body, content_type, headers=()):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self._trace_ctx is not None:
            self.send_header(TRACE_HEADER, self._trace_ctx.to_header())
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        self.wfile.flush()
        return status

    def _request_context(self):
        """This request's trace context (``None`` with contexts off).

        Continues the caller's context when an ``X-Repro-Trace`` header
        parses, otherwise roots a fresh trace — so every request has a
        request id even when the client sent nothing.
        """
        if not context_enabled():
            return None
        incoming = TraceContext.from_header(self.headers.get(TRACE_HEADER))
        if incoming is not None:
            return incoming.child("request")
        return TraceContext.new()

    def _dispatch(self, method):
        tracer = Tracer()
        tracer.enabled = True
        path = self.path.split("?")[0].rstrip("/") or "/"
        route = route_label(method, path)
        self._trace_ctx = self._request_context()
        status = 500
        started = time.perf_counter()
        try:
            with tracer.span("service.request", ctx=self._trace_ctx,
                             route=route, path=f"{method} {path}"):
                status = self._route(method, path)
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
        except BrokenPipeError:
            status = 499  # client went away mid-response; nothing to send
        except TimeoutError:
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
        finally:
            self.service.record_request(
                tracer, status, route=route,
                duration_s=time.perf_counter() - started,
            )

    def _wants_exposition(self):
        """Content negotiation of ``GET /metrics``.

        ``?format=prometheus`` (or ``text``) forces the text exposition,
        ``?format=json`` forces JSON; otherwise an Accept header that
        asks for ``text/plain`` without also accepting JSON wins.  The
        default stays JSON — existing clients see no change.
        """
        query = self.path.split("?", 1)[1] if "?" in self.path else ""
        fmt = (parse_qs(query).get("format") or [""])[0].lower()
        if fmt in ("prometheus", "text", "exposition"):
            return True
        if fmt == "json":
            return False
        accept = self.headers.get("Accept") or ""
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
                return self._send_json(*self.service.job_result(parts[2]))
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
                    *self.service.submit(self._read_body(), ctx=self._trace_ctx)
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

    def do_GET(self):
        self._dispatch("GET")

    def do_POST(self):
        self._dispatch("POST")

    def do_PATCH(self):
        self._dispatch("PATCH")


class _Parked:
    """A handler thread waiting for its next connection."""

    __slots__ = ("thread", "wake", "work")

    def __init__(self):
        self.thread = threading.current_thread()
        self.wake = threading.Lock()
        self.wake.acquire()
        self.work = None


class PartitionHTTPServer(ThreadingHTTPServer):
    """HTTP server bound to one :class:`PartitionService`; each connection
    runs on a daemon handler thread, reused once idle (module docstring).
    """

    daemon_threads = True
    # The stdlib default listen backlog of 5 drops connections under a
    # modest burst (the 16-client benchmark hits it); job-level load is
    # bounded separately by the job queue, so accept generously here.
    request_queue_size = 128

    def __init__(self, address, service, verbose=False):
        self.service = service
        self.verbose = verbose
        self._parked = []
        self._parked_lock = threading.Lock()
        self._closed = False
        super().__init__(address, _Handler)

    def process_request(self, request, client_address):
        """Hand the connection to a parked handler thread, else start one."""
        with self._parked_lock:
            parked = self._parked.pop() if self._parked else None
        if parked is None:
            threading.Thread(
                target=self._handler_loop, args=(request, client_address),
                daemon=self.daemon_threads,
            ).start()
        else:
            parked.work = (request, client_address)
            parked.wake.release()

    def _handler_loop(self, request, client_address):
        parked = _Parked()
        work = (request, client_address)
        while work is not None:
            # A fresh context per connection, as a fresh thread would have.
            contextvars.Context().run(self.process_request_thread, *work)
            with self._parked_lock:
                if self._closed or len(self._parked) >= IDLE_HANDLER_THREADS:
                    return
                self._parked.append(parked)
            parked.wake.acquire()
            work, parked.work = parked.work, None

    def handle_error(self, request, client_address):
        """Print a handler's traceback unless the client hung up."""
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def server_close(self):
        """Close the listener and end the parked handler threads.

        Threads still serving a connection are daemons and end with it.
        """
        super().server_close()
        with self._parked_lock:
            self._closed = True
            parked, self._parked = self._parked, []
        for thread in parked:
            thread.wake.release()
        for thread in parked:
            thread.thread.join(timeout=1.0)

    @property
    def url(self):
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def shutdown(self):
        super().shutdown()
        self.service.stop()


def build_server(host=None, port=None, verbose=False, **service_opts):
    """A ready (not yet serving) server; ``port=0`` picks a free port."""
    service = PartitionService(**service_opts).start()
    return PartitionHTTPServer(
        (resolve_host(host), resolve_port(port)), service, verbose=verbose
    )


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
            from repro.harness.runner import resolve_timeout

            bound = resolve_timeout(None)
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
