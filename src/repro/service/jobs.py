"""Bounded job queue, worker pool and job lifecycle of the service.

:class:`JobManager` owns everything between "request validated" and
"payload available":

* a bounded admission queue, a
  :class:`~repro.harness.leases.LeaseQueue` of admitted jobs — at
  capacity, :meth:`submit` raises
  :class:`~repro.service.errors.QueueFullError` and the server answers
  HTTP 429 with a ``Retry-After`` header (backpressure, never unbounded
  memory); each admitted job's
  :class:`~repro.harness.runner.SuiteJob` is built once, at admission;
* in-flight dedup — a second request with the same content key while
  the first is queued/running attaches to the existing job instead of
  solving twice;
* a result-store fast path — a stored payload turns the submit into an
  immediately-``done`` job without touching the queue;
* worker threads executing each job through the fault-tolerant
  :func:`repro.harness.runner.run_jobs` path (retries + failure
  taxonomy; ``isolation="process"`` additionally forces the slot pool
  for crash isolation and enforceable deadlines);
* grant-time packing — under inline isolation, without deep tracing
  and without a fault plan, a worker that finds no other worker idle
  takes the queue's grant (:meth:`LeaseQueue.grant
  <repro.harness.leases.LeaseQueue.grant>`): the head job plus the
  queued jobs that share its pack key, which the runner solves packed.
  Outcomes are per job: when the runner gives up on one job of a
  batch, the others still finish ``done`` with their payloads, so
  every job gets exactly ``retries + 1`` attempts, packed or not.
  Solo, sweep and packed jobs share one lifecycle
  (:meth:`JobManager._execute`);
* best-effort cancellation: a queued job is dropped before it runs, a
  running job finishes (inline solves cannot be interrupted).

Thread-safety: all job/queue state is guarded by one condition
variable; workers run fully in parallel whether capture is on or off.

Observability (this PR's substrate; see docs/observability.md):

* every lifecycle transition emits into the server's
  :class:`~repro.obs.events.EventLog` (``queued`` → ``leased`` →
  ``solving`` → ``solved`` → ``stored`` → ``done`` / ``failed`` /
  ``cancelled``; ``store_failed`` replaces ``stored`` when the result
  store write raises), stamped with the job's trace context when one
  was attached at submit;
* per-phase latency histograms (``service.job.queue_wait_seconds`` /
  ``solve_seconds`` / ``finalize_seconds`` / ``store_seconds``) feed
  the Prometheus exposition of ``GET /metrics``;
* a job that wants capture — ``tracing`` on (``repro-gpp serve
  --trace-requests``) and a trace context attached, or the process
  capture enabled (``REPRO_TRACE``) — runs its phase spans
  (``service.job`` → ``solve`` / ``finalize`` / ``store``) and its solve
  in one :func:`repro.obs.capture` scope.  Under deep tracing the
  ``service.job`` span is pinned to the job's context, so pool-worker
  and fleet-node snapshots merged into the scope parent under the
  originating request's span.  On exit the scope's snapshot goes to
  exactly one place: ``trace_sink`` (the server's absorb hook) under
  deep tracing, the process capture otherwise.  One request thus
  yields one connected span tree.
"""

import contextlib
import threading
import time
import uuid
from collections import deque

from repro.harness import faults as fault_mod
from repro.harness.checkpoint import payload_to_jsonable
from repro.harness.leases import LeaseQueue, LeaseTask
from repro.harness.runner import JobError, run_jobs
from repro.obs import OBS, TraceContext, capture, merge_snapshot
from repro.service.api import request_to_job
from repro.service.errors import (
    NotFoundError,
    QueueFullError,
    ServiceUnavailableError,
)
from repro.utils.errors import ReproError

#: Job lifecycle states.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: Finished jobs beyond this many are evicted oldest-first, so a
#: long-running server's job table cannot grow without bound.
MAX_FINISHED_JOBS = 1024


class Job:
    """One submitted request's lifecycle record."""

    __slots__ = ("id", "key", "request", "state", "payload", "error",
                 "submitted_at", "started_at", "finished_at", "cached",
                 "done_event", "trace")

    def __init__(self, key, request):
        self.id = uuid.uuid4().hex[:16]
        self.key = key
        self.request = request
        self.state = "queued"
        self.payload = None
        self.error = None
        self.submitted_at = time.time()
        self.started_at = None
        self.finished_at = None
        self.cached = False
        self.done_event = threading.Event()
        self.trace = None  # TraceContext wire dict of the job's span

    @property
    def finished(self):
        return self.state in ("done", "failed", "cancelled")

    def to_dict(self):
        """The status JSON of this job (no payload; see the result route)."""
        out = {
            "id": self.id,
            "key": self.key,
            "state": self.state,
            "request": self.request,
            "cached": self.cached,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.trace is not None:
            out["trace"] = {
                "trace_id": self.trace.get("trace"),
                "request_id": self.trace.get("request"),
            }
        return out


class _QueuedJob(LeaseTask):
    """An admitted :class:`Job` in the manager's queue.

    ``job`` is its :class:`~repro.harness.runner.SuiteJob`; a sweep has
    none and never packs.
    """

    __slots__ = ("owner",)

    def __init__(self, owner, suite_job):
        super().__init__(suite_job, 0)
        self.owner = owner
        if suite_job is None:
            self.pack_key = None


class JobManager:
    """See the module docstring."""

    def __init__(self, workers=1, queue_size=64, timeout=None, retries=None,
                 backoff=None, isolation="inline", store=None, retry_after=1,
                 fault_plan=None, metrics=None, events=None, tracing=False,
                 trace_sink=None, fleet=None):
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        if queue_size < 1:
            raise ReproError(f"queue_size must be >= 1, got {queue_size}")
        if isolation not in ("inline", "process", "fleet"):
            raise ReproError(
                f"isolation must be 'inline', 'process' or 'fleet', "
                f"got {isolation!r}"
            )
        if isolation == "fleet" and fleet is None:
            raise ReproError(
                "isolation='fleet' needs a FleetCoordinator (fleet=...)"
            )
        self.fleet = fleet if isolation == "fleet" else None
        self.workers = workers
        self.queue_size = queue_size
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.isolation = isolation
        self.store = store
        self.retry_after = retry_after
        self.fault_plan = fault_plan
        self.metrics = metrics
        self.events = events          # EventLog (or None: no event emission)
        self.tracing = bool(tracing)  # deep per-request solver tracing
        self.trace_sink = trace_sink  # callable(snapshot) per traced job
        # Whether the queue packs compatible queued jobs into one solve.
        # Inline only: the packed solve runs in the worker thread, which
        # would silently bypass the crash isolation and enforceable
        # deadlines process isolation buys.  Deep tracing also rules it
        # out — a packed group has no single originating request to
        # parent its spans under.
        self.megabatch = isolation == "inline" and not self.tracing

        self._cond = threading.Condition()
        # Admitted jobs not yet running; attempts are counted by run_jobs.
        self._queue = LeaseQueue(retries=0, backoff=0.0)
        self._jobs = {}                 # id -> Job (bounded; see _evict)
        self._inflight = {}             # key -> queued/running Job
        self._finished_order = deque()  # ids of finished jobs, oldest first
        self._running = False
        self._draining = False
        self._threads = []
        self._busy = 0                  # worker threads executing a batch

    # -- metrics / events ----------------------------------------------
    def _inc(self, name, amount=1):
        if self.metrics is not None:
            with self._cond:
                self.metrics.counter(name).inc(amount)

    def _observe(self, name, value):
        """Record one phase-latency histogram sample (seconds)."""
        if self.metrics is not None:
            with self._cond:
                self.metrics.histogram(name).observe(value)

    def _emit(self, job, event, **attrs):
        """One lifecycle event, stamped with the job's trace context."""
        if self.events is None:
            return
        ctx = TraceContext.from_wire(job.trace) if job.trace else None
        self.events.emit(event, job_id=job.id, ctx=ctx, **attrs)

    # -- lifecycle -----------------------------------------------------
    def start(self):
        with self._cond:
            if self._running:
                return self
            self._running = True
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"repro-service-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    @property
    def draining(self):
        """True once :meth:`begin_drain` ran; new submits answer 503."""
        with self._cond:
            return self._draining

    def begin_drain(self):
        """Stop admitting work; already-admitted jobs keep running.

        The graceful-shutdown entry point of ``repro-gpp serve``
        (SIGTERM/SIGINT): after this every :meth:`submit` raises
        :class:`ServiceUnavailableError` (HTTP 503) while the queue and
        the in-flight jobs drain normally — follow with :meth:`drain`
        to wait for them.
        """
        with self._cond:
            self._draining = True

    def drain(self, timeout=None):
        """Wait until no job is queued or running; True when drained.

        ``timeout`` bounds the wait in seconds (``None`` waits forever
        — callers bound it by REPRO_JOB_TIMEOUT).  Does not stop the
        workers; call :meth:`stop` after for that.
        """
        deadline = None if timeout is None else time.time() + timeout
        with self._cond:
            while self._queue.pending or any(
                job.state in ("queued", "running")
                for job in self._inflight.values()
            ):
                remaining = None if deadline is None else deadline - time.time()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(timeout=0.2 if remaining is None
                                else min(0.2, remaining))
            return True

    def stop(self, timeout=5.0):
        """Stop accepting work and join the worker threads.

        Queued jobs are marked cancelled; a job already running finishes
        (inline execution cannot be interrupted) but its worker exits
        right after.
        """
        with self._cond:
            self._running = False
            dropped = [task.owner for task in self._queue.pending]
            self._queue.pending = []
            for job in dropped:
                self._finish_locked(job, "cancelled",
                                    error="server shutting down")
            self._cond.notify_all()
        for job in dropped:
            self._emit(job, "cancelled", reason="server shutting down")
        deadline = time.time() + timeout
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.time()))
        self._threads = []
        return self

    # -- submission ----------------------------------------------------
    def submit(self, key, normalized, ctx=None):
        """Admit a validated request; returns ``(job, outcome)``.

        ``outcome`` is ``"cached"`` (payload served from the result
        store, job born ``done``), ``"deduped"`` (attached to an
        in-flight job with the same key) or ``"queued"``.  Raises
        :class:`QueueFullError` at capacity.

        ``ctx`` is the request's :class:`~repro.obs.context.TraceContext`
        (when the server attached one): the job's own span context is
        derived from it, so everything the job records parents under
        the originating request.
        """
        with self._cond:
            if self._draining:
                raise ServiceUnavailableError(
                    "server is draining for shutdown; not accepting new jobs"
                )
        stored = self.store.get(key) if self.store is not None else None
        if stored is not None:
            with self._cond:
                job = Job(key, normalized)
                if ctx is not None:
                    job.trace = ctx.child("job").to_wire()
                job.state = "done"
                job.cached = True
                job.payload = stored
                job.finished_at = time.time()
                job.done_event.set()
                self._jobs[job.id] = job
                self._record_finished_locked(job)
            self._inc("service.store.hits")
            self._inc("service.jobs.completed")
            self._emit(job, "cached")
            self._emit(job, "done", cached=True)
            return job, "cached"

        with self._cond:
            existing = self._inflight.get(key)
            if existing is not None:
                self._inc_locked("service.jobs.deduped")
                deduped = existing
            else:
                deduped = None
                if len(self._queue.pending) >= self.queue_size:
                    self._inc_locked("service.queue.rejections")
                    rejection = QueueFullError(
                        f"job queue is full ({self.queue_size} queued); retry later",
                        retry_after=self.retry_after,
                    )
                else:
                    rejection = None
                    suite_job = (None if normalized.get("kind") == "sweep"
                                 else request_to_job(normalized))
                    job = Job(key, normalized)
                    if ctx is not None:
                        job.trace = ctx.child("job").to_wire()
                    self._jobs[job.id] = job
                    self._inflight[key] = job
                    self._queue.submit(_QueuedJob(job, suite_job))
                    depth = len(self._queue.pending)
                    self._inc_locked("service.jobs.submitted")
                    self._cond.notify()
        if deduped is not None:
            self._emit(deduped, "deduped")
            return deduped, "deduped"
        if rejection is not None:
            if self.events is not None:
                self.events.emit("rejected", ctx=ctx, key=key,
                                 queue_size=self.queue_size)
            raise rejection
        self._emit(job, "queued", queue_depth=depth)
        return job, "queued"

    def _inc_locked(self, name, amount=1):
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    # -- queries -------------------------------------------------------
    def get(self, job_id):
        with self._cond:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise NotFoundError(f"no such job {job_id!r}") from None

    def list_jobs(self):
        with self._cond:
            return list(self._jobs.values())

    def queue_depth(self):
        with self._cond:
            return len(self._queue.pending)

    def running_count(self):
        """Jobs currently executing on a worker thread."""
        with self._cond:
            return sum(
                1 for job in self._inflight.values() if job.state == "running"
            )

    def cancel(self, job_id):
        """Best-effort cancel; returns the job.

        A queued job is dropped and marked ``cancelled``.  A running job
        completes normally — inline execution cannot be interrupted — and
        finished jobs are left untouched.
        """
        cancelled = False
        with self._cond:
            try:
                job = self._jobs[job_id]
            except KeyError:
                raise NotFoundError(f"no such job {job_id!r}") from None
            if job.state == "queued":
                self._queue.pending = [task for task in self._queue.pending
                                       if task.owner is not job]
                self._finish_locked(job, "cancelled", error="cancelled by client")
                self._inc_locked("service.jobs.cancelled")
                cancelled = True
        if cancelled:
            self._emit(job, "cancelled", reason="cancelled by client")
        return job

    # -- worker internals ----------------------------------------------
    def _finish_locked(self, job, state, payload=None, error=None):
        job.state = state
        job.payload = payload
        job.error = error
        job.finished_at = time.time()
        if self._inflight.get(job.key) is job:
            del self._inflight[job.key]
        self._record_finished_locked(job)
        job.done_event.set()
        self._cond.notify_all()

    def _record_finished_locked(self, job):
        self._finished_order.append(job.id)
        while len(self._finished_order) > MAX_FINISHED_JOBS:
            evicted = self._finished_order.popleft()
            if evicted != job.id:
                self._jobs.pop(evicted, None)

    def _fault_plan(self):
        if self.fault_plan is not None:
            return self.fault_plan
        return fault_mod.plan_from_env()

    def _next_batch(self):
        """Lease the queue's next grant: one job, or a packed group.

        The queue packs only under inline isolation without deep
        tracing or a fault plan (chaos semantics are per job), and only
        while no other worker is idle: an idle worker takes the next job
        instead, and the two solve in parallel.
        """
        pack = self.megabatch and self._fault_plan() is None
        with self._cond:
            while self._running and not self._queue.pending:
                self._cond.wait(timeout=0.2)
            if not self._running:
                return None
            self._busy += 1
            self._queue.pack = pack
            now = time.time()
            batch = self._queue.grant(
                now, limit=1 if self._busy < self.workers else None)
            for task in batch:
                task.owner.state = "running"
                task.owner.started_at = now
            return batch

    def _worker_loop(self):
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            try:
                self._execute(batch)
            finally:
                with self._cond:
                    self._busy -= 1

    def _trace_ctx(self, job):
        """The job's span context under deep tracing, else ``None``."""
        if not self.tracing or self.trace_sink is None or job.trace is None:
            return None
        return TraceContext.from_wire(job.trace)

    @contextlib.contextmanager
    def _scope(self, ctx, origin):
        """Run the block in one capture scope when the job wants capture.

        It does under deep tracing (``ctx`` set) or while the process
        capture is enabled; otherwise nothing is opened and the block's
        instrumentation stays on the disabled fast path.  On exit the
        scope's snapshot goes to exactly one place: the trace sink under
        deep tracing, the process capture otherwise.
        """
        if ctx is None and not OBS.enabled:
            yield
            return
        try:
            with capture() as scope:
                yield
        finally:
            snap = scope.snapshot(origin=origin)
            if ctx is not None:
                self.trace_sink(snap)
            else:
                merge_snapshot(snap)

    def _solve(self, batch):
        """The lifecycle's one kind-specific step.

        Returns the batch's payloads (``None`` for a job the runner gave
        up on), the failure messages of such jobs by batch position, the
        phase histograms the solve time goes to and extra ``solved``
        event attributes.  Partition, plan and ECO jobs run through one
        :func:`run_jobs` call, which packs a granted group, or are
        dispatched to the fleet.  A sweep fans its grid through
        :func:`~repro.harness.pareto.execute_sweep`.
        """
        request = batch[0].owner.request
        run_kwargs = dict(timeout=self.timeout, retries=self.retries,
                          backoff=self.backoff, fault_plan=self._fault_plan(),
                          force_pool=self.isolation == "process")
        if request.get("kind") == "sweep":
            from repro.harness.pareto import execute_sweep

            with OBS.trace.span("sweep"):
                payload, stats = execute_sweep(
                    request, store=self.store, run_kwargs=run_kwargs)
            self._inc("service.sweep.points", stats["points"])
            self._inc("service.sweep.point_cache_hits", stats["cache_hits"])
            self._inc("service.sweep.solved", stats["solved"])
            self._inc("service.sweep.skipped_k", stats["skipped_k"])
            if self.store is not None:
                self._inc("service.store.writes", stats["solved"])
            solved = {"points": stats["points"], "cache_hits": stats["cache_hits"]}
            return [payload], {}, ("service.job.sweep_seconds",), solved
        errors = {}
        with OBS.trace.span("solve"):
            if self.isolation == "fleet":
                payloads = [self._solve_fleet(batch[0].job, batch[0].owner)]
            else:
                try:
                    payloads = run_jobs([task.job for task in batch], jobs=1,
                                        **run_kwargs)
                except JobError as error:
                    payloads, errors = error.payloads, error.errors
        if request.get("kind") != "eco":
            return payloads, errors, ("service.job.solve_seconds",), {}
        # Edit-to-answer phase histogram + warm/cold split of the
        # incremental path (docs/eco.md).
        mode = ((payloads[0] or {}).get("eco") or {}).get("mode")
        if mode == "warm":
            self._inc("service.eco.warm")
        elif mode == "cold":
            self._inc("service.eco.cold_fallbacks")
        return (payloads, errors,
                ("service.job.solve_seconds", "service.job.eco_seconds"), {})

    def _solve_fleet(self, suite_job, job):
        """Dispatch one job to the fleet and wait for its resolution.

        The job is queued on the
        :class:`~repro.fleet.coordinator.FleetCoordinator`, which owns
        leases, heartbeat expiry, retry/backoff accounting and payload
        validation, and this worker thread blocks until a worker node
        resolves it.  Fault plans are *not* applied coordinator-side —
        worker nodes honor their own ``REPRO_FAULT`` environment, which
        is the whole point of the worker-kill chaos story.

        Raises :class:`ReproError` when the fleet exhausted the job's
        retries (the normal failed-job path picks that up).  Under deep
        tracing the lease carries the live ``solve`` span's context and
        the node's snapshot merges into the job's scope.  The wait is
        bounded only when an explicit ``timeout`` was configured — a
        queue deeper than the worker pool legitimately parks jobs for
        longer than any per-attempt budget.
        """
        ctx = OBS.trace.context if self.tracing else None
        task = self.fleet.submit(
            job.key, suite_job,
            trace=ctx.to_wire() if ctx is not None else job.trace,
            tracing=ctx is not None, job_id=job.id,
        )
        deadline = None
        if self.timeout is not None:
            per_attempt = self.fleet.lease_ttl + float(self.timeout)
            deadline = (self.fleet.retries + 1) * per_attempt + 10.0
        payload, snapshot = task.wait(timeout=deadline)
        if snapshot is not None:
            merge_snapshot(snapshot)
        return payload

    def _execute(self, batch):
        """Run one granted job, or a packed group, through the lifecycle.

        Queue wait and ``leased``; then, in the capture scope and the
        ``service.job`` span, ``solving``, the solve step (:meth:`_solve`,
        the only part that differs by kind), and per solved job
        ``solved`` plus its ``finalize`` and ``store`` phases; then
        ``done``.  Outcomes are per job: a job the runner gave up on, or
        one whose lifecycle raised before it finished, ends ``failed``,
        and the rest of its group still ends ``done``.
        """
        jobs = [task.owner for task in batch]
        for job in jobs:
            queue_wait = max(0.0, job.started_at - job.submitted_at)
            self._observe("service.job.queue_wait_seconds", queue_wait)
            self._emit(job, "leased", queue_wait_s=round(queue_wait, 6))
        head = jobs[0]
        packed = len(jobs) > 1
        ctx = self._trace_ctx(head)
        origin = f"service/{head.id}" + ("/batch" if packed else "")
        group = {"batched": True, "group_size": len(jobs)} if packed else {}
        results, errors = {}, {}   # batch position -> JSON payload / message
        try:
            with self._scope(ctx, origin), OBS.trace.span(
                    "service.job", ctx=ctx, job=head.id,
                    circuit=head.request.get("circuit")):
                for job in jobs:
                    self._emit(job, "solving", **group)
                started = time.perf_counter()
                payloads, errors, histograms, solved = self._solve(batch)
                solve_s = time.perf_counter() - started
                for index, (job, payload) in enumerate(zip(jobs, payloads)):
                    if index in errors:
                        continue
                    for name in histograms:
                        self._observe(name, solve_s)
                    self._emit(job, "solved", solve_s=round(solve_s, 6), **solved)
                    results[index] = self._finalize(job, payload)
        except Exception as error:
            # The worker must keep serving the queue whatever the solve
            # raised; an unexpected error keeps its type in the message.
            message = str(error) if isinstance(error, ReproError) else repr(error)
            for index in range(len(jobs)):
                if index not in results:
                    errors.setdefault(index, message)
        if packed:
            self._inc("service.megabatch.groups")
            self._inc("service.megabatch.packed_jobs", len(jobs))
        for index, job in enumerate(jobs):
            state = "done" if index in results else "failed"
            attrs = {} if state == "done" else {"error": errors[index]}
            with self._cond:
                self._finish_locked(job, state, payload=results.get(index), **attrs)
                self._inc_locked("service.jobs.completed" if state == "done"
                                 else "service.jobs.failed")
            self._emit(job, state, **attrs)

    def _finalize(self, job, payload):
        """One job's ``finalize`` and ``store`` phases; its JSON payload.

        The result store is a cache: a write that raises costs a future
        hit, not this result, so the job still finishes ``done`` and a
        ``store_failed`` event replaces ``stored``.
        """
        started = time.perf_counter()
        with OBS.trace.span("finalize"):
            jsonable = payload_to_jsonable(payload)
        self._observe("service.job.finalize_seconds", time.perf_counter() - started)
        if self.store is None:
            return jsonable
        started = time.perf_counter()
        try:
            with OBS.trace.span("store"):
                self.store.put(job.key, payload, meta={"request": job.request})
        except Exception as error:
            self._emit(job, "store_failed", error=str(error))
            return jsonable
        store_s = time.perf_counter() - started
        self._observe("service.job.store_seconds", store_s)
        self._inc("service.store.writes")
        self._emit(job, "stored", store_s=round(store_s, 6))
        return jsonable

