"""Coordinator side of the distributed fleet: leases, heartbeats, requeue.

:class:`FleetCoordinator` owns the fleet work queue.  The service's
:class:`~repro.service.jobs.JobManager` (``isolation="fleet"``) submits
each admitted job here instead of solving locally; worker nodes pull
the queue over the ``/fleet/v1`` HTTP routes and report results back.

Attempts, backoff, validation and giving up belong to the
:class:`~repro.harness.leases.LeaseQueue` inside — the same state
machine :func:`repro.harness.runner.run_jobs` drains — so a fleet job
fails exactly like a local one:

* a worker reporting a failed attempt (``crashed`` / ``timed-out`` /
  ``invalid-result`` / ``cache-corrupt``) charges one retry and the job
  is requeued after the exponential backoff
  (:func:`repro.harness.leases.retry_delay`);
* a returned payload is validated by the queue — garbage counts as an
  ``invalid-result`` attempt, exactly like a corrupt pool slot;
* a job that exhausts its retries fails with the full failure history.

What this class adds is what HTTP workers need on top of the queue: a
worker roster, wire-serialized grants (compatible jobs are granted
together, up to the worker's ``max_jobs``), heartbeats that extend a
lease's deadline, and a reaper thread that charges a lease whose
deadline passes (worker death, hang, network partition) as a
``timed-out`` attempt.

Thread safety: one condition variable guards the queue, the lease
table and the worker roster; lease requests long-poll on it so work is
handed out the moment it is queued.
"""

import threading
import time
import uuid

from repro.harness.checkpoint import payload_from_jsonable
from repro.harness.leases import JOB_ERROR_KINDS, LeaseQueue, LeaseTask
from repro.harness.runner import resolve_backoff, resolve_retries
from repro.harness.wire import job_to_wire
from repro.fleet.protocol import resolve_heartbeat, resolve_lease_ttl
from repro.utils.errors import ReproError

#: Upper bound on one lease long-poll, whatever the worker asked for.
MAX_LEASE_WAIT = 30.0


class FleetTask(LeaseTask):
    """One job's journey through the fleet queue."""

    __slots__ = ("key", "trace", "tracing", "job_id", "error", "done_event")

    def __init__(self, key, job, trace, tracing, job_id, index):
        super().__init__(job, index)
        self.key = key
        self.trace = trace            # TraceContext wire dict or None
        self.tracing = bool(tracing)  # deep solver capture requested
        self.job_id = job_id          # service Job id (event correlation)
        self.error = None
        self.done_event = threading.Event()

    def wait(self, timeout=None):
        """Block until resolved; ``(payload, snapshot)`` or ReproError."""
        if not self.done_event.wait(timeout):
            raise ReproError(
                f"fleet job {self.key[:12]} not resolved within {timeout} s "
                f"(state {self.state}; are worker nodes connected?)"
            )
        if self.state == "failed":
            raise ReproError(self.error or "fleet job failed")
        return self.payload, self.snapshot


class FleetCoordinator:
    """See the module docstring."""

    def __init__(self, lease_ttl=None, heartbeat=None, retries=None,
                 backoff=None, metrics=None, events=None, reap_interval=None):
        self.lease_ttl = resolve_lease_ttl(lease_ttl)
        self.heartbeat_s = resolve_heartbeat(heartbeat, self.lease_ttl)
        self.retries = resolve_retries(retries)
        self.backoff = resolve_backoff(backoff)
        self.metrics = metrics
        self.events = events
        self._reap_interval = (
            reap_interval if reap_interval is not None
            else max(0.05, min(1.0, self.lease_ttl / 4.0))
        )
        self._cond = threading.Condition()
        self._queue = LeaseQueue(self.retries, self.backoff, pack=True)
        self._leases = {}             # lease id -> (task, worker_id, deadline)
        self._workers = {}            # worker id -> roster record
        self._index = 0
        self._running = False
        self._reaper = None

    # -- metrics / events ----------------------------------------------
    def _inc_locked(self, name, amount=1):
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def _gauge_locked(self, name, value):
        if self.metrics is not None:
            self.metrics.gauge(name).set(value)

    def _emit(self, event, task=None, **attrs):
        if self.events is None:
            return
        job_id = task.job_id if task is not None else None
        self.events.emit(event, job_id=job_id, **attrs)

    def _refresh_gauges_locked(self):
        self._gauge_locked("fleet.workers", len(self._workers))
        self._gauge_locked("fleet.jobs.pending", len(self._queue.pending))
        self._gauge_locked("fleet.jobs.leased", len(self._leases))

    # -- lifecycle -----------------------------------------------------
    def start(self):
        with self._cond:
            if self._running:
                return self
            self._running = True
        self._reaper = threading.Thread(
            target=self._reaper_loop, name="repro-fleet-reaper", daemon=True
        )
        self._reaper.start()
        return self

    def stop(self, timeout=5.0):
        with self._cond:
            self._running = False
            self._cond.notify_all()
        if self._reaper is not None:
            self._reaper.join(timeout)
            self._reaper = None
        return self

    # -- JobManager side -----------------------------------------------
    def submit(self, key, suite_job, trace=None, tracing=False, job_id=None):
        """Queue one job for the fleet; returns its :class:`FleetTask`.

        Dedup by content key happens upstream in the
        :class:`~repro.service.jobs.JobManager`, so every submit here is
        a distinct unit of work.
        """
        self.start()
        with self._cond:
            task = FleetTask(key, suite_job, trace, tracing, job_id, self._index)
            self._index += 1
            self._queue.submit(task)
            self._inc_locked("fleet.jobs.submitted")
            self._refresh_gauges_locked()
            self._cond.notify_all()
        self._emit("fleet.queued", task, key=key)
        return task

    # -- worker-facing API ---------------------------------------------
    def _roster_locked(self, worker_id):
        record = self._workers.get(worker_id)
        now = time.time()
        if record is None:
            record = {"first_seen": now, "last_seen": now,
                      "completed": 0, "failed": 0, "leases": set()}
            self._workers[worker_id] = record
        else:
            record["last_seen"] = now
        return record

    def _grant_locked(self, worker_id, now, limit):
        """Lease the queue's next grant (at most ``limit`` tasks) to
        ``worker_id``; ``[(task, wire grant), ...]``, empty when nothing
        is eligible."""
        granted = []
        record = self._roster_locked(worker_id)
        for task in self._queue.grant(now, limit):
            lease_id = uuid.uuid4().hex[:16]
            self._leases[lease_id] = (task, worker_id, now + self.lease_ttl)
            record["leases"].add(lease_id)
            self._inc_locked("fleet.lease.granted")
            granted.append((task, {
                "lease": lease_id,
                "key": task.key,
                "attempt": task.attempts,
                "deadline_s": self.lease_ttl,
                "heartbeat_s": self.heartbeat_s,
                "job": job_to_wire(task.job),
                "trace": task.trace,
                "tracing": task.tracing,
            }))
        if granted:
            self._gauge_locked(f"fleet.worker.{worker_id}.leases",
                               len(record["leases"]))
        return granted

    def lease(self, worker_id, max_jobs=1, wait=0.0):
        """Grant up to ``max_jobs`` leases, long-polling up to ``wait`` s."""
        if not worker_id:
            raise ReproError("lease requests must carry a worker id")
        max_jobs = max(1, int(max_jobs))
        deadline = time.monotonic() + max(0.0, min(float(wait), MAX_LEASE_WAIT))
        grants = []
        with self._cond:
            self._roster_locked(worker_id)
            while True:
                now = time.time()
                while len(grants) < max_jobs:
                    granted = self._grant_locked(worker_id, now,
                                                 max_jobs - len(grants))
                    if not granted:
                        break
                    grants.extend(granted)
                if grants or not self._running:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                # Wake early for the nearest backoff gate so a job in
                # backoff is handed out the moment it becomes eligible.
                gate = self._queue.next_gate()
                pause = remaining if gate is None else min(
                    remaining, max(0.01, gate - now))
                self._cond.wait(timeout=min(pause, 0.5))
            if not grants:
                self._inc_locked("fleet.lease.empty")
            self._refresh_gauges_locked()
        for task, grant in grants:
            self._emit("fleet.leased", task, worker=worker_id,
                       lease=grant["lease"], attempt=grant["attempt"])
        return [grant for _task, grant in grants]

    def heartbeat(self, worker_id, lease_ids):
        """Extend the deadlines of a worker's live leases."""
        if not worker_id:
            raise ReproError("heartbeats must carry a worker id")
        extended, unknown = [], []
        with self._cond:
            self._roster_locked(worker_id)
            now = time.time()
            for lease_id in lease_ids or ():
                entry = self._leases.get(lease_id)
                if entry is None:
                    unknown.append(lease_id)
                    continue
                task, owner, _deadline = entry
                self._leases[lease_id] = (task, owner, now + self.lease_ttl)
                extended.append(lease_id)
            self._inc_locked("fleet.heartbeats")
        return {"extended": extended, "unknown": unknown,
                "heartbeat_s": self.heartbeat_s}

    def complete(self, worker_id, lease_id, ok, payload=None, kind=None,
                 message=None, snapshot=None):
        """A worker's result report; returns the outcome status string.

        ``payload`` is the JSON-able
        (:func:`~repro.harness.checkpoint.payload_to_jsonable`) form of
        the worker's ``execute_job`` output.  An unknown or expired
        lease answers ``"stale"`` — the job was already requeued (and
        results are deterministic), so the late result is dropped.
        """
        finish = None
        with self._cond:
            record = self._roster_locked(worker_id)
            entry = self._leases.pop(lease_id, None)
            if entry is None:
                self._inc_locked("fleet.complete.stale")
                return "stale"
            task, _owner, _deadline = entry
            record["leases"].discard(lease_id)
            self._gauge_locked(f"fleet.worker.{worker_id}.leases",
                               len(record["leases"]))
            if ok:
                try:
                    decoded = payload_from_jsonable(payload)
                except Exception as error:  # noqa: BLE001 - worker data
                    decoded, problem = None, f"payload does not decode: {error}"
                else:
                    problem = self._queue.complete(task, decoded)
                if problem is None:
                    task.snapshot = snapshot
                    record["completed"] += 1
                    self._inc_locked("fleet.completions")
                    task.done_event.set()
                    finish = ("fleet.completed", task,
                              {"worker": worker_id, "attempt": task.attempts})
                    status = "accepted"
                else:
                    record["failed"] += 1
                    status = self._fail_attempt_locked(
                        task, "invalid-result",
                        f"worker {worker_id} returned an invalid payload: "
                        f"{problem}",
                    )
            else:
                failure_kind = kind if kind in JOB_ERROR_KINDS else "crashed"
                record["failed"] += 1
                status = self._fail_attempt_locked(
                    task, failure_kind,
                    message or f"worker {worker_id} reported failure",
                )
            self._refresh_gauges_locked()
            self._cond.notify_all()
        if finish is not None:
            event, task, attrs = finish
            self._emit(event, task, **attrs)
        return status

    # -- failure accounting --------------------------------------------
    def _fail_attempt_locked(self, task, kind, message):
        """Charge one failed attempt; the queue requeues or exhausts it."""
        self._queue.fail(task, kind, message)
        self._inc_locked(f"fleet.failures.{kind}")
        if task.state == "failed":
            history = "; ".join(
                f"attempt {f.attempt}: {f.kind}: {f.message}"
                for f in task.failures
            )
            task.error = (
                f"fleet job failed after {task.attempts} attempt(s) "
                f"({self.retries} retries): {history}"
            )
            self._inc_locked("fleet.jobs.failed")
            task.done_event.set()
            self._emit("fleet.failed", task, kind=kind, attempts=task.attempts)
            return "failed"
        self._inc_locked("fleet.requeues")
        self._inc_locked("fleet.retries")
        self._emit("fleet.requeued", task, kind=kind, attempt=task.attempts,
                   message=message)
        return "requeued"

    # -- reaper ---------------------------------------------------------
    def reap_expired(self, now=None):
        """Reclaim leases whose deadline passed; returns how many."""
        now = time.time() if now is None else now
        reclaimed = 0
        with self._cond:
            for lease_id in [
                lease_id for lease_id, (_t, _w, deadline) in self._leases.items()
                if deadline < now
            ]:
                task, worker_id, _deadline = self._leases.pop(lease_id)
                record = self._workers.get(worker_id)
                if record is not None:
                    record["leases"].discard(lease_id)
                    record["failed"] += 1
                    self._gauge_locked(f"fleet.worker.{worker_id}.leases",
                                       len(record["leases"]))
                self._inc_locked("fleet.lease.expired")
                self._fail_attempt_locked(
                    task, "timed-out",
                    f"lease {lease_id} on worker {worker_id} expired after "
                    f"{self.lease_ttl} s without a heartbeat",
                )
                reclaimed += 1
            if reclaimed:
                self._refresh_gauges_locked()
                self._cond.notify_all()
        return reclaimed

    def _reaper_loop(self):
        while True:
            with self._cond:
                if not self._running:
                    return
            self.reap_expired()
            time.sleep(self._reap_interval)

    # -- introspection ---------------------------------------------------
    def pending_count(self):
        with self._cond:
            return len(self._queue.pending)

    def workers_snapshot(self):
        """Roster + queue state for ``/fleet/v1/workers`` and ``/healthz``."""
        now = time.time()
        with self._cond:
            workers = [
                {
                    "id": worker_id,
                    "first_seen": record["first_seen"],
                    "last_seen": record["last_seen"],
                    "last_heartbeat_age_s": round(now - record["last_seen"], 3),
                    "active_leases": len(record["leases"]),
                    "completed": record["completed"],
                    "failed": record["failed"],
                }
                for worker_id, record in sorted(self._workers.items())
            ]
            return {
                "workers": workers,
                "pending": len(self._queue.pending),
                "leased": len(self._leases),
                "lease_ttl_s": self.lease_ttl,
                "heartbeat_s": self.heartbeat_s,
            }
