"""Coordinator side of the distributed fleet: leases, heartbeats, requeue.

:class:`FleetCoordinator` hands the service's work to worker nodes.
Under ``isolation="fleet"`` the :class:`~repro.service.jobs.JobManager`
starts no solve thread: it binds itself to the coordinator, and nodes
lease straight from its admission
:class:`~repro.harness.leases.LeaseQueue` over the ``/fleet/v1`` HTTP
routes, so each fleet job waits in exactly one queue.

Attempts, backoff, validation and giving up belong to that queue — the
same state machine :func:`repro.harness.runner.run_jobs` drains — so a
fleet job fails exactly like a local one:

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
lease's deadline by one TTL, and a reaper thread that charges a lease
whose deadline passes (worker death, hang, network partition) as a
``timed-out`` attempt.  When the manager has a ``timeout``, a grant
also records a solve deadline, ``now + timeout``: heartbeats never
extend a lease past it, so a node that keeps beating while its solve
spins is charged ``timed-out`` there too, and its late report is
``stale``.  ``--timeout`` thus bounds a fleet attempt as it bounds a
local one.  The job lifecycle stays the manager's: a job's
first grant begins it, and an accepted result or exhausted retries
settle it (:meth:`JobManager.settle_lease
<repro.service.jobs.JobManager.settle_lease>`), both outside the lock.

Thread safety: the manager's condition variable guards the queue, the
lease table, the worker roster and the job table; lease requests
long-poll on it so work is handed out the moment it is queued.
"""

import math
import threading
import time
import uuid

from repro import envcfg
from repro.harness.checkpoint import payload_from_jsonable
from repro.harness.leases import JOB_ERROR_KINDS
from repro.harness.wire import job_to_wire
from repro.utils.errors import ReproError

#: Upper bound on one lease long-poll, whatever the worker asked for.
MAX_LEASE_WAIT = 30.0


class FleetCoordinator:
    """See the module docstring."""

    def __init__(self, lease_ttl=None, reap_interval=None):
        self.lease_ttl = envcfg.resolve("REPRO_FLEET_LEASE_TTL", lease_ttl)
        self.heartbeat_s = self.lease_ttl / 3.0
        self._reap_interval = (
            reap_interval if reap_interval is not None
            else max(0.05, min(1.0, self.lease_ttl / 4.0))
        )
        self._manager = None          # the bound JobManager (see bind)
        # lease id -> (task, worker id, deadline, solve deadline)
        self._leases = {}
        self._workers = {}            # worker id -> roster record
        self._running = False
        self._reaper = None

    def bind(self, manager):
        """Lease from ``manager``'s queue under its lock, and count and
        emit into its metrics and event log (its constructor calls this)."""
        self._manager = manager
        self.timeout = manager.timeout  # None: no solve deadline
        self._cond = manager._cond
        self._queue = manager._queue
        self.metrics = manager.metrics
        self.events = manager.events

    # -- metrics / events ----------------------------------------------
    def _inc_locked(self, name, amount=1):
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def _gauge_locked(self, name, value):
        if self.metrics is not None:
            self.metrics.gauge(name).set(value)

    def _emit(self, event, task, **attrs):
        if self.events is not None:
            self.events.emit(event, job_id=task.owner.id, **attrs)

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
    def queued_locked(self, task):
        """Count, and wake the lease long-polls for, a task the manager
        just admitted to the queue.

        Dedup by content key and store hits happen in the manager first,
        so every task here is a distinct unit of work.
        """
        self._inc_locked("fleet.jobs.submitted")
        self._refresh_gauges_locked()
        self._cond.notify_all()  # every lease long-poll, not just one waiter
        self._emit("fleet.queued", task, key=task.owner.key)

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
        for task in self._manager._grant_locked(now, limit):
            job = task.owner
            lease_id = uuid.uuid4().hex[:16]
            solve_by = math.inf if self.timeout is None else now + self.timeout
            self._leases[lease_id] = (
                task, worker_id, min(now + self.lease_ttl, solve_by), solve_by)
            record["leases"].add(lease_id)
            self._inc_locked("fleet.lease.granted")
            solve_ctx = self._manager._solve_ctx(job)
            trace = job.trace if solve_ctx is None else solve_ctx
            granted.append((task, {
                "lease": lease_id,
                "key": job.key,
                "attempt": task.attempts,
                "deadline_s": self.lease_ttl,
                "heartbeat_s": self.heartbeat_s,
                "job": job_to_wire(task.job),
                "trace": None if trace is None else trace.to_wire(),
                "tracing": solve_ctx is not None,
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
            if grant["attempt"] == 1:
                self._manager._begin([task])
            self._emit("fleet.leased", task, worker=worker_id,
                       lease=grant["lease"], attempt=grant["attempt"])
        return [grant for _task, grant in grants]

    def heartbeat(self, worker_id, lease_ids):
        """Extend the deadlines of a worker's live leases by one TTL,
        never past a lease's solve deadline."""
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
                task, owner, _deadline, solve_by = entry
                self._leases[lease_id] = (
                    task, owner, min(now + self.lease_ttl, solve_by), solve_by)
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
        results are deterministic), so the late result is dropped.  An
        accepted result, or a failure that exhausts the job's retries,
        settles the job before this returns.
        """
        with self._cond:
            record = self._roster_locked(worker_id)
            entry = self._leases.pop(lease_id, None)
            if entry is None:
                self._inc_locked("fleet.complete.stale")
                return "stale"
            task = entry[0]
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
        if status == "accepted":
            self._emit("fleet.completed", task, worker=worker_id,
                       attempt=task.attempts)
        if status != "requeued":
            self._settle(task)
        return status

    # -- failure accounting --------------------------------------------
    def _fail_attempt_locked(self, task, kind, message):
        """Charge one failed attempt; the queue requeues or exhausts it."""
        self._queue.fail(task, kind, message)
        self._inc_locked(f"fleet.failures.{kind}")
        if task.state == "failed":
            self._inc_locked("fleet.jobs.failed")
            self._emit("fleet.failed", task, kind=kind, attempts=task.attempts)
            return "failed"
        self._inc_locked("fleet.requeues")
        self._inc_locked("fleet.retries")
        self._emit("fleet.requeued", task, kind=kind, attempt=task.attempts,
                   message=message)
        return "requeued"

    def _settle(self, task):
        """Hand a resolved task back to the manager (outside the lock)."""
        error = None
        if task.state == "failed":
            history = "; ".join(
                f"attempt {f.attempt}: {f.kind}: {f.message}"
                for f in task.failures
            )
            error = (f"fleet job failed after {task.attempts} attempt(s) "
                     f"({self._manager.retries} retries): {history}")
        self._manager.settle_lease(task, error)

    # -- reaper ---------------------------------------------------------
    def reap_expired(self, now=None):
        """Reclaim leases whose deadline passed; returns how many."""
        now = time.time() if now is None else now
        exhausted = []
        with self._cond:
            expired = [lease_id for lease_id, entry in self._leases.items()
                       if entry[2] < now]
            for lease_id in expired:
                task, worker_id, deadline, solve_by = self._leases.pop(lease_id)
                record = self._workers.get(worker_id)
                if record is not None:
                    record["leases"].discard(lease_id)
                    record["failed"] += 1
                    self._gauge_locked(f"fleet.worker.{worker_id}.leases",
                                       len(record["leases"]))
                self._inc_locked("fleet.lease.expired")
                reason = (f"passed its solve deadline ({self.timeout} s)"
                          if deadline == solve_by else
                          f"expired after {self.lease_ttl} s without a heartbeat")
                if self._fail_attempt_locked(
                    task, "timed-out",
                    f"lease {lease_id} on worker {worker_id} {reason}",
                ) == "failed":
                    exhausted.append(task)
            if expired:
                self._refresh_gauges_locked()
                self._cond.notify_all()
        for task in exhausted:
            self._settle(task)
        return len(expired)

    def _reaper_loop(self):
        while True:
            with self._cond:
                if not self._running:
                    return
            self.reap_expired()
            time.sleep(self._reap_interval)

    # -- introspection ---------------------------------------------------
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
