"""Worker node of the distributed fleet (``repro-gpp worker``).

A :class:`FleetWorker` is a pull-based execution node: it long-polls
``POST /fleet/v1/lease`` on the coordinator, executes each leased job
through the exact :func:`repro.harness.runner.run_jobs` path every
other execution mode uses (so payloads are bitwise-identical to a local
run, and a multi-job lease packs compatible jobs into one solve), and
reports back with ``POST /fleet/v1/complete``; the coordinator's
service stores the result.  A daemon thread heartbeats every active
lease at the coordinator-provided period.

Each lease is one attempt: ``run_jobs`` runs with ``retries=0`` and a
failed attempt is reported with its failure kind, so the coordinator is
the only thing that retries.

Fault injection (``REPRO_FAULT``) is honored *at the node level*: the
plan is parsed once at startup and removed from the worker's own
environment (so the runner underneath does not apply it a second
time), then applied per leased job by worker-local job index —

* ``kill`` hard-exits the whole node mid-job (``os._exit``): heartbeats
  stop, the lease expires, the coordinator requeues;
* ``hang`` freezes the node (heartbeats included) for
  ``REPRO_FAULT_HANG_SECONDS`` — the heartbeat-loss path;
* ``crash`` / ``interrupt`` report a failed attempt immediately;
* ``corrupt`` executes the job but reports a mangled payload, which
  the coordinator rejects as ``invalid-result``.

Because rules carry the attempt number (``kill@0`` fires on attempt 1
only) and the coordinator passes each lease's attempt, a retried job
lands cleanly on any worker — fault-driven worker death converges to
the same bitwise payloads as a clean single-node run.

A lease that asks for deep tracing runs its solve in a
:func:`repro.obs.capture` scope of its own, under the job's trace
context, and the scope's snapshot rides back on the completion report —
whether or not this node's own capture (``REPRO_TRACE``) is on.
"""

import os
import threading
import time

from repro.harness import faults as fault_mod
from repro.harness.checkpoint import payload_to_jsonable
from repro.harness.runner import JobError, run_jobs
from repro.harness.wire import job_from_wire
from repro.fleet.protocol import (
    resolve_max_inflight,
    resolve_poll,
    resolve_worker_id,
)
from repro.obs import TraceContext, capture
from repro.utils.errors import ReproError


class FleetWorker:
    """One pull-based execution node; see the module docstring."""

    def __init__(self, coordinator_url, worker_id=None, max_inflight=None,
                 poll=None, fault_plan=None, verbose=False):
        from repro.service.client import ServiceClient

        self.client = ServiceClient(coordinator_url)
        self.worker_id = resolve_worker_id(worker_id)
        self.max_inflight = resolve_max_inflight(max_inflight)
        self.poll = resolve_poll(poll)
        self.verbose = verbose
        if fault_plan is None:
            # Claim the node's fault plan for ourselves: the runner
            # underneath must not apply the same rules a second time.
            fault_plan = fault_mod.plan_from_env()
            if fault_plan is not None:
                os.environ.pop("REPRO_FAULT", None)
        self.fault_plan = fault_plan or None
        self.jobs_executed = 0
        self.jobs_failed = 0
        self._job_index = 0           # worker-local index for fault rules
        self._stop = threading.Event()
        self._frozen = threading.Event()  # set by an injected hang
        self._active = {}             # lease id -> True while executing
        self._active_lock = threading.Lock()
        self._heartbeat_s = None
        self._heartbeat_thread = None

    def _log(self, message):
        if self.verbose:
            print(f"[worker {self.worker_id}] {message}", flush=True)

    # -- transport ------------------------------------------------------
    def _post(self, path, body):
        _status, payload = self.client._request("POST", path, body)
        return payload

    # -- heartbeats -----------------------------------------------------
    def _heartbeat_loop(self):
        while not self._stop.is_set() and not self._frozen.is_set():
            period = self._heartbeat_s or 1.0
            if self._stop.wait(period):
                return
            if self._frozen.is_set():
                return
            with self._active_lock:
                lease_ids = list(self._active)
            if not lease_ids:
                continue
            try:
                self._post("/fleet/v1/heartbeat",
                           {"worker": self.worker_id, "leases": lease_ids})
            except ReproError as error:
                self._log(f"heartbeat failed: {error}")

    def _ensure_heartbeats(self):
        if self._heartbeat_thread is None or not self._heartbeat_thread.is_alive():
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop,
                name=f"repro-fleet-heartbeat-{self.worker_id}", daemon=True,
            )
            self._heartbeat_thread.start()

    # -- execution ------------------------------------------------------
    def _apply_pre_fault(self, lease, index):
        """The fault kind this lease suffers, after pre-job kinds fired.

        Returns ``None`` (no fault), ``"corrupt"`` (execute, then mangle
        the report) or ``"failed"`` (a failure was already reported).
        ``kill`` and ``hang`` do not return.
        """
        if self.fault_plan is None:
            return None
        kind = self.fault_plan.fault_for(index, lease.get("attempt", 1))
        if kind is None:
            return None
        self._log(f"injected fault {kind!r} on job index {index}")
        if kind == "hang":
            # A hung node is a *silent* failure: freeze heartbeats too,
            # so the coordinator sees lease expiry, not a clean report.
            self._frozen.set()
            time.sleep(fault_mod.hang_seconds())
            return "failed"
        if kind == "kill":
            fault_mod.raise_fault("kill")  # os._exit: no cleanup, no report
        if kind in ("crash", "interrupt"):
            self._complete_failure(lease, "crashed",
                                   f"injected {kind} fault on worker "
                                   f"{self.worker_id}")
            return "failed"
        return kind  # corrupt: post-job fault

    def _complete_failure(self, lease, kind, message):
        self.jobs_failed += 1
        self._post("/fleet/v1/complete", {
            "worker": self.worker_id, "lease": lease["lease"],
            "ok": False, "kind": kind, "message": message,
        })

    def _execute_lease(self, lease):
        """Run one leased job and report the outcome."""
        index = self._job_index
        self._job_index += 1
        fate = self._apply_pre_fault(lease, index)
        if fate == "failed":
            return
        try:
            suite_job = job_from_wire(lease["job"])
            ctx = None
            if lease.get("tracing") and lease.get("trace"):
                ctx = TraceContext.from_wire(lease["trace"])
            snapshot = None
            if ctx is None:
                payloads = run_jobs([suite_job], jobs=1, retries=0)
            else:
                # Deep tracing: the job's solver spans, in a scope of
                # their own under the job's context, go back with the
                # report whatever this node's own capture is doing.
                with capture(ctx) as scope:
                    payloads = run_jobs([suite_job], jobs=1, retries=0)
                snapshot = scope.snapshot(
                    origin=f"fleet/{self.worker_id}/{lease['lease']}")
            payload = payloads[0]
        except ReproError as error:
            failures = getattr(error, "failures", ())
            self._complete_failure(
                lease, failures[-1].kind if failures else "crashed", str(error))
            return
        if fate == "corrupt":
            jsonable = fault_mod.corrupt_payload(payload_to_jsonable(payload))
        else:
            jsonable = payload_to_jsonable(payload)
        body = {
            "worker": self.worker_id, "lease": lease["lease"],
            "ok": True, "payload": jsonable,
        }
        if snapshot is not None:
            body["snapshot"] = snapshot
        outcome = self._post("/fleet/v1/complete", body)
        self.jobs_executed += 1
        self._log(f"completed lease {lease['lease']} "
                  f"({outcome.get('status')}, index {index})")

    def _execute_batch(self, leases):
        """Run a multi-job lease through one ``run_jobs`` call.

        This is the fleet's mega-batch seam: the runner's inline drain
        packs compatible jobs of one lease round into one batched
        kernel invocation (per-job payloads stay bitwise-identical —
        the runner's contract).  When some jobs fail, every lease still
        settles from that one call: a failed job reports its last
        failure, the others the payloads the :class:`JobError` carries,
        so no job is solved twice.  Only a lease round that does not
        decode falls back to the per-job path.
        """
        failed = {}
        try:
            suite_jobs = [job_from_wire(lease["job"]) for lease in leases]
            payloads = run_jobs(suite_jobs, jobs=1, retries=0)
        except JobError as error:
            payloads = error.payloads
            failed = {f.index: f for f in error.failures}
        except ReproError:
            for lease in leases:
                self._execute_lease(lease)
            return
        for index, (lease, payload) in enumerate(zip(leases, payloads)):
            self._job_index += 1
            if payload is None:
                self._complete_failure(lease, failed[index].kind, failed[index].message)
            else:
                self._post("/fleet/v1/complete", {
                    "worker": self.worker_id, "lease": lease["lease"],
                    "ok": True, "payload": payload_to_jsonable(payload),
                })
                self.jobs_executed += 1
            with self._active_lock:
                self._active.pop(lease["lease"], None)

    # -- main loop ------------------------------------------------------
    def run_once(self):
        """One lease round trip; returns how many jobs were granted."""
        response = self._post("/fleet/v1/lease", {
            "worker": self.worker_id,
            "max_jobs": self.max_inflight,
            "wait": self.poll,
        })
        leases = response.get("leases") or []
        if not leases:
            return 0
        self._heartbeat_s = leases[0].get("heartbeat_s") or self._heartbeat_s
        with self._active_lock:
            for lease in leases:
                self._active[lease["lease"]] = True
        self._ensure_heartbeats()
        try:
            traced = any(l.get("tracing") and l.get("trace") for l in leases)
            if len(leases) > 1 and self.fault_plan is None and not traced:
                self._execute_batch(leases)
            else:
                for lease in leases:
                    if self._stop.is_set() or self._frozen.is_set():
                        break
                    self._execute_lease(lease)
                    with self._active_lock:
                        self._active.pop(lease["lease"], None)
        finally:
            with self._active_lock:
                for lease in leases:
                    self._active.pop(lease["lease"], None)
        return len(leases)

    def run(self):
        """Lease/execute/report until :meth:`stop` (or a fatal fault)."""
        self._log(f"polling {self.client.base_url} "
                  f"(max_inflight={self.max_inflight})")
        while not self._stop.is_set() and not self._frozen.is_set():
            try:
                granted = self.run_once()
            except ReproError as error:
                self._log(f"lease round failed: {error}")
                if self._stop.wait(min(2.0, max(0.2, self.poll or 0.5))):
                    break
                continue
            if granted == 0 and self.poll == 0:
                # wait=0 means the caller drives pacing (tests).
                if self._stop.wait(0.02):
                    break
        self._log(f"stopped after {self.jobs_executed} job(s)")
        return self.jobs_executed

    def stop(self):
        self._stop.set()

