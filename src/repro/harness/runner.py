"""Suite runner: inline or slot-pool execution with fault tolerance.

The table/benchmark drivers all share one shape of work: a list of
independent ``(circuit, K, method, seed)`` solves whose outputs are
deterministic functions of their inputs (every solve builds a fresh RNG
from its seed; no state crosses items).  This module decomposes that
shape into :class:`SuiteJob` descriptions and runs them through a
:class:`~repro.harness.leases.LeaseQueue`, the attempt state machine it
shares with the fleet coordinator:

* **bitwise determinism** — every attempt executes *exactly* the code
  the sequential loop runs (:func:`execute_job` is the single
  implementation; ``--jobs 1`` calls it inline, ``--jobs N`` calls it in
  pool slots), so reports and labels are bit-identical for any jobs
  count.  The CI determinism job and ``tests/test_runner.py`` enforce
  this.
* **fault tolerance** — a production-scale suite is thousands of jobs;
  a single crashed, hung or corrupted worker must degrade the run, not
  destroy it.  Every job attempt is classified into a structured error
  taxonomy (:data:`JOB_ERROR_KINDS`: ``crashed`` / ``timed-out`` /
  ``invalid-result`` / ``cache-corrupt``), retried up to ``retries``
  times with exponential backoff, and recorded in the
  :class:`RunReport` plus the obs metrics registry
  (``runner.failures.*``, ``runner.retries``).  The pool is ``N``
  slots, each one persistent child process behind a pipe that leases
  one task at a time; a slot that dies or passes its own per-job
  ``timeout`` is killed and respawned alone, so only its own job is
  charged.  Only jobs that exhaust their retries raise
  :class:`JobError`, which still carries the payloads of the jobs that
  finished.  See docs/robustness.md.
* **checkpoint/resume** — validated payloads stream to a JSONL
  checkpoint (:mod:`repro.harness.checkpoint`, content-keyed like the
  artifact cache) as they complete, so an interrupted run resumed with
  ``--resume`` re-executes only the missing jobs and assembles rows
  bitwise identical to an uninterrupted run.
* **deterministic fault injection** — the ``REPRO_FAULT`` environment
  variable / the :class:`~repro.harness.faults.FaultPlan` test API
  make chosen job attempts crash, hang, hard-exit or return corrupt
  payloads, so the recovery paths above are exercised by tests and the
  CI chaos job, not just by real failures.
* **observability across processes** — when capture is on, each slot
  records an attempt in its own :func:`repro.obs.capture` scope and
  ships the scope's snapshot back with its payload; the parent folds
  the snapshot of each job's *successful* attempt, in job-index order,
  into the caller's active capture via :func:`repro.obs.merge_snapshot`
  (exactly-once per origin, so retries or repeated merges never
  double-count).
* **mega-batching** — inline, the queue grants two or more pending jobs
  that share a :func:`~repro.harness.megabatch.job_pack_key` as one
  packed solve (:mod:`repro.harness.megabatch`) when no fault plan is
  active; payloads are bitwise-identical to solo execution, and a
  group that fails falls back to the per-job attempts uncharged.  The
  pool path never packs.
* **caching synergy** — jobs build netlists through
  :func:`repro.circuits.suite.build_circuit`, so slots share the on-disk
  artifact cache (:mod:`repro.cache`); a warm cache turns each slot's
  synthesis step into a cheap load.

The jobs count resolves as: explicit argument > ``REPRO_JOBS``
environment variable > ``min(os.cpu_count(), 8)``.  Retry/timeout knobs
resolve the same way: explicit argument > ``REPRO_RETRIES`` /
``REPRO_JOB_TIMEOUT`` / ``REPRO_RETRY_BACKOFF`` > defaults (2 retries,
no timeout, 0.05 s backoff base).
"""

import multiprocessing
import os
import signal
import time
import uuid
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait

import numpy as np

from repro import envcfg
from repro.harness import faults as fault_mod
from repro.harness import megabatch as megabatch_mod
from repro.harness.checkpoint import SuiteCheckpoint, job_key
from repro.harness.leases import (  # noqa: F401 - re-exported names
    JOB_ERROR_KINDS,
    JobFailure,
    LeaseQueue,
    LeaseTask,
    retry_delay,
    validate_payload,
)
from repro.obs import OBS, TraceContext, merge_snapshot
from repro.obs import capture as obs_capture
from repro.obs import events as obs_events
from repro.utils.errors import CacheCorruptError, ReproError

#: Upper bound of the automatic jobs default; beyond this the suite is
#: typically cache/IO bound and extra workers only add startup cost.
DEFAULT_MAX_JOBS = 8

#: Default number of retries per job (additional attempts after the first).
DEFAULT_RETRIES = 2

#: Default exponential-backoff base delay in seconds: a job's n-th retry
#: waits ``backoff * 2**(n-1)`` before resubmission (:func:`retry_delay`).
DEFAULT_BACKOFF = 0.05

def resolve_jobs(jobs=None, environ=None):
    """Resolve an effective worker count (always >= 1).

    ``jobs=None`` (or 0) consults the ``REPRO_JOBS`` environment
    variable, then falls back to ``min(os.cpu_count(), 8)``.
    """
    if jobs in (None, 0):
        value = envcfg.number(
            "REPRO_JOBS", int, lambda v: v >= 1, "an integer >= 1", environ
        )
        jobs = value if value is not None else min(os.cpu_count() or 1, DEFAULT_MAX_JOBS)
    jobs = int(jobs)
    if jobs < 1:
        raise ReproError(f"jobs must be >= 1, got {jobs}")
    return jobs


def resolve_timeout(timeout=None, environ=None):
    """Per-job timeout in seconds: explicit > ``REPRO_JOB_TIMEOUT`` > None."""
    if timeout is not None:
        timeout = float(timeout)
        if not timeout > 0:
            raise ReproError(f"timeout must be > 0 seconds, got {timeout}")
        return timeout
    return envcfg.number(
        "REPRO_JOB_TIMEOUT", float, lambda v: v > 0, "a number of seconds > 0", environ
    )


def resolve_retries(retries=None, environ=None):
    """Retries per job: explicit > ``REPRO_RETRIES`` > ``DEFAULT_RETRIES``."""
    if retries is not None:
        retries = int(retries)
        if retries < 0:
            raise ReproError(f"retries must be >= 0, got {retries}")
        return retries
    value = envcfg.number(
        "REPRO_RETRIES", int, lambda v: v >= 0, "an integer >= 0", environ
    )
    return DEFAULT_RETRIES if value is None else value


def resolve_backoff(backoff=None, environ=None):
    """Backoff base seconds: explicit > ``REPRO_RETRY_BACKOFF`` > default."""
    if backoff is not None:
        backoff = float(backoff)
        if backoff < 0:
            raise ReproError(f"backoff must be >= 0 seconds, got {backoff}")
        return backoff
    value = envcfg.number(
        "REPRO_RETRY_BACKOFF", float, lambda v: v >= 0, "a number of seconds >= 0", environ
    )
    return DEFAULT_BACKOFF if value is None else value


@dataclass(frozen=True)
class SuiteJob:
    """One independent unit of suite work.

    ``kind="partition"`` partitions ``circuit`` into ``num_planes``
    planes with ``method`` (the table1/table2 item);
    ``kind="plan"`` searches the smallest feasible K under
    ``bias_limit_ma`` (the table3 item); ``kind="eco"`` re-partitions an
    edited netlist warm-started from a previous assignment
    (:func:`repro.core.incremental.incremental_partition`) — it requires
    ``netlist_json`` (the edited netlist), ``prev_labels`` (previous
    plane per gate in edited gate order, ``-1`` for new gates) and an
    ``eco`` dict carrying ``touched`` gate names plus optional
    ``halo``/``threshold``/``quality_eps`` knob overrides.

    ``circuit`` normally names a suite generator (resolved through
    :func:`repro.circuits.suite.build_circuit`); a job may instead carry
    a whole serialized netlist in ``netlist_json`` (the
    :func:`repro.netlist.serialize.netlist_to_dict` form, rebuilt
    against the default library) — the partitioning service uses this
    for inline-netlist submissions.  ``circuit`` must then equal the
    serialized netlist's name.

    ``pinned`` optionally maps gate names to plane indices (hard
    constraints; gradient method only).
    """

    kind: str
    circuit: str
    num_planes: int = None
    method: str = "gradient"
    seed: object = None
    config: object = None
    refine: bool = False
    bias_limit_ma: float = 100.0
    netlist_json: object = None
    pinned: object = None
    prev_labels: object = None
    eco: object = None

    def __post_init__(self):
        if self.kind not in ("partition", "plan", "eco"):
            raise ReproError(f"unknown job kind {self.kind!r}")
        if self.kind in ("partition", "eco") and self.num_planes is None:
            raise ReproError(f"{self.kind} jobs need num_planes")
        if self.pinned is not None and self.kind not in ("partition", "eco"):
            raise ReproError("pinned gates only apply to partition jobs")
        if self.kind == "eco":
            if self.netlist_json is None:
                raise ReproError("eco jobs need the edited netlist in netlist_json")
            if self.prev_labels is None:
                raise ReproError("eco jobs need prev_labels")
            if not isinstance(self.eco, dict):
                raise ReproError("eco jobs need an eco parameter dict")
        elif self.prev_labels is not None or self.eco is not None:
            raise ReproError("prev_labels/eco only apply to eco jobs")
        if self.netlist_json is not None:
            name = self.netlist_json.get("name") if isinstance(self.netlist_json, dict) else None
            if name != self.circuit:
                raise ReproError(
                    f"job circuit {self.circuit!r} != inline netlist name {name!r}"
                )


class JobError(ReproError):
    """Raised when at least one job exhausted its retries.

    ``failures`` carries every recorded :class:`JobFailure` of the run
    (including those of jobs that eventually recovered), so callers can
    inspect the full history.  ``payloads`` holds the run's payloads in
    job order, ``None`` for each job that exhausted its retries, and
    ``errors`` maps each such job's index to a summary of its own
    failures, so a caller can settle every job of the run on its own.
    """

    def __init__(self, message, failures=(), payloads=(), errors=None):
        super().__init__(message)
        self.failures = tuple(failures)
        self.payloads = list(payloads)
        self.errors = dict(errors or {})


@dataclass
class RunReport:
    """Outcome summary of one :func:`run_jobs` call.

    ``failures`` lists every failed attempt (recovered or not);
    ``failed_jobs`` the indices that exhausted retries (empty on a
    successful run — :func:`run_jobs` raises before returning
    otherwise).
    """

    total: int = 0
    executed: int = 0
    from_checkpoint: int = 0
    retries: int = 0
    failures: list = field(default_factory=list)
    failed_jobs: list = field(default_factory=list)
    checkpoint_path: str = None
    checkpoint_corrupt_lines: int = 0

    def failure_counts(self):
        """``{kind: count}`` over :attr:`failures`."""
        counts = {}
        for failure in self.failures:
            counts[failure.kind] = counts.get(failure.kind, 0) + 1
        return counts

    def summary(self):
        """One human line: totals, checkpoint reuse, retry/failure mix."""
        parts = [f"{self.total} jobs"]
        if self.from_checkpoint:
            parts.append(f"{self.from_checkpoint} from checkpoint")
        if self.retries:
            mix = ", ".join(
                f"{kind} x{count}" for kind, count in sorted(self.failure_counts().items())
            )
            parts.append(f"{self.retries} retried ({mix})")
        if self.checkpoint_corrupt_lines:
            parts.append(f"{self.checkpoint_corrupt_lines} corrupt checkpoint lines skipped")
        if self.failed_jobs:
            parts.append(f"{len(self.failed_jobs)} FAILED")
        return "suite run: " + ", ".join(parts)


#: The report of the most recent :func:`run_jobs` call in this process
#: (successful or not); the CLI uses it to print a run summary.
_LAST_REPORT = None


def last_report():
    """The :class:`RunReport` of the most recent run, or ``None``."""
    return _LAST_REPORT


def load_job_netlist(job):
    """The netlist ``job`` solves: its inline ``netlist_json`` or the
    suite circuit it names."""
    # Deferred imports: keep worker startup light and avoid an import
    # cycle (tables imports this module for run_jobs).
    if job.netlist_json is None:
        from repro.circuits.suite import build_circuit

        return build_circuit(job.circuit)
    from repro.netlist.library import default_library
    from repro.netlist.serialize import netlist_from_dict

    # validate=False: every netlist_json reaching a job was already
    # structurally validated at its entry boundary (the service API
    # validates POST bodies; PATCH edits come out of apply_diff).
    return netlist_from_dict(job.netlist_json, default_library(), validate=False)


def partition_payload(job, result):
    """The payload of one solved job: its circuit, report and labels."""
    from repro.metrics.report import evaluate_partition

    return {
        "circuit": job.circuit,
        "report": evaluate_partition(result),
        "labels": result.labels,
    }


def execute_job(job):
    """Run one job in this process; returns a plain payload dict.

    This is the *only* implementation of a job — the sequential path and
    the pool slots both call it, which is what makes ``--jobs N``
    bitwise-identical to ``--jobs 1``.
    """
    netlist = load_job_netlist(job)
    if job.kind == "plan":
        from repro.core.planner import plan_bias_limited

        plan = plan_bias_limited(
            netlist,
            bias_limit_ma=job.bias_limit_ma,
            config=job.config,
            seed=job.seed,
        )
        payload = partition_payload(job, plan.result)
        payload.update(
            k_lb=plan.k_lb, k_res=plan.k_res, bias_lines_saved=plan.bias_lines_saved
        )
        return payload

    if job.kind == "eco":
        from repro.core.incremental import incremental_partition

        params = job.eco
        result, info = incremental_partition(
            netlist,
            job.num_planes,
            prev_labels=np.asarray(job.prev_labels, dtype=np.intp),
            touched=params.get("touched", ()),
            config=job.config,
            seed=job.seed,
            pinned=job.pinned,
            halo=params.get("halo"),
            threshold=params.get("threshold"),
            quality_eps=params.get("quality_eps"),
        )
        payload = partition_payload(job, result)
        payload["eco"] = info
        return payload

    from repro.harness.tables import _partition_with

    result = _partition_with(
        job.method,
        netlist,
        job.num_planes,
        config=job.config,
        seed=job.seed,
        refine=job.refine,
        pinned=job.pinned,
    )
    return partition_payload(job, result)


def _classify_exception(exc):
    """Map a worker exception onto the error taxonomy."""
    if isinstance(exc, CacheCorruptError):
        return "cache-corrupt"
    return "crashed"


def _worker_run(capture, plan, run_id, index, attempt, job, base_ctx=None):
    """One pool-slot attempt: execute a job in its own obs scope.

    A forked slot inherits the submitting thread's capture scope, so
    every attempt opens a fresh one (disabled unless ``capture``).
    ``base_ctx`` is the parent's trace-context wire dict (when it had
    one), namespaced by ``job<index>/a<attempt>`` so concurrent slots
    (and retried attempts) derive disjoint span ids that all parent back
    to the carried span.
    """
    ctx = TraceContext.from_wire(base_ctx) if base_ctx is not None else None
    if ctx is not None:
        ctx = ctx.namespaced(f"job{index}/a{attempt}")
    with obs_capture(ctx) as scope:
        if not capture:
            scope.disable()
        kind = plan.fault_for(index, attempt) if plan is not None else None
        if kind is not None and kind != "corrupt":
            fault_mod.raise_fault(kind)
        payload = execute_job(job)
    if kind == "corrupt":
        payload = fault_mod.corrupt_payload(payload)
    snap = (
        scope.snapshot(origin=f"{run_id}/job{index}/a{attempt}")
        if capture
        else None
    )
    return payload, snap


def _slot_main(conn):
    """Entry point of a pool slot's child process.

    Runs one attempt per received :func:`_worker_run` argument tuple and
    answers ``("ok", payload, snapshot)``, ``("error", kind, message)``
    or ``("interrupt", message)``, until it receives ``None``.  SIGINT
    is ignored: the parent owns the slot and terminates it on Ctrl-C.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            args = conn.recv()
        except EOFError:
            return
        if args is None:
            return
        try:
            reply = ("ok",) + _worker_run(*args)
        except KeyboardInterrupt as exc:
            reply = ("interrupt", str(exc))
        except Exception as exc:
            reply = ("error", _classify_exception(exc), str(exc))
        conn.send(reply)


class _Slot:
    """One pool slot: a persistent child process running one task at a time."""

    def __init__(self):
        self.process = None
        self.conn = None
        self.task = None
        self.deadline = None          # time.monotonic() limit of the attempt

    def start(self, task, args, timeout):
        if self.process is None:
            self.conn, child = multiprocessing.Pipe()
            self.process = multiprocessing.Process(
                target=_slot_main, args=(child,), daemon=True)
            self.process.start()
            child.close()
        try:
            self.conn.send(args)
        except OSError:
            pass  # the child died idle; the wait sees it and charges the task
        self.task = task
        self.deadline = time.monotonic() + timeout if timeout else None

    def finish(self):
        """The ended attempt's ``(task, reply)``; a child that died
        replies ``crashed`` and is reaped (:meth:`abandon`)."""
        try:
            return self.task, self.conn.recv()
        except (EOFError, OSError):
            process = self.process
            task = self.abandon()
            return task, ("error", "crashed",
                          f"worker process died (exit code {process.exitcode})")

    def abandon(self):
        """Kill the child mid-attempt; returns its task.  The next
        :meth:`start` respawns the slot (``runner.pool_rebuilds``)."""
        task = self.task
        self.stop(kill=True)
        if OBS.enabled:
            OBS.metrics.counter("runner.pool_rebuilds").inc()
        return task

    def stop(self, kill=False):
        """End the child (``kill``: terminate it mid-attempt)."""
        self.task = None
        if self.process is None:
            return
        if kill:
            self.process.terminate()
        else:
            try:
                self.conn.send(None)
            except OSError:
                pass
        self.process.join(5)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.conn.close()
        self.process = self.conn = None


def _drain_pool(queue, width, timeout, attempt_args, settle):
    """Drain ``queue`` through ``width`` slots; one task per slot at a time.

    A slot whose attempt passes ``timeout`` seconds, or whose child
    dies, is killed and respawned alone and charges only its own task
    (``timed-out`` / ``crashed``).  Every slot is stopped on the way
    out, interrupts included.
    """
    slots = [_Slot() for _ in range(width)]
    try:
        while True:
            now = time.time()
            for slot in slots:
                if slot.task is None:
                    granted = queue.grant(now)
                    if not granted:
                        break
                    slot.start(granted[0], attempt_args(granted[0]), timeout)
            busy = [slot for slot in slots if slot.task is not None]
            gate = queue.next_gate()
            if not busy:
                if gate is None:
                    return
                time.sleep(max(0.0, gate - time.time()))
                continue
            waits = [slot.deadline - time.monotonic()
                     for slot in busy if slot.deadline is not None]
            if gate is not None and len(busy) < width:
                waits.append(gate - time.time())
            ready = set(connection_wait(
                [slot.conn for slot in busy] + [slot.process.sentinel for slot in busy],
                timeout=max(0.0, min(waits)) if waits else None,
            ))
            for slot in busy:
                if slot.conn in ready or slot.process.sentinel in ready:
                    task, reply = slot.finish()
                    slot.task = None
                    if reply[0] == "ok":
                        settle(task, reply[1], reply[2])
                    elif reply[0] == "interrupt":
                        raise KeyboardInterrupt(reply[1])
                    else:
                        settle(task, failure=reply[1:])
                elif slot.deadline is not None and slot.deadline <= time.monotonic():
                    settle(slot.abandon(),
                           failure=("timed-out", f"no result within {timeout} s"))
    finally:
        for slot in slots:
            slot.stop(kill=slot.task is not None)


def _attempt_inline(task, plan):
    """Run one attempt in this process; ``(payload, failure)``.

    Timeouts are not enforced inline (there is no second process to
    watch the clock); an injected ``hang`` is recorded as a
    ``timed-out`` failure without sleeping so inline fault tests stay
    fast, and ``kill`` degrades to ``crash`` (hard-exiting the caller's
    process would be worse than the fault being simulated).
    """
    kind = plan.fault_for(task.index, task.attempts) if plan is not None else None
    if kind == "hang":
        return None, ("timed-out", "injected hang (inline)")
    try:
        if kind in ("crash", "kill"):
            raise fault_mod.InjectedFault(f"injected {kind} (inline)")
        if kind == "interrupt":
            raise KeyboardInterrupt("injected interrupt")
        payload = execute_job(task.job)
    except KeyboardInterrupt:
        raise
    except Exception as exc:
        return None, (_classify_exception(exc), str(exc))
    if kind == "corrupt":
        payload = fault_mod.corrupt_payload(payload)
    return payload, None


def _run_group(queue, tasks):
    """Run one packed group; True when the queue accepted every payload.

    Strictly best-effort: a group whose packed solve raises or returns
    an invalid payload is released by the queue uncharged, because the
    failure belongs to the packing optimization, not to any job.
    """
    with OBS.trace.span("runner.megabatch", jobs=len(tasks)):
        try:
            payloads = megabatch_mod.execute_group([task.job for task in tasks])
        except Exception:
            payloads = None
    accepted = queue.complete_group(tasks, payloads)
    if OBS.enabled:
        if accepted:
            OBS.metrics.counter("runner.megabatch.groups").inc()
            OBS.metrics.counter("runner.megabatch.packed_jobs").inc(len(tasks))
        else:
            OBS.metrics.counter("runner.megabatch.fallbacks").inc()
    return accepted


def _drain_inline(queue, plan, settle, accept):
    """Drain ``queue`` in the calling thread, waiting out backoff gates."""
    while queue.pending:
        granted = queue.grant(time.time())
        if not granted:
            time.sleep(max(0.0, queue.next_gate() - time.time()))
        elif len(granted) > 1:
            if _run_group(queue, granted):
                for task in granted:
                    accept(task)
        else:
            payload, failure = _attempt_inline(granted[0], plan)
            settle(granted[0], payload, failure=failure)


def _charge(report, task, failure):
    """Record one failed attempt in the report, counters and event log."""
    report.failures.append(failure)
    if OBS.enabled:
        OBS.metrics.counter("runner.failures." + failure.kind.replace("-", "_")).inc()
    exhausted = task.state == "failed"
    log = obs_events.default_events()
    if log.enabled:
        log.emit(
            "runner.job_failed" if exhausted else "runner.attempt_failed",
            circuit=task.job.circuit,
            index=task.index, kind=failure.kind, attempt=failure.attempt,
        )
    if exhausted:
        report.failed_jobs.append(task.index)
        return
    report.retries += 1
    if OBS.enabled:
        OBS.metrics.counter("runner.retries").inc()


def run_jobs(job_list, jobs=None, timeout=None, retries=None, backoff=None,
             checkpoint=None, resume=False, fault_plan=None, force_pool=False):
    """Execute jobs (inline or in pool slots); payloads in job order.

    The pending jobs go into one :class:`~repro.harness.leases.LeaseQueue`.
    With an effective worker count of 1 — or a single job — the calling
    thread drains it, packing compatible jobs into shared solves, and
    observability flows straight into the active capture.  Otherwise
    ``N`` slots (persistent child processes) each lease one task at a
    time and run :func:`execute_job`; their obs snapshots are merged
    into the caller's active capture in job-index order.

    Parameters
    ----------
    jobs:
        Worker count (``None``/0 = ``REPRO_JOBS`` env, else
        ``min(cpus, 8)``).
    timeout:
        Per-job-attempt wall-clock limit in seconds (pool mode only;
        default ``REPRO_JOB_TIMEOUT`` env, else unlimited).  A timed-out
        attempt kills its slot's child — the only way to stop a hung
        worker — and the slot respawns; no other job is affected.
    retries:
        Failed attempts are retried up to this many times per job with
        exponential backoff (``backoff * 2**(n-1)`` before the n-th
        retry; :func:`retry_delay`).  Default ``REPRO_RETRIES`` env,
        else 2.
    checkpoint / resume:
        Path of a JSONL checkpoint (:mod:`repro.harness.checkpoint`).
        Completed payloads are appended as they arrive; with
        ``resume=True`` previously completed jobs are loaded instead of
        re-executed.  Rows are bitwise identical either way.
    fault_plan:
        A :class:`~repro.harness.faults.FaultPlan` for deterministic
        fault injection (default: parsed from ``REPRO_FAULT``).
    force_pool:
        Run through the slot pool even for a single job / single
        worker.  The pool path is what provides crash isolation and
        enforceable per-job deadlines (a hung inline job cannot be
        interrupted), so the partitioning service uses this for its
        ``REPRO_SERVICE_ISOLATION=process`` mode.

    Raises
    ------
    JobError
        When any job exhausted its retries; every completed payload is
        still in the checkpoint (when one was given), so a rerun with
        ``resume=True`` picks up from there.
    """
    global _LAST_REPORT
    job_list = list(job_list)
    jobs = resolve_jobs(jobs)
    timeout = resolve_timeout(timeout)
    retries = resolve_retries(retries)
    backoff = resolve_backoff(backoff)
    if fault_plan is None:
        fault_plan = fault_mod.plan_from_env()

    report = RunReport(total=len(job_list), checkpoint_path=checkpoint)
    _LAST_REPORT = report
    tasks = [LeaseTask(job, index) for index, job in enumerate(job_list)]
    queue = LeaseQueue(retries, backoff)

    journal = SuiteCheckpoint(checkpoint) if checkpoint else None
    if journal is not None and resume:
        stored = journal.load()
        report.checkpoint_corrupt_lines = journal.corrupt_lines
        if journal.corrupt_lines:
            for _ in range(journal.corrupt_lines):
                report.failures.append(JobFailure(
                    index=-1, kind="cache-corrupt", attempt=1,
                    message="corrupt checkpoint line skipped",
                ))
            if OBS.enabled:
                OBS.metrics.counter("runner.failures.cache_corrupt").inc(
                    journal.corrupt_lines
                )
        for task in tasks:
            key = job_key(task.job)
            if key in stored and queue.complete(task, stored[key]) is None:
                report.from_checkpoint += 1
        if OBS.enabled and report.from_checkpoint:
            OBS.metrics.counter("runner.checkpoint.loaded").inc(report.from_checkpoint)

    for task in tasks:
        if task.state != "done":
            queue.submit(task)
    pending = len(queue.pending)
    use_pool = force_pool or (jobs > 1 and pending > 1)
    queue.pack = not use_pool and fault_plan is None

    if OBS.enabled:
        OBS.metrics.counter("runner.jobs_submitted").inc(len(job_list))
        OBS.metrics.gauge("runner.workers").set(min(jobs, max(pending, 1)))

    def accept(task):
        report.executed += 1
        log = obs_events.default_events()
        if log.enabled:
            log.emit(
                "runner.job_completed",
                circuit=task.job.circuit, index=task.index, attempt=task.attempts,
            )
        if journal is not None:
            journal.append(job_key(task.job), task.payload)
            if OBS.enabled:
                OBS.metrics.counter("runner.checkpoint.appended").inc()

    def settle(task, payload=None, snapshot=None, failure=None):
        """Hand one attempt's outcome to the queue and book it."""
        if failure is None:
            problem = queue.complete(task, payload)
            if problem is None:
                task.snapshot = snapshot
                accept(task)
                return
            failure = ("invalid-result", problem)
        _charge(report, task, queue.fail(task, *failure))

    if pending and not use_pool:
        _drain_inline(queue, fault_plan, settle, accept)
    elif pending:
        capture = OBS.enabled
        # The caller's live trace context (when capture is on) rides
        # into every slot, so a CLI `--trace --jobs N` run or a
        # deep-traced service job still yields one connected span tree.
        base_ctx = None
        if capture and OBS.trace.context is not None:
            base_ctx = OBS.trace.context.to_wire()
        run_id = uuid.uuid4().hex

        def attempt_args(task):
            return (capture, fault_plan, run_id, task.index, task.attempts,
                    task.job, base_ctx)

        width = max(1, min(jobs, pending))
        with OBS.trace.span("runner.pool", jobs=width, items=pending):
            _drain_pool(queue, width, timeout, attempt_args, settle)

    # Snapshots merge after the run, in job-index order, so parallel
    # completion order never changes the aggregated metrics.
    for task in tasks:
        if task.snapshot is not None:
            merge_snapshot(task.snapshot)

    payloads = [task.payload for task in tasks]
    if report.failed_jobs:
        errors = {}
        for index in sorted(set(report.failed_jobs)):
            job_failures = [f for f in report.failures if f.index == index]
            errors[index] = ", ".join(f.kind for f in job_failures)
            if job_failures and job_failures[-1].message:
                errors[index] += f" [{job_failures[-1].message}]"
        raise JobError(
            f"{len(errors)} of {len(job_list)} suite jobs failed after {retries} "
            "retries — " + "; ".join(
                f"job {index} ({job_list[index].circuit}): {detail}"
                for index, detail in errors.items()),
            failures=report.failures, payloads=payloads, errors=errors,
        )
    return payloads
