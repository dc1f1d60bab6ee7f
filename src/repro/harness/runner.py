"""Process-parallel suite runner with fault tolerance.

The table/benchmark drivers all share one shape of work: a list of
independent ``(circuit, K, method, seed)`` solves whose outputs are
deterministic functions of their inputs (every solve builds a fresh RNG
from its seed; no state crosses items).  This module decomposes that
shape into :class:`SuiteJob` descriptions and fans them out over a
``ProcessPoolExecutor``:

* **bitwise determinism** — a worker executes *exactly* the code the
  sequential loop runs (:func:`execute_job` is the single
  implementation; ``--jobs 1`` calls it inline, ``--jobs N`` calls it in
  a pool), so reports and labels are bit-identical for any jobs count.
  The CI determinism job and ``tests/test_runner.py`` enforce this.
* **fault tolerance** — a production-scale suite is thousands of jobs;
  a single crashed, hung or corrupted worker must degrade the run, not
  destroy it.  Every job attempt is classified into a structured error
  taxonomy (:data:`JOB_ERROR_KINDS`: ``crashed`` / ``timed-out`` /
  ``invalid-result`` / ``cache-corrupt``), retried up to ``retries``
  times with exponential backoff, and recorded in the
  :class:`RunReport` plus the obs metrics registry
  (``runner.failures.*``, ``runner.retries``).  A per-job ``timeout``
  tears the pool down (terminating the hung worker) and resubmits the
  survivors; only jobs that exhaust their retries raise
  :class:`JobError`.  See docs/robustness.md.
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
* **observability across processes** — when capture is on, each worker
  records the job in its own :func:`repro.obs.capture` scope and ships
  the scope's snapshot back with its payload; the parent folds the
  snapshot of each job's *successful* attempt, in job-index order, into
  the caller's active capture via :func:`repro.obs.merge_snapshot`
  (exactly-once per origin, so retries or repeated merges never
  double-count).
* **mega-batching** — the inline loop runs two or more pending jobs
  that share a :func:`~repro.harness.megabatch.job_pack_key` as one
  packed solve (:mod:`repro.harness.megabatch`) when no fault plan is
  active; payloads are bitwise-identical to solo execution, and a
  group that fails falls back to the per-job attempts uncharged.  The
  pool path never packs.
* **caching synergy** — workers build netlists through
  :func:`repro.circuits.suite.build_circuit`, so they share the on-disk
  artifact cache (:mod:`repro.cache`); a warm cache turns each worker's
  synthesis step into a cheap load.

The jobs count resolves as: explicit argument > ``REPRO_JOBS``
environment variable > ``min(os.cpu_count(), 8)``.  Retry/timeout knobs
resolve the same way: explicit argument > ``REPRO_RETRIES`` /
``REPRO_JOB_TIMEOUT`` / ``REPRO_RETRY_BACKOFF`` > defaults (2 retries,
no timeout, 0.05 s backoff base).
"""

import os
import time
import uuid
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from repro import envcfg
from repro.harness import faults as fault_mod
from repro.harness.checkpoint import SuiteCheckpoint, job_key
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

#: The structured error taxonomy of job-attempt failures.
JOB_ERROR_KINDS = ("crashed", "timed-out", "invalid-result", "cache-corrupt")


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


def retry_delay(failures, retries, backoff):
    """Delay before retrying a job after its ``failures``-th failed
    attempt, or ``None`` once that exhausts its ``retries``.

    The one retry policy of the runner and the fleet coordinator:
    exponential backoff, ``backoff * 2**(n-1)`` before the n-th retry.
    """
    if failures > retries:
        return None
    return backoff * 2.0 ** (failures - 1)


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


@dataclass(frozen=True)
class JobFailure:
    """One failed attempt of one job, classified into the taxonomy.

    ``index`` is the job's position in the submitted list (``-1`` for
    failures not attributable to a job, e.g. corrupt checkpoint lines);
    ``attempt`` is 1-based.
    """

    index: int
    kind: str
    attempt: int
    message: str

    def __post_init__(self):
        if self.kind not in JOB_ERROR_KINDS:
            raise ReproError(
                f"unknown failure kind {self.kind!r}; expected one of {JOB_ERROR_KINDS}"
            )


class JobError(ReproError):
    """Raised when at least one job exhausted its retries.

    ``failures`` carries every recorded :class:`JobFailure` of the run
    (including those of jobs that eventually recovered), so callers can
    inspect the full history.
    """

    def __init__(self, message, failures=()):
        super().__init__(message)
        self.failures = tuple(failures)


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


def execute_job(job):
    """Run one job in this process; returns a plain payload dict.

    This is the *only* implementation of a job — the sequential path and
    the pool workers both call it, which is what makes ``--jobs N``
    bitwise-identical to ``--jobs 1``.
    """
    # Deferred imports: keep worker startup light and avoid an import
    # cycle (tables imports this module for run_jobs).
    from repro.circuits.suite import build_circuit
    from repro.metrics.report import evaluate_partition

    if job.netlist_json is not None:
        from repro.netlist.library import default_library
        from repro.netlist.serialize import netlist_from_dict

        # validate=False: every netlist_json reaching a job was already
        # structurally validated at its entry boundary (the service API
        # validates POST bodies; PATCH edits come out of apply_diff).
        netlist = netlist_from_dict(
            job.netlist_json, default_library(), validate=False
        )
    else:
        netlist = build_circuit(job.circuit)
    if job.kind == "plan":
        from repro.core.planner import plan_bias_limited

        plan = plan_bias_limited(
            netlist,
            bias_limit_ma=job.bias_limit_ma,
            config=job.config,
            seed=job.seed,
        )
        return {
            "circuit": job.circuit,
            "report": evaluate_partition(plan.result),
            "labels": plan.result.labels,
            "k_lb": plan.k_lb,
            "k_res": plan.k_res,
            "bias_lines_saved": plan.bias_lines_saved,
        }

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
        return {
            "circuit": job.circuit,
            "report": evaluate_partition(result),
            "labels": result.labels,
            "eco": info,
        }

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
    return {
        "circuit": job.circuit,
        "report": evaluate_partition(result),
        "labels": result.labels,
    }


def validate_payload(job, payload):
    """Why ``payload`` is structurally invalid for ``job``, or ``None``.

    A worker returning garbage (bit-flip, fault injection, version
    skew) must surface as an ``invalid-result`` failure — and be
    retried — rather than crash the table assembly later.
    """
    if not isinstance(payload, dict):
        return f"payload is {type(payload).__name__}, not a dict"
    if payload.get("circuit") != job.circuit:
        return f"payload circuit {payload.get('circuit')!r} != job circuit {job.circuit!r}"
    report = payload.get("report")
    if report is None:
        return "payload has no report"
    try:
        labels = np.asarray(payload.get("labels"), dtype=np.intp)
    except (TypeError, ValueError):
        return "payload labels are not an integer array"
    num_gates = getattr(report, "num_gates", None)
    if labels.ndim != 1 or labels.shape[0] != num_gates:
        return f"payload labels shape {labels.shape} does not match report gates {num_gates}"
    if job.kind == "plan":
        for name in ("k_lb", "k_res", "bias_lines_saved"):
            if not isinstance(payload.get(name), (int, np.integer)):
                return f"plan payload field {name!r} missing or not an integer"
    if job.kind == "eco":
        info = payload.get("eco")
        if not isinstance(info, dict):
            return "eco payload has no eco info dict"
        if info.get("mode") not in ("warm", "cold"):
            return f"eco payload mode {info.get('mode')!r} is not warm|cold"
    return None


def _classify_exception(exc):
    """Map a worker exception onto the error taxonomy."""
    if isinstance(exc, CacheCorruptError):
        return "cache-corrupt"
    return "crashed"


def _worker_run(capture, plan, run_id, index, attempt, job, base_ctx=None):
    """Pool entry point: execute one job attempt in its own obs scope.

    A forked worker inherits the submitting thread's capture scope, so
    every attempt opens a fresh one (disabled unless ``capture``).
    ``base_ctx`` is the parent's trace-context wire dict (when it had
    one), namespaced by ``job<index>/a<attempt>`` so concurrent workers
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


def _shutdown_pool(pool, kill=False):
    """Shut a pool down without waiting; optionally terminate its workers.

    ``cancel_futures=True`` drops everything still queued, so a
    ``KeyboardInterrupt`` (or a timeout teardown) never leaves orphaned
    work behind; ``kill=True`` additionally terminates the worker
    processes — the only way to stop a hung worker.
    """
    if not kill:
        pool.shutdown(wait=True, cancel_futures=True)
        return
    # ProcessPoolExecutor offers no public kill switch; terminating the
    # private process table is the accepted escape hatch for abandoning
    # hung workers.  Grab it before shutdown() — which nulls the
    # attribute — and the short join reaps them so no zombies linger.
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass
    for process in processes:
        try:
            process.join(timeout=5)
        except Exception:
            pass


class _RunState:
    """Mutable bookkeeping of one :func:`run_jobs` call."""

    def __init__(self, job_list, retries, backoff, report):
        self.job_list = job_list
        self.retries = retries
        self.backoff = backoff
        self.report = report
        self.results = {}      # index -> validated payload
        self.snaps = {}        # index -> obs snapshot of the successful attempt
        self.attempts = {}     # index -> failed-attempt count so far
        self.keys = None       # index -> job key (when checkpointing)
        self.checkpoint = None

    def record_failure(self, index, kind, message):
        """Charge one failed attempt; returns the backoff delay for a
        retry, or ``None`` when the job just exhausted its retries."""
        attempt = self.attempts.get(index, 0) + 1
        self.attempts[index] = attempt
        self.report.failures.append(
            JobFailure(index=index, kind=kind, attempt=attempt, message=str(message))
        )
        if OBS.enabled:
            OBS.metrics.counter(
                "runner.failures." + kind.replace("-", "_")
            ).inc()
        delay = retry_delay(attempt, self.retries, self.backoff)
        log = obs_events.default_events()
        if log.enabled:
            log.emit(
                "runner.job_failed" if delay is None else "runner.attempt_failed",
                circuit=self.job_list[index].circuit,
                index=index, kind=kind, attempt=attempt,
            )
        if delay is None:
            self.report.failed_jobs.append(index)
            return None
        self.report.retries += 1
        if OBS.enabled:
            OBS.metrics.counter("runner.retries").inc()
        return delay

    def accept(self, index, payload, snap=None):
        """Record a validated payload (and checkpoint it)."""
        self.results[index] = payload
        if snap is not None:
            self.snaps[index] = snap
        self.report.executed += 1
        log = obs_events.default_events()
        if log.enabled:
            log.emit(
                "runner.job_completed",
                circuit=self.job_list[index].circuit,
                index=index, attempt=self.attempts.get(index, 0) + 1,
            )
        if self.checkpoint is not None:
            self.checkpoint.append(self.keys[index], payload)
            if OBS.enabled:
                OBS.metrics.counter("runner.checkpoint.appended").inc()

    def next_attempt(self, index):
        return self.attempts.get(index, 0) + 1


def _run_packed(state, group):
    """Run one packed group; True when every payload was accepted.

    Strictly best-effort: a group whose packed solve raises or whose
    payloads fail validation is abandoned wholesale and charges no
    attempt, because the failure belongs to the packing optimization,
    not to any job.  Accepted payloads flow through
    :meth:`_RunState.accept`, so they checkpoint and count exactly like
    per-job results.
    """
    from repro.harness.megabatch import execute_group

    jobs = [state.job_list[index] for index in group]
    with OBS.trace.span("runner.megabatch", jobs=len(group)):
        try:
            payloads = execute_group(jobs)
        except Exception:
            payloads = None
    if payloads is None or any(
        validate_payload(job, payload) is not None
        for job, payload in zip(jobs, payloads)
    ):
        if OBS.enabled:
            OBS.metrics.counter("runner.megabatch.fallbacks").inc()
        return False
    for index, payload in zip(group, payloads):
        state.accept(index, payload)
    if OBS.enabled:
        OBS.metrics.counter("runner.megabatch.groups").inc()
        OBS.metrics.counter("runner.megabatch.packed_jobs").inc(len(group))
    return True


def _run_inline(state, pending, plan):
    """Sequential execution with the same retry/validation semantics.

    Without a fault plan (chaos semantics are defined per job attempt),
    a pending job first packs with the pending jobs that share its
    :func:`~repro.harness.megabatch.job_pack_key`, in submission order
    and at most :data:`~repro.harness.megabatch.MAX_GROUP_SIZE` at a
    time (:func:`_run_packed`); a lone pending job computes no key.
    Jobs of a failed group go through the per-job attempts below.

    Timeouts are not enforced inline (there is no second process to
    watch the clock); an injected ``hang`` is recorded as a
    ``timed-out`` failure without sleeping so inline fault tests stay
    fast, and ``kill`` degrades to ``crash`` (hard-exiting the caller's
    process would be worse than the fault being simulated).
    """
    groups = {}
    if plan is None and len(pending) > 1:
        from repro.harness.megabatch import find_groups

        groups = {group[0]: group for group in find_groups(state.job_list, pending)}
    for index in pending:
        if index in state.results:
            continue  # accepted with its packed group
        if index in groups and _run_packed(state, groups[index]):
            continue
        job = state.job_list[index]
        while True:
            attempt = state.next_attempt(index)
            kind = plan.fault_for(index, attempt) if plan is not None else None
            delay = None
            if kind in ("hang",):
                delay = state.record_failure(index, "timed-out", "injected hang (inline)")
            else:
                try:
                    if kind in ("crash", "kill"):
                        raise fault_mod.InjectedFault(f"injected {kind} (inline)")
                    if kind == "interrupt":
                        raise KeyboardInterrupt("injected interrupt")
                    payload = execute_job(job)
                    if kind == "corrupt":
                        payload = fault_mod.corrupt_payload(payload)
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    delay = state.record_failure(index, _classify_exception(exc), exc)
                else:
                    reason = validate_payload(job, payload)
                    if reason is None:
                        state.accept(index, payload)
                        break
                    delay = state.record_failure(index, "invalid-result", reason)
            if delay is None:
                break  # retries exhausted; finalization raises
            if delay > 0:
                time.sleep(delay)


def _run_pool(state, pending, max_workers, capture, timeout, plan, base_ctx=None):
    """The fault-tolerant pool loop.

    Invariants: with a per-job ``timeout``, at most ``max_workers``
    futures are in flight, so a submitted job starts immediately and
    its deadline is honest (without one, every due job is queued on the
    executor up front and workers pull work with no per-job round-trip
    through this loop); a failure charges exactly one attempt to
    exactly one job, except for a broken pool, which charges every
    in-flight job (the culprit is indistinguishable); innocent jobs
    displaced by a teardown are resubmitted without being charged.
    """
    run_id = uuid.uuid4().hex
    ready = deque((index, 0.0) for index in pending)  # (index, not-before)
    in_flight = {}  # future -> (index, deadline or None)
    pool = None

    def ensure_pool():
        nonlocal pool
        if pool is None:
            pool = ProcessPoolExecutor(max_workers=max_workers)
        return pool

    def kill_pool():
        nonlocal pool
        if pool is not None:
            _shutdown_pool(pool, kill=True)
            pool = None
            if OBS.enabled:
                OBS.metrics.counter("runner.pool_rebuilds").inc()

    def schedule(index, delay):
        if delay is not None:
            ready.append((index, time.monotonic() + delay))

    try:
        while ready or in_flight:
            now = time.monotonic()
            # Submit every due job; the in-flight cap only exists to
            # keep deadlines honest, so it only applies with a timeout.
            deferred = deque()
            while ready and (not timeout or len(in_flight) < max_workers):
                index, not_before = ready.popleft()
                if not_before > now:
                    deferred.append((index, not_before))
                    continue
                job = state.job_list[index]
                attempt = state.next_attempt(index)
                future = ensure_pool().submit(
                    _worker_run, capture, plan, run_id, index, attempt, job,
                    base_ctx,
                )
                in_flight[future] = (index, now + timeout if timeout else None)
            ready.extendleft(reversed(deferred))

            if not in_flight:
                # Everything is waiting out a backoff delay.
                wake = min(not_before for _, not_before in ready)
                time.sleep(max(0.0, wake - time.monotonic()))
                continue

            wait_for = None
            deadlines = [dl for _, dl in in_flight.values() if dl is not None]
            if deadlines:
                wait_for = max(0.0, min(deadlines) - time.monotonic())
            if ready:
                wake = max(0.0, min(nb for _, nb in ready) - time.monotonic())
                wait_for = wake if wait_for is None else min(wait_for, wake)
            done, _ = futures_wait(
                set(in_flight), timeout=wait_for, return_when=FIRST_COMPLETED
            )

            pool_broken = False
            for future in done:
                index, _deadline = in_flight.pop(future)
                job = state.job_list[index]
                try:
                    payload, snap = future.result()
                except KeyboardInterrupt:
                    raise
                except BrokenProcessPool as exc:
                    pool_broken = True
                    schedule(index, state.record_failure(index, "crashed", exc))
                except Exception as exc:
                    schedule(index, state.record_failure(index, _classify_exception(exc), exc))
                else:
                    reason = validate_payload(job, payload)
                    if reason is None:
                        state.accept(index, payload, snap)
                    else:
                        schedule(index, state.record_failure(index, "invalid-result", reason))

            if pool_broken:
                # The surviving in-flight futures are doomed with the
                # pool; resubmit them without charging an attempt.
                for future, (index, _deadline) in in_flight.items():
                    ready.append((index, 0.0))
                in_flight.clear()
                kill_pool()
                continue

            if timeout:
                now = time.monotonic()
                expired = [
                    (future, index)
                    for future, (index, deadline) in in_flight.items()
                    if deadline is not None and deadline <= now
                ]
                if expired:
                    expired_futures = {future for future, _ in expired}
                    for future, index in expired:
                        schedule(
                            index,
                            state.record_failure(
                                index, "timed-out", f"no result within {timeout} s"
                            ),
                        )
                    # Innocent bystanders ride along in the teardown.
                    for future, (index, _deadline) in in_flight.items():
                        if future not in expired_futures:
                            ready.append((index, 0.0))
                    in_flight.clear()
                    kill_pool()
    finally:
        if pool is not None:
            _shutdown_pool(pool, kill=bool(in_flight))


def run_jobs(job_list, jobs=None, timeout=None, retries=None, backoff=None,
             checkpoint=None, resume=False, fault_plan=None, return_report=False,
             force_pool=False):
    """Execute jobs (inline or in a process pool); payloads in job order.

    With an effective worker count of 1 — or a single job — everything
    runs inline in this process, packing compatible jobs into shared
    solves (see :func:`_run_inline`), and observability flows straight
    into the active capture.  Otherwise a ``ProcessPoolExecutor`` runs
    :func:`execute_job` per job and worker obs snapshots are merged into
    the caller's active capture in job-index order.

    Parameters
    ----------
    jobs:
        Worker count (``None``/0 = ``REPRO_JOBS`` env, else
        ``min(cpus, 8)``).
    timeout:
        Per-job-attempt wall-clock limit in seconds (pool mode only;
        default ``REPRO_JOB_TIMEOUT`` env, else unlimited).  A timed-out
        attempt terminates the worker pool — the only way to stop a hung
        worker — and resubmits the unaffected in-flight jobs without
        charging them an attempt.
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
    return_report:
        When true, return ``(payloads, RunReport)`` instead of just the
        payload list.  The report of the latest run is also available
        via :func:`last_report`.
    force_pool:
        Run through the process pool even for a single job / single
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
    state = _RunState(job_list, retries, backoff, report)

    if checkpoint:
        state.checkpoint = SuiteCheckpoint(checkpoint)
        state.keys = [job_key(job) for job in job_list]
        if resume:
            stored = state.checkpoint.load()
            report.checkpoint_corrupt_lines = state.checkpoint.corrupt_lines
            if state.checkpoint.corrupt_lines:
                for _ in range(state.checkpoint.corrupt_lines):
                    report.failures.append(JobFailure(
                        index=-1, kind="cache-corrupt", attempt=1,
                        message="corrupt checkpoint line skipped",
                    ))
                if OBS.enabled:
                    OBS.metrics.counter("runner.failures.cache_corrupt").inc(
                        state.checkpoint.corrupt_lines
                    )
            for index, key in enumerate(state.keys):
                if key in stored:
                    payload = stored[key]
                    if validate_payload(job_list[index], payload) is None:
                        state.results[index] = payload
                        report.from_checkpoint += 1
            if OBS.enabled and report.from_checkpoint:
                OBS.metrics.counter("runner.checkpoint.loaded").inc(report.from_checkpoint)

    pending = [index for index in range(len(job_list)) if index not in state.results]

    if OBS.enabled:
        OBS.metrics.counter("runner.jobs_submitted").inc(len(job_list))
        OBS.metrics.gauge("runner.workers").set(min(jobs, max(len(pending), 1)))

    if pending:
        use_pool = force_pool or (jobs > 1 and len(pending) > 1)
        if not use_pool:
            _run_inline(state, pending, fault_plan)
        else:
            capture = OBS.enabled
            # The caller's live trace context (when capture is on) rides
            # into every worker, so a CLI `--trace --jobs N` run or a
            # deep-traced service job still yields one connected span
            # tree.
            base_ctx = None
            if capture and OBS.trace.context is not None:
                base_ctx = OBS.trace.context.to_wire()
            max_workers = max(1, min(jobs, len(pending)))
            with OBS.trace.span("runner.pool", jobs=max_workers, items=len(pending)):
                _run_pool(state, pending, max_workers, capture, timeout,
                          fault_plan, base_ctx)

    # Snapshots merge after the run, in job-index order, so parallel
    # completion order never changes the aggregated metrics.
    for index in sorted(state.snaps):
        merge_snapshot(state.snaps[index])

    if report.failed_jobs:
        details = []
        for index in sorted(set(report.failed_jobs)):
            job_failures = [f for f in report.failures if f.index == index]
            detail = (
                f"job {index} ({job_list[index].circuit}): "
                + ", ".join(f.kind for f in job_failures)
            )
            if job_failures and job_failures[-1].message:
                detail += f" [{job_failures[-1].message}]"
            details.append(detail)
        raise JobError(
            f"{len(set(report.failed_jobs))} of {len(job_list)} suite jobs failed "
            f"after {retries} retries — " + "; ".join(details),
            failures=report.failures,
        )

    payloads = [state.results[index] for index in range(len(job_list))]
    return (payloads, report) if return_report else payloads
