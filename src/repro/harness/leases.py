"""The lease queue: one attempt state machine for every job executor.

Every job this repository runs — a table row, a service request, a
fleet lease — is an independent :class:`~repro.harness.runner.SuiteJob`
whose attempts are counted, backed off, validated and given up on by
one :class:`LeaseQueue`:

* :func:`repro.harness.runner.run_jobs` submits its pending jobs and
  drains the queue inline (the calling thread) or through pool slots
  (one persistent child process each, leasing one task at a time);
* :class:`repro.fleet.coordinator.FleetCoordinator` wraps the queue
  with what HTTP workers need on top: a roster, heartbeats, a lease
  reaper and wire grants;
* :class:`repro.service.jobs.JobManager` admits service requests into
  one and hands each grant (a job, or a packed group) to one
  ``run_jobs`` call, which counts the attempts.

A task moves ``pending`` → ``leased`` → ``done``, or back to
``pending`` after a failed attempt (behind its :func:`retry_delay`
backoff gate), or to ``failed`` once the attempt exhausts its retries;
its :class:`JobFailure` history records every failed attempt.

Packing is decided at grant time: with ``pack=True`` a grant returns
the first eligible task plus the eligible tasks that share its
:func:`~repro.harness.megabatch.job_pack_key`, in submission order and
at most :data:`~repro.harness.megabatch.MAX_GROUP_SIZE` in all.  A lone
pending task computes no key; keys are computed once a second task is
pending and cached per task.  A packed group that fails is released
uncharged and its tasks never pack again, so they fall back to
per-job attempts.

The queue is not synchronized: the runner drives it from one thread,
and the coordinator and the manager call it under their own condition
variables.
"""

import time
from dataclasses import dataclass

import numpy as np

from repro.harness import megabatch as megabatch_mod
from repro.utils.errors import ReproError

#: The structured error taxonomy of job-attempt failures.
JOB_ERROR_KINDS = ("crashed", "timed-out", "invalid-result", "cache-corrupt")

#: ``LeaseTask.pack_key`` before the key was computed.
_UNKEYED = object()


def retry_delay(failures, retries, backoff):
    """Delay before retrying a job after its ``failures``-th failed
    attempt, or ``None`` once that exhausts its ``retries``.

    The one retry policy of every executor: exponential backoff,
    ``backoff * 2**(n-1)`` before the n-th retry.
    """
    if failures > retries:
        return None
    return backoff * 2.0 ** (failures - 1)


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


class LeaseTask:
    """One job's journey through a :class:`LeaseQueue`."""

    __slots__ = ("job", "index", "state", "attempts", "failures",
                 "not_before", "payload", "snapshot", "pack_key")

    def __init__(self, job, index):
        self.job = job                # SuiteJob
        self.index = index            # submit order (JobFailure.index)
        self.state = "pending"        # pending | leased | done | failed
        self.attempts = 0             # charged grants so far
        self.failures = []            # JobFailure records, oldest first
        self.not_before = 0.0         # backoff gate (time.time()) of the next grant
        self.payload = None           # validated payload once done
        self.snapshot = None          # obs snapshot of the successful attempt
        self.pack_key = _UNKEYED      # cached job_pack_key; None never packs


class LeaseQueue:
    """See the module docstring."""

    def __init__(self, retries, backoff, pack=False):
        self.retries = retries
        self.backoff = backoff
        self.pack = pack
        self.pending = []             # tasks awaiting a grant, queue order

    def submit(self, task):
        self.pending.append(task)
        return task

    def next_gate(self):
        """The earliest backoff gate among pending tasks (``None``: empty)."""
        return min((task.not_before for task in self.pending), default=None)

    def _pack_key(self, task):
        if task.pack_key is _UNKEYED:
            task.pack_key = megabatch_mod.job_pack_key(task.job)
        return task.pack_key

    def grant(self, now, limit=None):
        """Lease the first task eligible at ``now`` plus its pack group.

        Returns the granted tasks (empty when none is eligible), each
        charged one attempt; at most ``limit`` of them.
        """
        for position, head in enumerate(self.pending):
            if head.not_before <= now:
                break
        else:
            return []
        group = [head]
        size = megabatch_mod.MAX_GROUP_SIZE
        if limit is not None:
            size = min(size, limit)
        if self.pack and size > 1 and len(self.pending) > 1:
            key = self._pack_key(head)
            if key is not None:
                for task in self.pending[position + 1:]:
                    if len(group) == size:
                        break
                    if task.not_before <= now and self._pack_key(task) == key:
                        group.append(task)
        if len(group) == 1:
            del self.pending[position]
        else:
            members = set(map(id, group))
            self.pending = [task for task in self.pending if id(task) not in members]
        for task in group:
            task.state = "leased"
            task.attempts += 1
        return group

    def release(self, tasks):
        """Requeue leased tasks at the front, uncharged and never to pack."""
        for task in tasks:
            task.state = "pending"
            task.attempts -= 1
            task.pack_key = None
        self.pending[0:0] = tasks

    def complete(self, task, payload):
        """Accept ``payload`` for ``task``; why it is invalid, or ``None``.

        An invalid payload leaves the task leased: the caller charges it
        with :meth:`fail`.
        """
        problem = validate_payload(task.job, payload)
        if problem is None:
            task.state = "done"
            task.payload = payload
        return problem

    def complete_group(self, tasks, payloads):
        """Accept a packed group's payloads; True when all were valid.

        ``payloads`` is ``None`` when the packed solve raised.  A group
        with any invalid payload is released whole and charges nothing:
        the failure belongs to the packing, not to any job.
        """
        if payloads is None or len(payloads) != len(tasks) or any(
            validate_payload(task.job, payload) is not None
            for task, payload in zip(tasks, payloads)
        ):
            self.release(tasks)
            return False
        for task, payload in zip(tasks, payloads):
            task.state = "done"
            task.payload = payload
        return True

    def fail(self, task, kind, message):
        """Charge one failed attempt: requeue after backoff, or exhaust.

        Returns the recorded :class:`JobFailure`; ``task.state`` is then
        ``"pending"`` (requeued) or ``"failed"`` (retries exhausted).
        """
        failure = JobFailure(index=task.index, kind=kind,
                             attempt=task.attempts, message=str(message))
        task.failures.append(failure)
        delay = retry_delay(len(task.failures), self.retries, self.backoff)
        if delay is None:
            task.state = "failed"
        else:
            task.state = "pending"
            task.not_before = time.time() + delay
            self.pending.append(task)
        return failure
