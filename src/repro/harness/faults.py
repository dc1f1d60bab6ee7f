"""Deterministic fault injection for the suite runner.

The fault-tolerance machinery in :mod:`repro.harness.runner` (retries,
timeouts, checkpoint/resume) is only trustworthy if the failure paths
are exercised on every CI run, not just when real hardware misbehaves.
This module provides a small, fully deterministic fault plan that the
runner consults before executing each job attempt:

* ``crash``     — the attempt raises :class:`InjectedFault` (a job-level
  crash; the pool slot's process survives);
* ``kill``      — the pool slot's child process hard-exits
  (``os._exit``); the runner charges only that slot's job and respawns
  the slot (inline, ``kill`` degrades to ``crash``);
* ``hang``      — the attempt sleeps for ``REPRO_FAULT_HANG_SECONDS``
  (default 3600 s) so the slot's per-job timeout fires and the slot is
  killed;
* ``corrupt``   — the job runs normally but its payload is mangled
  before being returned (exercises result validation);
* ``interrupt`` — the attempt raises ``KeyboardInterrupt`` (exercises
  the abort/cleanup path; never retried).

A plan is a set of rules ``<kind>@<job index>[xN]``; the rule fires on
the first ``N`` attempts of that job (default 1) and the job behaves
normally afterwards, so a bounded retry always recovers.  Plans come
from the ``REPRO_FAULT`` environment variable (comma-separated spec,
read once per run by the parent and shipped to pool slots explicitly) or
from the :class:`FaultPlan` test API::

    REPRO_FAULT="crash@1,hang@3x2" repro-gpp table2 --jobs 2

    plan = FaultPlan.parse("corrupt@0")
    run_jobs(jobs, jobs=2, fault_plan=plan)

Faults address jobs by their zero-based index in the submitted job
list, so the same spec injects the same failures on every run — the CI
chaos job relies on this to assert that a faulted run's rows are
bitwise identical to a clean run's.
"""

import os
import re
import time
from dataclasses import dataclass

from repro import envcfg
from repro.utils.errors import ReproError

#: Recognized fault kinds (``timeout`` is accepted as an alias of ``hang``).
FAULT_KINDS = ("crash", "kill", "hang", "corrupt", "interrupt")

_RULE_RE = re.compile(r"^(?P<kind>[a-z]+)@(?P<index>\d+)(?:x(?P<times>\d+))?$")


class InjectedFault(ReproError):
    """Raised by a worker executing a ``crash`` fault rule."""


@dataclass(frozen=True)
class FaultRule:
    """One fault: job ``index`` misbehaves on its first ``times`` attempts."""

    kind: str
    index: int
    times: int = 1


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable set of :class:`FaultRule` entries."""

    rules: tuple = ()

    @classmethod
    def parse(cls, spec):
        """Parse a ``REPRO_FAULT`` spec string into a plan.

        The spec is a comma-separated list of ``kind@index`` rules with
        an optional ``xN`` repeat count, e.g. ``"crash@1,hang@3x2"``.
        """
        rules = []
        for chunk in str(spec).split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            match = _RULE_RE.match(chunk)
            if not match:
                raise ReproError(
                    f"bad REPRO_FAULT rule {chunk!r}; expected <kind>@<job index>[xN]"
                )
            kind = match.group("kind")
            if kind == "timeout":
                kind = "hang"
            if kind not in FAULT_KINDS:
                raise ReproError(
                    f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
                )
            times = int(match.group("times") or 1)
            if times < 1:
                raise ReproError(f"fault rule {chunk!r}: repeat count must be >= 1")
            rules.append(FaultRule(kind=kind, index=int(match.group("index")), times=times))
        return cls(rules=tuple(rules))

    def fault_for(self, index, attempt):
        """The fault kind job ``index`` suffers on ``attempt`` (1-based), or None."""
        for rule in self.rules:
            if rule.index == index and attempt <= rule.times:
                return rule.kind
        return None

    def __bool__(self):
        return bool(self.rules)


def plan_from_env(environ=None):
    """The :class:`FaultPlan` described by ``REPRO_FAULT``, or ``None``."""
    value = envcfg.raw("REPRO_FAULT", environ)
    if not value:
        return None
    plan = FaultPlan.parse(value)
    return plan or None


def corrupt_payload(payload):
    """A structurally broken version of ``payload`` (fails validation)."""
    return {"circuit": payload.get("circuit") if isinstance(payload, dict) else None,
            "report": None, "labels": "corrupt"}


def raise_fault(kind):
    """Execute the pre-job part of a fault rule inside a worker.

    ``corrupt`` is a post-job fault and is applied by the caller after
    the job runs; this helper only handles the kinds that fire *instead*
    of (or before) the job.
    """
    if kind == "crash":
        raise InjectedFault("injected worker crash")
    if kind == "interrupt":
        raise KeyboardInterrupt("injected interrupt")
    if kind == "kill":
        os._exit(17)
    if kind == "hang":
        time.sleep(envcfg.resolve("REPRO_FAULT_HANG_SECONDS"))
