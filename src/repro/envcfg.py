"""One registry for every ``REPRO_*`` environment variable.

* :data:`ENV_VARS` — the full, documented table of recognized
  variables.  ``repro-gpp`` help text, docs and tests all derive from
  it, and :func:`raw` refuses to read an undeclared name so a new knob
  cannot ship undocumented (``tests/test_envcfg.py`` additionally
  greps the source tree for strays).
* A *typed* knob (an int, float, choice or string) declares its
  :class:`Kind` (the parse), its bound and its default — a value, or a
  small function such as ``min(cpus, 8)`` — once, in its
  :class:`EnvVar` entry.  :func:`resolve` is the one reader of a typed
  knob: an explicit value wins, then the environment, then the
  default, and both sources are checked against the same bound.  A bad
  value raises the entry's error class (:class:`ReproError`, or
  :class:`PartitionError` for the ``REPRO_ECO_*`` knobs) as
  ``"<NAME> must be <shape>, got <value!r>"``.
* The flag, path and spec knobs (``REPRO_CACHE``, ``REPRO_TRACE``,
  ``REPRO_FAULT``, ...) keep their readers in the subsystems that own
  them; they read the environment through :func:`raw` and
  :func:`flag_disabled`.

:func:`render_table` derives each typed knob's value shape and default
from its declaration; the knob tables in ``docs/`` are held to it by
``tests/test_envcfg.py``.

This module deliberately imports nothing beyond the standard library
and :mod:`repro.utils.errors`, so every other subsystem (including
:mod:`repro.obs`, imported at interpreter startup by almost everything)
can depend on it without cycles.
"""

import math
import os
import socket
from dataclasses import dataclass

from repro.utils.errors import PartitionError, ReproError

#: Values that turn a :func:`flag_disabled`-style switch off.
DISABLED_VALUES = ("0", "off", "false", "no")

#: Values that turn a truthy toggle (``REPRO_TRACE=1``) on.
TRUTHY_VALUES = ("1", "true", "yes", "on")


def _number_text(value):
    """``1`` for 1.0, ``0.05`` for 0.05: how bounds and defaults print."""
    return str(int(value)) if float(value).is_integer() else str(value)


def _finite_float(value):
    parsed = float(value)
    if not math.isfinite(parsed):
        raise ValueError(f"not finite: {value!r}")
    return parsed


def _lowered(value):
    return str(value).lower()


@dataclass(frozen=True)
class Kind:
    """How a typed knob's value parses, and the words that name it:
    ``word`` in the table's value column, ``noun`` in error messages."""

    word: str
    noun: str
    parse: object


INT = Kind("int", "an integer", int)
FLOAT = Kind("float", "a number", _finite_float)
SECONDS = Kind("seconds", "a number of seconds", _finite_float)
FRACTION = Kind("fraction", "a fraction", _finite_float)
GHZ = Kind("GHz", "a number of GHz", _finite_float)
STRING = Kind("string", "a string", str)
HOST = Kind("host", "a host", str)
CHOICE = Kind("choice", "one of", _lowered)


@dataclass(frozen=True)
class Bound:
    """The interval ``low <= value <= high`` (``low < value`` when
    ``open_low``)."""

    low: float
    high: float = math.inf
    open_low: bool = False

    def __contains__(self, value):
        above = self.low < value if self.open_low else self.low <= value
        return above and value <= self.high

    def __str__(self):
        low = _number_text(self.low)
        if self.high == math.inf:
            return f"{'>' if self.open_low else '>='} {low}"
        return f"in {'(' if self.open_low else '['}{low}, {_number_text(self.high)}]"


def _cpus_up_to(cap):
    def default():
        return min(os.cpu_count() or 1, cap)

    default.__doc__ = f"min(cpus, {cap})"
    return default


def _host_and_pid():
    """<hostname>-<pid>"""
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass(frozen=True)
class EnvVar:
    """One documented environment variable.

    A typed knob has a :class:`Kind` as ``kind``; ``bound`` is a
    :class:`Bound`, a tuple of allowed choices or ``None`` (any value),
    and ``default`` is the value used when the knob is unset: a value,
    ``None``, or a function computing it (its docstring is its table
    text).  Any other knob has display text as ``kind`` and
    ``default``, and its owning subsystem parses it.
    """

    name: str
    kind: object
    default: object
    used_by: str
    doc: str
    bound: object = None
    error: type = ReproError

    @property
    def typed(self):
        return isinstance(self.kind, Kind)

    @property
    def shape(self):
        """What a valid value is, as error messages say it."""
        if self.kind is CHOICE:
            return f"{self.kind.noun} {', '.join(sorted(self.bound))}"
        if self.bound is None:
            return self.kind.noun
        return f"{self.kind.noun} {self.bound}"

    @property
    def kind_text(self):
        """The value column of :func:`render_table`."""
        if not self.typed:
            return self.kind
        if self.kind is CHOICE:
            return " | ".join(self.bound)
        if self.bound is None:
            return self.kind.word
        return f"{self.kind.word} {self.bound}"

    @property
    def default_text(self):
        """The default column of :func:`render_table`."""
        if not self.typed:
            return self.default
        if callable(self.default):
            return self.default.__doc__
        if self.default is None:
            return "none"
        if isinstance(self.default, (int, float)):
            return _number_text(self.default)
        return self.default


#: Every recognized ``REPRO_*`` variable.  Keep sorted by name within
#: each subsystem block.
ENV_VARS = (
    # -- cache ---------------------------------------------------------
    EnvVar("REPRO_CACHE", "flag", "enabled",
           "repro.cache",
           "Set to 0/off/false/no to disable every artifact-cache read "
           "and write (forces cold runs)."),
    EnvVar("REPRO_CACHE_DIR", "path", "~/.cache/repro-gpp",
           "repro.cache",
           "Root directory of the on-disk artifact cache."),
    # -- observability -------------------------------------------------
    EnvVar("REPRO_EVENTS", "flag or path", "service on, CLI off",
           "repro.obs.events",
           "Job-lifecycle event log: 0/off/false/no disables it "
           "everywhere, 1/true/yes/on enables in-memory capture (the "
           "CLI/runner default is off; the service always keeps its "
           "in-memory log unless disabled), any other value also names "
           "a JSONL file every event is appended to."),
    EnvVar("REPRO_TRACE", "flag or path", "disabled",
           "repro.obs",
           "1/true/yes/on enables span+metric+telemetry capture; any "
           "other non-empty value also names the JSONL trace output "
           "path written by the CLI on exit."),
    EnvVar("REPRO_TRACE_CONTEXT", "flag", "enabled",
           "repro.obs.context",
           "Set to 0/off/false/no to stop the service/CLI from "
           "attaching trace contexts (request/trace/span ids) to "
           "spans; with it off, span events record exactly the v1 "
           "shape."),
    # -- suite runner --------------------------------------------------
    # Beyond 8 slots the suite is typically cache/IO bound and extra
    # workers only add startup cost.
    EnvVar("REPRO_JOBS", INT, _cpus_up_to(8),
           "repro.harness.runner",
           "Worker process count of the parallel suite runner.",
           bound=Bound(1)),
    EnvVar("REPRO_JOB_TIMEOUT", SECONDS, None,
           "repro.harness.runner",
           "Per-job-attempt wall-clock limit (none: unlimited); a "
           "timed-out attempt kills its pool slot's process, or its "
           "fleet lease, and is retried.",
           bound=Bound(0, open_low=True)),
    EnvVar("REPRO_RETRIES", INT, 2,
           "repro.harness.runner",
           "Retries per failed job (additional attempts after the "
           "first).",
           bound=Bound(0)),
    EnvVar("REPRO_RETRY_BACKOFF", SECONDS, 0.05,
           "repro.harness.runner",
           "Exponential-backoff base delay: the n-th retry waits "
           "backoff * 2**(n-1) seconds.",
           bound=Bound(0)),
    # -- incremental (ECO) re-partitioning -----------------------------
    EnvVar("REPRO_ECO_HALO", INT, 2,
           "repro.core.incremental",
           "Radius (in undirected hops) of the halo grown around the "
           "gates an ECO diff touches; gates inside the halo are "
           "re-solved, everything outside stays pinned to its previous "
           "plane.",
           bound=Bound(0), error=PartitionError),
    EnvVar("REPRO_ECO_QUALITY_EPS", FLOAT, 0.05,
           "repro.core.incremental",
           "Quality guard of the warm-start path: the warm result's "
           "integer cost must stay within (1 + eps) of the "
           "carried-forward reference assignment, otherwise the solve "
           "falls back to a cold multi-restart run.",
           bound=Bound(0), error=PartitionError),
    EnvVar("REPRO_ECO_THRESHOLD", FRACTION, 0.25,
           "repro.core.incremental",
           "Maximum perturbed-region size (touched gates + halo) as a "
           "fraction of the netlist before the warm-start path gives "
           "up and solves cold; large edits gain nothing from "
           "warm-starting.",
           bound=Bound(0, 1, open_low=True), error=PartitionError),
    # -- fault injection -----------------------------------------------
    EnvVar("REPRO_FAULT", "spec", "none",
           "repro.harness.faults",
           "Deterministic fault plan, e.g. 'crash@1,hang@3x2' "
           "(kind@job-index[xN])."),
    # Far beyond any sane job timeout, so a hang is cut off by it.
    EnvVar("REPRO_FAULT_HANG_SECONDS", SECONDS, 3600.0,
           "repro.harness.faults",
           "Sleep length of an injected hang fault.",
           bound=Bound(0)),
    # -- Pareto sweep planning -----------------------------------------
    EnvVar("REPRO_SWEEP_CLOCK_GHZ", GHZ, 20.0,
           "repro.harness.pareto",
           "Default clock frequency of the per-point ERSFQ dynamic-power "
           "estimate attached to sweep results; an explicit clock_ghz "
           "field in the sweep request wins (and is what enters the "
           "content key).",
           bound=Bound(0, open_low=True)),
    EnvVar("REPRO_SWEEP_JOBS", INT, 1,
           "repro.harness.pareto",
           "Worker processes a sweep fans its uncached grid points over "
           "(through the parallel suite runner).",
           bound=Bound(1)),
    EnvVar("REPRO_SWEEP_MAX_POINTS", INT, 256,
           "repro.harness.pareto",
           "Upper bound on K x weight-ratio grid points per sweep "
           "request; larger grids are rejected at validation (HTTP "
           "400).",
           bound=Bound(1)),
    # -- distributed fleet ---------------------------------------------
    EnvVar("REPRO_FLEET_LEASE_TTL", SECONDS, 30.0,
           "repro.fleet",
           "Lease time-to-live: a leased job whose deadline passes "
           "without a heartbeat extension is reclaimed by the "
           "coordinator and requeued (charged as a timed-out retry). "
           "Workers heartbeat every TTL/3.",
           bound=Bound(0, open_low=True)),
    EnvVar("REPRO_FLEET_MAX_INFLIGHT", INT, 2,
           "repro.fleet",
           "Maximum jobs a worker node leases per request (and "
           "executes before reporting back).",
           bound=Bound(1)),
    EnvVar("REPRO_FLEET_POLL", SECONDS, 2.0,
           "repro.fleet",
           "Long-poll wait of an idle worker's lease request: the "
           "coordinator parks the request up to this long waiting for "
           "work before answering with an empty lease set.",
           bound=Bound(0)),
    EnvVar("REPRO_FLEET_WORKER_ID", STRING, _host_and_pid,
           "repro.fleet",
           "Stable identifier a worker node registers under; shows up "
           "in /fleet/v1/workers, /healthz and the per-worker gauges."),
    # -- partitioning service ------------------------------------------
    EnvVar("REPRO_SERVICE_HOST", HOST, "127.0.0.1",
           "repro.service",
           "Bind address of `repro-gpp serve`."),
    EnvVar("REPRO_SERVICE_PORT", INT, 8731,
           "repro.service",
           "TCP port of `repro-gpp serve` (0 = pick an ephemeral "
           "port).",
           bound=Bound(0, 65535)),
    EnvVar("REPRO_SERVICE_WORKERS", INT, _cpus_up_to(4),
           "repro.service",
           "Job-executing worker threads of the service.",
           bound=Bound(1)),
    EnvVar("REPRO_SERVICE_QUEUE", INT, 64,
           "repro.service",
           "Maximum queued (admitted but not yet running) jobs; a full "
           "queue answers HTTP 429 with a Retry-After header.",
           bound=Bound(1)),
    EnvVar("REPRO_SERVICE_RETRY_AFTER", SECONDS, 1.0,
           "repro.service",
           "Retry-After value advertised with a 429 backpressure "
           "response (whole seconds, at least 1).",
           bound=Bound(0, open_low=True)),
    EnvVar("REPRO_SERVICE_STORE", "flag", "enabled",
           "repro.service",
           "Set to 0/off/false/no to disable the content-keyed result "
           "store (every request re-solves)."),
    EnvVar("REPRO_SERVICE_ISOLATION", CHOICE, "inline",
           "repro.service",
           "Job execution mode: 'inline' runs solves in the worker "
           "thread (fast; retries but no hard deadlines), 'process' "
           "runs each job in a worker process through the pool path "
           "(crash isolation and enforced REPRO_JOB_TIMEOUT "
           "deadlines), 'fleet' dispatches jobs to external worker "
           "nodes over the /fleet/v1 lease API (see docs/fleet.md).",
           bound=("inline", "process", "fleet")),
)

_BY_NAME = {var.name: var for var in ENV_VARS}


def declared(name):
    """The :class:`EnvVar` entry for ``name`` (ReproError if unknown).

    Reading an undeclared variable is a programming error: every knob
    must appear in :data:`ENV_VARS` so it is documented and testable.
    """
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ReproError(
            f"environment variable {name!r} is not declared in repro.envcfg.ENV_VARS"
        ) from None


def raw(name, environ=None):
    """The stripped string value of a declared variable ('' when unset)."""
    declared(name)
    return (environ if environ is not None else os.environ).get(name, "").strip()


def resolve(name, explicit=None, environ=None):
    """The value of typed knob ``name``: ``explicit`` > environment >
    declared default.

    ``explicit`` is unset when ``None`` (or ``""``); the environment is
    unset when the variable is missing or blank.  Both sources parse
    through the knob's :class:`Kind` and must lie within its bound.
    """
    var = declared(name)
    if not var.typed:
        raise ReproError(f"{name} is not a typed knob; read it with envcfg.raw")
    value = explicit
    if value is None or (isinstance(value, str) and not value):
        value = raw(name, environ)
        if not value:
            return var.default() if callable(var.default) else var.default
    try:
        parsed = var.kind.parse(value)
        valid = var.bound is None or parsed in var.bound
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise var.error(f"{name} must be {var.shape}, got {value!r}")
    return parsed


def flag_disabled(name, environ=None):
    """True when the variable is explicitly one of 0/off/false/no.

    Unset (or any other value) means *enabled* — this is the
    ``REPRO_CACHE`` convention: a switch that defaults on and is only
    turned off deliberately.
    """
    return raw(name, environ).lower() in DISABLED_VALUES


def render_table():
    """The documented variable table as aligned plain text."""
    headers = ("variable", "value", "default", "used by")
    rows = [(v.name, v.kind_text, v.default_text, v.used_by) for v in ENV_VARS]
    widths = [max(len(r[i]) for r in rows + [headers]) for i in range(4)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(4)))
    return "\n".join(lines)
