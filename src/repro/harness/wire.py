"""JSON wire serialization of :class:`~repro.harness.runner.SuiteJob`.

A :class:`SuiteJob` is the unit of work every execution path shares
(sequential loop, process pool, service job manager).  The distributed
fleet (:mod:`repro.fleet`) additionally has to ship jobs across
machines, so this module defines the one JSON form a job travels in —
the lease payload of ``POST /fleet/v1/lease``.

Guarantees:

* **lossless** — :func:`job_from_wire` rebuilds a job field-for-field
  equal to the one :func:`job_to_wire` serialized (dataclass equality),
  including the solver :class:`~repro.core.config.PartitionConfig` and
  the eco warm-start fields, so a remotely executed job is *the same
  job* and its payload is bitwise-identical to local execution;
* **versioned** — every wire dict carries :data:`JOB_WIRE_VERSION`;
  a coordinator/worker version skew fails loudly at deserialization
  instead of silently mis-executing;
* **JSON-only** — the dict round-trips through ``json.dumps`` /
  ``json.loads`` unchanged (tuples are normalized to lists on the wire
  and restored where :func:`repro.service.api.request_to_job` uses
  tuples, so equality holds after a real network hop).
"""

import dataclasses

from repro.core.config import PartitionConfig
from repro.harness.runner import SuiteJob
from repro.utils.errors import ReproError

#: Version of the job wire format.  Bump on any SuiteJob field change
#: so mixed-version fleets fail loudly instead of mis-executing.
JOB_WIRE_VERSION = 2


def job_to_wire(job):
    """The JSON-able wire dict of one :class:`SuiteJob`."""
    if not isinstance(job, SuiteJob):
        raise ReproError(f"job_to_wire needs a SuiteJob, got {type(job).__name__}")
    wire = {"version": JOB_WIRE_VERSION, "kind": job.kind, "circuit": job.circuit}
    if job.num_planes is not None:
        wire["num_planes"] = int(job.num_planes)
    wire["method"] = job.method
    if job.seed is not None:
        wire["seed"] = job.seed
    if job.config is not None:
        wire["config"] = dataclasses.asdict(job.config)
    wire["refine"] = bool(job.refine)
    wire["bias_limit_ma"] = float(job.bias_limit_ma)
    if job.netlist_json is not None:
        wire["netlist_json"] = job.netlist_json
    if job.pinned is not None:
        wire["pinned"] = dict(job.pinned)
    if job.prev_labels is not None:
        wire["prev_labels"] = [int(label) for label in job.prev_labels]
    if job.eco is not None:
        wire["eco"] = job.eco
    return wire


def job_from_wire(wire):
    """Rebuild the :class:`SuiteJob` a wire dict describes.

    Raises :class:`ReproError` on a malformed dict or a version the
    running code does not speak.
    """
    if not isinstance(wire, dict):
        raise ReproError(f"job wire form must be a dict, got {type(wire).__name__}")
    version = wire.get("version")
    if version != JOB_WIRE_VERSION:
        raise ReproError(
            f"job wire version {version!r} is not the supported {JOB_WIRE_VERSION}"
        )
    for field in ("kind", "circuit"):
        if not isinstance(wire.get(field), str):
            raise ReproError(f"job wire dict is missing the {field!r} field")
    config = wire.get("config")
    if config is not None:
        try:
            config = PartitionConfig(**config)
        except TypeError as error:
            raise ReproError(f"bad job wire config: {error}") from None
    prev_labels = wire.get("prev_labels")
    return SuiteJob(
        kind=wire["kind"],
        circuit=wire["circuit"],
        num_planes=wire.get("num_planes"),
        method=wire.get("method", "gradient"),
        seed=wire.get("seed"),
        config=config,
        refine=bool(wire.get("refine", False)),
        bias_limit_ma=float(wire.get("bias_limit_ma", 100.0)),
        netlist_json=wire.get("netlist_json"),
        pinned=wire.get("pinned"),
        prev_labels=tuple(prev_labels) if prev_labels is not None else None,
        eco=wire.get("eco"),
    )
