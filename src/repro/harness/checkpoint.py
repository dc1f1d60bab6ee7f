"""JSONL checkpoint of completed suite jobs — interrupt-safe resume.

A table regeneration is a list of independent deterministic jobs
(:class:`~repro.harness.runner.SuiteJob`); once one completes, its
payload never changes.  The checkpoint exploits that: the runner streams
every validated payload to a JSONL file as it completes, and a resumed
run (``--resume``) loads the file, skips jobs whose key is present, and
re-executes only the missing ones.  Because payloads round-trip through
JSON exactly (finite floats serialize via ``repr`` and parse back to
the identical double; all other fields are ints/strings), the assembled
rows of a resumed run are bitwise identical to an uninterrupted run.

File format (one JSON object per line, schema below)::

    {"v": 1, "key": "<sha256>", "checksum": "<sha256>", "payload": {...}}

* ``key`` is a content key over the full job description — kind,
  circuit, planes, method, seed, config, refine, bias limit — computed
  like a cache key (:func:`job_key`), so a checkpoint written with one
  seed or config can never satisfy a run with another;
* ``checksum`` is a sha256 over the canonical payload JSON; a line
  whose checksum (or schema, or JSON syntax) does not match is counted
  as corrupt and ignored — the job simply re-executes;
* appends are atomic at the line level: each entry is written with a
  single ``write`` of one ``\\n``-terminated line and flushed, so a run
  killed mid-write leaves at most one torn trailing line (which the
  loader skips as corrupt).

The file is append-only; re-running with the same checkpoint path adds
duplicate keys (last one wins on load, and duplicates are identical by
construction).  Delete the file to start over.
"""

import dataclasses
import hashlib
import json
import os

import numpy as np

from repro.cache.store import canonical_jsonable
from repro.core.multilevel import MULTILEVEL_VERSION
from repro.metrics.bias import BiasMetrics
from repro.metrics.area import AreaMetrics
from repro.metrics.report import PartitionReport
from repro.utils.errors import CacheCorruptError, ReproError

#: Version of the checkpoint line layout; part of every job key, so a
#: schema change silently invalidates old checkpoints (jobs re-execute).
CHECKPOINT_SCHEMA_VERSION = 1


def job_key(job):
    """Content key of one :class:`~repro.harness.runner.SuiteJob`.

    Covers every field that influences the job's payload plus the
    checkpoint schema version (and, for ``engine="multilevel"``, that
    engine's answer version), canonicalized exactly like a cache key
    (numpy scalars in seeds/config collapse to their Python values).
    """
    config = job.config
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        config = dataclasses.asdict(config)
    fields = {
        "v": CHECKPOINT_SCHEMA_VERSION,
        "kind": job.kind,
        "circuit": job.circuit,
        "num_planes": job.num_planes,
        "method": job.method,
        "seed": job.seed,
        "config": config,
        "refine": job.refine,
        "bias_limit_ma": job.bias_limit_ma,
    }
    # Only present when set, so keys of classic suite jobs are unchanged
    # across the schema's life (old checkpoints stay resumable).
    netlist_json = getattr(job, "netlist_json", None)
    if netlist_json is not None:
        fields["netlist"] = netlist_json
    pinned = getattr(job, "pinned", None)
    if pinned:
        fields["pinned"] = pinned
    if isinstance(config, dict) and config.get("engine") == "multilevel":
        fields["multilevel"] = MULTILEVEL_VERSION
    prev_labels = getattr(job, "prev_labels", None)
    if prev_labels is not None:
        fields["prev_labels"] = list(prev_labels)
    eco = getattr(job, "eco", None)
    if eco is not None:
        fields["eco"] = eco
    blob = json.dumps(canonical_jsonable(fields), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# ----------------------------------------------------------------------
# Payload (de)serialization
# ----------------------------------------------------------------------
def _report_to_jsonable(report):
    data = dataclasses.asdict(report)
    return canonical_jsonable(data)


def _report_from_jsonable(data):
    bias = BiasMetrics(
        per_plane_ma=np.asarray(data["bias"]["per_plane_ma"], dtype=float),
        total_ma=data["bias"]["total_ma"],
        b_max_ma=data["bias"]["b_max_ma"],
        i_comp_ma=data["bias"]["i_comp_ma"],
        i_comp_pct=data["bias"]["i_comp_pct"],
    )
    area = AreaMetrics(
        per_plane_mm2=np.asarray(data["area"]["per_plane_mm2"], dtype=float),
        total_mm2=data["area"]["total_mm2"],
        a_max_mm2=data["area"]["a_max_mm2"],
        free_space_mm2=data["area"]["free_space_mm2"],
        free_space_pct=data["area"]["free_space_pct"],
    )
    fields = {f.name: data[f.name] for f in dataclasses.fields(PartitionReport)
              if f.name not in ("bias", "area")}
    return PartitionReport(bias=bias, area=area, **fields)


def payload_to_jsonable(payload):
    """Plain-JSON form of an ``execute_job`` payload dict."""
    out = {}
    for name, value in payload.items():
        if name == "report":
            out[name] = _report_to_jsonable(value)
        elif name == "labels":
            out[name] = [int(label) for label in np.asarray(value)]
        else:
            out[name] = canonical_jsonable(value)
    return out


def payload_from_jsonable(data):
    """Inverse of :func:`payload_to_jsonable` (numpy labels, live report)."""
    out = dict(data)
    if out.get("report") is not None:
        out["report"] = _report_from_jsonable(out["report"])
    if out.get("labels") is not None:
        out["labels"] = np.asarray(out["labels"], dtype=np.intp)
    return out


def _payload_checksum(jsonable_payload):
    return hashlib.sha256(
        json.dumps(jsonable_payload, sort_keys=True).encode()
    ).hexdigest()


# ----------------------------------------------------------------------
# The checkpoint store
# ----------------------------------------------------------------------
class SuiteCheckpoint:
    """Append-only JSONL store of completed job payloads, keyed by job.

    ``corrupt_lines`` counts entries the last :meth:`load` skipped
    (truncated/garbled JSON, schema drift, checksum mismatch); the
    runner folds it into its ``cache-corrupt`` failure statistics.
    """

    def __init__(self, path):
        if not path:
            raise ReproError("checkpoint path must be a non-empty string")
        self.path = str(path)
        self.corrupt_lines = 0

    def exists(self):
        return os.path.exists(self.path)

    def load(self):
        """Read ``{job key: payload}``; silently skips corrupt lines.

        Returns an empty mapping when the file does not exist (a fresh
        ``--resume`` run is a plain run).
        """
        self.corrupt_lines = 0
        entries = {}
        try:
            with open(self.path) as handle:
                lines = handle.readlines()
        except FileNotFoundError:
            return entries
        for line in lines:
            if not line.strip():
                continue
            try:
                entries.update([self._parse_line(line)])
            except CacheCorruptError:
                self.corrupt_lines += 1
        return entries

    def _parse_line(self, line):
        try:
            entry = json.loads(line)
        except ValueError:
            raise CacheCorruptError("checkpoint line is not valid JSON") from None
        if not isinstance(entry, dict) or entry.get("v") != CHECKPOINT_SCHEMA_VERSION:
            raise CacheCorruptError("checkpoint schema drift")
        key, checksum, payload = entry.get("key"), entry.get("checksum"), entry.get("payload")
        if not key or payload is None:
            raise CacheCorruptError("checkpoint line missing key/payload")
        if checksum != _payload_checksum(payload):
            raise CacheCorruptError("checkpoint payload checksum mismatch")
        try:
            return key, payload_from_jsonable(payload)
        except (KeyError, TypeError, ValueError):
            raise CacheCorruptError("checkpoint payload is structurally invalid") from None

    def append(self, key, payload):
        """Record one completed job; atomic at the line level."""
        jsonable = payload_to_jsonable(payload)
        line = json.dumps(
            {
                "v": CHECKPOINT_SCHEMA_VERSION,
                "key": key,
                "checksum": _payload_checksum(jsonable),
                "payload": jsonable,
            },
            sort_keys=True,
        ) + "\n"
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(self.path, "a") as handle:
            handle.write(line)
            handle.flush()
        return key
