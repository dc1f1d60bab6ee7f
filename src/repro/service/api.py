"""Request schema, validation and content keys of the service API.

A partition request is a JSON object::

    {
      "kind":       "partition" | "plan" | "sweep",  # default "partition"
      "circuit":    "KSA16",                     # suite generator name,
      "netlist":    {...},                       #   OR a serialized netlist
      "num_planes": 4,                           # required for "partition"
      "method":     "gradient",                  # any PARTITION_METHODS key
      "engine":     "batched",                   # gradient engines only
      "seed":       0,                           # integer, default 0
      "refine":     false,
      "pinned":     {"gate name": plane, ...},   # gradient method only
      "bias_limit_ma": 100.0,                    # "plan" jobs only
      "weights":    {"c1": 160.0, ...},          # eq. (8) overrides (not "plan")
      "k_values":   [3, 4, 5],                   # "sweep" jobs: plane-count grid
      "weight_ratios": [0.2, 1.0, 4.0],          # "sweep" jobs: c1 multipliers
      "clock_ghz":  20.0                         # "sweep" jobs: energy-model clock
    }

    exactly one of ``circuit`` / ``netlist`` must be present.

Validation (:func:`validate_request`) normalizes this into a canonical
dict; :func:`request_key` hashes the canonical form together with every
schema version that could change the produced bytes, which makes the
key safe to use as a result-store address; :func:`request_to_job`
builds the *same* :class:`~repro.harness.runner.SuiteJob` the CLI
builds, which is what makes a served result bitwise-identical to a
local ``repro-gpp partition`` run.

``seed`` must be an integer and defaults to 0 (no "give me whatever"
mode): the result store deduplicates by content key, so every knob that
influences the answer must be pinned by the request.
"""

import hashlib
import json
import math

from repro import __version__
from repro.cache.store import CACHE_SCHEMA_VERSION, canonical_jsonable
from repro.circuits.suite import SUITE_NAMES
from repro.core.config import ENGINES, PartitionConfig
from repro.core.multilevel import MULTILEVEL_VERSION
from repro.harness.checkpoint import CHECKPOINT_SCHEMA_VERSION
from repro.netlist.diff import DIFF_FORMAT_VERSION, validate_diff
from repro.netlist.serialize import NETLIST_FORMAT_VERSION, validate_netlist_dict
from repro.obs import EVENT_SCHEMA_VERSION, TRACE_SCHEMA_VERSION
from repro.service.errors import BadRequestError
from repro.utils.errors import NetlistError

#: Version of the request/response JSON shapes described above.
SERVICE_API_VERSION = 1

#: Request fields the validator recognizes; anything else is rejected
#: (typos like "numplanes" must not silently fall back to a default and
#: then dedup against the wrong result).
REQUEST_FIELDS = (
    "kind", "circuit", "netlist", "num_planes", "method", "engine",
    "seed", "refine", "pinned", "bias_limit_ma", "weights",
    "k_values", "weight_ratios", "clock_ghz",
)

JOB_KINDS = ("partition", "plan", "sweep")

_DEFAULT_CONFIG = PartitionConfig()

#: The paper's eq. (8) default weight tuple.  A request's ``weights``
#: field is dropped at normalization when it matches these, so the
#: weighted and unweighted spellings of the same request share one
#: content key (and therefore one stored result).
DEFAULT_WEIGHTS = {
    "c1": _DEFAULT_CONFIG.c1,
    "c2": _DEFAULT_CONFIG.c2,
    "c3": _DEFAULT_CONFIG.c3,
    "c4": _DEFAULT_CONFIG.c4,
}


def schema_versions():
    """Every version stamp of the data formats this build speaks."""
    return {
        "package": __version__,
        "api": SERVICE_API_VERSION,
        "trace_schema": TRACE_SCHEMA_VERSION,
        "cache_schema": CACHE_SCHEMA_VERSION,
        "checkpoint_schema": CHECKPOINT_SCHEMA_VERSION,
        "netlist_format": NETLIST_FORMAT_VERSION,
        "events_schema": EVENT_SCHEMA_VERSION,
        "diff_format": DIFF_FORMAT_VERSION,
        "multilevel": MULTILEVEL_VERSION,
    }


def _methods():
    # Deferred: repro.harness.tables imports the runner at module scope.
    from repro.harness.tables import PARTITION_METHODS

    return PARTITION_METHODS


def validate_request(data):
    """Normalize a request body into its canonical dict, or raise 400."""
    if not isinstance(data, dict):
        raise BadRequestError(f"request body must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(REQUEST_FIELDS))
    if unknown:
        raise BadRequestError(
            f"unknown request field(s) {', '.join(unknown)}; "
            f"recognized: {', '.join(REQUEST_FIELDS)}"
        )

    kind = data.get("kind", "partition")
    if kind not in JOB_KINDS:
        raise BadRequestError(f"kind must be one of {JOB_KINDS}, got {kind!r}")

    circuit = data.get("circuit")
    netlist = data.get("netlist")
    if (circuit is None) == (netlist is None):
        raise BadRequestError("exactly one of 'circuit' and 'netlist' is required")
    if circuit is not None:
        if circuit not in SUITE_NAMES:
            raise BadRequestError(
                f"unknown circuit {circuit!r}; available: {', '.join(SUITE_NAMES)}"
            )
    else:
        if not isinstance(netlist, dict) or netlist.get("kind") != "netlist":
            raise BadRequestError("'netlist' must be a serialized netlist object")
        try:
            # Full structural validation (duplicate gate names, edges or
            # ports referencing unknown gates) up front, so a malformed
            # netlist is a clear 400 instead of a worker-side crash.
            validate_netlist_dict(netlist)
        except NetlistError as error:
            raise BadRequestError(str(error)) from None

    method = data.get("method", "gradient")
    if method not in _methods():
        raise BadRequestError(
            f"unknown method {method!r}; available: {sorted(_methods())}"
        )

    engine = data.get("engine", "batched")
    if engine not in ENGINES:
        raise BadRequestError(f"engine must be one of {ENGINES}, got {engine!r}")

    seed = data.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise BadRequestError(
            f"seed must be an integer (results are content-addressed), got {seed!r}"
        )

    refine = data.get("refine", False)
    if not isinstance(refine, bool):
        raise BadRequestError(f"refine must be a boolean, got {refine!r}")

    normalized = {
        "kind": kind,
        "method": method,
        "engine": engine,
        "seed": seed,
        "refine": refine,
    }
    if circuit is not None:
        normalized["circuit"] = circuit
    else:
        normalized["netlist"] = netlist

    weights = data.get("weights")
    if weights is not None:
        if kind == "plan":
            raise BadRequestError("weights only apply to partition and sweep jobs")
        if not isinstance(weights, dict) or not weights:
            raise BadRequestError("weights must be a non-empty object of c1..c4 -> number")
        unknown_weights = sorted(set(weights) - set(DEFAULT_WEIGHTS))
        if unknown_weights:
            raise BadRequestError(
                f"unknown weight(s) {', '.join(unknown_weights)}; "
                f"recognized: {', '.join(sorted(DEFAULT_WEIGHTS))}"
            )
        full = dict(DEFAULT_WEIGHTS)
        for name in sorted(weights):
            value = weights[name]
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not (value >= 0 and math.isfinite(value)):
                raise BadRequestError(
                    f"weight {name} must be a finite number >= 0, got {value!r}"
                )
            full[name] = float(value)
        if full != DEFAULT_WEIGHTS:
            normalized["weights"] = full

    if kind == "partition":
        num_planes = data.get("num_planes")
        if isinstance(num_planes, bool) or not isinstance(num_planes, int) or num_planes < 1:
            raise BadRequestError(
                f"num_planes must be an integer >= 1, got {num_planes!r}"
            )
        normalized["num_planes"] = num_planes
    elif data.get("num_planes") is not None:
        if kind == "sweep":
            raise BadRequestError(
                "num_planes does not apply to sweep jobs (the K grid comes from k_values)"
            )
        raise BadRequestError("num_planes does not apply to plan jobs (K is searched)")

    if kind == "sweep":
        # Deferred: repro.harness.pareto pulls in the solver stack.
        from repro.harness.pareto import (
            DEFAULT_RATIOS, resolve_sweep_clock, resolve_sweep_max_points,
        )

        if method != "gradient":
            raise BadRequestError(
                "sweep jobs require the 'gradient' method (the c1..c4 weights "
                f"only parameterize its cost), got {method!r}"
            )
        k_values = data.get("k_values")
        if not isinstance(k_values, (list, tuple)) or not k_values:
            raise BadRequestError("k_values must be a non-empty array of integers >= 1")
        for k in k_values:
            if isinstance(k, bool) or not isinstance(k, int) or k < 1:
                raise BadRequestError(
                    f"k_values entries must be integers >= 1, got {k!r}"
                )
        normalized["k_values"] = sorted({int(k) for k in k_values})

        ratios = data.get("weight_ratios")
        if ratios is None:
            ratios = list(DEFAULT_RATIOS)
        if not isinstance(ratios, (list, tuple)) or not ratios:
            raise BadRequestError("weight_ratios must be a non-empty array of numbers > 0")
        cleaned = set()
        for ratio in ratios:
            if isinstance(ratio, bool) or not isinstance(ratio, (int, float)) \
                    or not (ratio > 0 and math.isfinite(ratio)):
                raise BadRequestError(
                    f"weight_ratios entries must be finite numbers > 0, got {ratio!r}"
                )
            cleaned.add(float(ratio))
        normalized["weight_ratios"] = sorted(cleaned)

        clock = data.get("clock_ghz")
        if clock is not None and (
            isinstance(clock, bool) or not isinstance(clock, (int, float))
            or not (clock > 0 and math.isfinite(clock))
        ):
            raise BadRequestError(f"clock_ghz must be a number > 0, got {clock!r}")
        # Resolved at validation time so the content key pins the clock
        # the energy numbers were computed at.
        normalized["clock_ghz"] = resolve_sweep_clock(clock)

        max_points = resolve_sweep_max_points()
        total = len(normalized["k_values"]) * len(normalized["weight_ratios"])
        if total > max_points:
            raise BadRequestError(
                f"sweep grid of {total} points exceeds REPRO_SWEEP_MAX_POINTS={max_points}"
            )
    else:
        for field in ("k_values", "weight_ratios", "clock_ghz"):
            if data.get(field) is not None:
                raise BadRequestError(f"{field} only applies to sweep jobs")

    pinned = data.get("pinned")
    if pinned is not None:
        if kind != "partition":
            raise BadRequestError("pinned gates only apply to partition jobs")
        if method != "gradient":
            raise BadRequestError(
                f"pinned gates are only supported by the 'gradient' method, not {method!r}"
            )
        if not isinstance(pinned, dict) or not pinned:
            raise BadRequestError("pinned must be a non-empty object of gate -> plane")
        for gate, plane in pinned.items():
            if isinstance(plane, bool) or not isinstance(plane, int) or plane < 0:
                raise BadRequestError(
                    f"pinned plane for gate {gate!r} must be an integer >= 0, got {plane!r}"
                )
            if plane >= normalized["num_planes"]:
                raise BadRequestError(
                    f"pinned plane {plane} for gate {gate!r} out of range "
                    f"for num_planes={normalized['num_planes']}"
                )
        normalized["pinned"] = {str(gate): int(plane) for gate, plane in pinned.items()}

    if kind == "plan":
        bias_limit = data.get("bias_limit_ma", 100.0)
        if isinstance(bias_limit, bool) or not isinstance(bias_limit, (int, float)) \
                or not bias_limit > 0:
            raise BadRequestError(
                f"bias_limit_ma must be a number > 0, got {bias_limit!r}"
            )
        normalized["bias_limit_ma"] = float(bias_limit)
    elif data.get("bias_limit_ma") is not None:
        raise BadRequestError("bias_limit_ma only applies to plan jobs")

    return normalized


def request_key(normalized):
    """Content address of a validated request.

    sha256 over the canonical request plus every schema version in
    :func:`schema_versions` — any code change that could alter the
    produced bytes bumps a version and thereby invalidates stored
    results.
    """
    blob = json.dumps(
        canonical_jsonable({"request": normalized, "versions": schema_versions()}),
        sort_keys=True,
    ).encode()
    return hashlib.sha256(blob).hexdigest()


def request_to_job(normalized):
    """The :class:`~repro.harness.runner.SuiteJob` of a validated request.

    Field-for-field identical to the job the CLI path builds for the
    same inputs — the bitwise-parity guarantee lives here.
    """
    from repro.harness.runner import SuiteJob

    netlist = normalized.get("netlist")
    return SuiteJob(
        kind=normalized["kind"],
        circuit=normalized["circuit"] if netlist is None else netlist["name"],
        num_planes=normalized.get("num_planes"),
        method=normalized["method"],
        seed=normalized["seed"],
        config=PartitionConfig(engine=normalized["engine"], **normalized.get("weights", {})),
        refine=normalized["refine"],
        bias_limit_ma=normalized.get("bias_limit_ma", 100.0),
        netlist_json=netlist,
        pinned=normalized.get("pinned"),
        prev_labels=tuple(normalized["prev_labels"]) if normalized.get("kind") == "eco" else None,
        eco=normalized.get("eco") if normalized.get("kind") == "eco" else None,
    )


# ----------------------------------------------------------------------
# Pareto sweeps: POST /v1/sweeps (or kind="sweep" on /v1/jobs)
# ----------------------------------------------------------------------


def resolve_weights(normalized):
    """Full ``c1..c4`` mapping of a validated request, defaults filled in."""
    full = dict(DEFAULT_WEIGHTS)
    full.update(normalized.get("weights", {}))
    return full


def sweep_point_request(normalized, num_planes, ratio):
    """The canonical solo partition request of one sweep grid point.

    ``ratio`` scales ``c1`` over the sweep's base weights.  When the
    scaled tuple lands back on the defaults (ratio 1.0 with a default
    base), the weights field is dropped again, so the grid point keys
    to the exact same stored result as a plain partition request —
    sweeps and solo jobs dedupe against each other in both directions.
    """
    weights = resolve_weights(normalized)
    weights["c1"] = weights["c1"] * float(ratio)
    point = {
        "kind": "partition",
        "method": normalized["method"],
        "engine": normalized["engine"],
        "seed": normalized["seed"],
        "refine": normalized["refine"],
        "num_planes": int(num_planes),
    }
    if "circuit" in normalized:
        point["circuit"] = normalized["circuit"]
    else:
        point["netlist"] = normalized["netlist"]
    if weights != DEFAULT_WEIGHTS:
        point["weights"] = weights
    return point


# ----------------------------------------------------------------------
# Incremental (ECO) re-partitioning: PATCH /v1/jobs/<request_key>
# ----------------------------------------------------------------------

#: Fields of a PATCH body; ``diff`` is required, the rest override the
#: ``REPRO_ECO_*`` knobs for this one edit.
ECO_FIELDS = ("diff", "halo", "threshold", "quality_eps")


def validate_eco_body(data):
    """Normalize a ``PATCH /v1/jobs/<key>`` body, or raise 400.

    Returns ``{"diff": <validated netlist diff>, "halo"?, "threshold"?,
    "quality_eps"?}`` with only the explicitly-given knobs present (the
    absent ones resolve from ``REPRO_ECO_*`` at solve time — and stay
    out of the content key, see :func:`eco_request_key`).
    """
    if not isinstance(data, dict):
        raise BadRequestError(
            f"request body must be a JSON object, got {type(data).__name__}"
        )
    unknown = sorted(set(data) - set(ECO_FIELDS))
    if unknown:
        raise BadRequestError(
            f"unknown request field(s) {', '.join(unknown)}; "
            f"recognized: {', '.join(ECO_FIELDS)}"
        )
    try:
        diff = validate_diff(data.get("diff"))
    except NetlistError as error:
        raise BadRequestError(str(error)) from None
    normalized = {"diff": diff}
    halo = data.get("halo")
    if halo is not None:
        if isinstance(halo, bool) or not isinstance(halo, int) or halo < 0:
            raise BadRequestError(f"halo must be an integer >= 0, got {halo!r}")
        normalized["halo"] = halo
    threshold = data.get("threshold")
    if threshold is not None:
        if isinstance(threshold, bool) or not isinstance(threshold, (int, float)) \
                or not 0 < threshold <= 1:
            raise BadRequestError(
                f"threshold must be a fraction in (0, 1], got {threshold!r}"
            )
        normalized["threshold"] = float(threshold)
    eps = data.get("quality_eps")
    if eps is not None:
        if isinstance(eps, bool) or not isinstance(eps, (int, float)) or eps < 0:
            raise BadRequestError(
                f"quality_eps must be a number >= 0, got {eps!r}"
            )
        normalized["quality_eps"] = float(eps)
    return normalized


def eco_request_key(base_key, diff_digest, params):
    """Content address of one ECO edit: ``(base, diff, knobs, versions)``.

    Hashing the *base key* (not the base request) chains edits — an edit
    of an edit keys off the warm result it patched — while the knob
    overrides and schema versions keep results from different halo or
    guard settings apart.
    """
    knobs = {
        name: params[name]
        for name in ("halo", "threshold", "quality_eps")
        if name in params
    }
    blob = json.dumps(
        canonical_jsonable({
            "eco": {"base": base_key, "diff": diff_digest, "knobs": knobs},
            "versions": schema_versions(),
        }),
        sort_keys=True,
    ).encode()
    return hashlib.sha256(blob).hexdigest()
