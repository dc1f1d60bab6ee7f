"""Tests for the consolidated environment-variable registry."""

import math
import os
import re

import pytest

from repro import envcfg
from repro.cache.store import cache_enabled, default_cache_root
from repro.harness.faults import plan_from_env
from repro.obs import apply_env, env_trace_path
from repro.utils.errors import ReproError

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src")

#: Typed knobs: the ones :func:`envcfg.resolve` reads.
TYPED = [var for var in envcfg.ENV_VARS if var.typed]


# ---------------------------------------------------------------------------
# registry basics
# ---------------------------------------------------------------------------

def test_every_declared_name_is_repro_prefixed_and_unique():
    names = [var.name for var in envcfg.ENV_VARS]
    assert len(names) == len(set(names))
    for name in names:
        assert name.startswith("REPRO_")


def test_declared_returns_entry_and_rejects_unknown():
    entry = envcfg.declared("REPRO_JOBS")
    assert entry.name == "REPRO_JOBS"
    assert entry.doc
    with pytest.raises(ReproError, match="REPRO_BOGUS.*not declared"):
        envcfg.declared("REPRO_BOGUS")


def test_raw_refuses_undeclared_names_even_when_set():
    with pytest.raises(ReproError, match="not declared"):
        envcfg.raw("REPRO_BOGUS", {"REPRO_BOGUS": "1"})


def test_raw_strips_and_defaults_to_empty():
    assert envcfg.raw("REPRO_JOBS", {}) == ""
    assert envcfg.raw("REPRO_JOBS", {"REPRO_JOBS": "  4  "}) == "4"


def test_render_table_lists_every_variable():
    table = envcfg.render_table()
    for var in envcfg.ENV_VARS:
        assert var.name in table


# ---------------------------------------------------------------------------
# typed knobs: envcfg.resolve
# ---------------------------------------------------------------------------

def test_resolve_unset_returns_the_declared_default():
    assert envcfg.resolve("REPRO_RETRIES", environ={}) == 2
    assert envcfg.resolve("REPRO_JOB_TIMEOUT", environ={}) is None
    assert envcfg.resolve("REPRO_JOBS", environ={"REPRO_JOBS": "  "}) == min(
        os.cpu_count() or 1, 8)


def test_resolve_parses_and_validates():
    assert envcfg.resolve("REPRO_JOBS", environ={"REPRO_JOBS": "3"}) == 3
    with pytest.raises(ReproError,
                       match=r"REPRO_JOBS must be an integer >= 1, got 'nope'"):
        envcfg.resolve("REPRO_JOBS", environ={"REPRO_JOBS": "nope"})
    with pytest.raises(ReproError,
                       match=r"REPRO_JOBS must be an integer >= 1, got '0'"):
        envcfg.resolve("REPRO_JOBS", environ={"REPRO_JOBS": "0"})


def test_resolve_rejects_non_finite_numbers():
    for value in ("inf", "nan", "-inf"):
        with pytest.raises(ReproError, match="REPRO_FAULT_HANG_SECONDS"):
            envcfg.resolve("REPRO_FAULT_HANG_SECONDS",
                           environ={"REPRO_FAULT_HANG_SECONDS": value})
    with pytest.raises(ReproError, match="REPRO_JOB_TIMEOUT"):
        envcfg.resolve("REPRO_JOB_TIMEOUT", float("inf"))


def test_resolve_refuses_untyped_knobs():
    with pytest.raises(ReproError, match="REPRO_CACHE is not a typed knob"):
        envcfg.resolve("REPRO_CACHE", environ={})


def test_flag_disabled_conventions():
    for value in ("0", "off", "OFF", "False", "no"):
        assert envcfg.flag_disabled("REPRO_CACHE", {"REPRO_CACHE": value})
    for value in ("", "1", "yes", "anything"):
        assert not envcfg.flag_disabled("REPRO_CACHE", {"REPRO_CACHE": value})
    assert not envcfg.flag_disabled("REPRO_CACHE", {})


def test_choice_accepts_allowed_rejects_rest():
    environ = {"REPRO_SERVICE_ISOLATION": "Process"}
    assert envcfg.resolve("REPRO_SERVICE_ISOLATION", environ=environ) == "process"
    assert envcfg.resolve("REPRO_SERVICE_ISOLATION", environ={}) == "inline"
    with pytest.raises(ReproError,
                       match="REPRO_SERVICE_ISOLATION must be one of fleet, inline, process"):
        envcfg.resolve("REPRO_SERVICE_ISOLATION",
                       environ={"REPRO_SERVICE_ISOLATION": "container"})


# ---------------------------------------------------------------------------
# every typed knob: declared default, one bound for both sources
# ---------------------------------------------------------------------------

def _out_of_bound(var):
    """Values just outside ``var``'s declared bound (none for a string)."""
    if var.kind is envcfg.CHOICE:
        return ["container"]
    if var.bound is None:
        return []
    bound = var.bound
    values = [bound.low if bound.open_low else bound.low - 1]
    if bound.high != math.inf:
        values.append(bound.high + 1)
    return values


@pytest.mark.parametrize("var", TYPED, ids=lambda var: var.name)
def test_every_typed_knob_defaults_and_bounds_both_sources(var):
    default = var.default() if callable(var.default) else var.default
    assert envcfg.resolve(var.name, environ={}) == default
    assert envcfg.resolve(var.name, None, {var.name: "  "}) == default
    if default is not None:
        # The default is in bound, from either source.
        assert envcfg.resolve(var.name, default, environ={}) == default
        assert envcfg.resolve(var.name, environ={var.name: str(default)}) == default
    for value in _out_of_bound(var):
        message = f"{var.name} must be {re.escape(var.shape)}, got"
        with pytest.raises(var.error, match=message):
            envcfg.resolve(var.name, environ={var.name: str(value)})
        with pytest.raises(var.error, match=message):
            envcfg.resolve(var.name, value, environ={})


# ---------------------------------------------------------------------------
# the knob tables in docs/ state the registry's kinds and defaults
# ---------------------------------------------------------------------------

DOC_TABLES = ("service.md", "eco.md", "planning.md", "fleet.md", "robustness.md")


def _registry_rows():
    """``{name: (value, default)}`` parsed back out of render_table()."""
    lines = envcfg.render_table().splitlines()
    spans = [match.span() for match in re.finditer(r"-+", lines[1])]
    rows = {}
    for line in lines[2:]:
        cells = [line[start:end].strip() for start, end in spans]
        rows[cells[0]] = (cells[1], cells[2])
    return rows


def test_doc_knob_tables_match_the_registry():
    rows = _registry_rows()
    assert set(rows) == {var.name for var in envcfg.ENV_VARS}
    tabulated = {}
    for doc in DOC_TABLES:
        with open(os.path.join(REPO_ROOT, "docs", doc)) as handle:
            for line in handle:
                if not line.startswith("|"):
                    continue
                cells = [cell.replace("\\|", "|").strip().strip("`")
                         for cell in re.split(r"(?<!\\)\|", line.strip()[1:-1])]
                if not re.fullmatch(r"REPRO_[A-Z0-9_]+", cells[0]):
                    continue
                assert cells[0] in rows, f"{doc}: undeclared {cells[0]}"
                assert tuple(cells[1:3]) == rows[cells[0]], (
                    f"{doc}: {cells[0]} row says {cells[1:3]}, the registry "
                    f"says {list(rows[cells[0]])}")
                tabulated.setdefault(doc, []).append(cells[0])
    assert set(tabulated) == set(DOC_TABLES)


# ---------------------------------------------------------------------------
# subsystem resolvers still behave exactly as before the consolidation
# ---------------------------------------------------------------------------

def test_runner_resolvers_round_trip_through_envcfg():
    resolve = envcfg.resolve
    assert resolve("REPRO_JOBS", environ={"REPRO_JOBS": "2"}) == 2
    assert resolve("REPRO_JOB_TIMEOUT", environ={"REPRO_JOB_TIMEOUT": "1.5"}) == 1.5
    assert resolve("REPRO_RETRIES", environ={"REPRO_RETRIES": "0"}) == 0
    assert resolve("REPRO_RETRY_BACKOFF", environ={"REPRO_RETRY_BACKOFF": "0"}) == 0.0
    with pytest.raises(ReproError, match="REPRO_JOBS must be an integer >= 1"):
        resolve("REPRO_JOBS", environ={"REPRO_JOBS": "0"})
    with pytest.raises(ReproError,
                       match="REPRO_JOB_TIMEOUT must be a number of seconds > 0"):
        resolve("REPRO_JOB_TIMEOUT", environ={"REPRO_JOB_TIMEOUT": "-1"})
    with pytest.raises(ReproError, match="REPRO_RETRIES must be an integer >= 0"):
        resolve("REPRO_RETRIES", environ={"REPRO_RETRIES": "-2"})
    with pytest.raises(ReproError,
                       match="REPRO_RETRY_BACKOFF must be a number of seconds >= 0"):
        resolve("REPRO_RETRY_BACKOFF", environ={"REPRO_RETRY_BACKOFF": "oops"})


def test_cache_switches_round_trip_through_envcfg(tmp_path):
    assert cache_enabled({})
    assert not cache_enabled({"REPRO_CACHE": "off"})
    assert default_cache_root({"REPRO_CACHE_DIR": str(tmp_path)}) == str(tmp_path)
    assert default_cache_root({}).endswith(os.path.join(".cache", "repro-gpp"))


def test_obs_trace_round_trips_through_envcfg(tmp_path):
    assert env_trace_path({"REPRO_TRACE": "1"}) is None
    assert env_trace_path({"REPRO_TRACE": str(tmp_path / "t.jsonl")}) == str(
        tmp_path / "t.jsonl"
    )
    from repro.obs import OBS

    was = OBS.enabled
    try:
        OBS.disable()
        assert not apply_env({"REPRO_TRACE": "0"})
        assert apply_env({"REPRO_TRACE": "yes"})
    finally:
        OBS.disable()
        if was:
            OBS.enable()


def test_fault_readers_round_trip_through_envcfg():
    assert plan_from_env({}) is None
    plan = plan_from_env({"REPRO_FAULT": "crash@0"})
    assert plan.fault_for(0, 1) == "crash"
    assert envcfg.resolve("REPRO_FAULT_HANG_SECONDS",
                          environ={"REPRO_FAULT_HANG_SECONDS": "2.5"}) == 2.5
    with pytest.raises(
            ReproError,
            match="REPRO_FAULT_HANG_SECONDS must be a number of seconds >= 0, got 'x'"):
        envcfg.resolve("REPRO_FAULT_HANG_SECONDS",
                       environ={"REPRO_FAULT_HANG_SECONDS": "x"})


# ---------------------------------------------------------------------------
# no stray knobs: every REPRO_* referenced in the source tree is declared
# ---------------------------------------------------------------------------

def test_every_repro_variable_in_source_is_declared():
    # trailing [A-Z0-9] so prose wildcards like ``REPRO_SERVICE_*`` don't match
    pattern = re.compile(r"\bREPRO_[A-Z][A-Z0-9_]*[A-Z0-9]\b")
    declared = {var.name for var in envcfg.ENV_VARS}
    strays = {}
    for dirpath, _dirnames, filenames in os.walk(SRC_ROOT):
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            full = os.path.join(dirpath, filename)
            with open(full) as handle:
                text = handle.read()
            for name in set(pattern.findall(text)):
                if name not in declared:
                    strays.setdefault(name, []).append(os.path.relpath(full, SRC_ROOT))
    assert not strays, f"undeclared REPRO_* variables referenced in src: {strays}"


def test_no_module_reads_a_typed_knob_around_resolve():
    # A typed knob is read by envcfg.resolve only, so its bound and
    # default cannot be re-implemented by a hand-written resolver.
    readers = re.compile(
        r"""(?:\b(?:raw|flag_disabled|getenv|get|pop)\(|environ\[)\s*["'](REPRO_\w+)["']""")
    typed = {var.name for var in TYPED}
    offenders = []
    for dirpath, _dirnames, filenames in os.walk(SRC_ROOT):
        for filename in filenames:
            full = os.path.join(dirpath, filename)
            if not filename.endswith(".py") or full.endswith(os.path.join("repro", "envcfg.py")):
                continue
            with open(full) as handle:
                text = handle.read()
            offenders += [(os.path.relpath(full, SRC_ROOT), name)
                          for name in readers.findall(text) if name in typed]
    assert not offenders, f"typed knobs read outside envcfg.resolve: {offenders}"
