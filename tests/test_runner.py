"""Tests for the process-parallel suite runner (repro.harness.runner)."""

import dataclasses
import json

import numpy as np
import pytest

from repro import envcfg, obs
from repro.core.config import PartitionConfig
from repro.harness.runner import (
    SuiteJob,
    execute_job,
    run_jobs,
)
from repro.harness.tables import run_table1, run_table3
from repro.utils.errors import ReproError

FAST = PartitionConfig(restarts=2, max_iterations=200)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable(reset=True)
    yield
    obs.disable(reset=True)


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep worker processes out of the user's real artifact cache.

    Workers are forked/spawned with this environment, so they inherit
    the throwaway directory too.
    """
    from repro.cache import reset_default_cache
    from repro.circuits import suite

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-root"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    reset_default_cache()
    suite._NETLIST_CACHE.clear()
    yield
    reset_default_cache()
    suite._NETLIST_CACHE.clear()


def _canon(value):
    if dataclasses.is_dataclass(value):
        return _canon(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {key: _canon(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(item) for item in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    return value


def _fingerprint(reports):
    return json.dumps([_canon(report) for report in reports], sort_keys=True)


# ----------------------------------------------------------------------
# resolve_jobs: REPRO_JOBS through envcfg.resolve
# ----------------------------------------------------------------------
JOBS = "REPRO_JOBS"


def test_resolve_jobs_explicit_wins():
    assert envcfg.resolve(JOBS, 3, environ={"REPRO_JOBS": "7"}) == 3


def test_resolve_jobs_env_override():
    assert envcfg.resolve(JOBS, None, environ={"REPRO_JOBS": "5"}) == 5
    assert envcfg.resolve(JOBS, None, environ={"REPRO_JOBS": " 2 "}) == 2
    # 0 is out of bound, not "unset": it cannot silently mean min(cpus, 8).
    with pytest.raises(ReproError, match="REPRO_JOBS must be an integer >= 1, got 0"):
        envcfg.resolve(JOBS, 0, environ={"REPRO_JOBS": " 2 "})


def test_resolve_jobs_default_is_capped_cpu_count():
    import os

    expected = min(os.cpu_count() or 1, 8)
    assert envcfg.resolve(JOBS, None, environ={}) == expected
    assert 1 <= envcfg.resolve(JOBS, None, environ={}) <= 8


def test_resolve_jobs_rejects_bad_values():
    with pytest.raises(ReproError, match="REPRO_JOBS"):
        envcfg.resolve(JOBS, None, environ={"REPRO_JOBS": "many"})
    with pytest.raises(ReproError, match=">= 1"):
        envcfg.resolve(JOBS, -2, environ={})
    with pytest.raises(ReproError, match=">= 1"):
        envcfg.resolve(JOBS, None, environ={"REPRO_JOBS": "-1"})


# ----------------------------------------------------------------------
# SuiteJob / execute_job
# ----------------------------------------------------------------------
def test_suitejob_validation():
    with pytest.raises(ReproError, match="unknown job kind"):
        SuiteJob(kind="explode", circuit="KSA4")
    with pytest.raises(ReproError, match="num_planes"):
        SuiteJob(kind="partition", circuit="KSA4")


def test_execute_partition_job_payload():
    job = SuiteJob(kind="partition", circuit="KSA4", num_planes=3, seed=11, config=FAST)
    payload = execute_job(job)
    assert payload["circuit"] == "KSA4"
    assert payload["report"].num_planes == 3
    labels = np.asarray(payload["labels"])
    assert labels.shape[0] == payload["report"].num_gates
    assert set(np.unique(labels)) <= set(range(3))


def test_run_jobs_inline_matches_execute_job():
    job = SuiteJob(kind="partition", circuit="KSA4", num_planes=3, seed=11, config=FAST)
    direct = execute_job(job)
    [inline] = run_jobs([job], jobs=1)
    assert _fingerprint([direct["report"]]) == _fingerprint([inline["report"]])
    assert np.array_equal(direct["labels"], inline["labels"])


# ----------------------------------------------------------------------
# Pool vs inline determinism (the headline guarantee)
# ----------------------------------------------------------------------
def test_run_jobs_pool_bitwise_identical_to_inline():
    job_list = [
        SuiteJob(kind="partition", circuit=name, num_planes=3, seed=2020, config=FAST)
        for name in ("KSA4", "KSA8", "KSA4")
    ]
    inline = run_jobs(job_list, jobs=1)
    pooled = run_jobs(job_list, jobs=4)
    assert _fingerprint([p["report"] for p in inline]) == \
        _fingerprint([p["report"] for p in pooled])
    for a, b in zip(inline, pooled):
        assert np.array_equal(a["labels"], b["labels"])
    # Duplicate jobs prove payloads line up positionally, not by name.
    assert pooled[0]["circuit"] == pooled[2]["circuit"] == "KSA4"


def test_run_table1_jobs_invariant():
    rows_seq = run_table1(circuits=["KSA4", "KSA8"], num_planes=4, seed=7,
                          config=FAST, jobs=1)
    rows_par = run_table1(circuits=["KSA4", "KSA8"], num_planes=4, seed=7,
                          config=FAST, jobs=4)
    assert _fingerprint([r.report for r in rows_seq]) == \
        _fingerprint([r.report for r in rows_par])


def test_run_table3_jobs_invariant():
    rows_seq = run_table3(circuits=["KSA8"], seed=7, config=FAST, jobs=1)
    rows_par = run_table3(circuits=["KSA8"], seed=7, config=FAST, jobs=2)
    assert rows_seq[0].k_lb == rows_par[0].k_lb
    assert rows_seq[0].k_res == rows_par[0].k_res
    assert _fingerprint([rows_seq[0].report]) == _fingerprint([rows_par[0].report])


# ----------------------------------------------------------------------
# Cross-process observability
# ----------------------------------------------------------------------
def test_run_jobs_merges_worker_observability():
    job_list = [
        SuiteJob(kind="partition", circuit="KSA4", num_planes=3, seed=1, config=FAST)
        for _ in range(2)
    ]
    obs.enable()
    run_jobs(job_list, jobs=2)
    metrics = obs.OBS.metrics.as_dict()
    assert metrics["runner.jobs_submitted"]["value"] == 2
    # Worker-side solver metrics made it back into the parent registry.
    assert metrics["partition.calls"]["value"] == 2
    paths = {span["path"] for span in obs.OBS.trace.as_dict().values()}
    assert any(p.startswith("runner.pool") for p in paths)
    assert any("partition" in p for p in paths)


def test_run_jobs_without_capture_ships_no_snapshots():
    job_list = [
        SuiteJob(kind="partition", circuit="KSA4", num_planes=3, seed=1, config=FAST)
        for _ in range(2)
    ]
    run_jobs(job_list, jobs=2)  # obs disabled: must not enable or record
    assert not obs.enabled()
    assert obs.OBS.metrics.as_dict() == {}
