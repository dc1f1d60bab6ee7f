"""Fault-tolerance tests for the suite runner: retries, timeouts,
checkpoint/resume, error taxonomy, interrupt cleanup."""

import dataclasses
import json
import multiprocessing
import time

import numpy as np
import pytest

from repro import obs
from repro.core.config import PartitionConfig
from repro.harness.faults import FaultPlan
from repro.harness.runner import (
    JOB_ERROR_KINDS,
    JobError,
    JobFailure,
    RunReport,
    SuiteJob,
    last_report,
    resolve_backoff,
    resolve_retries,
    resolve_timeout,
    run_jobs,
    validate_payload,
)
from repro.utils.errors import ReproError

FAST = PartitionConfig(restarts=2, max_iterations=200)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable(reset=True)
    yield
    obs.disable(reset=True)


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    from repro.cache import reset_default_cache
    from repro.circuits import suite

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-root"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_FAULT", raising=False)
    monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", "30")
    reset_default_cache()
    suite._NETLIST_CACHE.clear()
    yield
    reset_default_cache()
    suite._NETLIST_CACHE.clear()


def _jobs(count=3):
    return [
        SuiteJob(kind="partition", circuit="KSA4", num_planes=k, seed=1, config=FAST)
        for k in range(2, 2 + count)
    ]


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


def _fingerprint(payloads):
    return json.dumps(
        [
            {"report": _canon(p["report"]), "labels": _canon(np.asarray(p["labels"]))}
            for p in payloads
        ],
        sort_keys=True,
    )


# ----------------------------------------------------------------------
# Knob resolution
# ----------------------------------------------------------------------
def test_resolve_timeout_env_and_validation():
    assert resolve_timeout(None, environ={}) is None
    assert resolve_timeout(None, environ={"REPRO_JOB_TIMEOUT": "2.5"}) == 2.5
    assert resolve_timeout(7, environ={"REPRO_JOB_TIMEOUT": "2.5"}) == 7.0
    with pytest.raises(ReproError, match="REPRO_JOB_TIMEOUT"):
        resolve_timeout(None, environ={"REPRO_JOB_TIMEOUT": "soon"})
    with pytest.raises(ReproError, match="timeout"):
        resolve_timeout(0)


def test_resolve_retries_env_and_validation():
    assert resolve_retries(None, environ={}) == 2
    assert resolve_retries(None, environ={"REPRO_RETRIES": "0"}) == 0
    assert resolve_retries(5, environ={"REPRO_RETRIES": "0"}) == 5
    with pytest.raises(ReproError, match="REPRO_RETRIES"):
        resolve_retries(None, environ={"REPRO_RETRIES": "-1"})
    with pytest.raises(ReproError, match="retries"):
        resolve_retries(-1)


def test_resolve_backoff_env():
    assert resolve_backoff(None, environ={}) == 0.05
    assert resolve_backoff(None, environ={"REPRO_RETRY_BACKOFF": "0"}) == 0.0
    with pytest.raises(ReproError, match="REPRO_RETRY_BACKOFF"):
        resolve_backoff(None, environ={"REPRO_RETRY_BACKOFF": "slow"})


# ----------------------------------------------------------------------
# Error taxonomy plumbing
# ----------------------------------------------------------------------
def test_job_failure_rejects_unknown_kind():
    with pytest.raises(ReproError, match="unknown failure kind"):
        JobFailure(index=0, kind="melted", attempt=1, message="")
    for kind in JOB_ERROR_KINDS:
        JobFailure(index=0, kind=kind, attempt=1, message="")


def test_validate_payload_catches_structural_damage():
    job = _jobs(1)[0]
    good = {"circuit": job.circuit, "report": None, "labels": [0]}
    assert validate_payload(job, "nope") is not None
    assert validate_payload(job, {"circuit": "OTHER"}) is not None
    assert validate_payload(job, good) is not None  # report is None
    from repro.harness.runner import execute_job

    payload = execute_job(job)
    assert validate_payload(job, payload) is None
    assert validate_payload(job, {**payload, "labels": "corrupt"}) is not None
    assert validate_payload(job, {**payload, "labels": payload["labels"][:-1]}) is not None


def test_run_report_summary_lines():
    report = RunReport(total=4, executed=2, from_checkpoint=2, retries=1)
    report.failures.append(JobFailure(index=1, kind="crashed", attempt=1, message="x"))
    text = report.summary()
    assert "4 jobs" in text and "2 from checkpoint" in text and "crashed x1" in text


# ----------------------------------------------------------------------
# Retry behavior (inline and pool)
# ----------------------------------------------------------------------
def test_inline_crash_is_retried_and_result_is_clean():
    jobs = _jobs(2)
    baseline = run_jobs(jobs, jobs=1)
    faulted = run_jobs(jobs, jobs=1, fault_plan=FaultPlan.parse("crash@1"), backoff=0.0)
    assert _fingerprint(faulted) == _fingerprint(baseline)
    report = last_report()
    assert report.retries == 1
    assert report.failure_counts() == {"crashed": 1}
    assert not report.failed_jobs


def test_inline_corrupt_payload_is_detected_and_retried():
    jobs = _jobs(2)
    baseline = run_jobs(jobs, jobs=1)
    faulted = run_jobs(jobs, jobs=1, fault_plan=FaultPlan.parse("corrupt@0"), backoff=0.0)
    assert _fingerprint(faulted) == _fingerprint(baseline)
    assert last_report().failure_counts() == {"invalid-result": 1}


def test_inline_hang_counts_as_timeout_without_sleeping():
    jobs = _jobs(2)
    start = time.monotonic()
    result = run_jobs(jobs, jobs=1, fault_plan=FaultPlan.parse("hang@0"), backoff=0.0)
    assert time.monotonic() - start < 25  # never actually slept 30 s
    assert len(result) == 2
    assert last_report().failure_counts() == {"timed-out": 1}


def test_exhausted_retries_raise_joberror_with_taxonomy():
    jobs = _jobs(2)
    with pytest.raises(JobError) as excinfo:
        run_jobs(jobs, jobs=1, fault_plan=FaultPlan.parse("crash@1x9"),
                 retries=1, backoff=0.0)
    error = excinfo.value
    assert "job 1" in str(error)
    assert [f.kind for f in error.failures] == ["crashed", "crashed"]
    assert last_report().failed_jobs == [1]


def test_retries_zero_fails_on_first_fault():
    jobs = _jobs(2)
    with pytest.raises(JobError):
        run_jobs(jobs, jobs=1, fault_plan=FaultPlan.parse("crash@0"),
                 retries=0, backoff=0.0)
    assert last_report().retries == 0


def test_pool_crash_retried_rows_bitwise_identical():
    jobs = _jobs(3)
    baseline = run_jobs(jobs, jobs=1)
    faulted = run_jobs(jobs, jobs=2, fault_plan=FaultPlan.parse("crash@1"), backoff=0.01)
    assert _fingerprint(faulted) == _fingerprint(baseline)
    assert last_report().failure_counts() == {"crashed": 1}


def test_pool_kill_breaks_pool_and_recovers():
    jobs = _jobs(3)
    baseline = run_jobs(jobs, jobs=1)
    faulted = run_jobs(jobs, jobs=2, fault_plan=FaultPlan.parse("kill@0"), backoff=0.01)
    assert _fingerprint(faulted) == _fingerprint(baseline)
    counts = last_report().failure_counts()
    # The culprit is indistinguishable inside a broken pool, so innocent
    # in-flight jobs may be charged too — but everything recovered.
    assert counts.get("crashed", 0) >= 1
    assert not last_report().failed_jobs


def test_pool_timeout_kills_hung_worker_and_retries():
    jobs = _jobs(3)
    baseline = run_jobs(jobs, jobs=1)
    faulted = run_jobs(
        jobs, jobs=2, fault_plan=FaultPlan.parse("hang@2"), timeout=4.0, backoff=0.01
    )
    assert _fingerprint(faulted) == _fingerprint(baseline)
    assert last_report().failure_counts()["timed-out"] == 1


def test_inline_interrupt_propagates():
    jobs = _jobs(2)
    with pytest.raises(KeyboardInterrupt):
        run_jobs(jobs, jobs=1, fault_plan=FaultPlan.parse("interrupt@0"))


def test_pool_interrupt_shuts_workers_down():
    jobs = _jobs(3)
    with pytest.raises(KeyboardInterrupt):
        run_jobs(jobs, jobs=2, fault_plan=FaultPlan.parse("interrupt@1"))
    # cancel_futures + terminate leaves no orphaned pool workers behind.
    deadline = time.monotonic() + 10
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.1)
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Observability of failures
# ----------------------------------------------------------------------
def test_failure_counters_and_single_merge_per_job():
    jobs = _jobs(2)
    obs.enable()
    run_jobs(jobs, jobs=2, fault_plan=FaultPlan.parse("crash@0"), backoff=0.01)
    metrics = obs.OBS.metrics.as_dict()
    assert metrics["runner.failures.crashed"]["value"] == 1
    assert metrics["runner.retries"]["value"] == 1
    # Only the *successful* attempt of each job merges its snapshot:
    # 2 jobs -> exactly 2 partition calls, retries notwithstanding.
    assert metrics["partition.calls"]["value"] == 2


# ----------------------------------------------------------------------
# Checkpoint / resume (the acceptance criterion: bitwise-identical rows)
# ----------------------------------------------------------------------
def test_resume_after_interruption_is_bitwise_identical(tmp_path):
    jobs = _jobs(3)
    baseline = run_jobs(jobs, jobs=1)
    path = str(tmp_path / "cp.jsonl")

    # Interrupted run: job 2 crashes permanently, jobs 0-1 checkpoint.
    with pytest.raises(JobError):
        run_jobs(jobs, jobs=1, checkpoint=path, retries=0, backoff=0.0,
                 fault_plan=FaultPlan.parse("crash@2x9"))
    assert last_report().executed == 2

    # Resumed run re-executes only the missing job...
    resumed = run_jobs(jobs, jobs=1, checkpoint=path, resume=True)
    report = last_report()
    assert report.from_checkpoint == 2
    assert report.executed == 1
    # ...and assembles rows bitwise identical to the uninterrupted run.
    assert _fingerprint(resumed) == _fingerprint(baseline)


def test_resume_with_truncated_checkpoint(tmp_path):
    jobs = _jobs(3)
    baseline = run_jobs(jobs, jobs=1)
    path = tmp_path / "cp.jsonl"
    run_jobs(jobs, jobs=1, checkpoint=str(path))

    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:1]))  # keep only the first job

    resumed = run_jobs(jobs, jobs=1, checkpoint=str(path), resume=True)
    assert last_report().from_checkpoint == 1
    assert last_report().executed == 2
    assert _fingerprint(resumed) == _fingerprint(baseline)


def test_resume_counts_corrupt_lines(tmp_path):
    jobs = _jobs(2)
    path = tmp_path / "cp.jsonl"
    run_jobs(jobs, jobs=1, checkpoint=str(path))
    with open(path, "a") as handle:
        handle.write("{torn\n")
    resumed = run_jobs(jobs, jobs=1, checkpoint=str(path), resume=True)
    report = last_report()
    assert report.checkpoint_corrupt_lines == 1
    assert report.from_checkpoint == 2
    assert [f.kind for f in report.failures] == ["cache-corrupt"]
    assert len(resumed) == 2


def test_checkpoint_ignores_mismatched_config(tmp_path):
    jobs = _jobs(2)
    path = str(tmp_path / "cp.jsonl")
    run_jobs(jobs, jobs=1, checkpoint=path)
    other = [dataclasses.replace(job, seed=99) for job in jobs]
    run_jobs(other, jobs=1, checkpoint=path, resume=True)
    # Different seed -> different job keys -> nothing reused.
    assert last_report().from_checkpoint == 0


def test_last_report_reads_the_run_report():
    jobs = _jobs(2)
    payloads = run_jobs(jobs, jobs=1)
    assert len(payloads) == 2
    report = last_report()
    assert report.total == 2 and report.executed == 2
