"""Tests for the deterministic fault-injection plan (repro.harness.faults)."""

import pytest

from repro import envcfg
from repro.harness.faults import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    corrupt_payload,
    plan_from_env,
    raise_fault,
)
from repro.utils.errors import ReproError


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------
def test_parse_single_rule():
    plan = FaultPlan.parse("crash@2")
    assert plan.rules == (FaultRule(kind="crash", index=2, times=1),)
    assert bool(plan)


def test_parse_multiple_rules_and_repeat_count():
    plan = FaultPlan.parse("crash@0x3, hang@2, corrupt@5x2")
    assert plan.rules == (
        FaultRule(kind="crash", index=0, times=3),
        FaultRule(kind="hang", index=2, times=1),
        FaultRule(kind="corrupt", index=5, times=2),
    )


def test_parse_timeout_alias_maps_to_hang():
    plan = FaultPlan.parse("timeout@1")
    assert plan.rules[0].kind == "hang"


def test_parse_empty_spec_is_empty_plan():
    assert not FaultPlan.parse("")
    assert not FaultPlan.parse("  ")
    assert FaultPlan.parse("").rules == ()


@pytest.mark.parametrize("spec", ["explode@1", "crash", "crash@", "crash@x2", "@3", "crash@-1"])
def test_parse_rejects_bad_specs(spec):
    with pytest.raises(ReproError, match="fault|REPRO_FAULT"):
        FaultPlan.parse(spec)


def test_plan_from_env(monkeypatch):
    assert not plan_from_env(environ={})
    plan = plan_from_env(environ={"REPRO_FAULT": "kill@1"})
    assert plan.rules[0].kind == "kill"
    with pytest.raises(ReproError):
        plan_from_env(environ={"REPRO_FAULT": "nonsense"})


# ----------------------------------------------------------------------
# Fault application
# ----------------------------------------------------------------------
def test_fault_for_fires_on_first_attempts_only():
    plan = FaultPlan.parse("crash@1x2")
    assert plan.fault_for(1, 1) == "crash"
    assert plan.fault_for(1, 2) == "crash"
    assert plan.fault_for(1, 3) is None  # bounded: retry N+1 recovers
    assert plan.fault_for(0, 1) is None  # other jobs untouched


def test_raise_fault_crash_and_interrupt():
    with pytest.raises(InjectedFault):
        raise_fault("crash")
    with pytest.raises(KeyboardInterrupt):
        raise_fault("interrupt")


def test_corrupt_payload_is_structurally_invalid():
    payload = {"circuit": "KSA4", "report": object(), "labels": [0, 1]}
    corrupted = corrupt_payload(payload)
    assert corrupted["report"] is None
    assert corrupted is not payload  # original untouched
    assert payload["report"] is not None


def test_hang_seconds_env():
    hang = "REPRO_FAULT_HANG_SECONDS"
    assert envcfg.resolve(hang, environ={}) == 3600.0
    assert envcfg.resolve(hang, environ={hang: "2.5"}) == 2.5
