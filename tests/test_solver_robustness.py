"""Graceful-degradation tests for the solver: non-finite
quarantine, deterministic reseeding (also when a restart is poisoned
only after several fast iterations), multilevel warm-start guards, and
the balanced-rounding fallback."""

import numpy as np
import pytest

from repro import obs
from repro.core.assignment import normalize_rows, round_assignment, round_assignment_balanced
from repro.core.config import PartitionConfig
from repro.core.kernel import FusedKernel
from repro.core.multilevel import minimize_assignment_multilevel
from repro.core.optimizer import (
    DIVERGENCE_FACTOR,
    MAX_RESEEDS,
    _reseed_assignment,
    minimize_assignment_batch,
)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable(reset=True)
    yield
    obs.disable(reset=True)


def _ring_problem(num_gates=16, num_planes=3):
    edges = np.array([[i, (i + 1) % num_gates] for i in range(num_gates)])
    return edges, np.ones(num_gates), np.ones(num_gates)


def _stack(num_restarts, num_gates, num_planes, seed=0):
    rng = np.random.default_rng(seed)
    stack = rng.random((num_restarts, num_gates, num_planes))
    return stack / stack.sum(axis=2, keepdims=True)


CFG = PartitionConfig(restarts=3, max_iterations=120)


# ----------------------------------------------------------------------
# Batched engine: reseed and quarantine
# ----------------------------------------------------------------------
def test_nan_restart_is_reseeded_and_batch_survives():
    edges, bias, area = _ring_problem()
    stack = _stack(3, 16, 3)
    stack[1, 0, 0] = np.nan  # poisons restart 1's first evaluation
    obs.enable()
    traces = minimize_assignment_batch(3, edges, bias, area, CFG, w0=stack)
    assert [t.reseeds for t in traces] == [0, 1, 0]
    assert not any(t.quarantined for t in traces)
    assert all(np.isfinite(t.w).all() for t in traces)
    assert all(np.isfinite(t.cost_history).all() for t in traces)
    metrics = obs.OBS.metrics.as_dict()
    assert metrics["solver.nonfinite_detected"]["value"] == 1
    assert metrics["solver.restarts_reseeded"]["value"] == 1


def test_inf_gradient_restart_quarantines_after_reseeds():
    # A NaN bias entry poisons *every* evaluation, so reseeds exhaust.
    edges, bias, area = _ring_problem()
    bias = bias.copy()
    bias[3] = np.nan
    obs.enable()
    traces = minimize_assignment_batch(3, edges, bias, area, CFG, rngs=3)
    assert all(t.reseeds == MAX_RESEEDS for t in traces)
    assert all(t.quarantined for t in traces)
    assert all(not t.converged for t in traces)
    assert all(t.final_terms is None for t in traces)
    # Quarantined restarts freeze on a finite uniform assignment, so
    # downstream rounding cannot blow up.
    assert all(np.isfinite(t.w).all() for t in traces)
    metrics = obs.OBS.metrics.as_dict()
    assert metrics["solver.restarts_quarantined"]["value"] == 3
    assert metrics["solver.restarts_reseeded"]["value"] == 3 * MAX_RESEEDS


def test_healthy_restarts_unaffected_by_poisoned_sibling():
    edges, bias, area = _ring_problem()
    clean = _stack(3, 16, 3)
    poisoned = clean.copy()
    poisoned[1] = np.nan
    clean_traces = minimize_assignment_batch(3, edges, bias, area, CFG, w0=clean)
    mixed_traces = minimize_assignment_batch(3, edges, bias, area, CFG, w0=poisoned)
    for r in (0, 2):
        assert np.array_equal(clean_traces[r].w, mixed_traces[r].w)
        assert clean_traces[r].cost_history == mixed_traces[r].cost_history
        assert clean_traces[r].iterations == mixed_traces[r].iterations


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_reseeding_is_deterministic():
    edges, bias, area = _ring_problem()
    stack = _stack(3, 16, 3)
    stack[2] = np.inf
    a = minimize_assignment_batch(3, edges, bias, area, CFG, w0=stack.copy())
    b = minimize_assignment_batch(3, edges, bias, area, CFG, w0=stack.copy())
    assert np.array_equal(a[2].w, b[2].w)
    assert a[2].cost_history == b[2].cost_history
    assert a[2].reseeds == b[2].reseeds == 1


def test_finite_path_records_no_recovery_metrics():
    edges, bias, area = _ring_problem()
    obs.enable()
    traces = minimize_assignment_batch(3, edges, bias, area, CFG, rngs=3)
    assert all(t.reseeds == 0 and not t.quarantined for t in traces)
    metrics = obs.OBS.metrics.as_dict()
    assert "solver.nonfinite_detected" not in metrics
    assert "solver.restarts_reseeded" not in metrics


# ----------------------------------------------------------------------
# Multilevel warm-start guard
# ----------------------------------------------------------------------
def test_multilevel_reseeds_nonfinite_prolongated_stack(monkeypatch):
    from repro.core import multilevel as ml

    edges, bias, area = _ring_problem(200, 3)
    config = PartitionConfig(restarts=2, max_iterations=60,
                             multilevel_coarsest_nodes=40)

    real_batch = ml.minimize_assignment_batch
    calls = {"n": 0}

    def poisoning_batch(*args, **kwargs):
        calls["n"] += 1
        traces = real_batch(*args, **kwargs)
        if calls["n"] == 1:  # the coarse solve: poison restart 0's w
            traces[0].w = np.full_like(traces[0].w, np.nan)
        return traces

    monkeypatch.setattr(ml, "minimize_assignment_batch", poisoning_batch)
    obs.enable()
    traces = minimize_assignment_multilevel(3, edges, bias, area, config, rngs=2)
    assert calls["n"] == 2  # coarse + fine (coarsening actually happened)
    assert all(np.isfinite(t.w).all() for t in traces)
    metrics = obs.OBS.metrics.as_dict()
    assert metrics["multilevel.stack_reseeded"]["value"] == 1


# ----------------------------------------------------------------------
# Balanced rounding fallback
# ----------------------------------------------------------------------
def test_balanced_rounding_falls_back_when_one_gate_dominates():
    # Gate 0 carries more bias than a whole plane's budget: the capacity
    # walk is meaningless, so plain argmax rounding must take over.
    w = np.tile([0.8, 0.1, 0.1], (6, 1))
    bias = np.array([100.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    obs.enable()
    labels = round_assignment_balanced(w, bias, slack=0.02)
    assert np.array_equal(labels, round_assignment(w))
    assert obs.OBS.metrics.as_dict()["rounding.balanced_fallback"]["value"] == 1


def test_balanced_rounding_fallback_respects_pinned():
    w = np.tile([0.8, 0.1, 0.1], (6, 1))
    bias = np.array([100.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    labels = round_assignment_balanced(w, bias, slack=0.02, pinned={2: 1})
    assert labels[2] == 1
    assert labels[0] == 0


def test_balanced_rounding_falls_back_on_nonfinite_bias():
    w = np.tile([0.6, 0.2, 0.2], (4, 1))
    bias = np.array([1.0, np.nan, 1.0, 1.0])
    obs.enable()
    labels = round_assignment_balanced(w, bias, slack=0.02)
    assert np.array_equal(labels, round_assignment(w))
    assert obs.OBS.metrics.as_dict()["rounding.balanced_fallback"]["value"] == 1


def test_balanced_rounding_unchanged_on_feasible_inputs():
    rng = np.random.default_rng(5)
    w = rng.dirichlet(np.ones(4), size=40)
    bias = rng.uniform(0.5, 1.5, size=40)
    obs.enable()
    round_assignment_balanced(w, bias, slack=0.05)
    assert "rounding.balanced_fallback" not in obs.OBS.metrics.as_dict()


# ----------------------------------------------------------------------
# Rare events after fast iterations
# ----------------------------------------------------------------------
#: Tight enough that no restart of the ring problem converges within the
#: cap, so every poisoned row keeps its index and the healthy restarts
#: leave through the iteration cap.
RARE_CFG = PartitionConfig(restarts=3, max_iterations=40, margin=1e-12)
POISONED_AT = 6


def _poison_kernel(monkeypatch, row, evaluations, kind):
    """Make the descent's kernel evaluations listed in ``evaluations``
    (0-based, counted over the solve) report row ``row`` as poisoned.

    ``nonfinite`` turns its terms and gradient into NaN; ``diverged``
    reports a finite cost 4x past the row's divergence limit.
    """
    real = FusedKernel._evaluate
    state = {"calls": 0}

    def evaluate(self, w, n, config, out):
        terms = real(self, w, n, config, out)
        call = state["calls"]
        state["calls"] += 1
        if call == 0:
            state["first"] = terms[4].copy()
        if call in evaluations:
            assert n == 3, "a restart stopped before the poisoned evaluation"
            if kind == "nonfinite":
                terms[:, row] = np.nan
                out[row] = np.nan
            else:
                terms[4, row] = 4.0 * DIVERGENCE_FACTOR * state["first"][row]
        return terms

    monkeypatch.setattr(FusedKernel, "_evaluate", evaluate)


def _solo(edges, bias, area, config, w0, tag):
    return minimize_assignment_batch(
        3, edges, bias, area, config, w0=w0[None], restart_tags=[tag]
    )[0]


def _assert_same_trace(got, want):
    assert np.array_equal(got.w, want.w)
    assert got.cost_history == want.cost_history
    assert (got.iterations, got.converged, got.reseeds, got.quarantined) == (
        want.iterations, want.converged, want.reseeds, want.quarantined
    )
    assert got.final_terms == want.final_terms


@pytest.mark.parametrize("kind", ["nonfinite", "diverged"])
def test_rare_event_after_fast_iterations_reseeds_and_rejoins(monkeypatch, kind):
    """Restart 2 is poisoned on its 7th evaluation: it reseeds once and
    rejoins the batch from the renormalized reseed stream, while its
    siblings stay bitwise their solo traces and exit at the cap."""
    edges, bias, area = _ring_problem()
    stack = _stack(3, 16, 3)
    solo = [_solo(edges, bias, area, RARE_CFG, stack[r], r) for r in range(3)]
    assert not any(t.converged for t in solo)
    # The zeroed gradient leaves the reseeded row as it is; the step's
    # row normalization then runs once more before its next evaluation.
    fresh = normalize_rows(_reseed_assignment(16, 3, 2, 1, None))
    remaining = RARE_CFG.with_(max_iterations=RARE_CFG.max_iterations - POISONED_AT - 1)
    rejoined = _solo(edges, bias, area, remaining, fresh, 2)

    _poison_kernel(monkeypatch, 2, {POISONED_AT}, kind)
    obs.enable()
    traces = minimize_assignment_batch(3, edges, bias, area, RARE_CFG, w0=stack)

    for r in (0, 1):
        _assert_same_trace(traces[r], solo[r])
        assert traces[r].iterations == len(traces[r].cost_history) == RARE_CFG.max_iterations
        assert traces[r].final_terms.total == traces[r].cost_history[-1]
    poisoned = traces[2]
    assert poisoned.reseeds == 1 and not poisoned.quarantined
    assert poisoned.cost_history == (
        solo[2].cost_history[:POISONED_AT] + rejoined.cost_history
    )
    assert poisoned.iterations == POISONED_AT + rejoined.iterations
    assert poisoned.converged == rejoined.converged
    assert poisoned.final_terms == rejoined.final_terms
    assert np.array_equal(poisoned.w, rejoined.w)
    # Telemetry numbers a restart's steps across the reseed.
    assert [record["iteration"] for record in poisoned.telemetry] == list(
        range(len(poisoned.cost_history))
    )
    metrics = obs.OBS.metrics.as_dict()
    detected = "solver.nonfinite_detected" if kind == "nonfinite" else "solver.diverged"
    assert metrics[detected]["value"] == 1
    assert metrics["solver.restarts_reseeded"]["value"] == 1
    assert "solver.restarts_quarantined" not in metrics


def test_rare_event_after_fast_iterations_quarantines(monkeypatch):
    """Restart 2 goes non-finite on its 7th evaluation and on both
    reseeded starts after it: it is quarantined with the terms of its
    last finite evaluation, and its siblings are untouched."""
    edges, bias, area = _ring_problem()
    stack = _stack(3, 16, 3)
    solo = [_solo(edges, bias, area, RARE_CFG, stack[r], r) for r in range(3)]
    capped = _solo(edges, bias, area, RARE_CFG.with_(max_iterations=POISONED_AT), stack[2], 2)

    evaluations = set(range(POISONED_AT, POISONED_AT + MAX_RESEEDS + 1))
    _poison_kernel(monkeypatch, 2, evaluations, "nonfinite")
    obs.enable()
    traces = minimize_assignment_batch(3, edges, bias, area, RARE_CFG, w0=stack)

    for r in (0, 1):
        _assert_same_trace(traces[r], solo[r])
    quarantined = traces[2]
    assert quarantined.reseeds == MAX_RESEEDS and quarantined.quarantined
    assert not quarantined.converged
    assert quarantined.cost_history == solo[2].cost_history[:POISONED_AT]
    assert quarantined.iterations == POISONED_AT
    assert quarantined.final_terms == capped.final_terms
    assert np.array_equal(quarantined.w, np.full((16, 3), 1.0 / 3))
    metrics = obs.OBS.metrics.as_dict()
    assert metrics["solver.nonfinite_detected"]["value"] == MAX_RESEEDS + 1
    assert metrics["solver.restarts_reseeded"]["value"] == MAX_RESEEDS
    assert metrics["solver.restarts_quarantined"]["value"] == 1
