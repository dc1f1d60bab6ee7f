"""Tests for repro.core.optimizer — Algorithm 1."""

import numpy as np
import pytest

from repro.core.assignment import random_assignment
from repro.core.config import PartitionConfig
from repro.core.cost import cost_terms
from repro.core.optimizer import minimize_assignment_batch
from repro.utils.errors import PartitionError


def _problem(num_gates=30, num_planes=4, seed=0):
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(num_gates - 1):
        edges.append((i, i + 1))
    edges.append((0, num_gates // 2))
    edges = np.array(edges)
    bias = rng.uniform(0.3, 1.5, num_gates)
    area = rng.uniform(1800, 7800, num_gates)
    return edges, bias, area


def _solve(num_planes, edges, bias, area, config, rng=None, w0=None):
    """One restart of Algorithm 1."""
    return minimize_assignment_batch(
        num_planes, edges, bias, area, config, rngs=[rng], w0=w0
    )[0]


def test_rounded_solution_beats_random_assignment():
    """The relaxed cost of the random init is artificially low (uniform
    rows collapse all labels to ~K/2, hiding F1), so the meaningful
    check is on the *integer* cost after rounding: gradient descent must
    beat random integer assignments."""
    from repro.core.assignment import round_assignment
    from repro.core.cost import integer_cost

    edges, bias, area = _problem()
    config = PartitionConfig(max_iterations=400, restarts=1)
    trace = _solve(4, edges, bias, area, config, rng=1)
    optimized = integer_cost(round_assignment(trace.w), 4, edges, bias, area, config)
    rng = np.random.default_rng(0)
    random_costs = [
        integer_cost(rng.integers(0, 4, bias.shape[0]), 4, edges, bias, area, config)
        for _ in range(10)
    ]
    assert optimized < np.mean(random_costs)


def test_margin_stop_fires():
    """With smooth weights the relative-change criterion (Algorithm 1
    line 14) terminates the loop before the iteration cap."""
    edges, bias, area = _problem()
    config = PartitionConfig(
        c1=1.0, c2=1.0, c3=1.0, c4=1.0, learning_rate=0.05,
        max_iterations=5000, margin=1e-3,
    )
    trace = _solve(4, edges, bias, area, config, rng=1)
    assert trace.converged
    assert trace.iterations < 5000
    # stop criterion: |cost_new / cost_old - 1| <= margin on the last pair
    ratio = abs(trace.cost_history[-1] / trace.cost_history[-2] - 1.0)
    assert ratio <= config.margin + 1e-12


def test_iteration_cap_respected():
    edges, bias, area = _problem()
    config = PartitionConfig(max_iterations=5, margin=1e-12)
    trace = _solve(4, edges, bias, area, config, rng=1)
    assert trace.iterations <= 5
    assert not trace.converged or trace.iterations <= 5


def test_w_stays_in_unit_interval():
    edges, bias, area = _problem()
    config = PartitionConfig(max_iterations=200, renormalize_rows=False)
    trace = _solve(4, edges, bias, area, config, rng=2)
    assert (trace.w >= 0.0).all() and (trace.w <= 1.0).all()


def test_renormalized_rows_sum_to_one():
    edges, bias, area = _problem()
    config = PartitionConfig(max_iterations=200, renormalize_rows=True)
    trace = _solve(4, edges, bias, area, config, rng=2)
    assert np.allclose(trace.w.sum(axis=1), 1.0)


def test_deterministic_given_rng_seed():
    edges, bias, area = _problem()
    config = PartitionConfig(max_iterations=100)
    trace_a = _solve(4, edges, bias, area, config, rng=5)
    trace_b = _solve(4, edges, bias, area, config, rng=5)
    assert np.allclose(trace_a.w, trace_b.w)
    assert trace_a.cost_history == trace_b.cost_history


def test_explicit_w0_used():
    edges, bias, area = _problem(num_gates=10)
    w0 = random_assignment(10, 3, rng=9)
    config = PartitionConfig(max_iterations=1, margin=1e-12)
    trace = _solve(3, edges, bias, area, config, w0=w0)
    # after exactly one step the trace history starts at the w0 cost
    initial = cost_terms(w0, edges, bias, area, config).total
    assert trace.cost_history[0] == pytest.approx(initial)


def test_w0_shape_validated():
    edges, bias, area = _problem(num_gates=10)
    with pytest.raises(PartitionError, match="shape"):
        _solve(3, edges, bias, area, PartitionConfig(), w0=np.ones((4, 3)))


def test_more_planes_than_gates_rejected():
    edges, bias, area = _problem(num_gates=3)
    with pytest.raises(PartitionError, match="planes"):
        _solve(5, edges, bias, area, PartitionConfig())


def test_final_terms_populated():
    edges, bias, area = _problem()
    trace = _solve(4, edges, bias, area, PartitionConfig(max_iterations=50), rng=0)
    assert trace.final_terms is not None
    assert trace.final_cost == trace.cost_history[-1]


def test_gradient_mode_exact_also_converges():
    edges, bias, area = _problem()
    config = PartitionConfig(max_iterations=600, gradient_mode="exact")
    trace = _solve(4, edges, bias, area, config, rng=3)
    assert trace.cost_history[-1] < trace.cost_history[0]
