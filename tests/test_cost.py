"""Tests for repro.core.cost — the paper's eqs. (4)-(9)."""

import numpy as np
import pytest

from repro.core import assignment, cost, gradients
from repro.core.config import PartitionConfig
from repro.utils.errors import PartitionError


@pytest.fixture()
def config():
    return PartitionConfig(c1=1.0, c2=1.0, c3=1.0, c4=1.0)


def _setup(num_gates=6, num_planes=3, seed=0):
    rng = np.random.default_rng(seed)
    w = assignment.random_assignment(num_gates, num_planes, rng=rng)
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]])
    bias = rng.uniform(0.3, 1.5, num_gates)
    area = rng.uniform(1800, 7800, num_gates)
    return w, edges, bias, area


def test_f1_zero_within_one_plane():
    w = assignment.one_hot(np.zeros(4, dtype=int), 3)
    edges = np.array([[0, 1], [1, 2], [2, 3]])
    assert cost.interconnection_cost(w, edges) == 0.0


def test_f1_unit_at_max_distance():
    # all edges spanning the full K-1 distance hit the normalizer exactly
    labels = np.array([0, 2, 0, 2])
    w = assignment.one_hot(labels, 3)
    edges = np.array([[0, 1], [2, 3]])
    assert cost.interconnection_cost(w, edges) == pytest.approx(1.0)


def test_f1_quartic_growth():
    # one edge at distance 2 of K=5 planes: (2^4) / (1 * 4^4)
    w = assignment.one_hot(np.array([0, 2]), 5)
    edges = np.array([[0, 1]])
    assert cost.interconnection_cost(w, edges) == pytest.approx(16 / 256)


def test_f1_no_edges_is_zero():
    w = assignment.one_hot(np.array([0, 1]), 2)
    assert cost.interconnection_cost(w, np.zeros((0, 2), dtype=int)) == 0.0


def test_f2_zero_when_balanced():
    w = assignment.one_hot(np.array([0, 1, 0, 1]), 2)
    bias = np.array([1.0, 1.0, 2.0, 2.0])
    assert cost.bias_cost(w, bias) == pytest.approx(0.0)


def test_f2_matches_eq5_by_hand():
    # K=2, B = [3, 1]: Bbar=2, var=( (3-2)^2 + (1-2)^2 )/2 = 1
    # N2 = (K-1) * Bbar^2 = 4 -> F2 = 1/4
    w = assignment.one_hot(np.array([0, 1]), 2)
    bias = np.array([3.0, 1.0])
    assert cost.bias_cost(w, bias) == pytest.approx(0.25)


def test_f3_matches_eq6_by_hand():
    w = assignment.one_hot(np.array([0, 1]), 2)
    area = np.array([300.0, 100.0])
    assert cost.area_cost(w, area) == pytest.approx(0.25)


def test_f2_zero_bias_circuit():
    w = assignment.one_hot(np.array([0, 1]), 2)
    assert cost.bias_cost(w, np.zeros(2)) == 0.0


@pytest.mark.parametrize("num_planes", range(2, 9))
def test_f4_constant_on_feasible_onehot(num_planes):
    # Feasible one-hot rows: (K wbar - 1)^2 = 0 and the row variance is
    # (K-1)/K^2, so F4 = -G (K-1)/K^2 / N4 = -1/(K^2 (K-1)) whatever
    # the labels (the relaxation rewards one-hot rows).
    expected = -1.0 / (num_planes**2 * (num_planes - 1))
    rng = np.random.default_rng(num_planes)
    for labels in (np.zeros(7, dtype=int), rng.integers(0, num_planes, size=11)):
        value = cost.constraint_cost(assignment.one_hot(labels, num_planes))
        assert value == pytest.approx(expected, rel=1e-12)


def test_f4_uniform_rows_cost_more_than_onehot():
    num_gates, num_planes = 5, 4
    uniform = np.full((num_gates, num_planes), 1.0 / num_planes)
    onehot = assignment.one_hot(np.zeros(num_gates, dtype=int), num_planes)
    assert cost.constraint_cost(uniform) > cost.constraint_cost(onehot)


def test_f4_violated_sum_costs_more():
    good = assignment.one_hot(np.zeros(3, dtype=int), 2)
    bad = good * 2.0  # rows sum to 2
    assert cost.constraint_cost(bad) > cost.constraint_cost(good)


def test_total_cost_is_weighted_sum(config):
    w, edges, bias, area = _setup()
    terms = cost.cost_terms(w, edges, bias, area, config)
    assert terms.total == pytest.approx(terms.f1 + terms.f2 + terms.f3 + terms.f4)
    weighted = PartitionConfig(c1=2.0, c2=3.0, c3=5.0, c4=7.0)
    terms2 = cost.cost_terms(w, edges, bias, area, weighted)
    assert terms2.total == pytest.approx(
        2 * terms2.f1 + 3 * terms2.f2 + 5 * terms2.f3 + 7 * terms2.f4
    )


def test_cost_terms_as_dict(config):
    w, edges, bias, area = _setup()
    data = cost.cost_terms(w, edges, bias, area, config).as_dict()
    assert set(data) == {"f1", "f2", "f3", "f4", "total"}


def test_single_plane_all_terms_zero(config):
    w = np.ones((4, 1))
    edges = np.array([[0, 1], [1, 2]])
    terms = cost.cost_terms(w, edges, np.ones(4), np.ones(4), config)
    assert terms.total == 0.0


def test_integer_cost_excludes_f4(config):
    labels = np.array([0, 1, 0, 1])
    edges = np.array([[0, 1], [2, 3]])
    bias = np.array([1.0, 1.0, 1.0, 1.0])
    area = np.ones(4)
    value = cost.integer_cost(labels, 2, edges, bias, area, config)
    w = assignment.one_hot(labels, 2)
    expected = (
        cost.interconnection_cost(w, edges)
        + cost.bias_cost(w, bias)
        + cost.area_cost(w, area)
    )
    assert value == pytest.approx(expected)


def test_input_validation(config):
    w, edges, bias, area = _setup()
    for evaluate in (cost.cost_terms, gradients.cost_gradient):
        with pytest.raises(PartitionError, match="out of range"):
            evaluate(w, np.array([[0, 99]]), bias, area, config)
        with pytest.raises(PartitionError, match="shape"):
            evaluate(w, edges, bias[:-1], area, config)
        with pytest.raises(PartitionError, match="must be"):
            evaluate(np.ones(5), edges, bias, area, config)
