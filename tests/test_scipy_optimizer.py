"""Tests for repro.baselines.lbfgs (L-BFGS-B extension)."""

import numpy as np
import pytest

from repro.core.config import PartitionConfig
from repro.baselines.lbfgs import minimize_assignment_lbfgs, partition_lbfgs
from repro.utils.errors import PartitionError


def _problem(num_gates=24, seed=0):
    rng = np.random.default_rng(seed)
    edges = np.array([(i, i + 1) for i in range(num_gates - 1)])
    bias = rng.uniform(0.3, 1.5, num_gates)
    area = rng.uniform(1800, 7800, num_gates)
    return edges, bias, area


def test_lbfgs_stays_in_box():
    edges, bias, area = _problem()
    config = PartitionConfig(max_iterations=100)
    trace = minimize_assignment_lbfgs(3, edges, bias, area, config, rng=1)
    assert (trace.w >= 0.0).all() and (trace.w <= 1.0).all()
    assert trace.final_terms is not None


def test_lbfgs_decreases_cost():
    edges, bias, area = _problem()
    config = PartitionConfig(max_iterations=200)
    trace = minimize_assignment_lbfgs(3, edges, bias, area, config, rng=1)
    assert trace.cost_history[-1] <= trace.cost_history[0]


def test_lbfgs_deterministic():
    edges, bias, area = _problem()
    config = PartitionConfig(max_iterations=60)
    a = minimize_assignment_lbfgs(3, edges, bias, area, config, rng=5)
    b = minimize_assignment_lbfgs(3, edges, bias, area, config, rng=5)
    assert np.allclose(a.w, b.w)


def test_lbfgs_validation():
    edges, bias, area = _problem(num_gates=3)
    with pytest.raises(PartitionError):
        minimize_assignment_lbfgs(5, edges, bias, area, PartitionConfig())
    with pytest.raises(PartitionError):
        minimize_assignment_lbfgs(0, edges, bias, area, PartitionConfig())
    with pytest.raises(PartitionError, match="w0"):
        minimize_assignment_lbfgs(
            2, edges, bias, area, PartitionConfig(), w0=np.ones((7, 2))
        )


def test_partition_lbfgs_contract(mixed_netlist, fast_config):
    result = partition_lbfgs(mixed_netlist, 4, config=fast_config)
    assert result.labels.shape == (mixed_netlist.num_gates,)
    assert (result.plane_sizes() > 0).all()
    assert len(result.restart_costs) == fast_config.restarts


def test_partition_lbfgs_single_plane(mixed_netlist, fast_config):
    result = partition_lbfgs(mixed_netlist, 1, config=fast_config)
    assert (result.labels == 0).all()


def test_lbfgs_beats_random_labels(mixed_netlist, fast_config):
    from repro.core.cost import integer_cost

    result = partition_lbfgs(mixed_netlist, 4, config=fast_config)
    rng = np.random.default_rng(0)
    edges = mixed_netlist.edge_array()
    bias = mixed_netlist.bias_vector_ma()
    area = mixed_netlist.area_vector_um2()
    random_costs = [
        integer_cost(
            rng.integers(0, 4, mixed_netlist.num_gates), 4, edges, bias, area, fast_config
        )
        for _ in range(10)
    ]
    assert result.integer_cost() < np.mean(random_costs)
