"""Tests for engine="multilevel": coarsening, warm starts, balanced rounding."""

import numpy as np
import pytest

from repro.core import multilevel
from repro.core.assignment import round_assignment, round_assignment_balanced
from repro.core.coarsening import (
    coarsen_problem,
    compose_maps,
    heavy_edge_matching,
    project_edges,
)
from repro.core.config import PartitionConfig
from repro.core.multilevel import COARSE_ITERATION_BUDGET
from repro.core.partitioner import partition
from repro.utils.errors import PartitionError

#: Small enough coarsest floor that the 40-gate fixtures actually coarsen.
ML_CONFIG = PartitionConfig(
    engine="multilevel", restarts=2, max_iterations=200, multilevel_coarsest_nodes=10
)


# ----------------------------------------------------------------------
# Coarsening building blocks
# ----------------------------------------------------------------------
def test_heavy_edge_matching_prefers_heavy_edges(rng):
    # Two heavy pairs (three parallel rows each) joined by a light
    # bridge: whatever visit order the rng picks, every node's heaviest
    # available neighbor is its pair.
    edges = np.array([[0, 1]] * 3 + [[2, 3]] * 3 + [[1, 2]], dtype=np.intp)
    count, fine_to_coarse = heavy_edge_matching(4, edges, rng)
    assert count == 2
    assert fine_to_coarse[0] == fine_to_coarse[1]
    assert fine_to_coarse[2] == fine_to_coarse[3]
    assert fine_to_coarse[0] != fine_to_coarse[2]


def test_heavy_edge_matching_keeps_frozen_singleton(rng):
    edges = np.array([[0, 1], [1, 2], [2, 3]], dtype=np.intp)
    _count, fine_to_coarse = heavy_edge_matching(4, edges, rng, frozen={1})
    # Node 1 may not merge with anything.
    assert np.sum(fine_to_coarse == fine_to_coarse[1]) == 1


def test_project_edges_drops_self_loops_keeps_multiplicity():
    edges = np.array([[0, 1], [1, 2], [0, 2], [0, 2]], dtype=np.intp)
    fine_to_coarse = np.array([0, 0, 1], dtype=np.intp)  # merge 0 and 1
    coarse_edges = project_edges(edges, fine_to_coarse)
    assert coarse_edges.tolist() == [[0, 1], [0, 1], [0, 1]]


def test_coarsen_problem_conserves_bias_and_area(rng):
    num = 30
    edges = np.array([[i, i + 1] for i in range(num - 1)], dtype=np.intp)
    bias = np.linspace(0.5, 1.5, num)
    area = np.full(num, 100.0)
    levels, maps = coarsen_problem(num, edges, bias, area, 8, rng)
    assert maps, "a 30-node chain must coarsen"
    for level_bias, level_area, _edges in levels:
        assert np.isclose(level_bias.sum(), bias.sum())
        assert np.isclose(level_area.sum(), area.sum())
    composed = compose_maps(maps)
    assert composed.shape == (num,)
    coarse_count = levels[-1][0].shape[0]
    assert set(composed) == set(range(coarse_count))


def test_coarsen_problem_stops_without_edges(rng):
    levels, maps = coarsen_problem(
        10, np.empty((0, 2), dtype=np.intp), np.ones(10), np.ones(10), 2, rng
    )
    assert maps == []
    assert len(levels) == 1


# ----------------------------------------------------------------------
# Balanced rounding
# ----------------------------------------------------------------------
def test_balanced_rounding_validation():
    with pytest.raises(PartitionError, match="must be \\(G, K\\)"):
        round_assignment_balanced(np.ones(4), np.ones(4))
    with pytest.raises(PartitionError, match="bias shape"):
        round_assignment_balanced(np.ones((4, 2)), np.ones(3))
    with pytest.raises(PartitionError, match="slack"):
        round_assignment_balanced(np.ones((4, 2)), np.ones(4), slack=-0.1)


def test_balanced_rounding_equals_argmax_with_infinite_budget():
    rng = np.random.default_rng(0)
    w = rng.dirichlet(np.ones(4), size=50)
    labels = round_assignment_balanced(w, np.ones(50), slack=1e9)
    assert np.array_equal(labels, round_assignment(w))


def test_balanced_rounding_bounds_plane_load():
    # Every row prefers plane 0; the budget must spread them out anyway.
    w = np.tile([0.9, 0.05, 0.05], (30, 1))
    bias = np.ones(30)
    labels = round_assignment_balanced(w, bias, slack=0.05)
    loads = np.bincount(labels, weights=bias, minlength=3)
    assert loads.max() <= bias.sum() / 3 * 1.05 + 1.0  # budget + one gate


def test_balanced_rounding_respects_pinned():
    w = np.tile([0.9, 0.1], (6, 1))
    labels = round_assignment_balanced(
        w, np.ones(6), slack=0.5, pinned={0: 1, 5: 1}
    )
    assert labels[0] == 1 and labels[5] == 1


def test_balanced_rounding_is_deterministic():
    rng = np.random.default_rng(3)
    w = rng.dirichlet(np.ones(5), size=80)
    bias = rng.uniform(0.5, 1.5, size=80)
    a = round_assignment_balanced(w, bias, slack=0.02)
    b = round_assignment_balanced(w, bias, slack=0.02)
    assert np.array_equal(a, b)
    assert set(np.unique(a)) <= set(range(5))


# ----------------------------------------------------------------------
# Config plumbing
# ----------------------------------------------------------------------
def test_config_accepts_multilevel_engine():
    config = PartitionConfig(engine="multilevel")
    assert config.multilevel_fine_iterations >= 1
    assert config.multilevel_round_slack >= 0


def test_config_rejects_bad_multilevel_knobs():
    with pytest.raises(PartitionError):
        PartitionConfig(multilevel_fine_iterations=0)
    with pytest.raises(PartitionError):
        PartitionConfig(multilevel_round_slack=-0.5)
    with pytest.raises(PartitionError):
        PartitionConfig(multilevel_round_slack=float("nan"))


# ----------------------------------------------------------------------
# The engine end-to-end: same validity contract as "batched"
# ----------------------------------------------------------------------
def _assert_valid_partition(result, num_planes):
    labels = np.asarray(result.labels)
    assert labels.shape == (result.netlist.num_gates,)
    assert labels.min() >= 0 and labels.max() < num_planes
    assert len(np.unique(labels)) == num_planes  # ensure_nonempty honored
    assert len(result.restart_stats) == result.config.restarts


@pytest.mark.parametrize("num_planes", [2, 3])
def test_multilevel_partition_is_valid(mixed_netlist, num_planes):
    result = partition(mixed_netlist, num_planes, config=ML_CONFIG, seed=5)
    _assert_valid_partition(result, num_planes)
    # The coarse solve actually ran and is reported on the stats.
    assert all("coarse_iterations" in s for s in result.restart_stats)


def test_multilevel_partition_deterministic(mixed_netlist):
    a = partition(mixed_netlist, 3, config=ML_CONFIG, seed=9)
    b = partition(mixed_netlist, 3, config=ML_CONFIG, seed=9)
    assert np.array_equal(a.labels, b.labels)
    assert a.restart_costs == b.restart_costs


def test_multilevel_fine_iterations_capped(mixed_netlist):
    result = partition(mixed_netlist, 3, config=ML_CONFIG, seed=5)
    for stats in result.restart_stats:
        assert stats["iterations"] <= ML_CONFIG.multilevel_fine_iterations


def test_multilevel_small_circuit_falls_back_to_batched(diamond_netlist):
    # 5 gates <= 2x the coarsest floor: the fall-through must reproduce
    # engine="batched" entirely — the relaxed solves bitwise AND the
    # plain argmax rounding (balanced rounding only applies to traces
    # that actually coarsened).
    config = PartitionConfig(restarts=2, max_iterations=100)
    batched = partition(diamond_netlist, 2, config=config.with_(engine="batched"), seed=4)
    multi = partition(diamond_netlist, 2, config=config.with_(engine="multilevel"), seed=4)
    assert np.array_equal(batched.trace.w, multi.trace.w)
    assert np.array_equal(batched.labels, multi.labels)
    assert batched.restart_costs == multi.restart_costs
    _assert_valid_partition(multi, 2)


def test_multilevel_respects_pinned(mixed_netlist):
    pinned = {"a0": 1, "b0": 0}
    result = partition(mixed_netlist, 3, config=ML_CONFIG, seed=5, pinned=pinned)
    assert result.labels[mixed_netlist.gate("a0").index] == 1
    assert result.labels[mixed_netlist.gate("b0").index] == 0


def test_multilevel_quality_not_degenerate(mixed_netlist):
    """The warm start must keep the bias balance the rounding promises."""
    from repro.metrics.report import evaluate_partition

    result = partition(mixed_netlist, 3, config=ML_CONFIG, seed=5)
    report = evaluate_partition(result)
    # slack=0.02 bounds the relative compensation current tightly; leave
    # headroom for the empty-plane repair on this tiny netlist.
    assert report.i_comp_pct < 25.0


# ----------------------------------------------------------------------
# The coarse iteration budget
# ----------------------------------------------------------------------
def _mult8_panel(config=PartitionConfig(engine="multilevel")):
    """MULT8, K=4, seed 1: the multilevel solve of the ledger's panel."""
    from repro.circuits.suite import build_circuit

    return partition(build_circuit("MULT8"), 4, config=config, seed=1)


def test_budget_stops_the_panel_case_limit_cycle_only():
    """Restart 1 cycles with period 2 and stops at the budget; the three
    converging restarts keep their counts."""
    result = _mult8_panel()
    stats = result.restart_stats
    assert [s["coarse_iterations"] for s in stats] == [69, COARSE_ITERATION_BUDGET, 37, 65]
    assert [s["coarse_converged"] for s in stats] == [True, False, True, True]


def test_budget_keeps_the_panel_case_answer(monkeypatch):
    """An even budget stops the period-2 cycle in the phase the old
    2000-iteration cap did, so the answer is bitwise unchanged."""
    budgeted = _mult8_panel()
    monkeypatch.setattr(multilevel, "COARSE_ITERATION_BUDGET", 2000)
    capped = _mult8_panel()
    assert [s["coarse_iterations"] for s in capped.restart_stats] == [69, 2000, 37, 65]
    assert np.array_equal(budgeted.labels, capped.labels)
    assert budgeted.restart_costs == capped.restart_costs


def test_budget_stops_are_counted_only_under_capture():
    from repro import obs
    from repro.obs import OBS

    before = OBS.metrics.as_dict()
    with obs.capture() as scope:
        _mult8_panel()
    counters = scope.metrics.as_dict()
    assert counters["multilevel.coarse_budget_stops"]["value"] == 1
    assert counters["multilevel.coarse_iterations"]["value"] == 171 + COARSE_ITERATION_BUDGET
    assert OBS.metrics.as_dict() == before
    with obs.capture() as scope:
        _mult8_panel(PartitionConfig(engine="multilevel", max_iterations=COARSE_ITERATION_BUDGET))
    # The config's own cap binds: no budget stop to count.
    assert "multilevel.coarse_budget_stops" not in scope.metrics.as_dict()


@pytest.mark.parametrize("engine", ["batched", "multilevel"])
def test_a_slow_batched_solve_still_runs_to_convergence(engine):
    """The budget bounds the coarse solve only: a batched solve (and the
    multilevel fall-through on a small circuit) whose slowest restart
    needs more than the budget converges as before."""
    from repro.circuits.suite import build_circuit

    config = PartitionConfig(engine=engine, margin=1e-7)
    result = partition(build_circuit("KSA4"), 4, config=config, seed=0)
    stats = result.restart_stats
    assert [s["iterations"] for s in stats] == [172, 119, 380, 1901]
    assert max(s["iterations"] for s in stats) > COARSE_ITERATION_BUDGET
    assert all(s["converged"] for s in stats)
    assert "coarse_iterations" not in stats[0]
