"""Restart independence of the batched solver.

:func:`minimize_assignment_batch` advances ``R`` restarts in lockstep on
one ``(R, G, K)`` stack: it freezes a restart once its margin criterion
fires, compacts the stack to the restarts still live, and reseeds a
poisoned restart from a stream keyed by its restart tag.  None of that
may leak between restarts.  For the same initialization and tag, every
restart of a batch must reproduce *exactly* the trace of a
single-restart solve — the margin stop is a knife-edge ratio
comparison, so even a 1-ulp drift could change the stop iteration.
These tests pin that contract across plane counts, row
renormalization, pinned gates, gradient flavors and poisoned restarts,
and through :func:`partition`'s rounding and scoring.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PartitionConfig
from repro.core.optimizer import minimize_assignment_batch
from repro.core.partitioner import finalize_traces, partition
from repro.utils.rng import make_rng, spawn_rngs


def _random_problem(num_gates, num_planes, num_edges, seed):
    rng = np.random.default_rng(seed)
    edges = []
    while len(edges) < num_edges:
        u, v = rng.integers(0, num_gates, size=2)
        if u != v:
            edges.append((u, v))
    edges = np.array(edges, dtype=np.intp).reshape(-1, 2)
    bias = rng.uniform(0.05, 2.0, size=num_gates)
    area = rng.uniform(10.0, 500.0, size=num_gates)
    return edges, bias, area


def _streams(config):
    # Generators are stateful: every caller spawns its own identical set.
    return spawn_rngs(make_rng(config.seed), config.restarts)


def _solve_each(num_planes, edges, bias, area, config, streams=None, w0=None, pinned=None):
    """The same restarts as a batch, one single-restart call each."""
    count = len(streams) if w0 is None else w0.shape[0]
    return [
        minimize_assignment_batch(
            num_planes, edges, bias, area, config,
            rngs=None if w0 is not None else [streams[r]],
            w0=None if w0 is None else w0[r:r + 1],
            pinned=pinned,
            restart_tags=[r],
        )[0]
        for r in range(count)
    ]


def _assert_traces_equal(single, batched):
    assert single.cost_history == batched.cost_history
    assert single.iterations == batched.iterations
    assert single.converged == batched.converged
    assert np.array_equal(single.w, batched.w)
    assert single.final_terms == batched.final_terms
    assert single.reseeds == batched.reseeds
    assert single.quarantined == batched.quarantined


@pytest.mark.parametrize("num_planes", [2, 5, 8])
@pytest.mark.parametrize("renormalize", [False, True])
def test_batch_matches_single_restarts(num_planes, renormalize):
    edges, bias, area = _random_problem(16, num_planes, 30, seed=num_planes)
    config = PartitionConfig(
        seed=11, restarts=3, max_iterations=200, renormalize_rows=renormalize
    )
    batched = minimize_assignment_batch(
        num_planes, edges, bias, area, config, rngs=_streams(config)
    )
    singles = _solve_each(num_planes, edges, bias, area, config, streams=_streams(config))
    for single, trace in zip(singles, batched):
        _assert_traces_equal(single, trace)


def test_batch_masks_converged_restarts():
    """Restarts stopping at different iterations exercise the masking
    and stack compaction; the frozen ones must not move afterwards."""
    edges, bias, area = _random_problem(24, 4, 50, seed=7)
    config = PartitionConfig(seed=3, restarts=6, max_iterations=400)
    batched = minimize_assignment_batch(4, edges, bias, area, config, rngs=_streams(config))
    assert len({trace.iterations for trace in batched}) > 1
    assert any(trace.converged for trace in batched)
    singles = _solve_each(4, edges, bias, area, config, streams=_streams(config))
    for single, trace in zip(singles, batched):
        _assert_traces_equal(single, trace)


def test_batch_matches_single_restarts_with_pinned():
    num_planes = 4
    edges, bias, area = _random_problem(14, num_planes, 25, seed=99)
    pinned = {0: 2, 5: 0, 13: 3}
    config = PartitionConfig(seed=3, restarts=3, max_iterations=150)
    batched = minimize_assignment_batch(
        num_planes, edges, bias, area, config, pinned=pinned, rngs=_streams(config)
    )
    singles = _solve_each(
        num_planes, edges, bias, area, config, streams=_streams(config), pinned=pinned
    )
    for single, trace in zip(singles, batched):
        _assert_traces_equal(single, trace)
        for gate, plane in pinned.items():
            assert trace.w[gate, plane] == 1.0
            assert trace.w[gate].sum() == 1.0


@pytest.mark.parametrize("mode", ["paper", "exact"])
def test_batch_matches_single_restarts_across_gradient_modes(mixed_netlist, mode):
    edges = mixed_netlist.edge_array()
    bias = mixed_netlist.bias_vector_ma()
    area = mixed_netlist.area_vector_um2()
    config = PartitionConfig(seed=42, restarts=3, max_iterations=200, gradient_mode=mode)
    batched = minimize_assignment_batch(3, edges, bias, area, config, rngs=_streams(config))
    singles = _solve_each(3, edges, bias, area, config, streams=_streams(config))
    for single, trace in zip(singles, batched):
        _assert_traces_equal(single, trace)


def test_poisoned_restart_reseeds_as_if_alone():
    """A NaN start reseeds from its tag's stream, in a batch or alone."""
    edges, bias, area = _random_problem(16, 3, 30, seed=4)
    rng = np.random.default_rng(0)
    stack = rng.random((3, 16, 3))
    stack /= stack.sum(axis=2, keepdims=True)
    stack[1, 0, 0] = np.nan
    config = PartitionConfig(max_iterations=150)
    batched = minimize_assignment_batch(3, edges, bias, area, config, w0=stack)
    assert [trace.reseeds for trace in batched] == [0, 1, 0]
    singles = _solve_each(3, edges, bias, area, config, w0=stack)
    for single, trace in zip(singles, batched):
        _assert_traces_equal(single, trace)


def _partition_from_single_solves(netlist, num_planes, config, pinned=None):
    """What :func:`partition` returns, assembled from one solve per restart."""
    edges = netlist.edge_array()
    bias = netlist.bias_vector_ma()
    area = netlist.area_vector_um2()
    pinned = dict(pinned or {})
    traces = _solve_each(
        num_planes, edges, bias, area, config, streams=_streams(config), pinned=pinned
    )
    return finalize_traces(netlist, num_planes, config, traces, pinned, edges, bias, area)


@pytest.mark.parametrize("num_planes", [2, 5, 8])
def test_partition_matches_single_restart_solves(mixed_netlist, num_planes):
    config = PartitionConfig(seed=2020, restarts=4, max_iterations=300)
    single = _partition_from_single_solves(mixed_netlist, num_planes, config)
    batched = partition(mixed_netlist, num_planes, config=config)
    assert np.array_equal(single.labels, batched.labels)
    assert single.restart_costs == batched.restart_costs
    assert single.restart_stats == batched.restart_stats
    assert single.trace.cost_history == batched.trace.cost_history
    assert single.repaired_gates == batched.repaired_gates


def test_partition_matches_single_restart_solves_with_pinned(mixed_netlist):
    config = PartitionConfig(seed=5, restarts=3, max_iterations=200)
    pinned = {0: 1, 3: 0}
    single = _partition_from_single_solves(mixed_netlist, 4, config, pinned=pinned)
    batched = partition(mixed_netlist, 4, config=config, pinned=pinned)
    assert np.array_equal(single.labels, batched.labels)
    assert single.restart_costs == batched.restart_costs
    for gate, plane in pinned.items():
        assert batched.labels[gate] == plane


@given(
    num_gates=st.integers(4, 18),
    num_planes=st.integers(2, 6),
    seed=st.integers(0, 2**31 - 1),
    renormalize=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_restart_independence_property(num_gates, num_planes, seed, renormalize):
    """Random problems: every restart of a batch equals its solo solve."""
    if num_planes > num_gates:
        num_planes = num_gates
    edges, bias, area = _random_problem(num_gates, num_planes, 2 * num_gates, seed)
    config = PartitionConfig(
        seed=seed % 1000, restarts=3, max_iterations=60, renormalize_rows=renormalize
    )
    batched = minimize_assignment_batch(
        num_planes, edges, bias, area, config, rngs=_streams(config)
    )
    singles = _solve_each(num_planes, edges, bias, area, config, streams=_streams(config))
    for single, trace in zip(singles, batched):
        _assert_traces_equal(single, trace)
