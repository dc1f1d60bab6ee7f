"""Tests for repro.core.optimizer — Algorithm 1."""

import numpy as np
import pytest

from repro.core.assignment import random_assignment
from repro.core.config import PartitionConfig
from repro.core.cost import CostTerms, cost_terms
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


def _traces_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x.w, y.w)
        assert x.cost_history == y.cost_history
        assert (x.iterations, x.converged, x.reseeds, x.quarantined) == (
            y.iterations, y.converged, y.reseeds, y.quarantined
        )
        assert x.final_terms == y.final_terms


def test_back_to_back_batches_return_equal_traces():
    edges, bias, area = _problem()
    config = PartitionConfig(max_iterations=300)
    first = minimize_assignment_batch(4, edges, bias, area, config, rngs=3, restarts=4)
    second = minimize_assignment_batch(4, edges, bias, area, config, rngs=3, restarts=4)
    _traces_equal(first, second)
    assert all(isinstance(c, float) for t in first for c in t.cost_history)
    assert all(isinstance(t.iterations, int) for t in first)
    assert all(len(t.cost_history) == t.iterations + t.converged for t in first)


def test_trace_w_is_owned_by_its_trace():
    """The descent reuses its state buffers; no returned ``w`` may alias
    another trace's (or a buffer a later solve writes into)."""
    edges, bias, area = _problem()
    config = PartitionConfig(max_iterations=40)
    traces = minimize_assignment_batch(4, edges, bias, area, config, rngs=5, restarts=3)
    kept = [t.w.copy() for t in traces]
    traces[0].w[:] = -1.0
    for trace, w in zip(traces[1:], kept[1:]):
        assert np.array_equal(trace.w, w)
    later = minimize_assignment_batch(4, edges, bias, area, config, rngs=6, restarts=3)
    for trace, w in zip(traces[1:], kept[1:]):
        assert np.array_equal(trace.w, w)
    for a in traces:
        for b in later:
            assert not np.shares_memory(a.w, b.w)


def test_concurrent_solves_match_sequential():
    """Each solve owns its workspace and state buffers, so solves running
    in threads at once (as the service's inline workers do) return what
    they return one at a time."""
    import sys
    import threading

    edges, bias, area = _problem(num_gates=60)
    config = PartitionConfig(max_iterations=150)
    seeds = list(range(6))
    expected = [
        minimize_assignment_batch(4, edges, bias, area, config, rngs=s, restarts=3)
        for s in seeds
    ]
    results = [None] * len(seeds)

    def solve(i):
        results[i] = minimize_assignment_batch(
            4, edges, bias, area, config, rngs=seeds[i], restarts=3
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=solve, args=(i,)) for i in range(len(seeds))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(results, expected):
        _traces_equal(got, want)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cost_reaching_exactly_zero_stops_on_the_next_zero():
    """A huge step on one edge drives both rows uniform, where every
    term is exactly 0.0.  The stop rule's ``old == 0 and new == 0``
    case ends the descent on the second 0.0 (the ratio test cannot
    divide by a zero ``cost_old``), with no floating-point warning.
    The stop iterations are pinned exactly."""
    edges = np.array([[0, 1]])
    bias = np.array([0.5, 1.5])
    area = np.array([100.0, 300.0])
    config = PartitionConfig(learning_rate=1e6, restarts=3)
    w0 = np.array([[[0.9, 0.1], [0.2, 0.8]], [[0.5, 0.5], [0.5, 0.5]]])
    traces = minimize_assignment_batch(2, edges, bias, area, config, rngs=4)
    traces += minimize_assignment_batch(2, edges, bias, area, config, w0=w0)
    assert [t.iterations for t in traces] == [3, 3, 2, 2, 1]
    for trace in traces:
        assert trace.converged
        assert trace.cost_history[-2:] == [0.0, 0.0]
        assert len(trace.cost_history) == trace.iterations + 1
        assert all(cost != 0.0 for cost in trace.cost_history[:-2])
        assert trace.final_terms == CostTerms(0.0, 0.0, 0.0, 0.0, 0.0)
        assert np.array_equal(trace.w, np.full((2, 2), 0.5))


#: Python-level calls the descent loop and the kernel make per plain
#: iteration: ``_evaluate``, ``row_sum`` three times (row means, the F4
#: row variance, the step's row normalization), ``scatter_signed`` and
#: the ``_clip`` behind ``ndarray.clip``.
CALL_BUDGET = 6


def test_descent_iteration_python_call_budget():
    """Count, with ``sys.setprofile``, the Python-level calls made from
    repro code per kernel evaluation inside ``_descend_batch`` on a
    finite KSA16 K=4 solve.  Calls numpy's own Python code makes are
    not counted, so the budget does not depend on the numpy version;
    a numpy wrapper (``np.take``, ``ndarray.mean``, ``np.where``...)
    called from the loop or the kernel counts once."""
    import os
    import statistics
    import sys

    import repro
    from repro.circuits.suite import build_circuit
    from repro.core import optimizer
    from repro.core.kernel import FusedKernel

    netlist = build_circuit("KSA16")
    package = os.path.dirname(repro.__file__)
    loop, evaluate = optimizer._descend_batch.__code__, FusedKernel._evaluate.__code__
    counts = []
    inside = False

    def profile(frame, event, arg):
        nonlocal inside
        if event != "call":
            return
        if frame.f_code is loop:
            inside = True
            return
        if not inside:
            return
        if frame.f_code is evaluate:
            counts.append(0)
        caller = frame.f_back
        if counts and caller is not None and caller.f_code.co_filename.startswith(package):
            counts[-1] += 1

    sys.setprofile(profile)
    try:
        traces = minimize_assignment_batch(
            4, netlist.edge_array(), netlist.bias_vector_ma(), netlist.area_vector_um2(),
            PartitionConfig(), rngs=2020,
        )
    finally:
        sys.setprofile(None)
    assert all(t.reseeds == 0 and not t.quarantined for t in traces)
    assert len(counts) == max(t.iterations + t.converged for t in traces)
    # Iterations that drop a converged restart, and the bookkeeping after
    # the loop (counted with the last evaluation), make a few more.
    assert statistics.median(counts) <= CALL_BUDGET
    assert sum(counts) / len(counts) <= CALL_BUDGET + 0.5
