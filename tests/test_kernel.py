"""Tests for repro.core.kernel — the fused batched cost/gradient kernel.

Covers the signed edge-incidence segment-sum and its dense/sparse
variants (bitwise identity, automatic threshold selection), the kernel
against the per-term reference of :mod:`repro.core.cost` /
:mod:`repro.core.gradients`, and batch-slice bitwise independence.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import assignment, cost, gradients
from repro.core.config import PartitionConfig
from repro.core.kernel import (
    SPARSE_INCIDENCE_THRESHOLD,
    EdgeIncidence,
    FusedKernel,
    SparseEdgeIncidence,
    build_incidence,
)
from repro.utils.errors import PartitionError

CONFIG = PartitionConfig(c1=1.0, c2=1.0, c3=1.0, c4=1.0)


def _problem(num_gates=12, num_planes=4, num_edges=20, seed=5):
    rng = np.random.default_rng(seed)
    edges = []
    while len(edges) < num_edges:
        u, v = rng.integers(0, num_gates, size=2)
        if u != v:
            edges.append((u, v))
    edges = np.array(edges, dtype=np.intp)
    bias = rng.uniform(0.05, 2.0, size=num_gates)
    area = rng.uniform(10.0, 500.0, size=num_gates)
    w = assignment.random_assignment(num_gates, num_planes, rng=rng)
    return w, edges, bias, area


# ----------------------------------------------------------------------
# EdgeIncidence
# ----------------------------------------------------------------------
def test_scatter_signed_matches_add_at():
    rng = np.random.default_rng(0)
    num_gates, num_edges = 9, 25
    edges = rng.integers(0, num_gates, size=(num_edges, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    incidence = EdgeIncidence(edges, num_gates)
    values = rng.normal(size=edges.shape[0])
    expected = np.zeros(num_gates)
    np.add.at(expected, edges[:, 0], values)
    np.add.at(expected, edges[:, 1], -values)
    assert np.allclose(incidence.scatter_signed(values), expected)


def test_scatter_signed_batched_matches_rows():
    rng = np.random.default_rng(1)
    edges = np.array([[0, 1], [1, 2], [2, 0], [3, 1]])
    incidence = EdgeIncidence(edges, 5)
    values = rng.normal(size=(4, edges.shape[0]))
    batched = incidence.scatter_signed(values)
    for r in range(values.shape[0]):
        assert np.array_equal(batched[r], incidence.scatter_signed(values[r]))


def test_scatter_signed_no_edges():
    incidence = EdgeIncidence(np.zeros((0, 2), dtype=np.intp), 4)
    out = incidence.scatter_signed(np.zeros(0))
    assert np.array_equal(out, np.zeros(4))


def test_edge_incidence_rejects_out_of_range():
    with pytest.raises(PartitionError, match="out of range"):
        EdgeIncidence(np.array([[0, 7]]), 3)


# ----------------------------------------------------------------------
# Dense vs sparse EdgeIncidence
# ----------------------------------------------------------------------
def _random_edges(num_gates, num_edges, seed):
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, num_gates, size=(num_edges * 2, 2))
    edges = edges[edges[:, 0] != edges[:, 1]][:num_edges]
    return np.ascontiguousarray(edges)


@pytest.mark.parametrize("batch_shape", [(), (1,), (7,), (3, 4)])
def test_sparse_incidence_bitwise_matches_dense(batch_shape):
    edges = _random_edges(50, 120, seed=2)
    dense = EdgeIncidence(edges, 50)
    sparse = SparseEdgeIncidence(edges, 50)
    values = np.random.default_rng(3).normal(size=batch_shape + (edges.shape[0],))
    assert np.array_equal(
        dense.scatter_signed(values), sparse.scatter_signed(values)
    )


def test_sparse_incidence_no_edges():
    sparse = SparseEdgeIncidence(np.zeros((0, 2), dtype=np.intp), 4)
    assert np.array_equal(sparse.scatter_signed(np.zeros(0)), np.zeros(4))


def test_build_incidence_threshold_selection():
    edges = np.array([[0, 1], [1, 2]], dtype=np.intp)
    assert build_incidence(edges, 10).variant == "dense"
    assert build_incidence(edges, 10, sparse=True).variant == "sparse"
    assert build_incidence(edges, 10, sparse=False).variant == "dense"
    big = SPARSE_INCIDENCE_THRESHOLD + 1
    assert build_incidence(edges, big).variant == "sparse"
    assert build_incidence(edges, SPARSE_INCIDENCE_THRESHOLD).variant == "dense"


def test_fused_kernel_sparse_bitwise_identical():
    rng = np.random.default_rng(9)
    num_gates, num_planes = 40, 4
    edges = _random_edges(num_gates, 90, seed=11)
    bias = rng.uniform(0.05, 2.0, size=num_gates)
    area = rng.uniform(10.0, 500.0, size=num_gates)
    w = rng.dirichlet(np.ones(num_planes), size=(5, num_gates))
    config = PartitionConfig()
    dense_k = FusedKernel(num_planes, edges, bias, area, sparse=False)
    sparse_k = FusedKernel(num_planes, edges, bias, area, sparse=True)
    assert dense_k.incidence.variant == "dense"
    assert sparse_k.incidence.variant == "sparse"
    dense_terms, dense_grad = dense_k.cost_and_gradient(w, config)
    sparse_terms, sparse_grad = sparse_k.cost_and_gradient(w, config)
    for name in ("f1", "f2", "f3", "f4", "total"):
        assert np.array_equal(
            getattr(dense_terms, name), getattr(sparse_terms, name)
        )
    assert np.array_equal(dense_grad, sparse_grad)


def test_partition_sparse_matches_dense_end_to_end(
    mixed_netlist, fast_config, monkeypatch
):
    """A full solve above the sparse threshold lands on identical labels.

    Lowering the threshold makes the 40-gate fixture take the sparse
    incidence path inside :func:`minimize_assignment_batch`; the result
    must be bitwise the dense run's.
    """
    from repro.core import kernel as kernel_mod
    from repro.core.partitioner import partition

    dense = partition(mixed_netlist, 3, config=fast_config, seed=5)
    monkeypatch.setattr(kernel_mod, "SPARSE_INCIDENCE_THRESHOLD", 1)
    sparse = partition(mixed_netlist, 3, config=fast_config, seed=5)
    assert np.array_equal(dense.trace.w, sparse.trace.w)
    assert np.array_equal(dense.labels, sparse.labels)
    assert dense.restart_costs == sparse.restart_costs


# ----------------------------------------------------------------------
# FusedKernel vs. the per-term reference (cost_terms / cost_gradient)
# ----------------------------------------------------------------------
#: Reassociation bound of the kernel against the per-term reference.
#: The kernel folds the four weighted terms into one gemm and computes
#: the F4 row variance as E[w^2] - mean^2, so its floats differ from the
#: reference's only in the order of additions.  Cost terms agree to
#: RTOL relative to each term.  A gradient entry can be a near-total
#: cancellation of the four terms, so the gradient bound is RTOL
#: relative to the gradient's largest entry.
RTOL = 1e-12


@pytest.mark.parametrize("num_planes", [2, 3, 5])
def test_kernel_cost_matches_reference_terms(num_planes):
    w, edges, bias, area = _problem(num_planes=num_planes)
    kernel = FusedKernel(num_planes, edges, bias, area)
    terms, _ = kernel.cost_and_gradient(w, CONFIG, want_gradient=False)
    reference = (
        cost.interconnection_cost(w, edges),
        cost.bias_cost(w, bias),
        cost.area_cost(w, area),
        cost.constraint_cost(w),
    )
    actual = (terms.f1[0], terms.f2[0], terms.f3[0], terms.f4[0])
    np.testing.assert_allclose(actual, reference, rtol=RTOL, atol=0.0)


@pytest.mark.parametrize("mode", ["paper", "exact"])
def test_kernel_gradient_matches_reference_sum(mode):
    w, edges, bias, area = _problem()
    config = PartitionConfig(c1=2.0, c2=3.0, c3=5.0, c4=7.0, gradient_mode=mode)
    kernel = FusedKernel(w.shape[1], edges, bias, area)
    _, gradient = kernel.cost_and_gradient(w, config)
    expected = 2.0 * gradients.grad_interconnection(w, edges)
    expected += 3.0 * gradients.grad_bias(w, bias)
    expected += 5.0 * gradients.grad_area(w, area)
    if mode == "paper":
        expected += 7.0 * gradients.grad_constraint_paper(w)
    else:
        expected += 7.0 * gradients.grad_constraint_exact(w)
    scale = np.abs(expected).max()
    np.testing.assert_allclose(gradient[0], expected, rtol=RTOL, atol=RTOL * scale)


@st.composite
def _kernel_problems(draw):
    num_gates = draw(st.integers(1, 12))
    num_planes = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    num_edges = 0 if num_gates == 1 else draw(st.integers(0, 3 * num_gates))
    edges = rng.integers(0, num_gates, size=(num_edges, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    zero_bias = draw(st.booleans())
    bias = np.zeros(num_gates) if zero_bias else rng.uniform(0.05, 2.0, num_gates)
    area = rng.uniform(10.0, 500.0, num_gates)
    num_restarts = draw(st.integers(1, 3))
    w = rng.uniform(0.0, 1.0, size=(num_restarts, num_gates, num_planes))
    pinned = draw(st.lists(st.integers(0, num_gates - 1), unique=True, max_size=3))
    for gate in pinned:
        w[:, gate, :] = 0.0
        w[:, gate, rng.integers(num_planes)] = 1.0
    weights = draw(st.tuples(*[st.one_of(st.just(0.0), st.floats(0.01, 100.0))] * 4))
    mode = draw(st.sampled_from(["paper", "exact"]))
    config = PartitionConfig(
        c1=weights[0], c2=weights[1], c3=weights[2], c4=weights[3], gradient_mode=mode
    )
    return w, edges, bias, area, config


@given(problem=_kernel_problems())
@settings(max_examples=80, deadline=None)
def test_kernel_matches_reference_property(problem):
    """K = 1..8, edgeless graphs, zero-bias circuits and pinned rows."""
    w, edges, bias, area, config = problem
    kernel = FusedKernel(w.shape[2], edges, bias, area)
    terms, gradient = kernel.cost_and_gradient(w, config)
    for r in range(w.shape[0]):
        reference = cost.cost_terms(w[r], edges, bias, area, config)
        for name in ("f1", "f2", "f3", "f4", "total"):
            np.testing.assert_allclose(
                getattr(terms, name)[r], getattr(reference, name), rtol=RTOL, atol=0.0
            )
        expected = gradients.cost_gradient(w[r], edges, bias, area, config)
        scale = np.abs(expected).max() if expected.size else 0.0
        np.testing.assert_allclose(gradient[r], expected, rtol=RTOL, atol=RTOL * scale)


def test_batched_slices_bitwise_equal_single():
    """The engine-equivalence cornerstone: each batch slice must equal a
    single-restart evaluation bit for bit."""
    _, edges, bias, area = _problem()
    rng = np.random.default_rng(9)
    num_planes = 4
    stack = np.stack(
        [assignment.random_assignment(bias.size, num_planes, rng=rng) for _ in range(6)]
    )
    kernel = FusedKernel(num_planes, edges, bias, area)
    terms, gradient = kernel.cost_and_gradient(stack, CONFIG)
    for r in range(stack.shape[0]):
        terms_r, grad_r = kernel.cost_and_gradient(stack[r], CONFIG)
        assert terms.total[r] == terms_r.total[0]
        assert terms.f1[r] == terms_r.f1[0]
        assert terms.f4[r] == terms_r.f4[0]
        assert np.array_equal(gradient[r], grad_r[0])


def test_kernel_single_plane_all_zero():
    w = np.ones((5, 1))
    kernel = FusedKernel(1, np.array([[0, 1]]), np.ones(5), np.ones(5))
    terms, gradient = kernel.cost_and_gradient(w, CONFIG)
    assert terms.total[0] == 0.0
    assert np.array_equal(gradient, np.zeros((1, 5, 1)))


def test_kernel_no_edges_f1_zero():
    rng = np.random.default_rng(3)
    w = assignment.random_assignment(6, 3, rng=rng)
    kernel = FusedKernel(3, np.zeros((0, 2), dtype=np.intp), np.ones(6), np.ones(6))
    terms, gradient = kernel.cost_and_gradient(w, CONFIG)
    assert terms.f1[0] == 0.0
    assert gradient.shape == (1, 6, 3)


def test_kernel_zero_bias_degenerate_term():
    rng = np.random.default_rng(4)
    w = assignment.random_assignment(6, 3, rng=rng)
    kernel = FusedKernel(3, np.array([[0, 1]]), np.zeros(6), np.ones(6))
    terms, gradient = kernel.cost_and_gradient(w, CONFIG)
    assert terms.f2[0] == 0.0
    assert np.isfinite(gradient).all()


def test_kernel_want_gradient_false():
    w, edges, bias, area = _problem()
    kernel = FusedKernel(w.shape[1], edges, bias, area)
    terms, gradient = kernel.cost_and_gradient(w, CONFIG, want_gradient=False)
    assert gradient is None
    assert np.isfinite(terms.total).all()


def test_kernel_validation_errors():
    with pytest.raises(PartitionError, match="num_planes"):
        FusedKernel(0, np.zeros((0, 2), dtype=np.intp), np.ones(3), np.ones(3))
    with pytest.raises(PartitionError, match="bias/area"):
        FusedKernel(2, np.zeros((0, 2), dtype=np.intp), np.ones(3), np.ones(4))
    kernel = FusedKernel(2, np.zeros((0, 2), dtype=np.intp), np.ones(3), np.ones(3))
    with pytest.raises(PartitionError, match="w must have shape"):
        kernel.cost_and_gradient(np.ones((4, 2)), CONFIG)
    with pytest.raises(PartitionError, match="w must have shape"):
        kernel.cost_and_gradient(np.ones(3), CONFIG)


def test_batched_terms_term_materializes_scalars():
    w, edges, bias, area = _problem()
    kernel = FusedKernel(w.shape[1], edges, bias, area)
    terms, _ = kernel.cost_and_gradient(w, CONFIG, want_gradient=False)
    scalar = terms.term(0)
    assert isinstance(scalar.total, float)
    assert scalar.total == float(terms.total[0])
