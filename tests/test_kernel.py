"""Tests for repro.core.kernel — the fused batched cost/gradient kernel.

Covers the signed edge-incidence segment-sum, the kernel against the
per-term reference of :mod:`repro.core.cost` /
:mod:`repro.core.gradients`, batch-slice bitwise independence, and the
per-kernel workspace: reusing it across calls and batch sizes changes
no bit, and nothing handed to a caller is overwritten by a later call.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import assignment, cost, gradients
from repro.core.config import PartitionConfig
from repro.core.kernel import EdgeIncidence, FusedKernel
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


def _add_at_reference(values, edges, num_gates):
    """Two ``np.add.at`` scatters per batch row: +values at u, -values at v."""
    expected = np.zeros(values.shape[:-1] + (num_gates,))
    for index in np.ndindex(values.shape[:-1]):
        np.add.at(expected[index], edges[:, 0], values[index])
        np.add.at(expected[index], edges[:, 1], -values[index])
    return expected


@pytest.mark.parametrize("isolated", [False, True])
def test_scatter_signed_into_buffers_matches_two_add_at(isolated):
    """Batched scatter into dirty preallocated buffers.

    Integer-valued summands add exactly in any order, so the two
    ``np.add.at`` scatters are a bitwise reference for which edge lands
    on which gate with which sign; ``out`` starts as NaN and must be
    overwritten entirely, including the zero rows of gates that no edge
    touches.
    """
    rng = np.random.default_rng(4)
    num_gates = 30
    edges = rng.integers(0, 25 if isolated else num_gates, size=(80, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    incidence = EdgeIncidence(edges, num_gates)
    values = rng.integers(-50, 50, size=(3, edges.shape[0])).astype(float)
    out = np.full((3, num_gates), np.nan)
    gathered = np.full((3, 2 * edges.shape[0]), np.nan)
    result = incidence.scatter_signed(values, out=out, gathered=gathered)
    assert result is out
    assert np.array_equal(out, _add_at_reference(values, edges, num_gates))
    if isolated:
        assert np.all(out[:, 25:] == 0.0)


def test_scatter_signed_no_edges():
    incidence = EdgeIncidence(np.zeros((0, 2), dtype=np.intp), 4)
    out = incidence.scatter_signed(np.zeros(0))
    assert np.array_equal(out, np.zeros(4))
    dirty = np.full((2, 4), np.nan)
    assert np.array_equal(incidence.scatter_signed(np.zeros((2, 0)), out=dirty), np.zeros((2, 4)))


def test_edge_incidence_rejects_out_of_range():
    with pytest.raises(PartitionError, match="out of range"):
        EdgeIncidence(np.array([[0, 7]]), 3)


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


# ----------------------------------------------------------------------
# The per-kernel workspace
# ----------------------------------------------------------------------
def _bits(array):
    return np.ascontiguousarray(array).view(np.int64)


def _evaluate(kernel, w, config=CONFIG, want_gradient=True):
    terms, gradient = kernel.cost_and_gradient(w, config, want_gradient=want_gradient)
    fields = [getattr(terms, name).copy() for name in ("f1", "f2", "f3", "f4", "total")]
    return fields, None if gradient is None else gradient.copy()


@pytest.mark.parametrize("num_planes", [2, 4, 5, 9])
def test_workspace_reuse_across_batch_sizes_is_bitwise(num_planes):
    """w1, a smaller-R w2 (and a cost-only call), then w1 again on one
    kernel give bitwise what a fresh kernel gives for w1."""
    _, edges, bias, area = _problem(num_gates=40, num_edges=70)
    rng = np.random.default_rng(num_planes)
    w1 = rng.dirichlet(np.ones(num_planes), size=(5, bias.size))
    w2 = rng.dirichlet(np.ones(num_planes), size=(2, bias.size))
    fresh_fields, fresh_gradient = _evaluate(FusedKernel(num_planes, edges, bias, area), w1)
    kernel = FusedKernel(num_planes, edges, bias, area)
    _evaluate(kernel, w1)
    _evaluate(kernel, w2)
    _evaluate(kernel, w2[0], config=CONFIG.with_(gradient_mode="exact"), want_gradient=False)
    fields, gradient = _evaluate(kernel, w1)
    for got, want in zip(fields, fresh_fields):
        assert np.array_equal(_bits(got), _bits(want))
    assert np.array_equal(_bits(gradient), _bits(fresh_gradient))


def test_returned_gradient_and_terms_survive_the_next_call():
    w, edges, bias, area = _problem()
    kernel = FusedKernel(w.shape[1], edges, bias, area)
    terms, gradient = kernel.cost_and_gradient(w, CONFIG)
    kept_total, kept_f1, kept_gradient = terms.total.copy(), terms.f1.copy(), gradient.copy()
    other = np.random.default_rng(1).dirichlet(np.ones(w.shape[1]), size=(1, w.shape[0]))
    other_terms, other_gradient = kernel.cost_and_gradient(other, CONFIG)
    assert other_gradient is not gradient
    assert not np.shares_memory(other_gradient, gradient)
    assert np.array_equal(gradient, kept_gradient)
    assert np.array_equal(terms.total, kept_total)
    assert np.array_equal(terms.f1, kept_f1)
    assert not np.array_equal(other_terms.total, kept_total)


def test_gradient_written_into_out_buffer():
    w, edges, bias, area = _problem()
    kernel = FusedKernel(w.shape[1], edges, bias, area)
    _, expected = kernel.cost_and_gradient(w, CONFIG)
    out = np.full((1,) + w.shape, np.nan)
    _, gradient = kernel.cost_and_gradient(w, CONFIG, out=out)
    assert gradient is out
    assert np.array_equal(out, expected)
    with pytest.raises(PartitionError, match="out must have shape"):
        kernel.cost_and_gradient(w, CONFIG, out=np.empty((2,) + w.shape))


# ----------------------------------------------------------------------
# F2/F3 on one stacked (2, R, K) buffer: degenerate means
# ----------------------------------------------------------------------
def _degenerate_case(case):
    """A 3-restart problem whose F2 and/or F3 mean per-plane sum is 0.

    ``bias``/``area`` zero the whole vector for every restart;
    ``one-restart`` leaves the bias nonzero on gate 0 only and empties
    gate 0's row in restart 1, so only that restart's F2 is degenerate.
    """
    _, edges, bias, area = _problem(num_gates=10, num_edges=16, seed=11)
    w = np.random.default_rng(12).dirichlet(np.ones(4), size=(3, bias.size))
    if case == "bias":
        bias = np.zeros_like(bias)
    elif case == "area":
        area = np.zeros_like(area)
    else:
        bias = np.zeros_like(bias)
        bias[0] = 0.7
        w[1, 0, :] = 0.0
    return w, edges, bias, area


@pytest.mark.parametrize("case", ["bias", "area", "one-restart"])
@pytest.mark.parametrize("mode", ["paper", "exact"])
def test_fused_variance_terms_with_degenerate_mean(case, mode):
    """F2's mean degenerate while F3's is not, the reverse, and a batch
    where only one restart's F2 is degenerate: terms and gradient match
    the per-term oracle, and each restart's batched evaluation is bitwise
    its 1-restart evaluation."""
    w, edges, bias, area = _degenerate_case(case)
    config = PartitionConfig(c1=2.0, c2=3.0, c3=5.0, c4=7.0, gradient_mode=mode)
    kernel = FusedKernel(w.shape[2], edges, bias, area)
    terms, gradient = kernel.cost_and_gradient(w, config)
    degenerate = {"bias": [0, 1, 2], "area": [0, 1, 2], "one-restart": [1]}[case]
    for r in range(w.shape[0]):
        reference = cost.cost_terms(w[r], edges, bias, area, config)
        for name in ("f1", "f2", "f3", "f4", "total"):
            np.testing.assert_allclose(
                getattr(terms, name)[r], getattr(reference, name), rtol=RTOL, atol=0.0
            )
        zero_term = terms.f3[r] if case == "area" else terms.f2[r]
        assert (zero_term == 0.0) == (r in degenerate)
        expected = gradients.cost_gradient(w[r], edges, bias, area, config)
        scale = np.abs(expected).max()
        np.testing.assert_allclose(gradient[r], expected, rtol=RTOL, atol=RTOL * scale)

        single_terms, single_gradient = FusedKernel(
            w.shape[2], edges, bias, area
        ).cost_and_gradient(w[r], config)
        for name in ("f1", "f2", "f3", "f4", "total"):
            assert _bits(getattr(single_terms, name))[0] == _bits(getattr(terms, name))[r]
        assert np.array_equal(_bits(single_gradient[0]), _bits(gradient[r]))
