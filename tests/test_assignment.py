"""Tests for repro.core.assignment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import assignment
from repro.utils.errors import PartitionError


def test_plane_coefficients_one_based():
    assert assignment.plane_coefficients(4).tolist() == [1.0, 2.0, 3.0, 4.0]


def test_plane_coefficients_invalid():
    with pytest.raises(PartitionError):
        assignment.plane_coefficients(0)


def test_random_assignment_rows_sum_to_one(rng):
    w = assignment.random_assignment(50, 5, rng=rng)
    assert w.shape == (50, 5)
    assert np.allclose(w.sum(axis=1), 1.0)
    assert (w > 0).all() and (w < 1).all()


def test_random_assignment_deterministic_per_seed():
    a = assignment.random_assignment(10, 3, rng=1)
    b = assignment.random_assignment(10, 3, rng=1)
    assert np.allclose(a, b)


def test_random_assignment_validation():
    with pytest.raises(PartitionError):
        assignment.random_assignment(0, 3)
    with pytest.raises(PartitionError):
        assignment.random_assignment(3, 0)


def test_normalize_rows():
    w = np.array([[2.0, 2.0], [1.0, 3.0]])
    normalized = assignment.normalize_rows(w)
    assert np.allclose(normalized, [[0.5, 0.5], [0.25, 0.75]])


def test_normalize_rows_zero_row_becomes_uniform():
    w = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    normalized = assignment.normalize_rows(w)
    assert np.allclose(normalized[0], [1 / 3] * 3)
    assert np.allclose(normalized[1], [1.0, 0.0, 0.0])


def test_normalize_rows_requires_2d():
    with pytest.raises(PartitionError):
        assignment.normalize_rows(np.ones(5))


def test_labels_eq3():
    # eq. (3): l_i = sum_k k * w[i,k] with one-based k
    w = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]])
    labels = assignment.labels_from_assignment(w)
    assert np.allclose(labels, [1.0, 3.0, 1.5])


def test_round_assignment_argmax_and_ties():
    w = np.array([[0.1, 0.7, 0.2], [0.5, 0.5, 0.0], [0.0, 0.2, 0.8]])
    labels = assignment.round_assignment(w)
    # ties break toward the lowest index (paper's argmax semantics)
    assert labels.tolist() == [1, 0, 2]


def test_round_assignment_validation():
    with pytest.raises(PartitionError):
        assignment.round_assignment(np.ones(4))


def test_one_hot_roundtrip():
    labels = np.array([0, 2, 1, 2])
    w = assignment.one_hot(labels, 3)
    assert w.shape == (4, 3)
    assert np.allclose(w.sum(axis=1), 1.0)
    assert (assignment.round_assignment(w) == labels).all()


def test_one_hot_range_check():
    with pytest.raises(PartitionError):
        assignment.one_hot(np.array([0, 3]), 3)


# ----------------------------------------------------------------------
# row_sum: the column-sum helper must be numpy's own reduction, bit for bit
# ----------------------------------------------------------------------
_ROW_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e-300]),
    st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
    st.floats(0.0, 1.0),
)


@st.composite
def _row_stacks(draw):
    num_columns = draw(st.integers(1, 16))
    leading = draw(st.sampled_from([(1,), (3,), (1, 1), (1, 6), (4, 1), (3, 5), (2, 3, 4)]))
    shape = leading + (num_columns,)
    values = draw(st.lists(_ROW_VALUES, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.array(values, dtype=float).reshape(shape)


def _bits(array):
    return np.ascontiguousarray(array, dtype=float).view(np.int64)


@given(w=_row_stacks())
@settings(max_examples=300, deadline=None)
def test_row_sum_is_numpy_reduce_bitwise(w):
    """K = 1..16, R = 1 and G = 1 among the leading shapes, signed zeros,
    subnormals and 1e±300: ``row_sum`` is ``np.add.reduce`` over the last
    axis and ``row_sum / K`` is ``mean``, to the bit.  This pins the one
    numpy-internal assumption — a short-axis reduce (K < 8) adds left to
    right from 0.0 — on whichever numpy is installed."""
    with np.errstate(over="ignore", invalid="ignore"):
        expected_sum = np.add.reduce(w, axis=-1)
        expected_mean = w.mean(axis=-1)
        got = assignment.row_sum(w)
        out = np.full(w.shape[:-1], np.nan)
        into = assignment.row_sum(w, out=out)
        mean = assignment.row_sum(w) / w.shape[-1]
    assert np.array_equal(_bits(got), _bits(expected_sum))
    assert into is out and np.array_equal(_bits(out), _bits(expected_sum))
    assert np.array_equal(_bits(mean), _bits(expected_mean))


def test_normalize_rows_into_buffers_matches_fresh():
    rng = np.random.default_rng(2)
    w = rng.uniform(size=(3, 20, 4))
    w[1, 5] = 0.0  # a zero row takes the general (uniform) branch
    fresh = assignment.normalize_rows(w)
    sums = np.full((3, 20), np.nan)
    inplace = w.copy()
    out = assignment.normalize_rows(inplace, out=inplace, sums=sums)
    assert out is inplace
    assert np.array_equal(_bits(out), _bits(fresh))
    assert np.all(out[1, 5] == 0.25)
