"""Cost function of the paper (eqs. (4)-(9)).

All four terms operate on the relaxed assignment matrix ``w`` of shape
``(G, K)``:

* ``F1`` (eq. (4)) — quartic inter-plane connection cost over the relaxed
  labels ``l_i``; normalization ``N1 = |E| (K-1)^4``.
* ``F2`` (eq. (5)) — variance of per-plane bias current ``B_k = b @ w``;
  normalization ``N2 = (K-1) * Bbar^2``.
* ``F3`` (eq. (6)) — variance of per-plane area, same shape as F2.
* ``F4`` (eq. (9)) — relaxed replacement of the integer constraints:
  ``sum_i [(K*wbar_i - 1)^2 - (1/K) sum_k (w_ik - wbar_i)^2]``.
  Eq. (9) defines ``N4 = G (K-1)^2`` but omits it from the printed F4
  expression while the gradient (eq. (10)) includes ``1/N4``; we include
  ``1/N4`` in the cost so cost and gradient are consistent (documented
  deviation, see DESIGN.md).

Degenerate normalizations are handled explicitly: for ``K == 1`` all
normalizers vanish and every term is defined as 0 (a single plane has no
inter-plane cost and no imbalance); a circuit with no connections has
``F1 = 0``; a zero-bias or zero-area circuit has ``F2``/``F3`` = 0.
"""

from dataclasses import dataclass

import numpy as np

from repro.core.assignment import labels_from_assignment, one_hot
from repro.utils.errors import PartitionError


@dataclass(frozen=True)
class CostTerms:
    """The four cost terms plus their weighted total."""

    f1: float
    f2: float
    f3: float
    f4: float
    total: float

    def as_dict(self):
        return {"f1": self.f1, "f2": self.f2, "f3": self.f3, "f4": self.f4, "total": self.total}


def _check_inputs(w, edges, bias, area):
    w = np.asarray(w, dtype=float)
    if w.ndim != 2:
        raise PartitionError(f"w must be (G, K), got shape {w.shape}")
    num_gates = w.shape[0]
    edges = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= num_gates):
        raise PartitionError("edge endpoints out of range")
    bias = np.asarray(bias, dtype=float)
    area = np.asarray(area, dtype=float)
    if bias.shape != (num_gates,) or area.shape != (num_gates,):
        raise PartitionError(
            f"bias/area must have shape ({num_gates},), got {bias.shape} and {area.shape}"
        )
    return w, edges, bias, area


def interconnection_cost(w, edges):
    """F1 of eq. (4): normalized quartic label-distance over connections."""
    w = np.asarray(w, dtype=float)
    edges = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    num_planes = w.shape[1]
    if edges.shape[0] == 0 or num_planes == 1:
        return 0.0
    labels = labels_from_assignment(w)
    diff = labels[edges[:, 0]] - labels[edges[:, 1]]
    # Explicit squares instead of ``diff**4``: numpy's pow loop calls
    # libm per element, an order of magnitude slower.
    diff_sq = diff * diff
    n1 = edges.shape[0] * (num_planes - 1) ** 4
    return float(np.sum(diff_sq * diff_sq) / n1)


def _variance_cost(w, weights_per_gate):
    """Shared implementation of F2 (bias) and F3 (area)."""
    num_planes = w.shape[1]
    if num_planes == 1:
        return 0.0
    per_plane = weights_per_gate @ w
    mean = per_plane.mean()
    if mean == 0.0:
        return 0.0
    variance = np.mean((per_plane - mean) ** 2)
    normalizer = (num_planes - 1) * mean**2
    return float(variance / normalizer)


def bias_cost(w, bias):
    """F2 of eq. (5): normalized variance of per-plane bias current."""
    return _variance_cost(np.asarray(w, dtype=float), np.asarray(bias, dtype=float))


def area_cost(w, area):
    """F3 of eq. (6): normalized variance of per-plane area."""
    return _variance_cost(np.asarray(w, dtype=float), np.asarray(area, dtype=float))


def constraint_cost(w):
    """F4 of eq. (9) including the ``1/N4`` normalization.

    First term pulls every row sum toward 1; second (negative-variance)
    term pushes each row toward a one-hot vector.
    """
    w = np.asarray(w, dtype=float)
    num_gates, num_planes = w.shape
    if num_planes == 1:
        return 0.0
    row_mean = w.mean(axis=1)
    term_sum = (num_planes * row_mean - 1.0) ** 2
    term_var = np.mean((w - row_mean[:, None]) ** 2, axis=1)
    n4 = num_gates * (num_planes - 1) ** 2
    return float(np.sum(term_sum - term_var) / n4)


def cost_terms(w, edges, bias, area, config):
    """Evaluate all four terms and the weighted total (eq. (8)).

    The weighted sum of the per-term functions above: the readable
    reference the solver's fused kernel
    (:class:`repro.core.kernel.FusedKernel`) is tested against.  The
    two agree up to floating-point reassociation.
    """
    w, edges, bias, area = _check_inputs(w, edges, bias, area)
    f1 = interconnection_cost(w, edges)
    f2 = bias_cost(w, bias)
    f3 = area_cost(w, area)
    f4 = constraint_cost(w)
    total = config.c1 * f1 + config.c2 * f2 + config.c3 * f3 + config.c4 * f4
    return CostTerms(f1=f1, f2=f2, f3=f3, f4=f4, total=float(total))


def total_cost(w, edges, bias, area, config):
    """The scalar objective ``F`` of eq. (8)."""
    return cost_terms(w, edges, bias, area, config).total


def integer_cost(labels, num_planes, edges, bias, area, config):
    """Cost of a *hard* assignment: ``c1 F1 + c2 F2 + c3 F3`` on one-hot rows.

    F4 is excluded because it takes the same value on every feasible
    integer assignment: a one-hot row has row sum 1 and row variance
    ``(K-1)/K^2``, so ``F4 = -G (K-1)/K^2 / N4 = -1/(K^2 (K-1))`` for
    any labels and cannot rank them.  This is the score used to compare
    restarts and baselines.
    """
    w = one_hot(labels, num_planes)
    w, edges, bias, area = _check_inputs(w, edges, bias, area)
    return float(
        config.c1 * interconnection_cost(w, edges)
        + config.c2 * bias_cost(w, bias)
        + config.c3 * area_cost(w, area)
    )
