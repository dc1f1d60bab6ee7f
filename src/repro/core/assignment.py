"""Assignment-matrix helpers.

The relaxed decision variable of the paper is the matrix
``w[i, k] in [0, 1]`` of shape ``(G, K)``: gate ``i``'s soft membership in
plane ``k``.  The paper indexes planes ``k = 1..K``; we store the matrix
with zero-based columns but keep the *label coefficients* ``1..K`` (they
enter the relaxed label ``l_i = sum_k k * w[i,k]`` of eq. (3) and the F1
gradient of eq. (10) with their one-based values).
"""

import numpy as np

from repro.utils.errors import PartitionError
from repro.utils.rng import make_rng


def plane_coefficients(num_planes):
    """The one-based label coefficients ``[1, 2, ..., K]`` of eq. (3)."""
    if num_planes < 1:
        raise PartitionError(f"num_planes must be >= 1, got {num_planes}")
    return np.arange(1, num_planes + 1, dtype=float)


def random_assignment(num_gates, num_planes, rng=None):
    """Random row-normalized initial assignment (Algorithm 1, lines 3-11).

    Entries are drawn uniformly from (0, 1) and each row is divided by
    its sum, so every row satisfies ``sum_k w[i,k] == 1`` exactly.
    """
    if num_gates < 1:
        raise PartitionError(f"num_gates must be >= 1, got {num_gates}")
    if num_planes < 1:
        raise PartitionError(f"num_planes must be >= 1, got {num_planes}")
    rng = make_rng(rng)
    # Open interval keeps row sums strictly positive.
    w = rng.uniform(low=1e-6, high=1.0, size=(num_gates, num_planes))
    return normalize_rows(w)


#: Row width from which numpy's add-reduce switches from summing a row
#: left to right to pairwise (8-way unrolled) summation.
PAIRWISE_MIN_COLUMNS = 8


def row_sum(w, out=None):
    """Sum over the last axis, bitwise equal to ``np.add.reduce(w, axis=-1)``.

    Below :data:`PAIRWISE_MIN_COLUMNS` columns numpy sums each row left
    to right, starting from add's identity ``0.0``, as one tiny inner
    loop per row.  This helper does the same additions column by column
    over the whole stack: ``0.0 + w[..., 0]``, then ``+= w[..., k]`` for
    ``k = 1..K-1``, in place in ``out``.  Starting from ``0.0`` keeps
    the sign of an all ``-0.0`` row's sum what numpy gives (``+0.0``).
    From :data:`PAIRWISE_MIN_COLUMNS` columns on, numpy's pairwise order
    differs, so the helper defers to ``np.add.reduce``.

    ``row_sum(w) / K`` is bitwise ``w.mean(axis=-1)``: numpy's mean is
    this sum followed by a true divide by the count.
    """
    num_columns = w.shape[-1]
    if not 0 < num_columns < PAIRWISE_MIN_COLUMNS:
        return np.add.reduce(w, axis=-1, out=out)
    out = np.add(w[..., 0], 0.0, out=out)
    for k in range(1, num_columns):
        out += w[..., k]
    return out


def normalize_rows(w, out=None, sums=None):
    """Divide each row by its sum (rows with zero sum become uniform).

    Accepts any ``(..., K)`` stack of assignment matrices; the batched
    solver normalizes all restarts at once with the same arithmetic a
    single ``(G, K)`` call uses.  ``out`` (which may be ``w`` itself)
    receives the result and ``sums`` the ``(...,)`` row sums, so the
    solver's step allocates nothing; both default to fresh arrays.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim < 2:
        raise PartitionError(f"assignment matrix must be 2-D, got shape {w.shape}")
    sums = row_sum(w, out=sums)[..., None]
    # min() propagates NaN, so this is ``np.all(sums > 0.0)`` without the
    # boolean temporary.
    if sums.size == 0 or sums.min() > 0.0:
        # Fast path (the overwhelmingly common case in the solver loop):
        # bitwise-identical to the general branch below, which would
        # select exactly these already-divided values.
        return np.divide(w, sums, out=out)
    safe = np.where(sums > 0.0, sums, 1.0)
    normalized = np.where(sums > 0.0, w / safe, 1.0 / w.shape[-1])
    if out is None:
        return normalized
    out[...] = normalized
    return out


def labels_from_assignment(w):
    """Relaxed labels ``l_i = sum_k k * w[i,k]`` (eq. (3)).

    Shape ``(G,)`` for a ``(G, K)`` matrix; batched ``(..., G, K)``
    input yields ``(..., G)`` labels via the same per-slice matvec (a
    batched ``matmul`` runs one identically-sized gemv per restart, so
    batched and single evaluations are bitwise identical — part of the
    engine-equivalence contract, see :mod:`repro.core.kernel`).
    """
    w = np.asarray(w, dtype=float)
    if w.ndim < 2:
        raise PartitionError(f"assignment matrix must be (..., K), got shape {w.shape}")
    return w @ plane_coefficients(w.shape[-1])


def round_assignment(w):
    """Final integer plane of each gate: zero-based ``argmax_k w[i,k]``.

    Implements lines 27-30 of Algorithm 1.  Ties break toward the lowest
    plane index (NumPy argmax semantics).
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[1] < 1:
        raise PartitionError(f"assignment matrix must be (G, K), got shape {w.shape}")
    return w.argmax(axis=1).astype(np.intp)


def round_assignment_balanced(w, bias, slack=0.02, pinned=None):
    """Capacity-aware rounding: argmax within a per-plane bias budget.

    Plain argmax rounding can commit whole clusters of near-identical
    rows to one plane, which wrecks the integer-level bias balance even
    when the *relaxed* solution is balanced — the failure mode of
    ``engine="multilevel"``'s interpolated warm starts, whose rows are
    constant within each supernode.  This rounder assigns gates in
    decreasing row-confidence order to their most-preferred plane whose
    running bias stays within ``(1 + slack)`` of the ideal per-plane
    share ``sum(bias) / K``; when every plane is over budget the lightest
    plane takes the gate.  Confident rows therefore still get their
    argmax plane; only the ambiguous tail is redirected, bounding
    ``I_comp`` by roughly ``slack`` without measurably hurting F1.

    ``pinned`` gates ({index: plane}) keep their plane and consume
    budget first.  Fully deterministic (stable sorts, no RNG).

    Degenerate inputs — a single gate whose bias exceeds the whole
    per-plane budget (so *no* plane can take it within ``slack``), or a
    non-finite bias vector — make the capacity walk meaningless: every
    heavy gate would land on the currently-lightest plane regardless of
    ``w``, scrambling confident assignments.  Those cases fall back to
    plain :func:`round_assignment` (with ``pinned`` still applied) and
    bump the ``rounding.balanced_fallback`` metrics counter.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[1] < 1:
        raise PartitionError(f"assignment matrix must be (G, K), got shape {w.shape}")
    bias = np.asarray(bias, dtype=float)
    if bias.shape != (w.shape[0],):
        raise PartitionError(
            f"bias shape {bias.shape} does not match assignment matrix {w.shape}"
        )
    if not np.isfinite(slack) or slack < 0:
        raise PartitionError(f"slack must be >= 0, got {slack}")
    num_gates, num_planes = w.shape
    budget = bias.sum() / num_planes * (1.0 + slack)
    if not np.isfinite(budget) or (bias.size and bias.max() > budget):
        from repro.obs import OBS

        if OBS.enabled:
            OBS.metrics.counter("rounding.balanced_fallback").inc()
        labels = round_assignment(w)
        for gate, plane in (pinned or {}).items():
            labels[gate] = plane
        return labels
    labels = np.full(num_gates, -1, dtype=np.intp)
    load = np.zeros(num_planes)
    for gate, plane in (pinned or {}).items():
        labels[gate] = plane
        load[plane] += bias[gate]
    preference = np.argsort(-w, axis=1, kind="stable")
    for gate in np.argsort(-w.max(axis=1), kind="stable"):
        if labels[gate] != -1:
            continue
        gate_bias = bias[gate]
        for plane in preference[gate]:
            if load[plane] + gate_bias <= budget:
                labels[gate] = plane
                load[plane] += gate_bias
                break
        else:
            plane = int(np.argmin(load))
            labels[gate] = plane
            load[plane] += gate_bias
    return labels


def one_hot(labels, num_planes):
    """Hard assignment matrix from zero-based integer labels."""
    labels = np.asarray(labels, dtype=np.intp)
    if labels.size and (labels.min() < 0 or labels.max() >= num_planes):
        raise PartitionError("labels out of range for one_hot")
    w = np.zeros((labels.shape[0], num_planes), dtype=float)
    w[np.arange(labels.shape[0]), labels] = 1.0
    return w
