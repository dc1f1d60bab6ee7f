"""Fused batched cost/gradient kernel for Algorithm 1.

The solver loop evaluates the cost (Algorithm 1 line 13) and the
gradient (line 18) at the same ``w`` on every iteration.  The reference
formulation in :mod:`repro.core.cost` and :mod:`repro.core.gradients`
runs them as independent per-term passes, each recomputing the relaxed
labels, the per-edge label differences, the per-plane bias/area sums and
the row means — and re-validating the (constant) problem arrays on every
call.

:class:`FusedKernel` removes all of that redundancy:

* the problem arrays (edges, bias, area) are validated **once** at
  construction, along with the normalizers ``N1``/``N4`` and the label
  coefficients;
* the ``np.add.at`` scatter of the F1 gradient is replaced by a
  precomputed CSR-style :class:`EdgeIncidence` segment-sum
  (``argsort`` once, a signed gather and ``np.add.reduceat`` per
  evaluation);
* :meth:`FusedKernel.cost_and_gradient` computes labels, edge
  differences, per-plane sums and row means **once** and returns both
  the four cost terms and the total gradient;
* every evaluation is batched over a leading restart axis: ``w`` of
  shape ``(R, G, K)`` evaluates all ``R`` restarts simultaneously;
* the descent loop calls the private :meth:`FusedKernel._evaluate`
  directly: no input validation, no ``BatchedCostTerms`` and no numpy
  Python-level wrapper (``np.take``, ``ndarray.mean``/``sum``,
  ``np.where``) on its path, only ufuncs, their ``reduce`` methods and
  ``ndarray.take``.  On the small circuits the service mostly solves,
  those wrappers cost more than the arithmetic.  The public
  :meth:`~FusedKernel.cost_and_gradient` validates and delegates to it.

Numerical-equivalence contract
------------------------------
The batched engine evaluates all restarts of a solve — and, through
:mod:`repro.core.megabatch`, restarts from many compatible jobs — as
one ``(R, G, K)`` stack.  That is only invisible if every operation in
:meth:`FusedKernel._evaluate` produces, for each batch slice,
bitwise the same floats it would produce on that slice alone.  That
holds because

* NumPy's reduction strategy (pairwise vs. sequential) depends only on
  the reduced axis and memory layout, not on the size of the leading
  batch axis;
* ``matmul`` on a stacked operand runs one identically-sized gemm/gemv
  per batch entry;
* every intermediate a last-axis reduction reads is C-ordered: the
  edge gathers are written by ``ndarray.take`` into C-ordered workspace
  rows (advanced indexing could hand back a Fortran-ordered buffer),
  and the workspace views ``buf[:n]`` are leading-row views, keeping
  the layout part of the contract true.  The stacked F2/F3 buffer's
  view ``planes[:, :n]`` is not contiguous across its two terms, but
  each of its ``(n, K)`` blocks is, and a last-axis reduction still
  runs one row at a time;
* the K-axis row sums are column sums in numpy's own order (see "Row
  sums over K" below), which is elementwise per row and so independent
  of the batch size.

The restart-independence tests (a batch of ``R`` restarts against ``R``
single-restart solves) pin this down.  The arithmetic reference is the
per-term eq. (4)-(10) code in :mod:`repro.core.cost` /
:mod:`repro.core.gradients`; the kernel agrees with it up to
floating-point reassociation.

The edge incidence
------------------
:class:`EdgeIncidence` precomputes, for each slot of the gate-sorted
endpoint order, which edge it reads and with which sign (``+1.0`` for
a ``u`` endpoint, ``-1.0`` for a ``v`` endpoint).  One gather from the
raw per-edge values plus an in-place sign multiply then yields the
ordered summands, and one ``np.add.reduceat`` sums each gate's
segment.  Multiplying by ``±1.0`` is exact, so the summands are exactly
those of two ``np.add.at`` scatters, added in a fixed order per gate.

Workspace
---------
One evaluation needs about a dozen ``(R, G)``-, ``(R, E)``- and
``(R, G, K)``-sized intermediates.  Allocating and freeing them on
every iteration sends their pages back to the OS and faults them in
again on the next one once they cross the allocator's trim threshold.
:class:`FusedKernel` therefore allocates the buffers once, on its first
evaluation, sized to that batch: labels, row means, the F4 row terms,
the two edge buffers (differences and their powers), the scatter's
gathered buffer and output, one ``(R, G, K)`` square buffer, the
stacked ``(2, R, K)`` per-plane buffer of F2 (row 0, bias) and F3
(row 1, area) with its square, and the rank-4 ``left``/``right`` gemm
operands.  Every numpy call writes into them with ``out=``.  F2 and
F3 keep one ``matmul`` gemv each; their means, deviations, variances,
normalizers and gradient rows are computed once on the stacked buffer.
A degenerate (zero) mean is still handled per term and restart, behind
one check.  A later evaluation of ``n <= R`` restarts uses the
leading-row views ``buf[:n]``, which stay C-contiguous, so no
reduction changes order; a larger batch regrows the workspace.  The
workspace belongs to one kernel, which belongs to one solve: there is
no shared cache, so concurrent solves never touch each other's
buffers.  The per-config scalars (the weights, the F1 scale and the F4
gradient flavor) are computed once per config the kernel sees.  The
returned cost terms are always fresh arrays, and so is the gradient
unless the caller passes its own ``out=`` buffer (the descent loop
does).

Row sums over K
---------------
The row means ``w.mean(-1)`` and ``(w*w).mean(-1)`` (and the solver
step's row normalization) reduce over the K = 2..10 innermost axis,
which numpy runs as one tiny inner loop per row.  :func:`~repro.core.assignment.row_sum` adds the K columns left
to right over the whole stack instead, which is numpy's own order, and
so the same bits, for K < 8.  From K = 8 on numpy sums a row pairwise
in a different order, so ``row_sum`` defers to ``np.add.reduce`` there
(Table II runs K = 8-10).
"""

from dataclasses import dataclass

import numpy as np

from repro.core.assignment import plane_coefficients, row_sum
from repro.core.cost import CostTerms
from repro.obs import OBS
from repro.utils.errors import PartitionError


class EdgeIncidence:
    """CSR-style signed edge-incidence segment-sum.

    Precomputes, for a fixed edge list, the permutation that groups the
    ``2|E|`` signed edge endpoints by gate.  :meth:`scatter_signed` then
    turns per-edge values into per-gate sums

    ``out[i] = sum_{e: u_e == i} vals[e] - sum_{e: v_e == i} vals[e]``

    with one gather and one ``np.add.reduceat`` segment-sum instead of
    two ``np.add.at`` scatters.  The summation order within a gate's
    segment is fixed by the precomputed permutation (all ``+u``
    occurrences in edge order, then all ``-v`` occurrences), so results
    are reproducible and identical for batched and single evaluations.
    """

    __slots__ = ("num_gates", "num_edges", "u", "v", "_edge_of", "_signs", "_starts", "_touched")

    def __init__(self, edges, num_gates):
        edges = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= num_gates):
            raise PartitionError("edge endpoints out of range")
        self.num_gates = int(num_gates)
        self.num_edges = int(edges.shape[0])
        self.u = np.ascontiguousarray(edges[:, 0])
        self.v = np.ascontiguousarray(edges[:, 1])
        endpoints = np.concatenate([self.u, self.v])
        order = np.argsort(endpoints, kind="stable")
        counts = np.bincount(endpoints, minlength=self.num_gates)
        self._touched = np.flatnonzero(counts > 0)
        starts = np.zeros(self.num_gates + 1, dtype=np.intp)
        np.cumsum(counts, out=starts[1:])
        self._starts = starts[:-1][self._touched]
        in_u = order < self.num_edges
        self._edge_of = np.where(in_u, order, order - self.num_edges)
        self._signs = np.where(in_u, 1.0, -1.0)

    def scatter_signed(self, values, out=None, gathered=None):
        """Per-gate signed sums of per-edge ``values``, shape ``(..., E)``.

        Returns shape ``(..., G)``; gates with no incident edge get 0.
        ``out`` (``(..., G)``) and ``gathered`` (``(..., 2E)``, the
        signed summands in segment order) are optional preallocated
        buffers; ``out`` is overwritten entirely.
        """
        values = np.asarray(values, dtype=float)
        batch = values.shape[:-1]
        if out is None:
            out = np.empty(batch + (self.num_gates,))
        if self.num_edges == 0:
            out.fill(0.0)
            return out
        if gathered is None:
            gathered = np.empty(batch + (2 * self.num_edges,))
        # mode="clip" skips the defensive copy of ``out`` that the
        # default bounds-checking mode makes; the indices are in range.
        values.take(self._edge_of, axis=-1, out=gathered, mode="clip")
        gathered *= self._signs
        if self._touched.size == self.num_gates:
            np.add.reduceat(gathered, self._starts, axis=-1, out=out)
        else:
            out.fill(0.0)
            out[..., self._touched] = np.add.reduceat(gathered, self._starts, axis=-1)
        return out


@dataclass(frozen=True)
class BatchedCostTerms:
    """The four cost terms and weighted totals of a restart batch.

    Every field is an array of shape ``(R,)`` — one entry per restart.
    """

    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray
    f4: np.ndarray
    total: np.ndarray

    def term(self, index):
        """Scalar :class:`~repro.core.cost.CostTerms` of one restart."""
        return CostTerms(
            f1=float(self.f1[index]),
            f2=float(self.f2[index]),
            f3=float(self.f3[index]),
            f4=float(self.f4[index]),
            total=float(self.total[index]),
        )


class FusedKernel:
    """One-pass batched evaluation of cost terms and total gradient.

    Validates and precomputes everything that is constant across
    iterations (and across restarts) at construction; per-iteration work
    is purely array arithmetic on the ``(R, G, K)`` assignment stack,
    written into the kernel's workspace (see the module docstring).
    One kernel is not safe to share between threads.
    """

    def __init__(self, num_planes, edges, bias, area):
        if num_planes < 1:
            raise PartitionError(f"num_planes must be >= 1, got {num_planes}")
        bias = np.asarray(bias, dtype=float)
        area = np.asarray(area, dtype=float)
        if bias.ndim != 1 or area.shape != bias.shape:
            raise PartitionError(
                f"bias/area must be equal-length 1-D vectors, got {bias.shape} and {area.shape}"
            )
        self.num_planes = int(num_planes)
        self.num_gates = int(bias.shape[0])
        self.bias = np.ascontiguousarray(bias)
        self.area = np.ascontiguousarray(area)
        self.incidence = EdgeIncidence(edges, self.num_gates)
        self.num_edges = self.incidence.num_edges
        self.coeff = plane_coefficients(self.num_planes)
        # F1/F4 normalizers (zero when degenerate; guarded at use sites).
        self.n1 = self.num_edges * (self.num_planes - 1) ** 4
        self.n4 = self.num_gates * (self.num_planes - 1) ** 2
        self._capacity = 0
        self._config = None

    def _reserve(self, num_restarts):
        """Allocate the workspace for batches of up to ``num_restarts``."""
        rows = (num_restarts, self.num_gates)
        edge_rows = (num_restarts, self.num_edges)
        self._labels = np.empty(rows)
        self._row_mean = np.empty(rows)
        self._term_sum = np.empty(rows)
        self._term_var = np.empty(rows)
        self._per_gate = np.empty(rows)
        self._edge_diff = np.empty(edge_rows)
        self._edge_pow = np.empty(edge_rows)
        self._gathered = np.empty((num_restarts, 2 * self.num_edges))
        self._square = np.empty(rows + (self.num_planes,))
        # Per-plane bias (row 0) and area (row 1) sums, then deviations.
        self._planes = np.empty((2, num_restarts, self.num_planes))
        self._planes_sq = np.empty((2, num_restarts, self.num_planes))
        # The constant columns/rows of the rank-4 gradient operands are
        # written once here; each evaluation fills in the rest.
        self._left = np.empty(rows + (4,))
        self._left[..., 1] = self.bias
        self._left[..., 2] = self.area
        self._right = np.empty((num_restarts, 4, self.num_planes))
        self._right[:, 0, :] = self.coeff
        self._right[:, 3, :] = 1.0
        # (4, R, K) view of ``_right``: rows 1 and 2 are written from
        # the stacked (2, R, K) deviations in one multiply.
        self._right_rows = self._right.transpose(1, 0, 2)
        self._capacity = num_restarts

    def _bind(self, config):
        """Precompute the per-config scalars of :meth:`_evaluate`."""
        self._config = config
        self._weights = np.array(
            [[config.c1], [config.c2], [config.c3], [config.c4]], dtype=float
        )
        self._variance_weights = self._weights[1:3]
        self._f1_scale = config.c1 * (4.0 / self.n1) if self.n1 else 0.0
        # The F4 flavor folded into (a4, b4, cw), see the gradient below.
        k = float(self.num_planes)
        s4 = config.c4 * (2.0 / self.n4)
        if config.gradient_mode == "paper":
            a4 = s4 * (k + 1.0 / k)
            self._f4_flavor = (a4, s4 * (k - 1.0), -a4)
        elif config.gradient_mode == "exact":
            self._f4_flavor = (s4 * (k + 1.0 / k), -s4, -s4 / k)
        else:  # pragma: no cover - config validates this
            self._f4_flavor = None

    # ------------------------------------------------------------------
    def check_w(self, w):
        """Validate an assignment stack; returns it as float ``(R, G, K)``.

        A 2-D ``(G, K)`` input is promoted to a single-restart batch.
        """
        w = np.asarray(w, dtype=float)
        if w.ndim == 2:
            w = w[None]
        if w.ndim != 3 or w.shape[1:] != (self.num_gates, self.num_planes):
            raise PartitionError(
                f"w must have shape (R, {self.num_gates}, {self.num_planes}) "
                f"or ({self.num_gates}, {self.num_planes}), got {w.shape}"
            )
        return np.ascontiguousarray(w)

    # ------------------------------------------------------------------
    def cost_and_gradient(self, w, config, want_gradient=True, out=None):
        """Evaluate all four cost terms and (optionally) the gradient.

        Parameters
        ----------
        w:
            Assignment stack ``(R, G, K)`` (or ``(G, K)``, treated as
            ``R == 1``); validated by :meth:`check_w`.
        config:
            :class:`~repro.core.config.PartitionConfig` supplying the
            weights ``c1..c4`` and the F4 gradient flavor.
        want_gradient:
            Skip the gradient work entirely when False (cost-only
            callers such as restart scoring).
        out:
            Optional C-contiguous ``(R, G, K)`` buffer that receives the
            gradient.  Without it the gradient is a fresh array, so no
            later call can overwrite what a caller holds.

        Returns
        -------
        (BatchedCostTerms, gradient):
            ``gradient`` has shape ``(R, G, K)`` (it is ``out`` when
            given) or is ``None``.
        """
        w = self.check_w(w)
        num_restarts = w.shape[0]
        if OBS.enabled:
            # The descent loop calls _evaluate and counts for itself.
            OBS.metrics.counter("kernel.evaluations").inc()
            OBS.metrics.counter("kernel.restart_evaluations").inc(num_restarts)
            if not want_gradient:
                OBS.metrics.counter("kernel.cost_only_evaluations").inc()
        if not want_gradient:
            out = None
        elif out is None:
            out = np.empty_like(w)
        elif out.shape != w.shape:
            raise PartitionError(f"out must have shape {w.shape}, got {out.shape}")
        terms = self._evaluate(w, num_restarts, config, out)
        batched = BatchedCostTerms(terms[0], terms[1], terms[2], terms[3], terms[4])
        return batched, out

    def _evaluate(self, w, n, config, out):
        """The evaluation behind :meth:`cost_and_gradient`, unchecked.

        ``w`` must be a C-contiguous float ``(n, G, K)`` stack and
        ``out`` a C-contiguous ``(n, G, K)`` gradient buffer, or
        ``None`` for a cost-only evaluation.  Returns a fresh ``(5, n)``
        array whose rows are f1, f2, f3, f4 and the weighted total.
        The descent loop calls this directly: one evaluation then makes
        no Python-level call besides :func:`row_sum` and the scatter.
        """
        num_planes = self.num_planes
        terms = np.empty((5, n))
        if num_planes == 1:
            # A single plane has no inter-plane cost, no imbalance and no
            # relaxed integer constraint; everything is exactly zero.
            terms.fill(0.0)
            if out is not None:
                out.fill(0.0)
            return terms
        if n > self._capacity:
            self._reserve(n)
        if config is not self._config:
            self._bind(config)

        # Shared intermediates, computed once per evaluation.
        labels = np.matmul(w, self.coeff, out=self._labels[:n])  # (R, G), batched gemv
        row_mean = row_sum(w, out=self._row_mean[:n])  # (R, G)
        row_mean /= num_planes

        # --- F1 (eq. (4)) cost ----------------------------------------
        per_gate = None
        if self.num_edges == 0:
            terms[0] = 0.0
        else:
            incidence = self.incidence
            # Gathered straight into C-ordered (R, E) buffers, so every
            # last-axis reduction below runs in the 1-D order (the
            # bitwise equivalence contract).  mode="clip" avoids the
            # defensive copy of ``out`` that bounds checking makes.
            diff = labels.take(incidence.u, axis=1, out=self._edge_diff[:n], mode="clip")
            power = labels.take(incidence.v, axis=1, out=self._edge_pow[:n], mode="clip")
            diff -= power
            # Pow-free factorization: diff^4 = (diff^2)^2 and
            # diff^3 = (diff^2) * diff — numpy's pow loop calls libm per
            # element, an order of magnitude slower.
            diff_sq = np.multiply(diff, diff, out=power)
            if out is not None:
                cube = np.multiply(diff_sq, diff, out=diff)
                per_gate = incidence.scatter_signed(
                    cube, out=self._per_gate[:n], gathered=self._gathered[:n]
                )  # (R, G)
            quartic = np.multiply(diff_sq, diff_sq, out=power)
            np.add.reduce(quartic, axis=-1, out=terms[0])
            terms[0] /= self.n1

        # --- F2 / F3 (eqs. (5)-(6)) cost ------------------------------
        # Row 0 of the stacked (2, R, K) buffer carries the bias (F2),
        # row 1 the area (F3).  One identically-sized gemv per restart
        # and term, bitwise equal to a single-restart ``weights @ w``.
        planes = self._planes[:, :n]
        np.matmul(self.bias, w, out=planes[0])
        np.matmul(self.area, w, out=planes[1])
        mean = np.add.reduce(planes, axis=-1)  # (2, R)
        mean /= num_planes
        planes -= mean[..., None]  # deviations B_k - Bbar
        variance = np.add.reduce(
            np.multiply(planes, planes, out=self._planes_sq[:, :n]), axis=-1
        )
        variance /= num_planes
        # A zero mean per-plane sum (e.g. an all-zero bias vector) is a
        # degenerate normalizer: that term is 0 and adds no gradient,
        # mirroring the scalar definition.  NaN counts as nonzero here,
        # exactly as ``mean == 0.0`` is False for it.
        degenerate = not np.logical_and.reduce(mean != 0.0, axis=None)
        safe_mean = np.where(mean == 0.0, 1.0, mean) if degenerate else mean
        normalizer = np.multiply(safe_mean, safe_mean)
        normalizer *= num_planes - 1
        np.divide(variance, normalizer, out=terms[1:3])
        scale = np.multiply(normalizer, num_planes)
        np.divide(2.0, scale, out=scale)  # gradient prefactor 2 / (K N)
        if degenerate:
            zero = mean == 0.0
            terms[1:3][zero] = 0.0
            scale[zero] = 0.0

        # --- F4 (eq. (9)) cost ----------------------------------------
        # Row variance via E[w^2] - mean^2: one full-size elementwise
        # product instead of an (R, G, K) broadcast-subtract temporary.
        square = self._square[:n]
        term_sum = np.multiply(num_planes, row_mean, out=self._term_sum[:n])
        term_sum -= 1.0
        term_sum *= term_sum  # (K rm - 1)^2
        term_var = row_sum(np.multiply(w, w, out=square), out=self._term_var[:n])
        term_var /= num_planes
        term_var -= np.multiply(row_mean, row_mean, out=labels)
        term_sum -= term_var
        np.add.reduce(term_sum, axis=-1, out=terms[3])
        terms[3] /= self.n4

        # total = ((c1 f1 + c2 f2) + c3 f3) + c4 f4
        weighted = np.multiply(terms[:4], self._weights)
        total = np.add(weighted[0], weighted[1], out=terms[4])
        total += weighted[2]
        total += weighted[3]
        if out is None:
            return terms

        # --- weighted total gradient (eq. (10)) -----------------------
        # Every term's gradient is (a column vector) x (a row vector),
        # except for F4's diagonal ``w`` part, so the weighted sum is a
        # single rank-4 batched gemm plus one diagonal update:
        #
        #   grad = left @ right + cw * w
        #     left[..., 0] = c1 (4/N1) pg_i     right[0] = [1..K]   (F1)
        #     left[..., 1] = b_i                right[1] = c2 (2/(K N2)) dev2
        #     left[..., 2] = a_i                right[2] = c3 (2/(K N3)) dev3
        #     left[..., 3] = a4 rm_i + b4       right[3] = 1        (F4)
        #
        # with the F4 flavor folded into (a4, b4, cw):
        #   paper  (2/N4)[(k + 1/k)(rm - w) + (k - 1)]:
        #          a4 = s(k + 1/k), b4 = s(k - 1),  cw = -a4
        #   exact  (2/N4)[(k rm - 1) + (rm - w)/k]:
        #          a4 = s(k + 1/k), b4 = -s,        cw = -s/k
        # where s = c4 (2/N4).
        if self._f4_flavor is None:  # pragma: no cover - config validates this
            raise PartitionError(f"unknown gradient mode {config.gradient_mode!r}")
        a4, b4, cw = self._f4_flavor

        left = self._left[:n]  # columns 1 and 2 hold bias and area
        if per_gate is None:
            left[..., 0] = 0.0
        else:
            np.multiply(per_gate, self._f1_scale, out=left[..., 0])
        np.multiply(a4, row_mean, out=left[..., 3])
        left[..., 3] += b4

        # Rows 0 and 3 of ``right`` hold [1..K] and 1; rows 1 and 2 get
        # c2 (2/(K N2)) dev2 and c3 (2/(K N3)) dev3.
        scale *= self._variance_weights
        np.multiply(scale[..., None], planes, out=self._right_rows[1:3, :n])

        # One (G, 4) x (4, K) gemm per restart.
        gradient = np.matmul(left, self._right[:n], out=out)
        gradient += np.multiply(cw, w, out=square)
        return terms
