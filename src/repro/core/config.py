"""Configuration of the partitioning optimizer.

The paper (eq. (8), Algorithm 1) leaves the cost weights ``c1..c4`` as
tunable constants and folds the gradient-descent step size into them.
:class:`PartitionConfig` exposes the weights, the stopping margin (the
paper's ``margin = 0.0001``), an explicit learning rate, a restart count
and the gradient flavor.
"""

import math
from dataclasses import dataclass, replace

from repro.utils.errors import PartitionError

#: Gradient flavors, see :mod:`repro.core.gradients`.
GRADIENT_MODES = ("paper", "exact")

#: Solver engines, see :mod:`repro.core.optimizer` (``batched``) and
#: :mod:`repro.core.multilevel` (``multilevel``).
ENGINES = ("batched", "multilevel")


@dataclass(frozen=True)
class PartitionConfig:
    """All tunable knobs of Algorithm 1.

    Attributes
    ----------
    c1, c2, c3, c4:
        Weights of the interconnection (F1), bias-variance (F2),
        area-variance (F3) and relaxed-constraint (F4) cost terms.
        Defaults were calibrated on the reconstructed benchmark suite to
        land in the regime the paper reports (d<=1 around 55-75 %,
        I_comp and A_FS in the single-digit percents for K=5).
    margin:
        Relative-cost-change stopping threshold; paper uses 1e-4.
    learning_rate:
        Explicit step size multiplying the summed weighted gradient.
        The paper folds this into ``c1..c4``; keeping it separate lets
        the weights express only the *relative* importance of the terms.
    max_iterations:
        Safety cap on gradient-descent iterations (Algorithm 1 has no
        cap; the margin criterion normally triggers far earlier).
    restarts:
        Number of independent random initializations; the result with
        the lowest *integer* (post-rounding) cost wins.
    gradient_mode:
        ``"paper"`` uses the gradients printed in eq. (10) verbatim;
        ``"exact"`` uses the analytically re-derived gradient of F4
        (the two differ for F4 only; see DESIGN.md).
    renormalize_rows:
        If True (default), re-normalize each row of ``w`` to sum 1 after
        every update.  Algorithm 1 as printed relies on F4 + clipping
        only (``renormalize_rows=False``); with the paper's unknown
        weight constants that variant produced badly unbalanced planes
        on the reconstructed suite (I_comp > 100 %), while the
        projection variant lands in the regime the paper reports, so the
        projection is the default.  The clip-only variant remains
        available and is measured by the ablation bench
        ``benchmarks/test_ablation_gradient.py``.
    ensure_nonempty:
        Repair empty planes after rounding by moving in the loosest
        gates from the heaviest plane (post-processing; keeps the
        serial bias chain well-defined).
    engine:
        Solver engine used by :func:`~repro.core.partitioner.partition`.
        ``"batched"`` (default) is Algorithm 1: all restarts descend in
        lockstep through the fused ``(R, G, K)`` cost/gradient kernel
        with per-restart convergence masking.  ``"multilevel"``
        solves a heavy-edge-coarsened problem with the same descent and
        warm-starts the fine descent from the interpolated solution
        (:mod:`repro.core.multilevel`); its final refinement has a short
        iteration budget (``multilevel_fine_iterations``) and a
        capacity-aware rounding, so its labels differ from
        ``"batched"``.  ``"batched"`` stays the default on the measured
        data: in ``benchmarks/perf/BENCH_suite.json`` multilevel takes
        0.2634 s on MULT8 (K=5) against 0.0504 s batched, because its
        coarse solve runs 1643 iterations, 1400 of them in one restart
        stuck in a limit cycle until the coarse budget stops it
        (:data:`~repro.core.multilevel.COARSE_ITERATION_BUDGET`); about
        half the solves of the ledger's solve-mix circuits have such a
        restart, so its speed is not predictable either
        (docs/performance.md §3).  And the paper's Tables I-III must
        stay Algorithm 1, which only ``"batched"`` runs.
    multilevel_coarsest_nodes:
        Coarsening floor for ``engine="multilevel"``; 0 (default) means
        the automatic ``max(40, 6 K)``.
    multilevel_fine_iterations:
        Per-restart cap on the warm-started *fine-level* descent of
        ``engine="multilevel"``.  A warm start from a converged coarse
        solution sits in a gentle valley where the relative-change
        margin keeps firing for hundreds of polish iterations that no
        longer change the rounded labels; a short fixed budget (default
        20) keeps the quality win while cutting fine-level work well
        below a cold-start solve.  Clamped to ``max_iterations``.
    multilevel_round_slack:
        Per-plane bias head-room of the capacity-aware rounding used by
        ``engine="multilevel"`` (see
        :func:`~repro.core.assignment.round_assignment_balanced`); the
        rounded partition's ``I_comp`` is bounded by roughly this
        fraction.
    seed:
        Default RNG seed used when the caller does not pass one.
    """

    c1: float = 80.0
    c2: float = 15.0
    c3: float = 15.0
    c4: float = 8.0
    margin: float = 1e-4
    learning_rate: float = 0.4
    max_iterations: int = 2000
    restarts: int = 4
    gradient_mode: str = "paper"
    renormalize_rows: bool = True
    ensure_nonempty: bool = True
    engine: str = "batched"
    multilevel_coarsest_nodes: int = 0
    multilevel_fine_iterations: int = 20
    multilevel_round_slack: float = 0.02
    seed: int = 2020

    def __post_init__(self):
        for label, value in (("c1", self.c1), ("c2", self.c2), ("c3", self.c3), ("c4", self.c4)):
            if not math.isfinite(value) or value < 0:
                raise PartitionError(f"{label} must be finite and non-negative, got {value}")
        if not math.isfinite(self.margin) or self.margin <= 0:
            raise PartitionError(f"margin must be positive, got {self.margin}")
        if not math.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise PartitionError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.max_iterations < 1:
            raise PartitionError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.restarts < 1:
            raise PartitionError(f"restarts must be >= 1, got {self.restarts}")
        if self.gradient_mode not in GRADIENT_MODES:
            raise PartitionError(
                f"gradient_mode must be one of {GRADIENT_MODES}, got {self.gradient_mode!r}"
            )
        if self.engine not in ENGINES:
            raise PartitionError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.multilevel_coarsest_nodes < 0:
            raise PartitionError(
                f"multilevel_coarsest_nodes must be >= 0, got {self.multilevel_coarsest_nodes}"
            )
        if self.multilevel_fine_iterations < 1:
            raise PartitionError(
                f"multilevel_fine_iterations must be >= 1, got {self.multilevel_fine_iterations}"
            )
        if not math.isfinite(self.multilevel_round_slack) or self.multilevel_round_slack < 0:
            raise PartitionError(
                f"multilevel_round_slack must be >= 0, got {self.multilevel_round_slack}"
            )

    @property
    def weights(self):
        """The tuple ``(c1, c2, c3, c4)``."""
        return (self.c1, self.c2, self.c3, self.c4)

    def with_(self, **overrides):
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)
