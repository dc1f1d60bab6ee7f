"""Baseline partitioners.

The paper argues ground-plane partitioning "can not be formulated as a
classic K-way partitioning problem" (Section IV-A) because of the
serial-plane distance cost and the twin balance constraints.  These
baselines make that claim measurable:

* :func:`random_partition` — uniform random assignment (floor);
* :func:`greedy_partition` — dataflow-levelized linear ordering packed
  into bias-balanced contiguous chunks (a strong structural heuristic);
* :func:`spectral_partition` — Fiedler-vector ordering chunked the same
  way (classic spectral linear arrangement);
* :func:`fm_partition` — Fiduccia-Mattheyses-style pass-based
  refinement of a seed partition under the paper's integer cost;
* :func:`partition_lbfgs` — the paper's relaxed cost minimized with
  L-BFGS-B instead of Algorithm 1's gradient descent.

All baselines return :class:`~repro.core.partitioner.PartitionResult`,
so every metric and bench runs on them unchanged.
"""

from repro.baselines.random_partition import random_partition
from repro.baselines.greedy import greedy_partition, levelized_order
from repro.baselines.spectral import spectral_partition, fiedler_order
from repro.baselines.fm import fm_partition
from repro.baselines.annealing import annealing_partition
from repro.baselines.exact import exact_partition
from repro.baselines.multilevel import multilevel_partition
from repro.baselines.lbfgs import minimize_assignment_lbfgs, partition_lbfgs

__all__ = [
    "random_partition",
    "greedy_partition",
    "levelized_order",
    "spectral_partition",
    "fiedler_order",
    "fm_partition",
    "annealing_partition",
    "exact_partition",
    "multilevel_partition",
    "minimize_assignment_lbfgs",
    "partition_lbfgs",
]
