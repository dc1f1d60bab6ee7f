"""Core contribution of the paper: ground-plane partitioning.

Public entry points:

* :func:`repro.core.partitioner.partition` — partition a netlist into K
  serially-biased ground planes (Algorithm 1 + restarts + rounding).
* :func:`repro.core.planner.plan_bias_limited` — find the smallest plane
  count whose maximum per-plane bias stays under a supply limit
  (Table III experiment).
"""

from repro.core.config import PartitionConfig
from repro.core.assignment import (
    random_assignment,
    normalize_rows,
    round_assignment,
    labels_from_assignment,
    one_hot,
)
from repro.core.cost import CostTerms, cost_terms, total_cost, integer_cost
from repro.core.gradients import cost_gradient
from repro.core.kernel import BatchedCostTerms, EdgeIncidence, FusedKernel
from repro.core.megabatch import partition_packed
from repro.core.optimizer import (
    GradientDescentTrace,
    minimize_assignment_batch,
)
from repro.core.partitioner import PartitionResult, finalize_traces, partition
from repro.core.planner import BiasLimitedPlan, plan_bias_limited
from repro.core.refinement import refine_greedy

__all__ = [
    "PartitionConfig",
    "random_assignment",
    "normalize_rows",
    "round_assignment",
    "labels_from_assignment",
    "one_hot",
    "CostTerms",
    "cost_terms",
    "total_cost",
    "integer_cost",
    "cost_gradient",
    "BatchedCostTerms",
    "EdgeIncidence",
    "FusedKernel",
    "partition_packed",
    "GradientDescentTrace",
    "minimize_assignment_batch",
    "PartitionResult",
    "partition",
    "finalize_traces",
    "BiasLimitedPlan",
    "plan_bias_limited",
    "refine_greedy",
]
