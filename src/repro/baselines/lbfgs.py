"""Quasi-Newton alternative to Algorithm 1 (extension, not in the paper).

Section V of the paper weighs plain gradient descent against
second-order methods: "Advanced algorithms such as the Newton method
[...] require the calculation of the Hessian matrix, which is
computationally expensive."  L-BFGS sits exactly between the two — it
approximates curvature from gradient history at first-order cost — and
SciPy's ``L-BFGS-B`` natively handles the box constraint
``w[i,k] in [0, 1]`` that Algorithm 1 enforces by clipping.

:func:`minimize_assignment_lbfgs` returns the same
:class:`~repro.core.optimizer.GradientDescentTrace` as the paper's
solver, and :func:`partition_lbfgs` wraps it in the same restart,
rounding and repair steps as :func:`repro.core.partitioner.partition`,
so the ablation bench can swap solvers.  The ``exact`` gradient flavor
is forced: a quasi-Newton line search needs the gradient to actually be
the derivative of the objective, which eq. (10)'s printed F4 gradient
is not (see DESIGN.md).
"""

import numpy as np

from repro.core.assignment import random_assignment, round_assignment
from repro.core.config import PartitionConfig
from repro.core.cost import integer_cost
from repro.core.kernel import FusedKernel
from repro.core.optimizer import GradientDescentTrace
from repro.core.partitioner import PartitionResult, _repair_empty_planes
from repro.utils.errors import PartitionError
from repro.utils.rng import make_rng, spawn_rngs


def minimize_assignment_lbfgs(num_planes, edges, bias, area, config, rng=None, w0=None):
    """Minimize eq. (8) with L-BFGS-B; returns a
    :class:`~repro.core.optimizer.GradientDescentTrace` (same contract
    as the paper's solver, ``iterations`` counting L-BFGS iterations).
    """
    from scipy.optimize import minimize  # deferred: scipy optional at import time

    bias = np.asarray(bias, dtype=float)
    area = np.asarray(area, dtype=float)
    num_gates = bias.shape[0]
    if num_planes < 1:
        raise PartitionError(f"num_planes must be >= 1, got {num_planes}")
    if num_planes > num_gates:
        raise PartitionError(
            f"cannot split {num_gates} gates into {num_planes} planes"
        )
    exact_config = config.with_(gradient_mode="exact")
    kernel = FusedKernel(num_planes, edges, bias, area)

    if w0 is None:
        w0 = random_assignment(num_gates, num_planes, rng=make_rng(rng))
    else:
        w0 = np.array(w0, dtype=float)
        if w0.shape != (num_gates, num_planes):
            raise PartitionError(f"w0 must have shape ({num_gates}, {num_planes})")

    shape = (num_gates, num_planes)
    trace = GradientDescentTrace(w=w0)

    def terms_at(flat):
        terms, _ = kernel.cost_and_gradient(
            flat.reshape(shape), exact_config, want_gradient=False
        )
        return terms.term(0)

    def objective(flat):
        terms, gradient = kernel.cost_and_gradient(flat.reshape(shape), exact_config)
        return float(terms.total[0]), gradient[0].ravel()

    def record(flat):
        trace.cost_history.append(terms_at(flat).total)

    record(w0.ravel())
    outcome = minimize(
        objective,
        w0.ravel(),
        method="L-BFGS-B",
        jac=True,
        bounds=[(0.0, 1.0)] * (num_gates * num_planes),
        callback=record,
        options={
            "maxiter": config.max_iterations,
            # map the paper's relative-change margin onto L-BFGS's
            # machine-epsilon-scaled ftol
            "ftol": config.margin * 1e-3,
        },
    )
    trace.w = outcome.x.reshape(shape)
    trace.converged = bool(outcome.success)
    trace.iterations = int(outcome.nit)
    trace.final_terms = terms_at(outcome.x)
    if not trace.cost_history or trace.cost_history[-1] != trace.final_terms.total:
        trace.cost_history.append(trace.final_terms.total)
    return trace


def partition_lbfgs(netlist, num_planes, config=None, seed=None):
    """Partition with the L-BFGS-B solver (same restart/rounding wrapper
    as :func:`repro.core.partitioner.partition`)."""
    if config is None:
        config = PartitionConfig()
    if num_planes == 1:
        labels = np.zeros(netlist.num_gates, dtype=np.intp)
        return PartitionResult(netlist=netlist, num_planes=1, labels=labels, config=config)

    edges = netlist.edge_array()
    bias = netlist.bias_vector_ma()
    area = netlist.area_vector_um2()
    streams = spawn_rngs(make_rng(config.seed if seed is None else seed), config.restarts)

    best, best_cost, best_labels = None, np.inf, None
    restart_costs = []
    for stream in streams:
        trace = minimize_assignment_lbfgs(
            num_planes, edges, bias, area, config, rng=stream
        )
        labels = round_assignment(trace.w)
        cost = integer_cost(labels, num_planes, edges, bias, area, config)
        restart_costs.append(cost)
        if cost < best_cost:
            best, best_cost, best_labels = trace, cost, labels

    repaired = 0
    if config.ensure_nonempty:
        best_labels, repaired = _repair_empty_planes(best_labels, num_planes, netlist)
    return PartitionResult(
        netlist=netlist,
        num_planes=num_planes,
        labels=best_labels,
        config=config,
        trace=best,
        restart_costs=restart_costs,
        repaired_gates=repaired,
    )
