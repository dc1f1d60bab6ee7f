"""Ablation: Algorithm 1's gradient descent vs quasi-Newton (L-BFGS-B).

Section V argues for plain gradient descent because "the Newton method
[...] requires the calculation of the Hessian matrix, which is
computationally expensive" while GD "provides a good estimation for the
result within an acceptable time window".  L-BFGS-B tests that claim at
first-order cost: curvature from gradient history, native [0,1] box
handling.  Written to ``benchmarks/output/ablation_optimizer.txt``.
"""

import pytest

from conftest import write_artifact
from repro.circuits.suite import build_circuit
from repro.core.partitioner import partition
from repro.baselines.lbfgs import partition_lbfgs
from repro.harness.formatting import ascii_table, percent
from repro.metrics.report import evaluate_partition

SOLVERS = {"gradient-descent": partition, "l-bfgs-b": partition_lbfgs}
_RESULTS = {}


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_ablation_optimizer(benchmark, solver, bench_config):
    netlist = build_circuit("KSA8")
    runner = SOLVERS[solver]
    result = benchmark.pedantic(
        runner, args=(netlist, 5), kwargs={"config": bench_config}, rounds=2, iterations=1
    )
    _RESULTS[solver] = (
        evaluate_partition(result),
        result.integer_cost(),
        result.trace.iterations,
    )


def test_ablation_optimizer_report(benchmark, output_dir, bench_config):
    def assemble():
        netlist = build_circuit("KSA8")
        for solver, runner in SOLVERS.items():
            if solver not in _RESULTS:
                result = runner(netlist, 5, config=bench_config)
                _RESULTS[solver] = (
                    evaluate_partition(result),
                    result.integer_cost(),
                    result.trace.iterations,
                )
        rows = []
        for solver in sorted(SOLVERS):
            report, cost, iterations = _RESULTS[solver]
            rows.append([
                solver, percent(report.frac_d_le_1), f"{report.i_comp_pct:.2f}%",
                f"{report.a_fs_pct:.2f}%", f"{cost:.4f}", iterations,
            ])
        return ascii_table(
            ["solver", "d<=1", "I_comp", "A_FS", "integer cost", "iterations"],
            rows,
            title="ablation: gradient descent vs L-BFGS-B (KSA8, K=5)",
        )

    text = benchmark.pedantic(assemble, rounds=1, iterations=1)
    path = write_artifact(output_dir, "ablation_optimizer.txt", text)
    print()
    print(text)
    print(f"[written to {path}]")

    # both must produce usable partitions (not a quality ranking claim;
    # the interesting output is the table itself)
    for solver in SOLVERS:
        report, _, _ = _RESULTS[solver]
        assert report.frac_d_le_2 >= 0.55
        assert report.i_comp_pct <= 60.0
