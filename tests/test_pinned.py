"""Tests for pinned-gate constraints (extension)."""

import numpy as np
import pytest

from repro.core.optimizer import minimize_assignment_batch
from repro.core.partitioner import partition
from repro.core.refinement import refine_greedy
from repro.utils.errors import PartitionError


def test_pinned_gates_respected(mixed_netlist, fast_config):
    pins = {"a0": 0, "a29": 3, "b5": 1}
    result = partition(mixed_netlist, 4, config=fast_config, pinned=pins)
    assert result.labels[mixed_netlist.gate("a0").index] == 0
    assert result.labels[mixed_netlist.gate("a29").index] == 3
    assert result.labels[mixed_netlist.gate("b5").index] == 1
    assert result.pinned == {
        mixed_netlist.gate("a0").index: 0,
        mixed_netlist.gate("a29").index: 3,
        mixed_netlist.gate("b5").index: 1,
    }


def test_pins_survive_refinement(mixed_netlist, fast_config):
    pins = {"a0": 0, "a29": 3}
    result = partition(mixed_netlist, 4, config=fast_config, pinned=pins)
    refined = refine_greedy(result, candidate_planes="all")
    assert refined.labels[mixed_netlist.gate("a0").index] == 0
    assert refined.labels[mixed_netlist.gate("a29").index] == 3


def test_pins_attract_neighbors(chain_netlist, fast_config):
    """Pinning the chain's ends to opposite planes must pull their
    neighborhoods along (the F1 term propagates the constraint)."""
    config = fast_config.with_(restarts=4, max_iterations=500)
    result = partition(
        chain_netlist, 2, config=config, pinned={"d0": 0, "d9": 1}
    )
    labels = result.labels
    assert labels[0] == 0 and labels[9] == 1
    # the chain splits with few cut edges despite the forced separation
    distances = result.connection_distances()
    assert int((distances > 0).sum()) <= 3


def test_pinned_plane_out_of_range(mixed_netlist, fast_config):
    with pytest.raises(PartitionError, match="out of range"):
        partition(mixed_netlist, 4, config=fast_config, pinned={"a0": 7})


def test_pinned_unknown_gate(mixed_netlist, fast_config):
    from repro.utils.errors import NetlistError

    with pytest.raises(NetlistError, match="unknown gate"):
        partition(mixed_netlist, 4, config=fast_config, pinned={"zzz": 0})


def test_optimizer_keeps_pinned_rows_onehot():
    edges = np.array([(i, i + 1) for i in range(9)])
    bias = np.ones(10)
    area = np.ones(10)
    from repro.core.config import PartitionConfig

    config = PartitionConfig(max_iterations=50, restarts=1)
    (trace,) = minimize_assignment_batch(
        3, edges, bias, area, config, rngs=[0], pinned={0: 2, 5: 1}
    )
    assert np.allclose(trace.w[0], [0.0, 0.0, 1.0])
    assert np.allclose(trace.w[5], [0.0, 1.0, 0.0])


def test_optimizer_pinned_validation():
    edges = np.zeros((0, 2), dtype=int)
    bias = np.ones(4)
    area = np.ones(4)
    from repro.core.config import PartitionConfig

    with pytest.raises(PartitionError, match="out of range"):
        minimize_assignment_batch(2, edges, bias, area, PartitionConfig(), pinned={9: 0})
    with pytest.raises(PartitionError, match="plane"):
        minimize_assignment_batch(2, edges, bias, area, PartitionConfig(), pinned={0: 5})


def test_repair_never_moves_pinned(library, fast_config):
    """Force a repair scenario and confirm pinned gates stay."""
    from repro.netlist.netlist import Netlist

    netlist = Netlist("tiny", library=library)
    for i in range(6):
        netlist.add_gate(f"g{i}", library["DFF"])
    for i in range(5):
        netlist.connect(f"g{i}", f"g{i + 1}")
    result = partition(
        netlist, 5, config=fast_config.with_(restarts=3), pinned={"g0": 0}
    )
    assert result.labels[0] == 0
    assert (result.plane_sizes() > 0).all()


def _clamp_pinned_per_gate(w, pins):
    """Reference clamp: one loop step per pinned gate."""
    if pins is not None:
        for gate, plane in zip(*pins):
            w[..., gate, :] = 0.0
            w[..., gate, plane] = 1.0
    return w


def test_vectorized_pin_clamp_matches_per_gate_loop(monkeypatch):
    """85 pinned KSA16 gates: the batched descent and a multilevel solve
    (whose coarse problem carries the pins too) are bitwise what they
    are with the clamp written as one loop step per gate."""
    from repro.circuits.suite import build_circuit
    from repro.core import optimizer
    from repro.core.config import PartitionConfig

    netlist = build_circuit("KSA16")
    edges = netlist.edge_array()
    bias, area = netlist.bias_vector_ma(), netlist.area_vector_um2()
    pinned = {gate: gate % 4 for gate in range(0, netlist.num_gates, 7)}
    assert len(pinned) >= 50
    config = PartitionConfig(restarts=3, max_iterations=150)

    def solve():
        batched = minimize_assignment_batch(4, edges, bias, area, config, rngs=8, pinned=pinned)
        result = partition(
            netlist, 4, config=config.with_(engine="multilevel"), seed=8, pinned=pinned
        )
        return batched + [result.trace], result.labels

    traces, labels = solve()
    monkeypatch.setattr(optimizer, "_clamp_pinned", _clamp_pinned_per_gate)
    reference, reference_labels = solve()
    assert np.array_equal(labels, reference_labels)
    for got, want in zip(traces, reference):
        assert np.array_equal(got.w, want.w)
        assert got.cost_history == want.cost_history
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        assert got.final_terms == want.final_terms
    for trace in traces[:3]:
        for gate, plane in pinned.items():
            assert np.array_equal(trace.w[gate], np.eye(4)[plane])
