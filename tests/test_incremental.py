"""Warm-start incremental (ECO) re-partitioning."""

import numpy as np
import pytest

from repro import envcfg
from repro.core.incremental import (
    align_labels,
    carry_forward_labels,
    incremental_partition,
    quality_ok,
)
from repro.core.partitioner import partition
from repro.netlist.graph import bfs_levels, bounded_bfs_levels
from repro.netlist.netlist import Netlist
from repro.netlist.serialize import netlist_from_dict, netlist_to_dict
from repro.utils.errors import PartitionError, ReproError


def _retype(netlist, name, cell_name):
    """The edited netlist with one gate re-typed, via the JSON form."""
    data = netlist_to_dict(netlist)
    data["gates"] = [
        dict(entry, cell=cell_name) if entry["name"] == name else entry
        for entry in data["gates"]
    ]
    data["name"] = netlist.name + "_eco"
    return netlist_from_dict(data, netlist.library)


@pytest.fixture()
def base_solve(mixed_netlist, fast_config):
    result = partition(mixed_netlist, 3, config=fast_config, seed=7)
    return mixed_netlist, result


# ---------------------------------------------------------------------------
# The warm path
# ---------------------------------------------------------------------------

def test_small_edit_resolves_warm_and_passes_the_guard(base_solve, fast_config):
    base, result = base_solve
    edited = _retype(base, "b5", "SPLIT")
    prev = align_labels([g.name for g in base.gates], result.labels, edited)
    warm, info = incremental_partition(
        edited, 3, prev, touched=["b5"], config=fast_config, seed=7
    )
    assert info["mode"] == "warm"
    assert info["fallback_reason"] is None
    # b5 sits mid-chain in the 10-gate B component: halo 2 reaches b3..b7.
    assert info["touched_gates"] == 1
    assert info["region_gates"] == 5
    assert quality_ok(info["cost"], info["reference_cost"],
                      info["quality_eps"])
    assert warm.labels.shape == (edited.num_gates,)
    assert set(np.unique(warm.labels)) <= {0, 1, 2}
    # Warm quality is competitive with a cold solve of the edited netlist.
    cold = partition(edited, 3, config=fast_config, seed=7)
    assert quality_ok(info["cost"], float(cold.integer_cost()), 0.10)


def test_untouched_gates_outside_the_halo_keep_their_planes(base_solve,
                                                            fast_config):
    base, result = base_solve
    edited = _retype(base, "b5", "SPLIT")
    prev = align_labels([g.name for g in base.gates], result.labels, edited)
    warm, info = incremental_partition(
        edited, 3, prev, touched=["b5"], config=fast_config, seed=7
    )
    assert info["mode"] == "warm"
    region = {f"b{i}" for i in range(3, 8)}
    for gate in edited.gates:
        if gate.name not in region:
            assert warm.labels[gate.index] == prev[gate.index], gate.name


def test_empty_edit_returns_the_carried_assignment(base_solve, fast_config):
    base, result = base_solve
    labels = np.asarray(result.labels, dtype=np.intp)
    warm, info = incremental_partition(
        base, 3, labels, touched=[], config=fast_config, seed=7
    )
    assert info["mode"] == "warm"
    assert info["fallback_reason"] is None
    assert info["region_gates"] == 0
    assert info["cost"] == info["reference_cost"]
    assert np.array_equal(warm.labels, labels)


def test_added_gates_count_as_touched_even_when_not_listed(base_solve,
                                                           fast_config):
    base, result = base_solve
    data = netlist_to_dict(base)
    data["name"] = "grown"
    data["gates"] = data["gates"] + [
        {"name": "extra", "cell": "DFF", "x_um": None, "y_um": None}
    ]
    data["edges"] = data["edges"] + [[base.gate("b9").index, len(base.gates)]]
    edited = netlist_from_dict(data, base.library)
    prev = align_labels([g.name for g in base.gates], result.labels, edited)
    assert prev[-1] == -1
    _warm, info = incremental_partition(
        edited, 3, prev, touched=[], config=fast_config, seed=7
    )
    assert info["touched_gates"] == 1
    assert info["region_gates"] >= 1


def test_single_plane_is_trivially_warm(base_solve, fast_config):
    base, result = base_solve
    warm, info = incremental_partition(
        base, 1, np.zeros(base.num_gates, dtype=np.intp), touched=["a0"],
        config=fast_config, seed=7,
    )
    assert info["mode"] == "warm"
    assert not warm.labels.any()


# ---------------------------------------------------------------------------
# Fallbacks
# ---------------------------------------------------------------------------

def test_region_threshold_falls_back_to_a_cold_solve(base_solve, fast_config):
    base, result = base_solve
    edited = _retype(base, "b5", "SPLIT")
    prev = align_labels([g.name for g in base.gates], result.labels, edited)
    warm, info = incremental_partition(
        edited, 3, prev, touched=["b5"], config=fast_config, seed=7,
        threshold=0.05,  # region is 5/40 = 12.5% > 5%
    )
    assert info["mode"] == "cold"
    assert info["fallback_reason"] == "region-threshold"
    cold = partition(edited, 3, config=fast_config, seed=7)
    assert np.array_equal(warm.labels, cold.labels)


def test_quality_guard_falls_back_when_the_warm_solve_regresses(
        base_solve, fast_config, monkeypatch):
    """Force the warm descent to return garbage (everything on plane 0);
    the full-netlist quality guard must catch it and re-solve cold."""
    base, result = base_solve
    edited = _retype(base, "b5", "SPLIT")
    prev = align_labels([g.name for g in base.gates], result.labels, edited)

    class _Garbage:
        def __init__(self, rows, planes):
            # Alternate the extreme planes along the region chain: every
            # region-internal connection pays the maximum plane distance,
            # which no carried assignment can fail to beat.
            self.w = np.zeros((rows, planes))
            self.w[::2, 0] = 1.0
            self.w[1::2, planes - 1] = 1.0

    def fake_minimize(num_planes, edges, bias, area, config, rngs, w0, pinned):
        return [_Garbage(w0.shape[1], num_planes) for _ in range(w0.shape[0])]

    monkeypatch.setattr(
        "repro.core.incremental.minimize_assignment_batch", fake_minimize
    )
    warm, info = incremental_partition(
        edited, 3, prev, touched=["b5"], config=fast_config, seed=7,
        quality_eps=0.0,
    )
    assert info["mode"] == "cold"
    assert info["fallback_reason"] == "quality-guard"
    cold = partition(edited, 3, config=fast_config, seed=7)
    assert np.array_equal(warm.labels, cold.labels)


# ---------------------------------------------------------------------------
# Helpers: align / carry-forward / region BFS
# ---------------------------------------------------------------------------

def test_align_labels_fast_path_returns_an_independent_copy(base_solve):
    base, result = base_solve
    names = [g.name for g in base.gates]
    carried = align_labels(names, result.labels, base)
    assert np.array_equal(carried, result.labels)
    carried[0] = (carried[0] + 1) % 3
    assert carried[0] != result.labels[0]  # no aliasing


def test_align_labels_maps_by_name_across_reorder_and_removal(library):
    base = Netlist("b", library=library)
    for name in ("x", "y", "z"):
        base.add_gate(name, library["DFF"])
    edited = Netlist("e", library=library)
    for name in ("z", "new", "x"):
        edited.add_gate(name, library["DFF"])
    carried = align_labels(["x", "y", "z"], [0, 1, 2], edited)
    assert carried.tolist() == [2, -1, 0]


def test_align_labels_rejects_mismatched_shapes(base_solve):
    base, result = base_solve
    with pytest.raises(PartitionError, match="labels for"):
        align_labels(["only-one"], result.labels, base)


def test_carry_forward_places_new_gates_by_neighbor_majority(library):
    netlist = Netlist("vote", library=library)
    for name in ("a", "b", "c", "new"):
        netlist.add_gate(name, library["DFF"])
    netlist.connect("a", "new")
    netlist.connect("b", "new")
    netlist.connect("c", "new")
    labels = carry_forward_labels(netlist, 3, [1, 1, 2, -1])
    assert labels.tolist() == [1, 1, 2, 1]  # majority of {1, 1, 2}


def test_carry_forward_places_isolated_gates_on_the_lightest_plane(library):
    netlist = Netlist("iso", library=library)
    netlist.add_gate("a", library["DFF"])
    netlist.add_gate("b", library["DFF"])
    netlist.add_gate("orphan", library["DFF"])
    labels = carry_forward_labels(netlist, 2, [0, 0, -1])
    assert labels.tolist() == [0, 0, 1]  # plane 1 carries no bias yet


def test_carry_forward_respects_pins_and_validates(library):
    netlist = Netlist("pins", library=library)
    for name in ("a", "b"):
        netlist.add_gate(name, library["DFF"])
    labels = carry_forward_labels(netlist, 2, [0, -1], pinned={1: 1})
    assert labels.tolist() == [0, 1]
    with pytest.raises(PartitionError, match="does not match netlist"):
        carry_forward_labels(netlist, 2, [0])
    with pytest.raises(PartitionError, match="out of range"):
        carry_forward_labels(netlist, 2, [0, 5])


def test_bounded_bfs_matches_clipped_full_bfs(mixed_netlist):
    sources = [0, 17]
    full = bfs_levels(mixed_netlist, sources)
    for halo in (0, 1, 2, 5):
        bounded = bounded_bfs_levels(mixed_netlist, sources, halo)
        expected = np.where((full >= 0) & (full <= halo), full, -1)
        assert np.array_equal(bounded, expected), halo


# ---------------------------------------------------------------------------
# Knob resolution (REPRO_ECO_*)
# ---------------------------------------------------------------------------

HALO, THRESHOLD, EPS = "REPRO_ECO_HALO", "REPRO_ECO_THRESHOLD", "REPRO_ECO_QUALITY_EPS"


def test_knob_defaults_and_explicit_overrides():
    assert envcfg.resolve(HALO) == 2
    assert envcfg.resolve(THRESHOLD) == 0.25
    assert envcfg.resolve(EPS) == 0.05
    assert envcfg.resolve(HALO, 4) == 4
    assert envcfg.resolve(THRESHOLD, 0.5) == 0.5
    assert envcfg.resolve(EPS, 0.0) == 0.0


def test_knobs_resolve_from_environment(monkeypatch):
    monkeypatch.setenv("REPRO_ECO_HALO", "3")
    monkeypatch.setenv("REPRO_ECO_THRESHOLD", "0.4")
    monkeypatch.setenv("REPRO_ECO_QUALITY_EPS", "0.1")
    assert envcfg.resolve(HALO) == 3
    assert envcfg.resolve(THRESHOLD) == 0.4
    assert envcfg.resolve(EPS) == 0.1
    # Explicit values beat the environment.
    assert envcfg.resolve(HALO, 1) == 1


def test_knobs_reject_invalid_values(monkeypatch):
    with pytest.raises(PartitionError, match="REPRO_ECO_HALO must be an integer >= 0"):
        envcfg.resolve(HALO, -1)
    with pytest.raises(PartitionError, match="fraction in"):
        envcfg.resolve(THRESHOLD, 0.0)
    with pytest.raises(PartitionError, match="fraction in"):
        envcfg.resolve(THRESHOLD, 1.5)
    with pytest.raises(PartitionError, match="REPRO_ECO_QUALITY_EPS must be a number >= 0"):
        envcfg.resolve(EPS, -0.1)
    monkeypatch.setenv("REPRO_ECO_HALO", "-2")
    with pytest.raises(ReproError, match="REPRO_ECO_HALO"):
        envcfg.resolve(HALO)


# ---------------------------------------------------------------------------
# Input validation
# ---------------------------------------------------------------------------

def test_incremental_validates_inputs(base_solve, fast_config):
    base, result = base_solve
    labels = np.asarray(result.labels, dtype=np.intp)
    with pytest.raises(PartitionError, match="does not match netlist"):
        incremental_partition(base, 3, labels[:-1], touched=[],
                              config=fast_config)
    with pytest.raises(PartitionError, match="reference plane"):
        incremental_partition(base, 2, np.full(base.num_gates, 2),
                              touched=[], config=fast_config)
    with pytest.raises(PartitionError, match="out of range"):
        incremental_partition(base, 3, labels, touched=[],
                              config=fast_config, pinned={"a0": 9})
    with pytest.raises(PartitionError, match="cannot split"):
        incremental_partition(base, base.num_gates + 1, labels, touched=[],
                              config=fast_config)
