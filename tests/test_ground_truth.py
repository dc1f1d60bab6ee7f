"""Ground truth for the fused kernel on generated netlists (Hypothesis).

Netlists of at most 10 gates drawn from the standard cell library, with
K <= 4 planes:

* at a one-hot ``w``, the kernel's relaxed F1-F3 equal the integer terms
  counted straight from the labels — the quartic plane distance of every
  connection, and the spread of the per-plane bias and area sums — and
  their weighted sum is :func:`~repro.core.cost.integer_cost`;
* renumbering the gates (rows of ``w``, bias and area permuted, edges
  relabeled to match) leaves all five kernel cost terms equal.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import one_hot
from repro.core.config import PartitionConfig
from repro.core.cost import integer_cost
from repro.core.kernel import FusedKernel
from repro.netlist.library import default_library
from repro.netlist.netlist import Netlist

LIBRARY = default_library()
CELLS = LIBRARY.names()
CONFIG = PartitionConfig()
RTOL = 1e-12


@st.composite
def netlists(draw, max_gates=10, max_planes=4):
    """``(netlist, K)``: random cells and distinct directed connections."""
    num_gates = draw(st.integers(2, max_gates))
    num_planes = draw(st.integers(2, min(max_planes, num_gates)))
    netlist = Netlist(f"gen{num_gates}", library=LIBRARY)
    for i in range(num_gates):
        netlist.add_gate(f"g{i}", LIBRARY[draw(st.sampled_from(CELLS))])
    pairs = st.tuples(st.integers(0, num_gates - 1), st.integers(0, num_gates - 1))
    for u, v in draw(st.lists(pairs.filter(lambda p: p[0] != p[1]), unique=True,
                              max_size=3 * num_gates)):
        netlist.connect(u, v)
    return netlist, num_planes


def _problem(netlist):
    return netlist.edge_array(), netlist.bias_vector_ma(), netlist.area_vector_um2()


def _spread(per_plane):
    """F2/F3 of a vector of per-plane sums: variance / ((K-1) mean^2)."""
    mean = per_plane.mean()
    if mean == 0.0:
        return 0.0
    return ((per_plane - mean) ** 2).mean() / ((per_plane.size - 1) * mean**2)


@given(netlists(), st.data())
@settings(max_examples=80, deadline=None)
def test_one_hot_kernel_terms_are_the_integer_terms(generated, data):
    netlist, num_planes = generated
    edges, bias, area = _problem(netlist)
    labels = np.array(data.draw(st.lists(
        st.integers(0, num_planes - 1),
        min_size=netlist.num_gates, max_size=netlist.num_gates,
    )))
    terms, _ = FusedKernel(num_planes, edges, bias, area).cost_and_gradient(
        one_hot(labels, num_planes), CONFIG, want_gradient=False
    )

    distance = np.abs(labels[edges[:, 0]] - labels[edges[:, 1]])
    f1 = (distance**4).sum() / (len(edges) * (num_planes - 1) ** 4) if len(edges) else 0.0
    f2 = _spread(np.bincount(labels, weights=bias, minlength=num_planes))
    f3 = _spread(np.bincount(labels, weights=area, minlength=num_planes))
    np.testing.assert_allclose(
        [terms.f1[0], terms.f2[0], terms.f3[0]], [f1, f2, f3], rtol=RTOL, atol=1e-15
    )
    weighted = CONFIG.c1 * terms.f1[0] + CONFIG.c2 * terms.f2[0] + CONFIG.c3 * terms.f3[0]
    np.testing.assert_allclose(
        weighted, integer_cost(labels, num_planes, edges, bias, area, CONFIG),
        rtol=RTOL, atol=1e-15,
    )


@given(netlists(), st.randoms(use_true_random=False), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_gate_permutation_keeps_all_kernel_terms(generated, random, seed):
    netlist, num_planes = generated
    edges, bias, area = _problem(netlist)
    w = np.random.default_rng(seed).uniform(0.0, 1.0, (netlist.num_gates, num_planes))
    order = list(range(netlist.num_gates))
    random.shuffle(order)
    perm = np.array(order)  # new gate j is old gate perm[j]
    renumber = np.argsort(perm)  # old gate i is new gate renumber[i]

    before, _ = FusedKernel(num_planes, edges, bias, area).cost_and_gradient(
        w, CONFIG, want_gradient=False
    )
    after, _ = FusedKernel(
        num_planes, renumber[edges].reshape(-1, 2), bias[perm], area[perm]
    ).cost_and_gradient(w[perm], CONFIG, want_gradient=False)
    for name in ("f1", "f2", "f3", "f4", "total"):
        np.testing.assert_allclose(
            getattr(after, name), getattr(before, name), rtol=RTOL, atol=1e-15,
            err_msg=name,
        )
