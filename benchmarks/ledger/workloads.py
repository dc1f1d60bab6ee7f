"""The ledger workloads, each a fixed op list generated from a seed.

A workload builds a :class:`Plan`: requests solved through the API
during set-up (results a hit reads), a few untimed warm-up ops, and the
op list the timed pass draws from.  The program only ever receives the
request bodies built here.

The timed pass runs whole *windows* of :attr:`Workload.window` ops, each
a whole number of mix blocks, so every window sends the declared mix.

Set-up and warm-up do not depend on the seed.  Their answers are the
workload's *quality panel*: the quality metrics are read from them, so
that they are deterministic and the same for every seed, and any change
to them is a change of the code.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class Op:
    """One request of a pass.

    ``check`` selects the correctness gate: ``"replay"`` (re-run
    in-process and compare bitwise) or ``"hit"`` (equal to the set-up
    answer labelled ``ref``).
    """

    index: int
    body: dict
    check: str = None
    ref: object = None
    label: str = None


@dataclass
class Plan:
    setup: list
    warmup: list
    #: The timed pass runs a prefix of these, in whole windows.
    ops: list
    fleet: bool = False
    #: Suite circuits synthesized before the programs start.
    circuits: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object  # build(rng, count) -> Plan with ``count`` ops
    #: Ops per window: a whole number of mix blocks lasting a second or
    #: more, so that a window's throughput averages many ops.
    window: int
    #: Ops per second no host of the ledger reaches; sizes the op list
    #: so that a pass of ``seconds`` never runs out of ops.
    ceiling: float

    def count(self, seconds):
        """Ops generated for a pass of ``seconds``: whole windows."""
        windows = max(math.ceil(MIN_OPS / self.window),
                      math.ceil(seconds * self.ceiling / self.window))
        return windows * self.window


#: Every ``REPLAY_EVERY``-th op of a replayed workload is re-run in-process.
REPLAY_EVERY = 10
#: A pass runs at least this many ops, so that a p90 has ten samples beyond it.
MIN_OPS = 100
#: Solver seeds of set-up and warm-up lie below ``SEED_FLOOR``, those
#: of the timed ops above.
SEED_FLOOR = 1000


def unique_seeds(rng, count):
    """``count`` distinct solver seeds, all at least :data:`SEED_FLOOR`."""
    seen, out = set(), []
    while len(out) < count:
        for seed in rng.integers(SEED_FLOOR, 2**31 - 1, size=count):
            seed = int(seed)
            if seed not in seen:
                seen.add(seed)
                out.append(seed)
    return out[:count]


def shuffled_blocks(rng, block, count):
    """``count`` items: copies of ``block``, each copy shuffled.

    Every prefix of whole blocks holds the same mix, so every window
    measures the declared proportions, whatever the seed.
    """
    items = []
    while len(items) < count:
        items.extend(block[i] for i in rng.permutation(len(block)))
    return items[:count]


def _solve_plan(rng, count, block, panel, circuits, fleet=False):
    """Unique ``(circuit, K, engine)`` requests, each with a fresh seed.

    The warm-up solves ``panel`` on fixed seeds below :data:`SEED_FLOOR`.
    """

    def bodies(combos, seeds):
        return [
            {"circuit": circuit, "num_planes": k, "engine": engine, "seed": seed}
            for (circuit, k, engine), seed in zip(combos, seeds)
        ]

    timed = bodies(shuffled_blocks(rng, block, count), unique_seeds(rng, count))
    return Plan(
        setup=[],
        warmup=[Op(i, body) for i, body in enumerate(bodies(panel, range(len(panel))))],
        ops=[Op(i, body, check="replay" if i % REPLAY_EVERY == 0 else None)
             for i, body in enumerate(timed)],
        fleet=fleet, circuits=circuits,
    )


# -- solve-mix -----------------------------------------------------------

#: C3540 is left out: its solves cost twice the others', and a pass must
#: reach 100 ops on a slow host within the run's time.
SOLVE_MIX_CIRCUITS = ("KSA16", "MULT8", "ID4", "C432", "C1908")
#: Batched only: a multilevel solve costs 0.05 s on one seed and 0.7 s on
#: the next, so a pass of a few dozen of them measures which seeds it drew.
SOLVE_MIX_BLOCK = [
    (circuit, k, "batched") for circuit in SOLVE_MIX_CIRCUITS for k in (4, 5)
]
#: Every circuit and both K; the MULT8 multilevel answer keeps multilevel
#: quality and its coarse iteration count in the panel.
SOLVE_MIX_PANEL = [
    ("KSA16", 5, "batched"), ("MULT8", 4, "multilevel"), ("ID4", 5, "batched"),
    ("C432", 4, "batched"), ("C1908", 5, "batched"),
]


def solve_mix(rng, count):
    return _solve_plan(rng, count, SOLVE_MIX_BLOCK, SOLVE_MIX_PANEL, SOLVE_MIX_CIRCUITS)


# -- hit-heavy -----------------------------------------------------------

HIT_REQUESTS = [
    {"circuit": circuit, "num_planes": k, "seed": 0}
    for circuit in ("KSA8", "KSA16", "MULT4", "C499")
    for k in (4, 5)
]
ZIPF_EXPONENT = 1.1


def hit_heavy(rng, count):
    """Zipf-weighted repeats of 8 stored requests.

    The Zipf law ranks the requests in :data:`HIT_REQUESTS` order; the
    seed moves the draws, not the ranking, so every seed reads the same
    mix.
    """

    def hit(index, pick):
        return Op(index, HIT_REQUESTS[pick], check="hit", ref=f"hit{pick}")

    weights = 1.0 / (np.arange(1, len(HIT_REQUESTS) + 1) ** ZIPF_EXPONENT)
    picks = rng.choice(len(HIT_REQUESTS), size=count, p=weights / weights.sum())
    return Plan(
        setup=[Op(i, body, label=f"hit{i}") for i, body in enumerate(HIT_REQUESTS)],
        warmup=[hit(i, i) for i in range(4)],
        ops=[hit(i, int(pick)) for i, pick in enumerate(picks)],
        circuits=("KSA8", "KSA16", "MULT4", "C499"),
    )


# -- fleet-solve ---------------------------------------------------------

FLEET_BLOCK = [("KSA8", 4, "batched"), ("KSA16", 4, "batched")]


def fleet_solve(rng, count):
    return _solve_plan(rng, count, FLEET_BLOCK, FLEET_BLOCK * 2, ("KSA8", "KSA16"),
                       fleet=True)


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "solve-mix",
            "unique batched KSA16/MULT8/ID4/C432/C1908 solves at K 4 and 5, "
            "served inline; solver time dominates",
            solve_mix,
            window=len(SOLVE_MIX_BLOCK),
            ceiling=30.0,
        ),
        Workload(
            "hit-heavy",
            "Zipf repeats of 8 stored small requests; every op is a store "
            "hit, so HTTP, routing, api and store reads dominate",
            hit_heavy,
            window=200,
            ceiling=1200.0,
        ),
        Workload(
            "fleet-solve",
            "small unique KSA8/KSA16 solves through a fleet coordinator and "
            "one worker; lease, wire and heartbeat overhead",
            fleet_solve,
            window=10 * len(FLEET_BLOCK),
            ceiling=60.0,
        ),
    )
}
