"""ERSFQ bias-network component sizing.

Section II of the paper distinguishes resistor-biased RSFQ from
energy-efficient ERSFQ, where each gate's bias current flows through a
large inductor fed via a current-limiting Josephson junction.  Current
recycling composes with ERSFQ — the serial chain replaces the external
feed, but every plane still needs its bias inductors, feeding JJs and
(for recycling) dummy structures.  This module sizes those components
with the standard first-order ERSFQ design rules:

* **feeding JJ** — critical current ``I_c ~= bias current * margin``
  (the JJ must carry the gate's bias without switching statically);
* **bias inductor** — must store enough flux that phase buildup over a
  clock period does not starve the gate: ``L_b >= n * Phi0 / I_b`` for
  a chosen quanta budget ``n`` (typically ``n ~ 10`` SFQ pulses);
* **dummy ladder** — a dummy structure passing ``I_d`` is a chain of
  ``ceil(I_d / I_c_max)`` feeding JJs with its own inductor.

Outputs are per-plane component counts and totals — the quantities a
floorplanner needs to budget the bias-network area that the paper's
``A_FS`` free space would absorb.

The module also carries the first-order **static-power model** that
makes recycling worth quantifying (Kirichenko et al., "Zero Static
Power Dissipation Biasing of RSFQ Circuits"; the xeSFQ paper repeats
the same component-energy accounting):

* a resistor-biased RSFQ gate burns ``V_bus * I_design`` *statically*
  in its bias resistor — per feeding point the network is provisioned
  for ``margin`` times the carried current, so the resistive drop
  dissipates ``feeding JJs * (max_ic / margin) * margin * V_bus``
  whether or not the gate ever switches;
* an ERSFQ bias network (feeding JJ + inductor, here composed with the
  recycled serial chain) has **zero** static dissipation; its bias
  supply only injects one ``Phi0`` per feeding point per clock, i.e.
  ``P = I_supply * Phi0 * f_clk``, where recycling shrinks
  ``I_supply`` from ``B_cir`` to ``B_max``.

:func:`estimate_bias_power` turns a per-plane bias vector into both
numbers plus the saving percentage — the energy annotation every Pareto
sweep point carries (see :mod:`repro.harness.pareto`).
"""

from dataclasses import dataclass

import numpy as np

from repro import envcfg
from repro.utils.errors import RecyclingError
from repro.utils.units import BIAS_BUS_VOLTAGE_MV, PHI0_WB

#: Feeding-JJ critical current margin over the carried bias current.
FEEDING_JJ_MARGIN = 1.4
#: Largest practical feeding-JJ critical current (mA).
MAX_FEEDING_JJ_IC_MA = 0.5
#: Flux quanta the bias inductor must absorb per clock window.
QUANTA_BUDGET = 10
#: Default clock frequency of the dynamic-power estimate (GHz); RSFQ
#: logic families conventionally quote bias-network energy at ~20 GHz.
#: Declared once, as the default of ``REPRO_SWEEP_CLOCK_GHZ``.
DEFAULT_CLOCK_GHZ = envcfg.declared("REPRO_SWEEP_CLOCK_GHZ").default


@dataclass(frozen=True)
class ErsfqBiasPlan:
    """Per-plane ERSFQ bias-network sizing for a partition."""

    num_planes: int
    plane_bias_ma: np.ndarray
    feeding_jjs_per_plane: np.ndarray
    inductance_nh_per_plane: np.ndarray
    dummy_feeding_jjs_per_plane: np.ndarray
    total_feeding_jjs: int
    total_inductance_nh: float

    def as_dict(self):
        return {
            "num_planes": self.num_planes,
            "total_feeding_jjs": self.total_feeding_jjs,
            "total_inductance_nh": self.total_inductance_nh,
        }


def bias_inductance_nh(bias_ma, quanta=QUANTA_BUDGET):
    """Minimum bias inductance (nH) for a bias current in mA.

    ``L >= n * Phi0 / I``; with Phi0 ~ 2.07 fWb and I in mA the result
    lands in the nH range typical of published ERSFQ designs.

    A zero-bias plane (inevitable at high K in a sweep) needs no bias
    inductor at all, so it sizes to 0 nH; only a *negative* current is
    a caller error.
    """
    if bias_ma < 0:
        raise RecyclingError(f"bias current must be non-negative, got {bias_ma}")
    if bias_ma == 0:
        return 0.0
    return quanta * PHI0_WB / (bias_ma * 1e-3) * 1e9


def feeding_jj_count(bias_ma, margin=FEEDING_JJ_MARGIN, max_ic_ma=MAX_FEEDING_JJ_IC_MA):
    """Feeding JJs needed to deliver ``bias_ma`` with the given margin.

    Each JJ carries at most ``max_ic_ma / margin`` of bias current.
    """
    if bias_ma < 0:
        raise RecyclingError(f"bias current must be non-negative, got {bias_ma}")
    if bias_ma == 0:
        return 0
    per_jj = max_ic_ma / margin
    return int(np.ceil(bias_ma / per_jj))


@dataclass(frozen=True)
class BiasPowerReport:
    """RSFQ-resistive vs ERSFQ-recycled bias power for one partition.

    All powers are in microwatts; currents in mA.  ``supply_ma_rsfq``
    is the parallel-fed total ``B_cir``; ``supply_ma_ersfq`` is the
    recycled serial chain's ``B_max``.
    """

    energy_uw_rsfq: float
    energy_uw_ersfq: float
    saving_pct: float
    supply_ma_rsfq: float
    supply_ma_ersfq: float
    feeding_jjs: int
    clock_ghz: float

    def as_dict(self):
        return {
            "energy_uw_rsfq": self.energy_uw_rsfq,
            "energy_uw_ersfq": self.energy_uw_ersfq,
            "saving_pct": self.saving_pct,
            "supply_ma_rsfq": self.supply_ma_rsfq,
            "supply_ma_ersfq": self.supply_ma_ersfq,
            "feeding_jjs": self.feeding_jjs,
            "clock_ghz": self.clock_ghz,
        }


def rsfq_static_power_uw(
    per_plane_ma,
    margin=FEEDING_JJ_MARGIN,
    max_ic_ma=MAX_FEEDING_JJ_IC_MA,
    bus_mv=BIAS_BUS_VOLTAGE_MV,
):
    """Static dissipation (µW) of a resistor-biased bias network.

    Each feeding point is provisioned for ``max_ic_ma`` of design
    current; the bias resistor drops the full bus voltage across it, so
    a plane with ``n`` feeding JJs burns ``n * max_ic_ma * bus_mv``
    statically (mA x mV = µW).  Zero-bias planes contribute nothing.
    """
    total = 0.0
    for bias in per_plane_ma:
        total += feeding_jj_count(float(bias), margin, max_ic_ma) * max_ic_ma * bus_mv
    return total


def ersfq_dynamic_power_uw(supply_ma, clock_ghz=DEFAULT_CLOCK_GHZ):
    """Dynamic bias power (µW) of an ERSFQ supply at a clock rate.

    The feeding JJs admit exactly one flux quantum per clock, so the
    supply delivers ``P = I_supply * Phi0 * f_clk`` and nothing more —
    the zero-static-power property the ERSFQ/xeSFQ papers trade on.
    """
    if supply_ma < 0:
        raise RecyclingError(f"supply current must be non-negative, got {supply_ma}")
    if clock_ghz <= 0:
        raise RecyclingError(f"clock frequency must be positive, got {clock_ghz}")
    return supply_ma * 1e-3 * PHI0_WB * clock_ghz * 1e9 * 1e6


def estimate_bias_power(
    per_plane_ma,
    clock_ghz=DEFAULT_CLOCK_GHZ,
    margin=FEEDING_JJ_MARGIN,
    max_ic_ma=MAX_FEEDING_JJ_IC_MA,
    bus_mv=BIAS_BUS_VOLTAGE_MV,
):
    """Compare RSFQ-resistive vs ERSFQ-recycled bias power for a partition.

    ``per_plane_ma`` is the per-plane bias vector (e.g.
    ``report.bias.per_plane_ma``).  The RSFQ baseline feeds every plane
    in parallel and burns static power in each feeding point's
    resistor; the ERSFQ-recycled network drives the serial chain from a
    single ``B_max`` supply and only pays the flux-quantum injection
    power at ``clock_ghz``.
    """
    biases = [float(b) for b in per_plane_ma]
    for bias in biases:
        if bias < 0:
            raise RecyclingError(f"bias current must be non-negative, got {bias}")
    supply_rsfq = float(sum(biases))
    supply_ersfq = float(max(biases)) if biases else 0.0
    feeding = sum(feeding_jj_count(b, margin, max_ic_ma) for b in biases)
    p_rsfq = rsfq_static_power_uw(biases, margin, max_ic_ma, bus_mv)
    p_ersfq = ersfq_dynamic_power_uw(supply_ersfq, clock_ghz)
    if p_rsfq > 0:
        saving = (1.0 - p_ersfq / p_rsfq) * 100.0
    else:
        saving = 0.0
    return BiasPowerReport(
        energy_uw_rsfq=p_rsfq,
        energy_uw_ersfq=p_ersfq,
        saving_pct=saving,
        supply_ma_rsfq=supply_rsfq,
        supply_ma_ersfq=supply_ersfq,
        feeding_jjs=feeding,
        clock_ghz=float(clock_ghz),
    )


def plan_ersfq_bias(result, dummy_plan=None, quanta=QUANTA_BUDGET):
    """Size the ERSFQ bias network of every plane of a partition.

    Parameters
    ----------
    result:
        A :class:`~repro.core.partitioner.PartitionResult`.
    dummy_plan:
        Optional :class:`~repro.recycling.dummy.DummyPlan`; computed on
        demand otherwise (dummies need feeding JJs too).
    quanta:
        Flux-quanta budget for the inductor sizing.
    """
    from repro.recycling.dummy import plan_dummies

    if dummy_plan is None:
        dummy_plan = plan_dummies(result)
    per_plane = result.plane_bias_ma()
    k = result.num_planes

    feeding = np.array([feeding_jj_count(float(b)) for b in per_plane], dtype=np.intp)
    inductance = np.array(
        [bias_inductance_nh(float(b), quanta) for b in per_plane]
    )
    dummy_feeding = np.array(
        [
            feeding_jj_count(float(deficit))
            for deficit in dummy_plan.deficit_ma + dummy_plan.overshoot_ma
        ],
        dtype=np.intp,
    )
    return ErsfqBiasPlan(
        num_planes=k,
        plane_bias_ma=per_plane,
        feeding_jjs_per_plane=feeding,
        inductance_nh_per_plane=inductance,
        dummy_feeding_jjs_per_plane=dummy_feeding,
        total_feeding_jjs=int(feeding.sum() + dummy_feeding.sum()),
        total_inductance_nh=float(inductance.sum()),
    )
