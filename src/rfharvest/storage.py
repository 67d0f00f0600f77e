"""Storage tier: supercapacitors, DC-DC converters, and the charge pump
between them.

Capacitors integrate current with explicit fixed steps; leakage is a
parallel resistance.  Converters are behavioral: a startup threshold, a
minimum operating voltage with hysteresis between the two, and a fixed
efficiency.  The stage-one converter is modeled as
a constant-current pump that moves charge from the harvest cap into the
reservoir cap whenever it is running.

Every step function also returns the energy bookkeeping for that step, and
the terms are chosen so they close exactly against the capacitor energy
change: charge energy is current times midpoint voltage, leak energy is
start voltage times midpoint voltage over the leak resistance.  Both are
second-order accurate; using the exact decomposition keeps the global
conservation check meaningful over millions of steps instead of drowning
it in integrator drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .quantities import finite, fraction, nonnegative, not_below, positive, positive_or_inf

__all__ = [
    "Supercap",
    "DcDcConverter",
    "TransferPolicy",
    "cap_euler",
    "dcdc_update_running",
    "dcdc_supply_current",
    "transfer_step",
]

# Reservoir caps in this class survive to 4.5 V; the pump stops there.
CAP2_V_MAX_DEFAULT = 4.5


@dataclass(frozen=True)
class Supercap:
    """A supercapacitor: capacitance, voltage, leak resistance."""

    c: float
    v: float
    r_leak: float = math.inf
    name: str = "cap"

    def __post_init__(self):
        positive(f"{self.name}: capacitance", self.c)
        positive_or_inf(f"{self.name}: leak resistance", self.r_leak)  # +inf: no leak
        nonnegative(f"{self.name}: voltage", self.v)


@dataclass(frozen=True)
class DcDcConverter:
    """Behavioral boost converter with startup/operate hysteresis.

    Starting needs v_in >= v_startup; once running it keeps going down to
    v_min_operate.  enabled is the external control line; running is the
    converter's own state.

    The default cutoff sits below the 0.3 V floor the energy budget plans
    around: the converter holds up slightly past the usable minimum, so a
    cycle sized to land exactly at the floor finishes instead of dropping
    out on its last few milliseconds.

    Converter 1, the charge pump, runs on its TransferPolicy thresholds
    instead (see transfer_step); its own two are not read.
    """

    v_startup: float = 0.5
    v_min_operate: float = 0.25
    efficiency: float = 0.9
    enabled: bool = False
    running: bool = False

    def __post_init__(self):
        finite("v_startup", self.v_startup)
        positive("v_min_operate", self.v_min_operate)
        not_below("v_startup", self.v_startup, "v_min_operate", self.v_min_operate)
        fraction("efficiency", self.efficiency, 0.9)


@dataclass(frozen=True)
class TransferPolicy:
    """Hysteretic harvest-cap to reservoir-cap transfer rule.

    Pumping starts once the harvest cap reaches start_v, draws pump_current
    from it, and pauses below stop_v until start_v is reached again.
    pump_current sets transfer duration, not transferred energy.
    """

    start_v: float = 0.5
    stop_v: float = 0.3
    pump_current: float = 1e-3

    def __post_init__(self):
        finite("start_v", self.start_v)
        nonnegative("stop_v", self.stop_v)
        not_below("start_v", self.start_v, "stop_v", self.stop_v)
        positive("pump_current", self.pump_current)


def cap_euler(v: float, c: float, r_leak: float, i_in: float, dt: float) -> tuple[float, float]:
    """Plain-float capacitor update kernel of a single step: Engine._step_one
    moves each cap through here; macro-steps take its law in closed form.

    Explicit update dv = (i_in - v / r_leak) * dt / c, clamped at zero.
    Returns (v_new, leaked) with leaked chosen so that
    i_in * v_mid * dt - leaked equals the stored energy change exactly
    (v_mid is the step's midpoint voltage).
    """
    i_leak = v / r_leak  # r_leak = inf gives 0.0, no branch needed
    v2 = v + (i_in - i_leak) * dt / c
    if v2 < 0.0:
        v2 = 0.0
    v_mid = 0.5 * (v + v2)
    leaked = i_leak * v_mid * dt
    if v2 == 0.0:
        # Clamped: the cap gave up exactly its stored energy plus whatever
        # came in; attribute the remainder of the demanded outflow nowhere.
        leaked = min(leaked, 0.5 * c * v * v + (i_in if i_in > 0.0 else 0.0) * v_mid * dt)
    return v2, leaked


def dcdc_update_running(conv: DcDcConverter, v_in: float) -> DcDcConverter:
    """Apply the startup/operate hysteresis for the present input voltage."""
    v = float(v_in)
    running = conv.enabled and (conv.running or v >= conv.v_startup) and v >= conv.v_min_operate
    if running == conv.running:
        return conv
    return replace(conv, running=running)


def dcdc_supply_current(conv: DcDcConverter, v_in: float, p_out: float) -> float:
    """Input current that delivers p_out through the converter from v_in.

    Power balance at fixed efficiency: v_in * i_in * efficiency = p_out.
    """
    return p_out / (conv.efficiency * v_in)


def transfer_step(
    v1: float,
    c1: float,
    v2: float,
    c2: float,
    conv1: DcDcConverter,
    pol: TransferPolicy,
    dt: float,
    cap2_v_max: float = CAP2_V_MAX_DEFAULT,
) -> tuple[float, float, DcDcConverter, float, float]:
    """Move one step's worth of charge from cap1 (v1, c1) into cap2 (v2, c2)
    through conv1.

    Plain-float kernel like cap_euler.  Returns (v1, v2, conv1, moved,
    lost): moved is the energy deposited into cap2, lost the converter's
    conversion loss.  conv1 runs while enabled, from pol.start_v down to
    pol.stop_v; its own thresholds are not read.  The pump draws
    pol.pump_current from cap1, never below pol.stop_v in one step, and
    pauses while cap2 sits at its ceiling.  Leakage is not applied here;
    step the caps separately for that.
    """
    running = conv1.enabled and (conv1.running or v1 >= pol.start_v) and v1 > pol.stop_v
    if running != conv1.running:
        conv1 = replace(conv1, running=running)
    if not running or dt == 0.0 or v2 >= cap2_v_max:
        return v1, v2, conv1, 0.0, 0.0
    # Charge leaving cap1, limited so v1 stops at the converter floor.
    q = min(pol.pump_current * dt, c1 * (v1 - pol.stop_v))
    v1_new = v1 - q / c1
    v1_mid = 0.5 * (v1 + v1_new)
    e_extracted = q * v1_mid  # equals cap1's stored-energy drop exactly
    moved = conv1.efficiency * e_extracted
    lost = e_extracted - moved
    v2_new = math.sqrt(v2 * v2 + 2.0 * moved / c2)
    if v1_new <= pol.stop_v:
        conv1 = replace(conv1, running=False)
    return v1_new, v2_new, conv1, moved, lost
