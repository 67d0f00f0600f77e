"""Analog harvesting chain: antenna match, resonant boost, multi-stage
rectifier.

The chain is behavioral, not device-level.  A reflection factor removes the
power lost to impedance mismatch, a series-resonant tank multiplies the
carrier amplitude by its quality factor at resonance, and the voltage
multiplier's open-circuit output is a geometric sum over stages: each stage
contributes a fraction alpha of the previous one, which reproduces the
observed diminishing return after the first 7 or 8 doubler stages.

Absolute DC output capability is captured by a Thevenin pair (v_oc, r_out)
whose parameters are calibrated against measured sensitivity thresholds (the
weakest input that still rectifies to 0.5 V), not derived from first
principles.  r_out sets charge rate only; it never moves a threshold.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Sequence

from .errors import CalibrationError, QuantityError
from .quantities import count, dbm_to_watts, fraction, nonnegative, positive, watts_to_dbm

__all__ = [
    "Device",
    "ReflectionModel",
    "ResonantTank",
    "RectifierParams",
    "FrontendOutput",
    "CalibrationTarget",
    "FrontendPreset",
    "delivered_power",
    "tank_gain",
    "chain_constants",
    "chain_v_oc",
    "chain_open_circuit",
    "sensitivity_threshold_dbm",
    "calibrate_sensitivity",
    "preset_targets",
    "builtin_frontend_presets",
]

# Calibration anchors shared by the shipped presets.  alpha = 0.7 puts the
# knee of the stage-gain curve at 7-8 stages; r_in is the high input
# impedance the multiplier presents to the tank.  r_out_per_stage sets the
# charge-delivery rate into the harvest cap; the default is the value that
# lands the shipped fluctuating-source scenario in its measured
# multi-week charge window, and it does not affect threshold calibration
# (open-circuit quantity).
DEFAULT_ALPHA = 0.7
DEFAULT_R_IN_OHM = 5000.0
DEFAULT_R_OUT_PER_STAGE_OHM = 109.0
# Quality factor giving the quoted 9 dB resonant voltage gain.
Q_9DB = 2.8184

CALIBRATION_TOL_DB = 0.1
SENSITIVITY_TARGET_V = 0.5


class Device(str, enum.Enum):
    """Rectifying device family used in the multiplier stages."""

    SCHOTTKY = "schottky"
    ZERO_VT_MOSFET = "zero_vt_mosfet"


@dataclass(frozen=True)
class ReflectionModel:
    """Fraction of available power reflected at the antenna interface."""

    gamma_sq: float = 0.5

    def __post_init__(self):
        nonnegative("gamma_sq", self.gamma_sq, 1.0)


@dataclass(frozen=True)
class ResonantTank:
    """Series-resonant input network characterized by (f0, q)."""

    f0_hz: float
    q: float

    def __post_init__(self):
        positive("f0", self.f0_hz)
        positive("q", self.q)


@dataclass(frozen=True)
class RectifierParams:
    """Behavioral multiplier parameters.

    v_drop is the effective per-device conduction loss, alpha the stage-to-
    stage contribution ratio, r_in the RF-side load the multiplier presents,
    r_out_per_stage the DC-side series resistance added by each stage.
    """

    stages: int = 25
    device: Device = Device.ZERO_VT_MOSFET
    v_drop: float = 0.05
    alpha: float = DEFAULT_ALPHA
    r_in: float = DEFAULT_R_IN_OHM
    r_out_per_stage: float = DEFAULT_R_OUT_PER_STAGE_OHM

    def __post_init__(self):
        count("stages", self.stages)
        if not isinstance(self.device, Device):
            raise QuantityError(f"unknown device {self.device!r}")
        nonnegative("v_drop", self.v_drop)
        fraction("alpha", self.alpha)
        positive("r_in", self.r_in)
        positive("r_out_per_stage", self.r_out_per_stage)


@dataclass(frozen=True)
class FrontendOutput:
    """Thevenin equivalent of the whole chain at one operating point."""

    v_oc: float
    r_out: float


def delivered_power(p_avail_w: float, refl: ReflectionModel) -> float:
    """Power that crosses the antenna interface: p * (1 - gamma_sq)."""
    return nonnegative("available power", p_avail_w) * (1.0 - refl.gamma_sq)


def tank_gain(tank: ResonantTank, f_hz: float) -> float:
    """Voltage gain of the series-resonant tank at frequency f.

    Peaks at q on resonance and rolls off as q / sqrt(1 + q^2 x^2) with
    x = f/f0 - f0/f.
    """
    f = positive("frequency", f_hz)
    x = f / tank.f0_hz - tank.f0_hz / f
    return tank.q / math.sqrt(1.0 + tank.q * tank.q * x * x)


def _stage_sum(alpha: float, stages: int) -> float:
    """Sum of the geometric per-stage contributions: 1 + a + ... + a^(N-1)."""
    if alpha == 1.0:
        return float(stages)
    return (1.0 - alpha**stages) / (1.0 - alpha)


def chain_constants(
    params: RectifierParams, tank: ResonantTank, carrier_hz: float
) -> tuple[tuple[float, float, float, float], float]:
    """What the chain's Thevenin pair needs besides the delivered power:
    (tank gain at the carrier, r_in, v_drop, stage sum) for chain_v_oc,
    and r_out, the per-stage series resistance times the stage count,
    which does not depend on the power."""
    consts = (tank_gain(tank, carrier_hz), params.r_in, params.v_drop,
              _stage_sum(params.alpha, params.stages))
    return consts, params.stages * params.r_out_per_stage


def chain_v_oc(p_delivered_w: float, gain: float, r_in: float, v_drop: float,
               stage_sum: float) -> float:
    """Open-circuit voltage of the chain from its constants (chain_constants)
    and a delivered power already known to be finite and >= 0.

    The delivered power dissipates in the multiplier's input resistance, so
    the unboosted amplitude is sqrt(2 * P * r_in); the tank multiplies it
    into v_peak.  The first stage doubles the drive less two conduction
    drops, s = max(0, 2 (v_peak - v_drop)); each later stage adds alpha
    times the previous stage's contribution, so v_oc = s * stage_sum.
    """
    v_peak = gain * math.sqrt(2.0 * p_delivered_w * r_in)
    if not v_peak < math.inf:  # a level near the float limit
        raise QuantityError(f"v_peak must be finite and >= 0, got {v_peak!r}")
    return max(0.0, 2.0 * (v_peak - v_drop)) * stage_sum


def chain_open_circuit(
    params: RectifierParams,
    tank: ResonantTank,
    carrier_hz: float,
    p_delivered_w: float,
) -> FrontendOutput:
    """Full chain from delivered power to the Thevenin DC output."""
    consts, r_out = chain_constants(params, tank, carrier_hz)
    return FrontendOutput(chain_v_oc(nonnegative("delivered power", p_delivered_w), *consts), r_out)


def sensitivity_threshold_dbm(
    params: RectifierParams, tank: ResonantTank, carrier_hz: float
) -> float:
    """Delivered power whose open-circuit output is SENSITIVITY_TARGET_V.

    Closed-form inverse of the chain: the required first-stage contribution
    is target / stage_sum, the required drive is half that plus the device
    drop, and the power follows from the input amplitude relation.
    """
    s_needed = SENSITIVITY_TARGET_V / _stage_sum(params.alpha, params.stages)
    v_peak_needed = 0.5 * s_needed + params.v_drop
    gain = tank_gain(tank, carrier_hz)
    p = (v_peak_needed / gain) ** 2 / (2.0 * params.r_in)
    return watts_to_dbm(p)


@dataclass(frozen=True)
class CalibrationTarget:
    """One measured sensitivity point the chain must reproduce."""

    name: str
    device: Device
    stages: int
    carrier_hz: float
    tank: ResonantTank
    threshold_dbm: float


def calibrate_sensitivity(targets: Sequence[CalibrationTarget]) -> RectifierParams:
    """Fit v_drop so the chain hits the targets.

    alpha, r_in and r_out_per_stage keep their RectifierParams defaults, the
    shared anchors.  v_drop is sensitivity_threshold_dbm solved for it at
    the first target: the drive amplitude at the target power less half the
    first-stage contribution SENSITIVITY_TARGET_V needs.  Every target is
    then verified to within CALIBRATION_TOL_DB.  All targets in one call
    must describe the same device and stage count; distinct operating
    points get distinct parameter sets.
    """
    if not targets:
        raise CalibrationError("no calibration targets given")
    first = targets[0]
    for t in targets[1:]:
        if t.device != first.device or t.stages != first.stages:
            raise CalibrationError(
                f"targets {first.name!r} and {t.name!r} describe different "
                "hardware; calibrate them separately"
            )
    base = RectifierParams(stages=first.stages, device=first.device)
    v_peak = tank_gain(first.tank, first.carrier_hz) * math.sqrt(
        2.0 * base.r_in * dbm_to_watts(first.threshold_dbm))
    v_drop = v_peak - 0.5 * SENSITIVITY_TARGET_V / _stage_sum(base.alpha, base.stages)
    # A target at the drop-free chain's own threshold comes back through
    # dBm and the square root a few ulps off v_peak: that is v_drop = 0.
    if -16 * math.ulp(v_peak) <= v_drop < 0.0:
        v_drop = 0.0
    if not v_drop >= 0.0:
        raise CalibrationError(
            f"target {first.name!r} ({first.threshold_dbm} dBm) needs v_drop "
            f"{v_drop!r} V < 0: with no device drop it reaches 0.5 V at less power"
        )
    fitted = replace(base, v_drop=v_drop)

    for t in targets:
        err = sensitivity_threshold_dbm(fitted, t.tank, t.carrier_hz) - t.threshold_dbm
        if abs(err) > CALIBRATION_TOL_DB:
            raise CalibrationError(
                f"target {t.name!r} missed by {err:+.3f} dB with the fitted "
                "v_drop; targets are contradictory or infeasible"
            )
    return fitted


@dataclass(frozen=True)
class FrontendPreset:
    """A calibrated chain: parameters plus the tank and carrier they assume."""

    name: str
    params: RectifierParams
    tank: ResonantTank
    carrier_hz: float
    threshold_dbm: float


def preset_targets() -> dict[str, CalibrationTarget]:
    """The three measured sensitivity points shipped with the simulator.

    The Schottky build was characterized without a resonant boost (unity
    tank); the zero-threshold MOSFET builds include the 9 dB tank.  The
    900 MHz point is a separate parameter set: frequency-dependent losses
    are absorbed by calibration, not modeled physically.
    """
    return {
        "schottky_100MHz": CalibrationTarget(
            "schottky_100MHz", Device.SCHOTTKY, 20, 100e6,
            ResonantTank(100e6, 1.0), -18.0,
        ),
        "zerovt_100MHz": CalibrationTarget(
            "zerovt_100MHz", Device.ZERO_VT_MOSFET, 25, 100e6,
            ResonantTank(100e6, Q_9DB), -37.0,
        ),
        "zerovt_900MHz": CalibrationTarget(
            "zerovt_900MHz", Device.ZERO_VT_MOSFET, 25, 900e6,
            ResonantTank(900e6, Q_9DB), -25.0,
        ),
    }


def builtin_frontend_presets() -> dict[str, FrontendPreset]:
    """Calibrated parameter sets for the three shipped operating points.

    Calibrated from the targets on every call, in closed form; v_drop is
    the fitted knob.
    """
    presets: dict[str, FrontendPreset] = {}
    for name, target in preset_targets().items():
        params = calibrate_sensitivity([target])
        presets[name] = FrontendPreset(
            name=name,
            params=params,
            tank=target.tank,
            carrier_hz=target.carrier_hz,
            threshold_dbm=target.threshold_dbm,
        )
    return presets
