"""Reflection, resonant tank, rectifier chain, and sensitivity calibration."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfharvest.analog_frontend import (
    CALIBRATION_TOL_DB,
    DEFAULT_ALPHA,
    DEFAULT_R_IN_OHM,
    CalibrationTarget,
    Device,
    RectifierParams,
    ReflectionModel,
    ResonantTank,
    builtin_frontend_presets,
    calibrate_sensitivity,
    chain_constants,
    chain_open_circuit,
    chain_v_oc,
    delivered_power,
    preset_targets,
    sensitivity_threshold_dbm,
    tank_gain,
)
from rfharvest.errors import CalibrationError, QuantityError
from rfharvest.quantities import dbm_to_watts

Q_9DB = 2.8184


def test_delivered_power_reflection():
    refl = ReflectionModel(gamma_sq=0.5)
    assert delivered_power(2e-7, refl) == pytest.approx(1e-7, rel=1e-12)
    assert delivered_power(2e-7, ReflectionModel(gamma_sq=0.0)) == pytest.approx(
        2e-7, rel=1e-12
    )
    with pytest.raises(QuantityError):
        ReflectionModel(gamma_sq=1.5)


def test_tank_gain_on_resonance_is_q():
    tank = ResonantTank(f0_hz=100e6, q=Q_9DB)
    g = tank_gain(tank, 100e6)
    assert g == pytest.approx(Q_9DB, rel=1e-12)
    # 20*log10(2.8184) = 9.00 dB
    assert 20.0 * math.log10(g) == pytest.approx(9.0, abs=0.01)


def test_tank_gain_off_resonance_drops():
    tank = ResonantTank(f0_hz=100e6, q=Q_9DB)
    g0 = tank_gain(tank, 100e6)
    half_bw = 100e6 / (2.0 * Q_9DB)
    for df in (0.2 * half_bw, half_bw, 3.0 * half_bw):
        assert tank_gain(tank, 100e6 - df) < g0
        assert tank_gain(tank, 100e6 + df) < g0
    # sharper tank is narrower: same absolute offset hurts more at higher q
    sharp = ResonantTank(f0_hz=100e6, q=10.0)
    rel_narrow = tank_gain(sharp, 100e6 + half_bw) / tank_gain(sharp, 100e6)
    rel_wide = tank_gain(tank, 100e6 + half_bw) / tank_gain(tank, 100e6)
    assert rel_narrow < rel_wide


@given(
    st.floats(min_value=1.01, max_value=50.0),
    st.floats(min_value=-0.49, max_value=0.49),
)
@settings(max_examples=200)
def test_tank_gain_peaks_at_resonance(q, rel_offset):
    tank = ResonantTank(f0_hz=100e6, q=q)
    f = 100e6 * (1.0 + rel_offset)
    assert tank_gain(tank, f) <= tank_gain(tank, 100e6) + 1e-12


def test_input_amplitude_formula():
    # v_peak = gain * sqrt(2 P r_in): 1 * sqrt(2 * 1e-7 * 5000) = sqrt(1e-3),
    # which one stage without a drop doubles
    v_oc = chain_v_oc(1e-7, 1.0, 5000.0, 0.0, 1.0)
    assert v_oc == pytest.approx(2.0 * math.sqrt(1e-3), rel=1e-12)


def test_rectifier_geometric_ladder():
    params = RectifierParams(
        stages=3, device=Device.ZERO_VT_MOSFET, v_drop=0.1, alpha=0.5,
        r_in=5000.0, r_out_per_stage=100.0,
    )
    tank = ResonantTank(f0_hz=100e6, q=1.0)
    # the power whose drive amplitude is v_peak: v_peak**2 / (2 r_in)
    out = chain_open_circuit(params, tank, 100e6, 0.6 ** 2 / (2.0 * 5000.0))
    # s = 2*(0.6-0.1) = 1.0; sum = 1 + 0.5 + 0.25
    assert out.v_oc == pytest.approx(1.75, rel=1e-12)
    assert out.r_out == pytest.approx(300.0, rel=1e-12)
    # below the device drop, no output at all
    assert chain_open_circuit(params, tank, 100e6, 0.05 ** 2 / (2.0 * 5000.0)).v_oc == 0.0
    # alpha = 1: every stage adds the first one's s, so v_oc is linear in the count
    for n in (1, 2, 3, 8, 25):
        flat = replace(params, stages=n, alpha=1.0)
        assert chain_constants(flat, tank, 100e6)[0][3] == n
        assert chain_open_circuit(flat, tank, 100e6, 0.6 ** 2 / (2.0 * 5000.0)).v_oc == (
            pytest.approx(1.0 * n, rel=1e-12))


def test_rectifier_params_validation():
    with pytest.raises(QuantityError, match="stages must be an integer >= 1, got 0"):
        RectifierParams(stages=0)
    with pytest.raises(QuantityError, match="unknown device 'schottky'"):
        RectifierParams(device="schottky")


def test_marginal_stage_gain_strictly_decreasing():
    base = builtin_frontend_presets()["zerovt_100MHz"].params
    p_del = dbm_to_watts(-37.0)
    tank = builtin_frontend_presets()["zerovt_100MHz"].tank
    v = [
        chain_open_circuit(replace(base, stages=n), tank, 100e6, p_del).v_oc
        for n in range(1, 31)
    ]
    margins = [b - a for a, b in zip(v, v[1:])]
    for m_prev, m_next in zip(margins, margins[1:]):
        assert m_next < m_prev
    # the first 8 stages carry >= 90% of the 25-stage output
    assert v[7] / v[24] >= 0.90


def test_builtin_presets_hit_their_thresholds():
    presets = builtin_frontend_presets()
    assert set(presets) == {"schottky_100MHz", "zerovt_100MHz", "zerovt_900MHz"}
    for name, preset in presets.items():
        achieved = sensitivity_threshold_dbm(
            preset.params, preset.tank, preset.carrier_hz
        )
        assert abs(achieved - preset.threshold_dbm) <= CALIBRATION_TOL_DB, name


def test_threshold_fails_one_db_below_target():
    for preset in builtin_frontend_presets().values():
        below = dbm_to_watts(preset.threshold_dbm - 1.0)
        out = chain_open_circuit(
            preset.params, preset.tank, preset.carrier_hz, below
        )
        assert out.v_oc < 0.5
        at = dbm_to_watts(preset.threshold_dbm)
        assert chain_open_circuit(
            preset.params, preset.tank, preset.carrier_hz, at
        ).v_oc == pytest.approx(0.5, abs=1e-3)


def test_calibrate_single_target_converges():
    target = CalibrationTarget(
        "custom", Device.SCHOTTKY, 12, 250e6, ResonantTank(250e6, 2.0), -22.0
    )
    params = calibrate_sensitivity([target])
    assert (params.alpha, params.r_in) == (DEFAULT_ALPHA, DEFAULT_R_IN_OHM)
    achieved = sensitivity_threshold_dbm(params, target.tank, 250e6)
    assert abs(achieved - (-22.0)) <= CALIBRATION_TOL_DB


def test_calibrate_contradictory_targets_fail():
    t1 = CalibrationTarget(
        "a", Device.SCHOTTKY, 20, 100e6, ResonantTank(100e6, 1.0), -18.0
    )
    t2 = CalibrationTarget(
        "b", Device.SCHOTTKY, 20, 100e6, ResonantTank(100e6, 1.0), -28.0
    )
    with pytest.raises(CalibrationError):
        calibrate_sensitivity([t1, t2])


def test_calibrate_rejects_a_target_no_device_drop_reaches():
    """Closed-form v_drop: a threshold 1 dB below the drop-free chain's
    needs a negative drop and fails; 1 dB above it fits a positive one,
    and the drop-free chain's own threshold fits v_drop = 0, not the
    -2.8e-17 V its rounding gives."""
    tank = ResonantTank(100e6, 1.0)
    free = sensitivity_threshold_dbm(RectifierParams(stages=20, v_drop=0.0), tank, 100e6)

    def target(dbm):
        return CalibrationTarget("a", Device.ZERO_VT_MOSFET, 20, 100e6, tank, dbm)

    with pytest.raises(CalibrationError, match="v_drop"):
        calibrate_sensitivity([target(free - 1.0)])
    assert calibrate_sensitivity([target(free + 1.0)]).v_drop > 0.0
    assert calibrate_sensitivity([target(free)]).v_drop == 0.0


def test_calibrate_rejects_mixed_hardware_and_no_targets():
    t1 = CalibrationTarget(
        "a", Device.SCHOTTKY, 20, 100e6, ResonantTank(100e6, 1.0), -18.0
    )
    t2 = CalibrationTarget(
        "b", Device.ZERO_VT_MOSFET, 25, 100e6, ResonantTank(100e6, 1.0), -37.0
    )
    with pytest.raises(CalibrationError):
        calibrate_sensitivity([t1, t2])
    with pytest.raises(CalibrationError):
        calibrate_sensitivity([])


def test_preset_targets_match_reported_sensitivities():
    targets = preset_targets()
    assert targets["schottky_100MHz"].threshold_dbm == -18.0
    assert targets["zerovt_100MHz"].threshold_dbm == -37.0
    assert targets["zerovt_900MHz"].threshold_dbm == -25.0
    assert targets["schottky_100MHz"].stages == 20
    assert targets["zerovt_100MHz"].stages == 25
