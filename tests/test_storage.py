"""Supercap dynamics, converter hysteresis, and the charge pump."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfharvest.errors import QuantityError
from rfharvest.storage import (
    CAP2_V_MAX_DEFAULT,
    DcDcConverter,
    Supercap,
    TransferPolicy,
    cap_euler,
    dcdc_supply_current,
    dcdc_update_running,
    transfer_step,
)


def _energy(c, v):
    """Energy stored on a capacitor: E = C * V^2 / 2."""
    return 0.5 * c * v * v


def test_cap_euler_charges_linearly_without_leak():
    v, leaked = cap_euler(0.0, 1.0, math.inf, i_in=1e-3, dt=1.0)
    assert v == pytest.approx(1e-3, rel=1e-12)
    assert leaked == 0.0


def test_cap_euler_leak_matches_rc_decay():
    # Euler with dt much smaller than tau tracks exp decay closely
    c, r = 1.0, 1000.0
    v = 2.0
    dt, t_total = 0.1, 500.0
    steps = int(t_total / dt)
    for _ in range(steps):
        v, _ = cap_euler(v, c, r, 0.0, dt)
    assert v == pytest.approx(2.0 * math.exp(-t_total / (r * c)), rel=1e-3)


def test_cap_euler_clamps_at_zero():
    v, leaked = cap_euler(0.001, 0.01, 1.0, 0.0, dt=100.0)
    assert v == 0.0
    # the clamp cannot invent energy: leaked is capped at what was there
    assert leaked == pytest.approx(_energy(0.01, 0.001), rel=1e-12)


def test_cap_euler_discharge_below_zero_clamps():
    v, _ = cap_euler(0.1, 0.01, math.inf, i_in=-1.0, dt=10.0)
    assert v == 0.0


@given(
    st.floats(min_value=1e-3, max_value=10.0),
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=1e2, max_value=1e8),
    st.floats(min_value=-1e-2, max_value=1e-2),
    st.floats(min_value=1e-4, max_value=10.0),
)
@settings(max_examples=300)
def test_cap_euler_energy_closure(c, v, r_leak, i, dt):
    """i*v_mid*dt - leaked equals the stored-energy change.

    This identity is what makes the run ledger close without tolerance
    tuning.  It holds whenever the zero clamp does not engage, and also
    under the clamp for non-negative inflow; a clamped discharge cannot
    preserve it (the requested charge was never there), which is why the
    engine recomputes draws from energy differences instead.
    """
    v_new, leaked = cap_euler(v, c, r_leak, i, dt)
    assert v_new >= 0.0
    assert leaked >= 0.0
    clamped = v_new == 0.0 and v + (i - v / r_leak) * dt / c < 0.0
    if clamped and i < 0.0:
        assert leaked <= _energy(c, v) + 1e-18
        return
    v_mid = 0.5 * (v + v_new)
    e_in = i * v_mid * dt
    delta = 0.5 * c * (v_new * v_new - v * v)
    # closure is exact in exact arithmetic; in floats both sides round
    # independently, so the tolerance scales with the stored-energy
    # magnitude (the difference of squares cancels), not with delta
    scale = max(1.0, 0.5 * c * v * v, abs(e_in))
    assert abs((e_in - leaked) - delta) <= 1e-12 * scale


def test_cap_euler_open_circuit_never_leaks():
    v_new, leaked = cap_euler(3.0, 1.0, math.inf, 0.0, 1e6)
    assert v_new == 3.0
    assert leaked == 0.0


def test_supercap_validates_inputs():
    # cap_euler itself is an unchecked kernel; the capacitor record is checked
    with pytest.raises(QuantityError):
        Supercap(c=0.0, v=1.0)
    with pytest.raises(QuantityError):
        Supercap(c=1.0, v=-0.1)
    for bad in (0.0, math.nan):
        with pytest.raises(QuantityError, match="cap2: leak resistance"):
            Supercap(c=1.0, v=1.0, r_leak=bad, name="cap2")
    # open circuit is a legal leak resistance
    assert Supercap(c=1.0, v=1.0, r_leak=math.inf).r_leak == math.inf


def test_converter_hysteresis():
    conv = DcDcConverter(enabled=True, v_min_operate=0.3)
    assert not dcdc_update_running(conv, 0.45).running  # below startup
    conv = dcdc_update_running(conv, 0.5)
    assert conv.running
    conv = dcdc_update_running(conv, 0.35)  # sags below startup, keeps going
    assert conv.running
    conv = dcdc_update_running(conv, 0.29)  # below operate floor: drops out
    assert not conv.running
    conv = dcdc_update_running(conv, 0.4)  # needs full startup again
    assert not conv.running
    assert dcdc_update_running(conv, 0.5).running


def test_converter_default_cutoff_below_planning_floor():
    # The budget treats 0.3 V as the usable floor; the converter itself
    # holds up a little lower, so a cycle planned to land at 0.3 V does
    # not trip the cutoff on its final steps.
    conv = dcdc_update_running(DcDcConverter(enabled=True), 1.0)
    assert conv.v_min_operate == 0.25
    assert dcdc_update_running(conv, 0.26).running
    assert not dcdc_update_running(conv, 0.249).running


def test_disabled_converter_never_runs():
    conv = DcDcConverter(enabled=False)
    assert not dcdc_update_running(conv, 5.0).running


def test_converter_efficiency_domain():
    with pytest.raises(QuantityError):
        DcDcConverter(efficiency=0.0)
    with pytest.raises(QuantityError):
        DcDcConverter(efficiency=0.95)  # hardware tops out at 90%
    DcDcConverter(efficiency=0.9)


def test_converter_cutoff_must_be_positive():
    # a zero cutoff would let a drained reservoir divide by its own 0 V
    for bad in (0.0, -0.1):
        with pytest.raises(QuantityError):
            DcDcConverter(v_min_operate=bad)


def test_converter_startup_must_not_be_below_cutoff():
    with pytest.raises(QuantityError, match="v_startup 0.2 below v_min_operate 0.25"):
        DcDcConverter(v_startup=0.2, v_min_operate=0.25)


def test_dcdc_supply_current_power_balance():
    conv = DcDcConverter(enabled=True, efficiency=0.9)
    i_in = dcdc_supply_current(conv, 2.0, p_out=24.5e-3)
    # v_in * i_in * eff == p_out
    assert 2.0 * i_in * 0.9 == pytest.approx(24.5e-3, rel=1e-12)


def test_transfer_waits_for_start_threshold():
    conv1 = DcDcConverter(enabled=True)
    pol = TransferPolicy()
    v1, v2, cv, moved, lost = transfer_step(0.45, 1.5, 0.0, 1.0, conv1, pol, 1.0)
    assert moved == 0.0 and lost == 0.0
    assert v1 == 0.45 and v2 == 0.0
    assert not cv.running


def test_transfer_moves_energy_with_converter_loss():
    conv1 = DcDcConverter(enabled=True)
    pol = TransferPolicy(pump_current=1e-3)
    v1, v2, cv, moved, lost = transfer_step(0.6, 1.5, 0.1, 1.0, conv1, pol, 1.0)
    assert cv.running
    e1_drop = _energy(1.5, 0.6) - _energy(1.5, v1)
    e2_gain = _energy(1.0, v2) - _energy(1.0, 0.1)
    assert moved == pytest.approx(e2_gain, rel=1e-12)
    assert moved + lost == pytest.approx(e1_drop, rel=1e-12)
    assert lost == pytest.approx(e1_drop * 0.1, rel=1e-9)
    # charge moved at the pump current
    assert 1.5 * (0.6 - v1) == pytest.approx(1e-3 * 1.0, rel=1e-12)


def test_transfer_stops_exactly_at_floor_and_drops_out():
    # barely above the floor: the step is charge-limited, not current-limited
    conv1 = dcdc_update_running(DcDcConverter(enabled=True), 0.6)  # already pumping
    pol = TransferPolicy(pump_current=1e-3)
    v1, v2, cv, moved, _ = transfer_step(0.3004, 1.0, 0.0, 1.0, conv1, pol, 1.0)
    assert v1 == pytest.approx(0.3, abs=1e-12)
    assert not cv.running  # dropout at the floor, restart needs start_v
    assert moved > 0.0
    v1b, _, cv2, moved2, _ = transfer_step(v1, 1.0, v2, 1.0, cv, pol, 1.0)
    assert moved2 == 0.0 and not cv2.running and v1b == v1


def test_transfer_follows_the_policy_hysteresis():
    pol = TransferPolicy(start_v=0.5, stop_v=0.3)
    # a running pump at stop_v moves nothing and stops
    on = DcDcConverter(enabled=True, running=True)
    v1, v2, cv, moved, lost = transfer_step(0.3, 1.5, 1.0, 1.0, on, pol, 1.0)
    assert (v1, v2, moved, lost) == (0.3, 1.0, 0.0, 0.0)
    assert not cv.running
    # between stop_v and start_v a stopped pump stays off
    for v in (0.3001, 0.4, 0.4999):
        v1, _, cv, moved, _ = transfer_step(v, 1.5, 1.0, 1.0, cv, pol, 1.0)
        assert moved == 0.0 and v1 == v and not cv.running
    # at start_v it pumps, and keeps pumping below start_v
    v1, _, cv, moved, _ = transfer_step(0.5, 1.5, 1.0, 1.0, cv, pol, 1.0)
    assert cv.running and moved > 0.0 and v1 < 0.5
    v1, _, cv, moved, _ = transfer_step(0.4, 1.5, 1.0, 1.0, cv, pol, 1.0)
    assert cv.running and moved > 0.0 and v1 < 0.4
    # a disabled converter never pumps
    for running in (False, True):
        off = DcDcConverter(enabled=False, running=running)
        v1, _, cv, moved, _ = transfer_step(4.0, 1.5, 1.0, 1.0, off, pol, 1.0)
        assert moved == 0.0 and v1 == 4.0 and not cv.running


def test_transfer_pauses_at_cap2_ceiling():
    conv1 = dcdc_update_running(DcDcConverter(enabled=True), 1.0)
    pol = TransferPolicy()
    v1, v2, cv, moved, lost = transfer_step(
        1.0, 1.5, CAP2_V_MAX_DEFAULT, 1.0, conv1, pol, 1.0
    )
    assert moved == 0.0 and lost == 0.0
    assert v1 == 1.0 and v2 == CAP2_V_MAX_DEFAULT
    assert cv.running  # paused, not dropped out


@given(
    st.floats(min_value=0.0, max_value=4.0),
    st.floats(min_value=0.0, max_value=4.4),
    st.floats(min_value=1e-4, max_value=5e-3),
    st.floats(min_value=1e-3, max_value=1.0),
)
@settings(max_examples=200)
def test_transfer_energy_identity(v1, v2, pump, dt):
    """extracted == moved + lost exactly, and charge never leaves the floor."""
    conv1 = DcDcConverter(enabled=True)
    pol = TransferPolicy(pump_current=pump)
    v1_new, v2_new, cv, moved, lost = transfer_step(v1, 1.5, v2, 1.0, conv1, pol, dt)
    e1_drop = _energy(1.5, v1) - _energy(1.5, v1_new)
    e2_gain = _energy(1.0, v2_new) - _energy(1.0, v2)
    # tolerances scale with stored energy, where the squares cancel
    scale = max(1.0, _energy(1.5, v1), _energy(1.0, v2_new))
    assert abs(e2_gain - moved) <= 1e-12 * scale
    assert abs(e1_drop - (moved + lost)) <= 1e-12 * scale
    assert v1_new >= pol.stop_v or v1_new == v1  # never pumped below the floor
    assert v2_new >= v2


def test_transfer_policy_validation():
    with pytest.raises(QuantityError):
        TransferPolicy(start_v=0.3, stop_v=0.5)  # inverted hysteresis
    with pytest.raises(QuantityError):
        TransferPolicy(pump_current=0.0)
    # a negative floor would let the pump drive the harvest cap below zero
    with pytest.raises(QuantityError):
        TransferPolicy(stop_v=-0.1)
