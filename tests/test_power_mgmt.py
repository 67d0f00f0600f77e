"""Load budget, monitor scheduling, and the supervised duty cycle."""

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfharvest.errors import QuantityError, ScenarioError, TransitionError
from rfharvest.power_mgmt import (
    CYCLE_STATES,
    CycleReport,
    LoadProfile,
    LoadSwitch,
    MonitorConfig,
    NodeState,
    NodeStateMachine,
    build_cycle_plan,
    cycle_energy,
    cycle_substep,
    monitor_step,
    required_go_voltage,
    resolve_go_threshold,
    run_cycle,
    table1_profiles,
)
from rfharvest.storage import DcDcConverter, Supercap, dcdc_update_running


def _profiles_by_name():
    return {p.name: p for p in table1_profiles()}


def test_default_budget_row_energies():
    rows = _profiles_by_name()
    assert rows["monitor_active"].energy == pytest.approx(0.00018, abs=5e-9)
    assert rows["controller_active"].energy == pytest.approx(0.000144, abs=5e-9)
    assert rows["sensor"].energy == pytest.approx(0.009075, abs=5e-9)
    assert rows["zigbee"].energy == pytest.approx(0.31185, abs=5e-9)


def test_default_budget_total():
    assert cycle_energy(table1_profiles()) == pytest.approx(0.321249, abs=1e-9)
    # printed at two decimals this is the documented 0.32 J
    assert round(cycle_energy(table1_profiles()), 2) == 0.32


def test_budget_scales_linearly_in_duration():
    rows = _profiles_by_name()
    longer = LoadProfile("zigbee", rows["zigbee"].v, rows["zigbee"].i, 5.4)
    assert longer.energy == pytest.approx(0.6237, abs=1e-9)


def test_load_profile_validation():
    with pytest.raises(QuantityError):
        LoadProfile("x", v=0.0, i=1e-3, t=1.0)
    with pytest.raises(QuantityError):
        LoadProfile("x", v=3.3, i=-1e-3, t=1.0)
    with pytest.raises(QuantityError):
        LoadProfile("x", v=3.3, i=1e-3, t=-1.0)


def test_required_go_voltage_oracle():
    v = required_go_voltage(0.32, 1.0, 0.3, 0.9)
    assert v == pytest.approx(0.8950481054731702, rel=1e-14)
    # rounds to the handbook 0.8951
    assert round(v, 4) == 0.8950 or abs(v - 0.8951) < 1e-4
    # 1 F from that voltage holds 0.32 J / 0.9 efficiency above the 0.3 V floor
    assert 0.5 * v * v - 0.5 * 0.3 * 0.3 == pytest.approx(0.32 / 0.9, rel=1e-12)


def test_required_go_voltage_monotonicity():
    base = required_go_voltage(0.32, 1.0, 0.3, 0.9)
    assert required_go_voltage(0.40, 1.0, 0.3, 0.9) > base
    assert required_go_voltage(0.32, 2.0, 0.3, 0.9) < base
    assert required_go_voltage(0.32, 1.0, 0.3, 0.5) > base
    with pytest.raises(QuantityError):
        required_go_voltage(-0.1, 1.0, 0.3, 0.9)
    with pytest.raises(QuantityError):
        required_go_voltage(0.32, 1.0, 0.3, 0.0)


def test_resolve_go_threshold_override_and_floor():
    profiles = table1_profiles()
    explicit = MonitorConfig(go_threshold=2.0)
    assert resolve_go_threshold(explicit, profiles, 1.0, 0.3, 0.9) == 2.0
    derived = MonitorConfig()
    got = resolve_go_threshold(derived, profiles, 1.0, 0.3, 0.9)
    # the physics needs 0.90 V, but the monitor cannot judge below its
    # own 1.8 V operating floor, so the floor wins
    assert got == pytest.approx(1.8)
    # a tiny cap pushes the required voltage above the monitor floor
    small_cap = resolve_go_threshold(derived, profiles, 0.05, 0.3, 0.9)
    assert small_cap == pytest.approx(
        required_go_voltage(cycle_energy(profiles), 0.05, 0.3, 0.9)
    )
    with pytest.raises(QuantityError):
        MonitorConfig(go_threshold=1.0)  # below the monitor's own floor


def test_monitor_wake_period_must_be_positive():
    with pytest.raises(QuantityError, match="wake_period must be positive"):
        MonitorConfig(wake_period=0.0)
    assert MonitorConfig(wake_period=math.inf).wake_period == math.inf  # never wakes


def test_monitor_power_on_schedules_full_period():
    cfg = MonitorConfig(wake_period=604800.0)
    sm = NodeStateMachine()
    i, kind = monitor_step(cfg, sm, v_cap2=2.0, clock=1000.0, dt=1.0,
                           go_threshold=2.0, check_steps=10)
    assert sm.state is NodeState.SLEEP
    assert sm.next_wake == pytest.approx(1000.0 + 604800.0)
    assert (i, kind) == (cfg.i_sleep, "monitor_sleep")


def test_monitor_dead_below_operating_voltage():
    cfg = MonitorConfig()
    sm = NodeStateMachine(state=NodeState.SLEEP, next_wake=500.0)
    i, kind = monitor_step(cfg, sm, v_cap2=1.79, clock=100.0, dt=1.0,
                           go_threshold=2.0, check_steps=10)
    assert (i, kind) == (0.0, "")
    assert sm.state is NodeState.COLD
    assert sm.next_wake == math.inf  # schedule lost on brown-out


def test_monitor_check_fires_and_releases_go():
    cfg = MonitorConfig(wake_period=1000.0, check_duration=0.01)
    sm = NodeStateMachine(state=NodeState.SLEEP, next_wake=1000.0)
    check_steps = 10
    # before the wake instant: sleeping
    i, kind = monitor_step(cfg, sm, 2.5, 999.0, 1.0, 2.0, check_steps)
    assert kind == "monitor_sleep" and sm.state is NodeState.SLEEP
    # at the wake instant: check begins, next wake re-armed
    i, kind = monitor_step(cfg, sm, 2.5, 1000.0, 1e-3, 2.0, check_steps)
    assert kind == "monitor_check" and sm.state is NodeState.CHECK
    assert sm.next_wake == pytest.approx(2000.0)
    # the entry step arms the countdown; check_steps more steps run it out
    for _ in range(check_steps - 1):
        i, kind = monitor_step(cfg, sm, 2.5, 1000.0, 1e-3, 2.0, check_steps)
        assert sm.state is NodeState.CHECK
        assert kind == "monitor_check"
        assert i == cfg.i_active
    # final check step: voltage above go releases the cycle
    i, kind = monitor_step(cfg, sm, 2.5, 1000.0, 1e-3, 2.0, check_steps)
    assert sm.state is NodeState.BOOT
    assert sm.enable_monitor  # monitor holds the enable line for handoff


def test_monitor_check_below_go_returns_to_sleep():
    cfg = MonitorConfig(wake_period=1000.0)
    sm = NodeStateMachine(state=NodeState.SLEEP, next_wake=1000.0)
    monitor_step(cfg, sm, 1.9, 1000.0, 1e-3, 2.0, check_steps=2)
    assert sm.state is NodeState.CHECK
    monitor_step(cfg, sm, 1.9, 1000.0, 1e-3, 2.0, check_steps=2)
    assert sm.state is NodeState.CHECK  # countdown still running
    monitor_step(cfg, sm, 1.9, 1000.0, 1e-3, 2.0, check_steps=2)
    assert sm.state is NodeState.SLEEP
    assert not sm.enable_monitor
    assert sm.next_wake == pytest.approx(2000.0)


def test_monitor_sleep_draw_during_cycle_states():
    cfg = MonitorConfig()
    sm = NodeStateMachine(state=NodeState.MEASURE, enable_controller=True)
    i, kind = monitor_step(cfg, sm, 2.4, 50.0, 1e-3, 2.0, 10)
    assert (i, kind) == (cfg.i_sleep, "monitor_sleep")
    assert sm.state is NodeState.MEASURE  # cycle state untouched
    # brown-out mid-cycle drops only the monitor's enable contribution
    sm2 = NodeStateMachine(
        state=NodeState.MEASURE, enable_monitor=True, enable_controller=True
    )
    i, kind = monitor_step(cfg, sm2, 1.0, 50.0, 1e-3, 2.0, 10)
    assert (i, kind) == (0.0, "")
    assert sm2.state is NodeState.MEASURE
    assert not sm2.enable_monitor and sm2.enable_controller


def test_build_cycle_plan_timing_and_switch_losses():
    profiles = table1_profiles()
    plan = build_cycle_plan(profiles, LoadSwitch("sensor"), LoadSwitch("zigbee"))
    assert list(plan) == [NodeState.BOOT, NodeState.HANDOFF, NodeState.MEASURE,
                          NodeState.TRANSMIT, NodeState.SHUTDOWN]
    boot, handoff, measure, transmit, shutdown = plan.values()
    for row in (boot, shutdown):
        assert row.on_s == 0.0 and row.draws == ()
    assert handoff.on_s == pytest.approx(0.3, rel=1e-12)  # 8 - 5 - 2.7
    assert measure.on_s == 5.0
    assert transmit.on_s == 2.7
    assert [n for n, _ in handoff.draws] == ["controller"]
    assert [n for n, _ in measure.draws] == ["controller", "sensor", "switch_sensor"]
    assert [n for n, _ in transmit.draws] == ["controller", "zigbee", "switch_zigbee"]
    for row in (handoff, measure, transmit):
        assert row.draws[0][1] == pytest.approx(1.8e-5, rel=1e-12)
    assert measure.draws[1][1] == pytest.approx(0.001815, rel=1e-12)
    assert measure.draws[2][1] == pytest.approx(0.00055**2 * 0.045, rel=1e-12)
    assert transmit.draws[1][1] == pytest.approx(0.1155, rel=1e-12)
    assert transmit.draws[2][1] == pytest.approx(0.035**2 * 0.045, rel=1e-12)
    assert [row.next for row in plan.values()] == [
        NodeState.HANDOFF, NodeState.MEASURE, NodeState.TRANSMIT,
        NodeState.SHUTDOWN, NodeState.SLEEP,
    ]
    closed = lambda switches: [sw.name for sw in switches if sw.closed]
    for row in (boot, handoff, shutdown):
        assert closed(row.switches) == []
    assert closed(measure.switches) == ["sensor"]
    assert closed(transmit.switches) == ["zigbee"]
    with pytest.raises(ScenarioError):
        build_cycle_plan(
            (LoadProfile("sensor", 3.3, 1e-3, 5.0),),
            LoadSwitch("sensor"), LoadSwitch("zigbee"),
        )


def _boot_machine():
    return NodeStateMachine(
        state=NodeState.BOOT, enable_monitor=True, enable_controller=False
    )


def _run(v0: float, dt: float = 1e-3):
    sm = _boot_machine()
    conv2 = DcDcConverter(enabled=True)
    cap2 = Supercap(c=1.0, v=v0, name="cap2")
    report, conv2, cap2 = run_cycle(
        sm, table1_profiles(), (LoadSwitch("sensor"), LoadSwitch("zigbee")),
        conv2, cap2, dt=dt,
    )
    return report, sm, conv2, cap2


def test_run_cycle_success_from_one_volt():
    report, sm, conv2, cap2 = _run(1.0)
    assert report.success
    assert report.aborted_in is None
    # boot + 8.0 s of powered phases + the teardown step, which the engine
    # counts as it does for ttft in integrated runs
    assert report.duration_s == pytest.approx(8.002, abs=1e-9)
    assert report.v_after == pytest.approx(0.5350340498886809, rel=1e-9)
    assert sm.state is NodeState.SLEEP
    assert not sm.enable_monitor and not sm.enable_controller
    assert not conv2.running and not conv2.enabled
    assert cap2.v == report.v_after


def test_run_cycle_per_load_energies_match_budget():
    report, _, _, _ = _run(1.0)
    by = report.e_by_load
    assert by["controller"] == pytest.approx(0.000144, rel=1e-9)
    assert by["sensor"] == pytest.approx(0.009075, rel=1e-9)
    assert by["zigbee"] == pytest.approx(0.31185, rel=1e-9)
    # switch conduction losses are small but accounted
    assert by["switch_sensor"] == pytest.approx(0.00055**2 * 0.045 * 5.0, rel=1e-9)
    assert by["switch_zigbee"] == pytest.approx(0.035**2 * 0.045 * 2.7, rel=1e-9)
    # converter balance: cap discharge = loads + conversion loss, exactly
    assert report.e_from_cap == pytest.approx(
        sum(report.e_by_load.values()) + report.e_converter_loss, rel=1e-12
    )
    # 90% efficient to within the midpoint-voltage discretization
    assert report.e_from_cap == pytest.approx(
        sum(report.e_by_load.values()) / 0.9, rel=5e-4
    )
    assert report.e_converter_loss > 0.0


def test_run_cycle_completes_from_exactly_go_voltage():
    """A cycle started at the budget-derived minimum lands on the floor.

    The preload budgets the whole 0.32 J cycle at 90% efficiency above a
    0.3 V floor.  The true draw runs ~1 mJ over the rounded budget, so the
    cap finishes a few millivolts under 0.30; the converter's cutoff sits
    below the planning floor, so the radio still finishes its packet.
    """
    v0 = required_go_voltage(0.32, 1.0, 0.3, 0.9)
    assert float(v0) == pytest.approx(0.8950481054731702, rel=1e-12)
    report, sm, conv2, _ = _run(v0)
    assert report.success
    assert report.aborted_in is None
    assert report.v_after == pytest.approx(0.30, abs=0.01)
    assert report.v_after == pytest.approx(0.29569257619700895, rel=1e-9)
    assert sm.state is NodeState.SLEEP
    assert not sm.enable_monitor and not sm.enable_controller
    assert not conv2.running


def test_run_cycle_abort_midway():
    # 0.55 V starts the converter but holds nowhere near one cycle's worth
    report, _, _, cap2 = _run(0.55)
    assert not report.success
    assert report.aborted_in is NodeState.TRANSMIT
    assert cap2.v == pytest.approx(0.25, abs=0.01)


def test_run_cycle_requires_boot_and_enabled_converter():
    profiles = table1_profiles()
    switches = (LoadSwitch("sensor"), LoadSwitch("zigbee"))
    with pytest.raises(TransitionError):
        run_cycle(NodeStateMachine(state=NodeState.SLEEP), profiles, switches,
                  DcDcConverter(enabled=True), Supercap(1.0, 1.0))
    with pytest.raises(TransitionError):
        run_cycle(_boot_machine(), profiles, switches,
                  DcDcConverter(enabled=False), Supercap(1.0, 1.0))
    with pytest.raises(TransitionError):
        # cap too low for the converter to start at all
        run_cycle(_boot_machine(), profiles, switches,
                  DcDcConverter(enabled=True), Supercap(1.0, 0.4))


def test_run_cycle_rejects_bad_step():
    # the engine's config rejects the step before the cycle starts
    for bad_dt in (0.0, -1.0, math.nan):
        with pytest.raises(QuantityError):
            run_cycle(_boot_machine(), table1_profiles(),
                      (LoadSwitch("sensor"), LoadSwitch("zigbee")),
                      DcDcConverter(enabled=True), Supercap(1.0, 1.0), dt=bad_dt)


def test_cycle_enable_line_continuity_and_switch_windows():
    """Walk the cycle step by step: the enable line never drops between
    Boot and Shutdown, and each switch conducts exactly during its phase."""
    sm = _boot_machine()
    conv2 = dcdc_update_running(DcDcConverter(enabled=True), 1.0)
    sw_s, sw_z = LoadSwitch("sensor"), LoadSwitch("zigbee")
    plan = build_cycle_plan(table1_profiles(), sw_s, sw_z)
    dt = 1e-3
    seen = set()
    for _ in range(20000):
        state_before = sm.state
        draws, conv2, sw_s, sw_z, event = cycle_substep(sm, plan, conv2, 1.0, dt)
        seen.add(state_before)
        if event == "done":
            break
        assert sm.enable_line, f"enable line dropped in {state_before}"
        # switch handover happens on the phase-boundary step, so the
        # window invariant applies whenever the step stayed in-phase
        if state_before is NodeState.MEASURE:
            assert {n for n, _ in draws} == {"controller", "sensor", "switch_sensor"}
            if sm.state is state_before:
                assert sw_s.closed and not sw_z.closed
            else:  # last measure step: sensor released, radio taking over
                assert not sw_s.closed and sw_z.closed
        elif state_before is NodeState.TRANSMIT:
            assert {n for n, _ in draws} == {"controller", "zigbee", "switch_zigbee"}
            if sm.state is state_before:
                assert sw_z.closed and not sw_s.closed
            else:
                assert not sw_z.closed
        elif state_before is NodeState.HANDOFF:
            assert {n for n, _ in draws} == {"controller"}
    else:
        pytest.fail("cycle never finished")
    assert seen >= {NodeState.BOOT, NodeState.HANDOFF, NodeState.MEASURE,
                    NodeState.TRANSMIT, NodeState.SHUTDOWN}
    assert sm.state is NodeState.SLEEP
    assert not sm.enable_line
    assert not sw_s.closed and not sw_z.closed


@pytest.mark.parametrize("dt, counts", [
    (1e-3, (1, 300, 5000, 2700, 1)),  # 8,002 steps: the README's 8.002 s
    (7e-3, (1, 43, 714, 386, 1)),
])
def test_cycle_step_counts_per_state(dt, counts):
    """One cycle from a fresh Boot machine at 1.0 V spends one step in
    Boot and in Shutdown, each drawing nothing with both switches open,
    and each powered phase its on-time rounded to whole steps."""
    sm = _boot_machine()
    conv2 = dcdc_update_running(DcDcConverter(enabled=True), 1.0)
    plan = build_cycle_plan(table1_profiles(), LoadSwitch("sensor"), LoadSwitch("zigbee"))
    steps = dict.fromkeys(
        (NodeState.BOOT, NodeState.HANDOFF, NodeState.MEASURE,
         NodeState.TRANSMIT, NodeState.SHUTDOWN), 0
    )
    event = ""
    while event != "done":
        state_before = sm.state
        draws, conv2, sw_s, sw_z, event = cycle_substep(sm, plan, conv2, 1.0, dt)
        steps[state_before] += 1
        if state_before in (NodeState.BOOT, NodeState.SHUTDOWN):
            assert draws == ()
            assert not sw_s.closed and not sw_z.closed
    assert tuple(steps.values()) == counts
    assert sm.state is NodeState.SLEEP


def test_steppers_refuse_a_state_they_do_not_own():
    """cycle_substep refuses a state outside a cycle, and monitor_step a
    state that is neither a cycle state nor Cold, Sleep or Check (none
    exists today: a new one is refused, not stepped as a check)."""
    sm = NodeStateMachine(state=NodeState.SLEEP)
    plan = build_cycle_plan(table1_profiles(), LoadSwitch("sensor"), LoadSwitch("zigbee"))
    with pytest.raises(TransitionError, match="cycle_substep called in state"):
        cycle_substep(sm, plan, DcDcConverter(enabled=True), 1.0, 1e-3)
    assert sm.state is NodeState.SLEEP
    sm.state = SimpleNamespace(cycle=False)
    with pytest.raises(TransitionError, match="monitor cannot step from state"):
        monitor_step(MonitorConfig(), sm, 2.0, 0.0, 1.0, 2.0, 10)


def test_handoff_overlap_monitor_releases_after_controller_holds():
    """During handoff both supervisors hold the line; the monitor lets go
    only at the end, so the OR never glitches low."""
    sm = _boot_machine()
    conv2 = dcdc_update_running(DcDcConverter(enabled=True), 1.0)
    sw_s, sw_z = LoadSwitch("sensor"), LoadSwitch("zigbee")
    plan = build_cycle_plan(table1_profiles(), sw_s, sw_z)
    # boot step raises the controller's hold
    cycle_substep(sm, plan, conv2, 1.0, 1e-3)
    assert sm.state is NodeState.HANDOFF
    assert sm.enable_monitor and sm.enable_controller
    while sm.state is NodeState.HANDOFF:
        cycle_substep(sm, plan, conv2, 1.0, 1e-3)
    assert sm.state is NodeState.MEASURE
    assert not sm.enable_monitor and sm.enable_controller


@given(
    st.floats(min_value=0.31, max_value=4.4),
    st.one_of(st.just(math.inf), st.floats(min_value=1e5, max_value=5e7)),
)
@settings(max_examples=30, deadline=None)
def test_run_cycle_energy_balance_any_preload(v0, r_leak):
    """Whatever the preload and leak: no energy invented, the cap's drop
    beyond loads and conversion loss is at most what the leak can take,
    and teardown is always clean."""
    sm = _boot_machine()
    conv2 = DcDcConverter(enabled=True)
    cap2 = Supercap(c=1.0, v=v0, r_leak=r_leak, name="cap2")
    if v0 < 0.5:
        with pytest.raises(TransitionError):
            run_cycle(sm, table1_profiles(),
                      (LoadSwitch("sensor"), LoadSwitch("zigbee")), conv2, cap2)
        return
    report, conv2, cap2 = run_cycle(
        sm, table1_profiles(), (LoadSwitch("sensor"), LoadSwitch("zigbee")),
        conv2, cap2,
    )
    e_cap_drop = 0.5 * (report.v_before**2 - report.v_after**2)
    # the difference is what leaked, at most v_before^2 / r_leak over the cycle
    leak_bound = report.v_before**2 / r_leak * report.duration_s
    assert -1e-12 <= e_cap_drop - report.e_from_cap <= leak_bound + 1e-12
    assert report.e_from_cap == pytest.approx(
        sum(report.e_by_load.values()) + report.e_converter_loss, rel=1e-12, abs=1e-15
    )
    assert sm.state is NodeState.SLEEP
    assert not sm.enable_line
    assert report.success == (report.aborted_in is None)
    # never more than one fine step's droop below the converter cutoff
    assert cap2.v >= 0.249


def test_state_enums_cover_the_duty_cycle():
    assert [s.value for s in NodeState] == [
        "Cold", "Sleep", "Check", "Boot", "Handoff",
        "Measure", "Transmit", "Shutdown",
    ]
    assert NodeState("Measure") is NodeState.MEASURE
    assert {s for s in NodeState if s.fine} == {
        NodeState.CHECK, NodeState.BOOT, NodeState.HANDOFF,
        NodeState.MEASURE, NodeState.TRANSMIT, NodeState.SHUTDOWN,
    }
    cycle = {s for s in NodeState if s.cycle}
    assert cycle == CYCLE_STATES == {
        NodeState.BOOT, NodeState.HANDOFF, NodeState.MEASURE,
        NodeState.TRANSMIT, NodeState.SHUTDOWN,
    }
