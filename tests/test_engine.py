"""Integrated engine runs: anchors, conservation, determinism, stepping."""

import hashlib
import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rfharvest.analog_frontend import (
    ReflectionModel,
    builtin_frontend_presets,
    chain_open_circuit,
    delivered_power,
    tank_gain,
)
from rfharvest.engine import (
    TRACE_HEADER,
    Engine,
    EngineConfig,
    FrontendConfig,
    ManagementConfig,
    Scenario,
    StorageConfig,
    run_scenario,
)
from rfharvest import engine as engine_module
from rfharvest.errors import LedgerError, QuantityError, ScenarioError, TraceError
from rfharvest.power_mgmt import MonitorConfig, NodeState
from rfharvest.quantities import dbm_to_watts
from rfharvest.rf_environment import ConstantSource, FluctuatingSource, TraceSource
from rfharvest.scenario import load_scenario, parse_scenario
from rfharvest.storage import DcDcConverter, Supercap, TransferPolicy

PRESET = builtin_frontend_presets()["zerovt_100MHz"]


def _frontend(gamma=0.5, coupling="thevenin", ideal_eff=1.0):
    return FrontendConfig(
        reflection=ReflectionModel(gamma_sq=gamma),
        tank=PRESET.tank,
        rectifier=PRESET.params,
        carrier_hz=PRESET.carrier_hz,
        coupling=coupling,
        ideal_efficiency=ideal_eff,
    )


def _storage(c1=1.5, c2=1.0, r1=1e6, r2=2e7, conv1_on=True):
    return StorageConfig(
        cap1=Supercap(c=c1, v=0.0, r_leak=r1, name="cap1"),
        cap2=Supercap(c=c2, v=0.0, r_leak=r2, name="cap2"),
        conv1=DcDcConverter(enabled=conv1_on, v_min_operate=0.3),
        conv2=DcDcConverter(),
        transfer=TransferPolicy(),
    )


def _ideal_scenario(stop_j, gamma=0.0, level=-37.0, t_end=4e6):
    """Lossless accumulation baseline: no pump, no loads, no leaks."""
    return Scenario(
        source=ConstantSource(level_dbm=level),
        frontend=_frontend(gamma=gamma, coupling="ideal"),
        storage=_storage(r1=math.inf, r2=math.inf, conv1_on=False),
        management=ManagementConfig(loads_enabled=False),
        engine=EngineConfig(t_end=t_end, stop_stored_j=stop_j),
    )


def _hot_scenario(max_tx=1, t_end=1000.0):
    """Strong constant carrier, small caps: a full duty cycle in minutes."""
    return Scenario(
        source=ConstantSource(level_dbm=-20.0),
        frontend=_frontend(gamma=0.0),
        storage=StorageConfig(
            cap1=Supercap(c=0.1, v=0.0, r_leak=1e6, name="cap1"),
            cap2=Supercap(c=0.05, v=0.0, r_leak=2e7, name="cap2"),
            conv1=DcDcConverter(enabled=True, v_min_operate=0.3),
            conv2=DcDcConverter(),
            transfer=TransferPolicy(),
        ),
        management=ManagementConfig(
            monitor=MonitorConfig(wake_period=300.0, go_threshold=2.0),
        ),
        engine=EngineConfig(t_end=t_end, max_transmissions=max_tx),
    )


def test_ideal_accumulation_time_scales_with_target():
    p = float(dbm_to_watts(-37.0))
    res = run_scenario(_ideal_scenario(0.032))
    assert res.stop_reason == "stored"
    # linear fill: stop on the first whole second holding >= the target
    assert res.t_final == pytest.approx(math.ceil(0.032 / p), abs=1e-9)
    assert res.transmissions == 0 and res.time_to_first_transmission is None
    assert abs(res.ledger.residual()) <= res.ledger.tolerance()


def test_reflection_doubles_accumulation_time():
    t_open = run_scenario(_ideal_scenario(0.032, gamma=0.0)).t_final
    t_half = run_scenario(_ideal_scenario(0.032, gamma=0.5)).t_final
    assert t_half == pytest.approx(2.0 * t_open, abs=2.0)


def test_full_reflection_is_a_null_run():
    res = run_scenario(_ideal_scenario(0.032, gamma=1.0, t_end=500.0))
    assert res.stop_reason == "t_end"
    assert res.v_cap1 == 0.0 and res.v_cap2 == 0.0
    assert res.ledger.e_harvested == 0.0
    assert res.ledger.e_reflected == pytest.approx(
        float(dbm_to_watts(-37.0)) * 500.0, rel=1e-9
    )
    assert res.ledger.residual() == 0.0


def test_thevenin_charging_insensitive_to_step_halving():
    def final_state(dt):
        scn = Scenario(
            source=ConstantSource(level_dbm=-37.0),
            frontend=_frontend(gamma=0.5),
            storage=_storage(),
            management=ManagementConfig(loads_enabled=False),
            engine=EngineConfig(dt_coarse=dt, t_end=2000.0),
        )
        return run_scenario(scn)

    a = final_state(1.0)
    b = final_state(0.5)
    assert a.v_cap1 > 0.05  # the run actually charged something
    assert a.v_cap1 == pytest.approx(b.v_cap1, rel=5e-3)
    assert a.ledger.e_harvested == pytest.approx(b.ledger.e_harvested, rel=5e-3)


def test_seeded_run_traces_are_byte_identical(tmp_path):
    scn = Scenario(
        source=FluctuatingSource(-43.0, -33.0, 60.0, seed=7),
        frontend=_frontend(),
        storage=_storage(),
        management=ManagementConfig(loads_enabled=False),
        engine=EngineConfig(t_end=3600.0),
    )
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_scenario(scn, trace_path=str(p1))
    run_scenario(scn, trace_path=str(p2))
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert b1.startswith((TRACE_HEADER + "\n").encode())


def test_duty_cycle_trace_structure(tmp_path):
    trace = tmp_path / "cycle.csv"
    res = run_scenario(_hot_scenario(), trace_path=str(trace))
    assert res.stop_reason == "transmissions"
    assert res.transmissions == 1 and res.aborted_cycles == 0
    assert res.time_to_first_transmission is not None
    assert res.time_to_first_transmission == res.t_final

    lines = trace.read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    rows = [line.split(",") for line in lines[1:]]
    times = [float(r[0]) for r in rows]
    states = [r[4] for r in rows]
    assert all(b > a for a, b in zip(times, times[1:]))  # strictly forward
    assert times[-1] == pytest.approx(res.t_final)

    seen = set(states)
    assert {"Cold", "Sleep", "Check", "Handoff", "Measure", "Transmit",
            "Shutdown"} <= seen
    # boot shares its step with the check conclusion, so it never lands
    # on a trace row of its own
    assert "Boot" not in seen

    # coarse cadence while cold, fine cadence during the check
    cold_times = [t for t, s in zip(times, states) if s == "Cold"]
    deltas_cold = {round(b - a, 9) for a, b in zip(cold_times, cold_times[1:])}
    assert deltas_cold == {1.0}
    check_times = [t for t, s in zip(times, states) if s == "Check"]
    deltas_check = {round(b - a, 9) for a, b in zip(check_times, check_times[1:])}
    assert deltas_check == {1e-3}

    # wake-to-transmission latency: 10 s check plus the 8.001 s cycle
    assert res.t_final - check_times[0] == pytest.approx(18.001, abs=5e-3)
    # energy columns are cumulative
    harvested = [float(r[5]) for r in rows]
    assert all(b >= a for a, b in zip(harvested, harvested[1:]))


def test_hot_scenario_trace_bytes_are_pinned(tmp_path):
    """Every printed digit of a full duty cycle's per-step trace.

    Refactors of the step arithmetic must leave the trace byte-identical;
    a change that moves a number on purpose re-pins this and says so.
    """
    trace = tmp_path / "hot.csv"
    run_scenario(_hot_scenario(), trace_path=str(trace))
    data = trace.read_bytes()
    assert data.count(b"\n") == 18428
    assert hashlib.sha256(data).hexdigest() == (
        "ca973285a28d352ea7b0f630d21aedac0f7d038489966ba4b5c4697f28f39e4b"
    )


def test_counters_count_every_step_by_regime(tmp_path):
    """A trace has one row per integrator step, so the regime counts add up
    to its rows: the 10 s check is 10,000 fine steps at 1 ms, the cycle
    8,001, and an untraced run counts the same."""
    trace = tmp_path / "hot.csv"
    counts = run_scenario(_hot_scenario(), str(trace)).counters
    rows = trace.read_bytes().count(b"\n") - 1
    steps = counts.coarse_quiet + counts.coarse_pump + counts.fine_check + counts.fine_cycle
    assert steps == rows
    assert (counts.fine_check, counts.fine_cycle, counts.windows) == (10000, 8001, 1)
    assert counts.coarse_pump > 0 and counts.quiet_calls > 0
    assert run_scenario(_hot_scenario()).counters == counts


def test_cycle_invariants_stepwise():
    eng = Engine(_hot_scenario())
    t_end = eng.scenario.engine.t_end
    was_in_cycle = False
    while eng.t < t_end and eng.transmissions < 1:
        eng.step(eng._pick_dt())
        state = eng.sm.state
        if state in (NodeState.MEASURE, NodeState.TRANSMIT):
            assert eng.conv2.running, f"converter-2 down during {state}"
            assert eng.sm.enable_line
        if state in (NodeState.HANDOFF, NodeState.MEASURE, NodeState.TRANSMIT):
            was_in_cycle = True
    assert was_in_cycle and eng.transmissions == 1
    assert not eng.sm.enable_line
    assert abs(eng.ledger.residual()) <= eng.ledger.tolerance()


def test_trace_must_cover_the_horizon_unless_held():
    """A recording that ends before t_end fails at construction, not at
    its last sample in mid-run, and the message names both fixes."""
    samples = tuple((600.0 * k, -30.0) for k in range(200))  # ends at 119,400 s
    base = _ideal_scenario(None, t_end=200000.0)
    with pytest.raises(TraceError) as err:
        Engine(replace(base, source=TraceSource(samples)))
    assert "119400.0 s, before engine.t_end_s = 200000.0 s" in str(err.value)
    assert "hold_last = true" in str(err.value)
    assert "shorter engine.t_end_s" in str(err.value)
    Engine(replace(base, source=TraceSource(samples, hold_last=True)))
    Engine(replace(base, source=TraceSource(samples), engine=EngineConfig(t_end=119400.0)))


def test_dwell_must_not_be_shorter_than_a_fine_step():
    """A fluctuating source's windows shorter than dt_fine fail at
    construction: a step would walk every window it skips (about 1e297 of
    them for a 1e-300 s dwell)."""
    base = _ideal_scenario(None, t_end=100.0)
    for dwell in (1e-300, math.nextafter(1e-3, 0.0)):
        with pytest.raises(QuantityError, match="source.dwell_s .* below engine.dt_fine_s 0.001"):
            Engine(replace(base, source=FluctuatingSource(-43.0, -33.0, dwell)))
    Engine(replace(base, source=FluctuatingSource(-43.0, -33.0, 1e-3)))


def test_stop_reason_t_end():
    res = run_scenario(_ideal_scenario(1e9, t_end=100.0))
    assert res.stop_reason == "t_end"
    assert res.t_final == pytest.approx(100.0)


def test_engine_config_validation():
    with pytest.raises(QuantityError):
        EngineConfig(dt_coarse=1.0, dt_fine=2.0)
    with pytest.raises(QuantityError):
        EngineConfig(t_end=0.0)
    with pytest.raises(QuantityError, match="t_end"):
        EngineConfig(t_end=1e22)  # past 2**52 fine steps a step no longer moves t
    assert EngineConfig(t_end=2.0 ** 52 * 1e-3).t_end == 2.0 ** 52 * 1e-3
    with pytest.raises(QuantityError):
        EngineConfig(max_transmissions=0)
    with pytest.raises(QuantityError):
        EngineConfig(stop_stored_j=0.0)
    with pytest.raises(QuantityError):
        EngineConfig(stop_stored_j=math.inf)
    with pytest.raises(ScenarioError):
        _frontend(coupling="wireless")
    with pytest.raises(QuantityError):
        _frontend(coupling="ideal", ideal_eff=0.0)


def test_conservation_across_mixed_scenarios():
    cases = [
        _hot_scenario(max_tx=2, t_end=2000.0),
        Scenario(
            source=FluctuatingSource(-43.0, -33.0, 60.0, seed=3),
            frontend=_frontend(),
            storage=_storage(),
            management=ManagementConfig(loads_enabled=False),
            engine=EngineConfig(t_end=4000.0),
        ),
        _ideal_scenario(1e9, gamma=0.25, level=-25.0, t_end=1500.0),
    ]
    for scn in cases:
        res = run_scenario(scn)
        led = res.ledger
        assert abs(led.residual()) <= led.tolerance()
        assert (res.time_to_first_transmission is None) == (res.transmissions == 0)


@pytest.mark.parametrize("coupling", ["thevenin", "ideal"])
@pytest.mark.parametrize("preset", sorted(builtin_frontend_presets()))
def test_window_frontend_solve_matches_chain_open_circuit(preset, coupling):
    """The engine solves the frontend's constants once per scenario; per
    window it must give what the validated chain functions give, bit for
    bit: delivered power, and v_oc and r_out under thevenin coupling or the
    deposited power under ideal coupling, at -70 to +10 dBm.  v_oc also
    keeps the chain's operation order, written out here: the tank gain
    times sqrt(2 P r_in), then the stages."""
    p = builtin_frontend_presets()[preset]
    fe = FrontendConfig(ReflectionModel(0.3), p.tank, p.params, p.carrier_hz, coupling, 0.8)
    rng = random.Random(13)
    levels = [-70.0 + 0.25 * i for i in range(321)] + [rng.uniform(-70.0, 10.0) for _ in range(50)]
    for dbm in levels:
        eng = Engine(Scenario(
            source=ConstantSource(level_dbm=dbm), frontend=fe, storage=_storage(),
            management=ManagementConfig(loads_enabled=False), engine=EngineConfig(t_end=1.0),
        ))
        eng._refresh_window()
        p_del = delivered_power(dbm_to_watts(dbm), fe.reflection)
        if coupling == "thevenin":
            out = chain_open_circuit(fe.rectifier, fe.tank, fe.carrier_hz, p_del)
            rect = fe.rectifier
            v_peak = tank_gain(fe.tank, fe.carrier_hz) * math.sqrt(2.0 * p_del * rect.r_in)
            stage_sum = (1.0 - rect.alpha ** rect.stages) / (1.0 - rect.alpha)
            v_oc = max(0.0, 2.0 * (v_peak - rect.v_drop)) * stage_sum
            want = (p_del, out.v_oc, out.r_out, v_oc)
            got = (eng._p_del, eng._v_oc, eng._r_out, eng._v_oc)
        else:
            want, got = (p_del, 0.8 * p_del), (eng._p_del, eng._p_ideal)
        assert repr(got) == repr(want), dbm


def test_rectifier_never_pulls_charge_back():
    # The harvest cap sits above the chain's open-circuit voltage: the
    # rectifier blocks reverse current, so nothing flows either way.
    bundle = parse_scenario(
        "[source]\ntype = constant\nlevel_dbm = -25.0\n"
        "[storage]\ncap1_v0 = 3.0\ncap1_r_leak_ohm = inf\nconv1_enabled = false\n"
        "[management]\nloads_enabled = false\n"
        "[engine]\nt_end_s = 3600\n"
    )
    fe = bundle.scenario.frontend
    p_del = float(dbm_to_watts(-25.0)) * (1.0 - fe.reflection.gamma_sq)
    v_oc = chain_open_circuit(fe.rectifier, fe.tank, fe.carrier_hz, p_del).v_oc
    assert v_oc == pytest.approx(2.02, abs=0.01)
    res = run_scenario(bundle.scenario)
    assert res.stop_reason == "t_end"
    assert res.v_cap1 == 3.0
    assert res.ledger.e_harvested == 0.0


def _recorded_calls(monkeypatch) -> list[tuple]:
    """Wrap Engine.step to record each call's dt, how far it moved the
    clock, the delivered RF power it integrates at, as the per-layer tracer
    does, and whether a cycle aborted in it."""
    calls = []
    step = Engine.step

    def wrapper(eng, dt):
        t, p_del, aborted = eng.t, eng._p_del, eng.aborted_cycles
        step(eng, dt)
        calls.append((dt, eng.t - t, p_del, eng.aborted_cycles > aborted))

    monkeypatch.setattr(Engine, "step", wrapper)
    return calls


def _thevenin_fill(stop_j=0.01):
    return replace(_ideal_scenario(stop_j, gamma=0.5), frontend=_frontend(gamma=0.5))


def _trace_cycle():
    """The hot scenario fed by a held recording whose timestamps fall
    between coarse steps; the cycle comes after the last sample."""
    samples = ((0.0, -21.0), (37.25, -19.5), (101.6, -23.0), (240.125, -18.5), (333.3, -20.0))
    return replace(
        _hot_scenario(), frontend=_frontend(gamma=0.5),
        source=TraceSource(samples, hold_last=True),
    )


def _dwell_cycle():
    """The hot scenario under a 37.3 s dwell: window ends fall between
    coarse steps."""
    return replace(_hot_scenario(), source=FluctuatingSource(-22.0, -18.0, 37.3, seed=4))


def _lossy_ideal_fill():
    """Ideal coupling that passes on 80 % of the delivered power."""
    return replace(
        _ideal_scenario(0.002, gamma=0.5),
        frontend=_frontend(gamma=0.5, coupling="ideal", ideal_eff=0.8),
    )


def _sleeping_node():
    """A precharged reservoir and no pump: between checks the monitor
    sleeps through quiet stretches that draw on cap2."""
    return Scenario(
        source=ConstantSource(level_dbm=-40.0),
        frontend=_frontend(),
        storage=replace(_storage(conv1_on=False),
                        cap2=Supercap(c=0.05, v=2.5, r_leak=2e7, name="cap2")),
        management=ManagementConfig(monitor=MonitorConfig(wake_period=300.0)),
        engine=EngineConfig(t_end=1000.0),
    )


def _lossless_sleeper():
    """The sleeping node with the pump on, -30 dBm and neither cap leaking
    (r_leak = inf, a == 1): cap1 charges up to the pump's start voltage
    and the sleeping monitor drains cap2 in a straight line."""
    base = replace(_sleeping_node(), source=ConstantSource(level_dbm=-30.0))
    return replace(base, storage=replace(
        base.storage,
        cap1=Supercap(c=0.1, v=0.0, r_leak=math.inf, name="cap1"),
        cap2=Supercap(c=0.05, v=2.5, r_leak=math.inf, name="cap2"),
        conv1=DcDcConverter(enabled=True, v_min_operate=0.3),
    ))


def _leaking_past_v_oc():
    """cap1 starts 0.3 V above v_oc in one 3,000 s window: it leaks for
    about 1,400 steps, crosses v_oc from above and then falls on toward the
    charging law's lower fixed point (x k passes 1/2 in that law only)."""
    base = Scenario(
        source=ConstantSource(level_dbm=-25.0),
        frontend=_frontend(),
        storage=_storage(conv1_on=False),
        management=ManagementConfig(loads_enabled=False),
        engine=EngineConfig(t_end=3000.0),
    )
    fe = base.frontend
    p_del = dbm_to_watts(-25.0) * (1.0 - fe.reflection.gamma_sq)
    v_oc = chain_open_circuit(fe.rectifier, fe.tank, fe.carrier_hz, p_del).v_oc
    return replace(base, storage=replace(
        base.storage, cap1=Supercap(c=0.5, v=v_oc + 0.3, r_leak=2e4, name="cap1")
    ))


def _pumped_past_v_oc():
    """The same with the pump enabled: cap1 starts above its start voltage
    while it is idle, so the first step starts it, and later recharges
    reach start_v from below."""
    base = _leaking_past_v_oc()
    return replace(base, storage=replace(
        base.storage, conv1=DcDcConverter(enabled=True, v_min_operate=0.3)
    ))


def _drawless_brown_out():
    """The sleeping node's monitor drawing nothing (i_sleep = 0) while
    cap2 leaks through v_min_operate about 165 s after power-up, inside
    the first wake period: the leak alone browns the monitor out."""
    base = _sleeping_node()
    return replace(
        base,
        storage=replace(base.storage, cap2=Supercap(c=0.05, v=2.5, r_leak=1e4, name="cap2")),
        management=ManagementConfig(monitor=MonitorConfig(wake_period=300.0, i_sleep=0.0)),
    )


def _check_across_a_window():
    """The sleeping node under a 61.5 s dwell: the window end at 307.5 s
    falls inside the 10 s check that starts at 300 s."""
    return replace(_sleeping_node(), source=FluctuatingSource(-41.0, -39.0, 61.5, seed=3))


def _check_brown_out():
    """A 1 mF reservoir just above v_min_operate and a 60 s wake period:
    the check's 10 uA draw browns the monitor out 5.8 s into the first
    check."""
    base = _sleeping_node()
    return replace(
        base,
        storage=replace(base.storage, cap2=Supercap(c=1e-3, v=1.9, r_leak=2e7, name="cap2")),
        management=ManagementConfig(monitor=MonitorConfig(wake_period=60.0)),
    )


def _pumped_check():
    """The lossless sleeper with a 30 mF harvest cap, which reaches the
    pump's start voltage inside the first check."""
    base = _lossless_sleeper()
    return replace(base, storage=replace(
        base.storage, cap1=Supercap(c=0.03, v=0.0, r_leak=math.inf, name="cap1")
    ))


def _short_check():
    """The sleeping node with 0.5 s checks: a fine stretch of 499 steps,
    shorter than a coarse step."""
    return replace(_sleeping_node(), management=ManagementConfig(
        monitor=MonitorConfig(wake_period=300.0, check_duration=0.5)))


def _stored_in_a_check():
    """The sleeping node at -25 dBm, stopped at 15.2 mJ stored: the stored
    energy passes the target 5 s into the first check."""
    base = replace(_sleeping_node(), source=ConstantSource(level_dbm=-25.0))
    return replace(base, engine=replace(base.engine, stop_stored_j=0.0152))


def _ideal_sleeper():
    """Ideal coupling at 80 % while the monitor sleeps on a precharged cap2."""
    return replace(
        _sleeping_node(), frontend=_frontend(gamma=0.5, coupling="ideal", ideal_eff=0.8)
    )


def _lossless_brown_out():
    """The lossless sleeper with the pump off and a 1 mF reservoir: the
    monitor drains cap2 in straight lines (x == 0), asleep and checking,
    through v_min_operate, and the node is Cold from there to 2,000 s."""
    base = _lossless_sleeper()
    return replace(
        base,
        storage=replace(base.storage,
                        cap2=Supercap(c=1e-3, v=2.5, r_leak=math.inf, name="cap2"),
                        conv1=DcDcConverter(enabled=False, v_min_operate=0.3)),
        engine=replace(base.engine, t_end=2000.0),
    )


def _ideal_pumped_sleeper(c1: float = 0.01234567):
    """The ideal sleeper at -20 dBm with the pump on and a lossless cap1:
    v1**2 rises in a straight line (x == 0) to the pump's start voltage,
    episode after episode."""
    base = _ideal_sleeper()
    return replace(
        base,
        source=ConstantSource(level_dbm=-20.0),
        storage=replace(base.storage,
                        cap1=Supercap(c=c1, v=0.0, r_leak=math.inf, name="cap1"),
                        conv1=DcDcConverter(enabled=True, v_min_operate=0.3)),
    )


def _with_dt_coarse(scn: Scenario, dt: float) -> Scenario:
    return replace(scn, engine=replace(scn.engine, dt_coarse=dt))


def _contract_scenarios():
    hot = replace(_hot_scenario(), frontend=_frontend(gamma=0.5))
    return [
        # pump episodes, checks and a cycle whose first Transmit aborts; the
        # monitor powers up inside a stretch of the constant source
        pytest.param(hot, "transmissions", True, id="constant_cycle"),
        # the same with dwell boundaries between coarse steps, no abort
        pytest.param(
            replace(hot, source=FluctuatingSource(-22.0, -18.0, 37.3, seed=4)),
            "transmissions", False, id="fluctuating_cycle",
        ),
        pytest.param(_trace_cycle(), "transmissions", True, id="trace_cycle"),
        pytest.param(_ideal_scenario(0.032, gamma=0.5), "stored", False, id="ideal_fill"),
        pytest.param(_thevenin_fill(), "stored", False, id="thevenin_fill"),
    ]


@pytest.mark.parametrize("scn, stop_reason, aborts", _contract_scenarios())
def test_step_advances_its_dt_at_one_source_level(monkeypatch, scn, stop_reason, aborts):
    """Every step() call, stretches included, advances exactly its dt
    inside one source window: the calls' dt sum to the run's length, and
    p_del * dt summed per call is the delivered RF the ledger books and the
    reflected RF implies.  The one exception is the call whose cycle
    stretch aborts: step() returns on the step that changes the state,
    short of its dt, so sums over dt overcount by the part it did not run
    (a per-call integral of p_del * dt misreads a run with such an abort)."""
    calls = _recorded_calls(monkeypatch)
    res = run_scenario(scn)
    assert res.stop_reason == stop_reason
    assert max(dt for dt, *_ in calls) > 1.0  # stretches were taken
    short = []  # (the dt not run, p_del) of each call that ends short
    for dt, advance, p, aborted in calls:
        if advance != pytest.approx(dt, rel=1e-9, abs=1e-9):
            assert aborted and advance < dt, (dt, advance)
            short.append((dt - advance, p))
    assert len(short) == (1 if aborts else 0)
    t_run = math.fsum(dt for dt, *_ in calls) - math.fsum(gap for gap, _ in short)
    assert t_run == pytest.approx(res.t_final, rel=1e-9)
    gamma_sq = scn.frontend.reflection.gamma_sq
    delivered = (math.fsum(p * dt for dt, _, p, _ in calls)
                 - math.fsum(p * gap for gap, p in short))
    implied = res.ledger.e_reflected * (1.0 - gamma_sq) / gamma_sq
    assert delivered == pytest.approx(implied, rel=1e-9)
    assert res.ledger.e_delivered == pytest.approx(delivered, rel=1e-9)


def _recorded_windows(monkeypatch) -> list[tuple]:
    """Wrap Engine.step to record, per call: t, dt, the clock after it,
    the state, the window end, _p_del and the windows sampled before and
    after it."""
    calls = []
    step = Engine.step

    def wrapper(eng, dt):
        before = (eng.t, dt)
        state, until, p_del, windows = (
            eng.sm.state, eng._window_until, eng._p_del, eng.counters.windows)
        step(eng, dt)
        calls.append((*before, eng.t, state, until, p_del, eng._p_del, windows,
                      eng.counters.windows))

    monkeypatch.setattr(Engine, "step", wrapper)
    return calls


def _realistic_100ks(coupling="thevenin") -> Scenario:
    """The shipped realistic_default over its first 100,000 s: 1,667 source
    windows, no check yet."""
    from rfharvest.scenario import apply_override, read_builtin_scenario

    bundle = parse_scenario(read_builtin_scenario("realistic_default"))
    for key, value in (("engine.t_end_s", "100000"), ("frontend.coupling", coupling)):
        bundle = apply_override(bundle, key, value)
    return bundle.scenario


def _short_dwell_cycle():
    """The hot scenario under a 5 s dwell: window ends fall inside the
    cycle's Measure and Transmit phases."""
    return replace(_hot_scenario(), source=FluctuatingSource(-22.0, -18.0, 5.0, seed=4))


def test_step_calls_stay_inside_their_window(monkeypatch):
    """The per-layer tracer's contract: no step() call samples a window or
    changes the delivered power, a coarse one ends at or before the end of
    the window it started in, and no step of a stretch starts at or past
    it.  So a cycle stretch stops where the window ends (the hot scenario
    under a 5 s dwell), its last step ending on or past it, and so does
    every call of realistic_default over its first 100,000 s."""
    calls = _recorded_windows(monkeypatch)
    starts = []
    step_one = Engine._step_one

    def recording_step_one(eng, dt):
        starts.append((eng.t, eng._window_until))
        step_one(eng, dt)

    monkeypatch.setattr(Engine, "_step_one", recording_step_one)
    for scn, stop_reason in ((_realistic_100ks(), "t_end"), (_short_dwell_cycle(), "transmissions")):
        calls.clear()
        starts.clear()
        res = run_scenario(scn)
        assert res.stop_reason == stop_reason and len(calls) >= res.counters.windows > 40
        for t, dt, t_after, state, until, p_del, p_del_after, windows, windows_after in calls:
            assert t < until and (p_del_after, windows_after) == (p_del, windows), (t, dt)
            if not state.fine:
                assert t_after <= until, (t, dt)
        assert all(t < until for t, until in starts)
    cycle = [(t_after, until) for t, dt, t_after, state, until, *_ in calls
             if state.cycle and dt > 1e-3]
    # a stretch's last step starts before the window end and reaches it
    assert len(cycle) >= 4 and any(0.0 <= t_after - until < 1e-3 for t_after, until in cycle)


def test_check_stretch_runs_to_the_window_end(monkeypatch):
    """A check that straddles a window end is two fine stretches, one per
    window, and its last step: the first holds every fine step that starts
    before the window end, counted on the clock the steps advance, so no
    single steps are left around the window end."""
    calls = _recorded_windows(monkeypatch)
    run_scenario(_check_across_a_window())
    check = [c for c in calls if c[3] is NodeState.CHECK and 300.0 <= c[0] < 310.5]
    assert [dt > 1.0 for _, dt, *_ in check] == [True, True, False]
    (_, _, end, _, until, *_), second, last = check
    assert until == 307.5 and end - 0.001 < until <= end
    assert second[0] == end and second[4] > until
    assert last[1] == 0.001 and last[2] == pytest.approx(310.001)


def test_one_step_call_per_window_and_per_cycle_phase(monkeypatch):
    """realistic_default over 100,000 s takes one step() call per source
    window, pump episodes included; a cycle phase takes at most two calls,
    its steps but the last as one fine stretch, then the step that ends it."""
    calls = _recorded_windows(monkeypatch)
    res = run_scenario(_realistic_100ks())
    assert res.counters.coarse_pump > 0 and res.counters.fine_check == 0
    assert len(calls) == res.counters.windows == 1667

    calls.clear()
    res = run_scenario(_trace_cycle())
    assert res.transmissions == 1 and res.aborted_cycles == 1
    phases = []  # calls per run of calls that start in one cycle phase
    for (_, _, _, state, *_), (_, _, _, before, *_) in zip(calls, [(None,) * 9] + calls):
        if state.cycle:
            if state is before:
                phases[-1] += 1
            else:
                phases.append(1)
    # Handoff, Measure and an aborted Transmit; Handoff, Measure, Transmit, Shutdown
    assert phases == [2, 2, 1, 2, 2, 2, 1]


@pytest.mark.parametrize("gamma_sq", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("make", [_hot_scenario, _dwell_cycle, _lossy_ideal_fill, _ideal_sleeper])
def test_delivered_rf_is_what_the_reflection_passes(make, gamma_sq):
    """The ledger's delivered RF, booked per step and per macro-step outside
    the balance, is the reflected RF times (1 - gamma^2) / gamma^2."""
    base = make()
    scn = replace(base, frontend=replace(
        base.frontend, reflection=ReflectionModel(gamma_sq=gamma_sq)))
    led = run_scenario(scn).ledger
    assert led.e_delivered > 0.0
    assert led.e_delivered == pytest.approx(
        led.e_reflected * (1.0 - gamma_sq) / gamma_sq, rel=1e-12)


@pytest.mark.parametrize("coupling", ["thevenin", "ideal"])
def test_delivered_rf_sums_the_source_windows(coupling):
    """The ledger's delivered RF over realistic_default's first 100,000 s
    equals p_del times the length of each window sample_window gives."""
    from rfharvest.rf_environment import sample_window

    scn = _realistic_100ks(coupling)
    led = run_scenario(scn).ledger
    t, parts = 0.0, []
    while t < 100000.0:
        dbm, until = sample_window(scn.source, t)
        end = min(until, 100000.0)
        parts.append(delivered_power(dbm_to_watts(dbm), scn.frontend.reflection) * (end - t))
        t = end
    assert len(parts) == 1667
    assert led.e_delivered == pytest.approx(math.fsum(parts), rel=1e-12)


def _run_single_steps(scn: Scenario) -> tuple:
    """run()'s loop with every step one step of the single-step rule,
    taken on its own (_step_one)."""
    eng = Engine(scn)
    cfg = scn.engine
    stop_reason = "t_end"
    while eng.t < cfg.t_end - 1e-12:
        eng._pick_dt()
        eng._step_one(eng._offer[2])
        if cfg.max_transmissions is not None and eng.transmissions >= cfg.max_transmissions:
            stop_reason = "transmissions"
            break
        if cfg.stop_stored_j is not None and eng.ledger.e_stored_delta >= cfg.stop_stored_j:
            stop_reason = "stored"
            break
    return (
        eng.time_to_first_tx, eng.transmissions, eng.aborted_cycles, eng.t,
        eng.sm.state.value, eng.v1, eng.v2, eng.go_threshold, stop_reason, vars(eng.ledger),
        _step_counts(eng.counters),
    )


def _step_counts(counters) -> dict:
    """The counters both ways of stepping share: steps per regime, windows."""
    return {k: v for k, v in vars(counters).items() if k != "quiet_calls"}


def _stretched_run(scn: Scenario, trace_path=None) -> tuple:
    res = run_scenario(scn, trace_path)
    return (
        res.time_to_first_transmission, res.transmissions, res.aborted_cycles, res.t_final,
        res.state_final, res.v_cap1, res.v_cap2, res.go_threshold, res.stop_reason,
        vars(res.ledger), _step_counts(res.counters),
    )


def _assert_macro_contract(got: tuple, want: tuple) -> None:
    """The macro-step contract against single steps: stop reason, state,
    transmissions, event times (step indices on the same clock), step
    counts and the ledger's step count and base agree exactly; voltages
    and every energy to 1e-9 relative.  The ledger's count of steps that
    leave cap2's rounding unbooked is skipped, as quiet_calls is: a
    macro-step counts one.  Only e_stored_delta and
    e_harvested also get a floor of 1e-9 of the run's energy scale: they
    are differences of stored energies, which end near zero (a drain that
    the harvest about balances, nothing harvested) with rounding of the
    energies themselves left in them."""
    def split(run):
        ttft, tx, aborted, t, state, v1, v2, go, stop, led, counts = run
        led = dict(led)
        del led["unbooked"]
        by = led.pop("e_load_by_component")
        exact = (ttft, tx, aborted, t, state, go, stop, counts,
                 led.pop("steps"), led.pop("e_initial"), sorted(by))
        return exact, {"v_cap1": v1, "v_cap2": v2, **led, **by}

    exact, values = split(got)
    want_exact, want_values = split(want)
    assert repr(exact) == repr(want_exact)
    led = want[9]
    scale = led["e_initial"] + sum(
        abs(led[k]) for k in ("e_harvested", "e_leaked", "e_converter_loss", "e_load_total")
    )
    for key, value in want_values.items():
        floor = 1e-9 * scale if key in ("e_stored_delta", "e_harvested") else 0.0
        assert values[key] == pytest.approx(value, rel=1e-9, abs=floor), key


def _oracle_scenarios():
    from test_acceptance import _random_scenario
    from rfharvest.scenario import apply_override, read_builtin_scenario

    rng = random.Random(20260816)
    drawn = [_random_scenario(rng, i) for i in range(100)]
    ideal = apply_override(
        parse_scenario(read_builtin_scenario("paper_ideal")), "engine.t_end_s", "86400"
    ).scenario
    # Coarse steps other than 1 s: 0.7 s stretches end on a window with a
    # short step.  Of these, only the lossy fill and the ideal sleeper take
    # quiet steps under ideal coupling, and only the two sleepers quiet steps
    # that drain a charged cap2.
    other_dt = [
        pytest.param(_with_dt_coarse(make(), dt), id=f"{make.__name__[1:]}_dt{dt}")
        for make in (_trace_cycle, _thevenin_fill, _dwell_cycle, _lossy_ideal_fill,
                     _sleeping_node, _ideal_sleeper)
        for dt in (0.5, 0.7)
    ]
    return [pytest.param(drawn[i], id=f"random{i}") for i in range(0, 100, 5)] + [
        pytest.param(ideal, id="paper_ideal_1d"),
        pytest.param(_trace_cycle(), id="trace_cycle"),
        pytest.param(_thevenin_fill(), id="thevenin_fill"),
        pytest.param(_lossless_sleeper(), id="lossless_sleeper"),
        pytest.param(_leaking_past_v_oc(), id="leaking_past_v_oc"),
        pytest.param(_pumped_past_v_oc(), id="pumped_past_v_oc"),
        pytest.param(_ideal_sleeper(), id="ideal_sleeper"),
        pytest.param(_drawless_brown_out(), id="drawless_brown_out"),
        # laws with x == 0 in a run: cap2 browning out, v1**2 reaching start_v
        pytest.param(_lossless_brown_out(), id="lossless_brown_out"),
        pytest.param(_ideal_pumped_sleeper(), id="ideal_pumped_sleeper"),
        # The macro-step contract's one known knife-edge (CHANGES.md FOUND).
        pytest.param(_ideal_pumped_sleeper(0.01), id="ideal_pumped_sleeper_10mF", marks=(
            pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
                "Engine._quiet and Engine._step_one round v1**2 differently under ideal "
                "coupling with a lossless cap1 (x == 0), so where the recharge from the "
                "pump's stop_v to start_v is a whole number of steps the pump can start "
                "one step apart")))),
        # checks taken as fine stretches (the sleeping node's end in Sleep,
        # trace_cycle's in a cycle, the random ones' in either)
        pytest.param(_check_across_a_window(), id="check_across_a_window"),
        pytest.param(_check_brown_out(), id="check_brown_out"),
        pytest.param(_pumped_check(), id="pumped_check"),
        pytest.param(_short_check(), id="short_check"),
        pytest.param(_stored_in_a_check(), id="stored_in_a_check"),
    ] + other_dt


@pytest.mark.parametrize("scn", _oracle_scenarios())
def test_stretches_match_single_steps_bit_for_bit(scn, tmp_path):
    """Only traced against untraced is bit for bit (repr tells -0.0 from
    0.0); stretched against single steps is the macro-step contract.

    Differential oracle: run() with coarse stretches, whose quiet steps are
    closed-form macro-steps, against the same scenario stepped one
    single-rule step per call."""
    stretched = _stretched_run(scn)
    _assert_macro_contract(stretched, _run_single_steps(scn))
    assert repr(_stretched_run(scn, str(tmp_path / "trace.csv"))) == repr(stretched)


@pytest.mark.parametrize("make", [_sleeping_node, _check_across_a_window],
                         ids=["sleeping_node", "check_across_a_window"])
def test_quiet_spans_take_the_monitor_draw_from_monitor_step(make, monkeypatch):
    """monitor_step owns the monitor's draw: with it doubled, the
    macro-steps of Sleep and check spans still meet the macro-step
    contract against single steps, which draw what monitor_step returns."""
    monitor_step = engine_module.monitor_step

    def doubled(*args):
        i_mon, kind = monitor_step(*args)
        return 2.0 * i_mon, kind

    monkeypatch.setattr(engine_module, "monitor_step", doubled)
    _assert_macro_contract(_stretched_run(make()), _run_single_steps(make()))


@pytest.mark.parametrize("scn", [
    pytest.param(_sleeping_node(), id="sleeping_node"),
    pytest.param(_ideal_sleeper(), id="ideal_sleeper"),
])
def test_trace_rows_follow_single_steps(scn, tmp_path):
    """The rows a traced run writes inside macro-steps, Sleep and check
    ones, read the state and the ledger's running totals that stepping one
    single-rule step per call reaches: the same t and state, the other
    columns to 1e-8 relative (ten printed digits and the macro-step's
    rounding)."""
    trace = tmp_path / "trace.csv"
    run_scenario(scn, str(trace))
    rows = [line.split(",") for line in trace.read_text().splitlines()[1:]]
    eng = Engine(scn)
    want = []
    while eng.t < scn.engine.t_end - 1e-12:
        eng._pick_dt()
        eng._step_one(eng._offer[2])
        led = eng.ledger
        want.append((eng.t, eng.sm.state.value, eng.v1, eng.v2, led.e_harvested,
                     led.e_converter_loss + led.e_load_total, led.e_leaked))
    assert len(rows) == len(want)
    assert {row[4] for row in rows} == {"Sleep", "Check"}
    for row, (t, state, *values) in zip(rows, want):
        assert (row[0], row[4]) == (f"{t:.6f}", state)
        got = [float(row[i]) for i in (2, 3, 5, 6, 7)]
        assert got == pytest.approx(values, rel=1e-8, abs=1e-15), row[0]


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_ledger_guard_fires_inside_a_quiet_stretch(monkeypatch, tmp_path, traced):
    """A 1 mJ hole in the ledger, there from the start, aborts the run in
    its first step() call, a quiet stretch, with and without a trace file;
    the trace file is closed on the way out."""
    eng = Engine(_thevenin_fill())
    eng.ledger.e_initial += 1e-3
    calls = []
    step = Engine.step

    def recording_step(eng, dt):
        calls.append(dt)
        step(eng, dt)

    monkeypatch.setattr(Engine, "step", recording_step)
    monkeypatch.setattr(Engine, "_step_one", lambda eng, dt: pytest.fail("left the quiet loop"))
    files = []

    def recording_open(*args, **kwargs):
        files.append(open(*args, **kwargs))
        return files[-1]

    monkeypatch.setattr(engine_module, "open", recording_open, raising=False)
    trace = str(tmp_path / "trace.csv") if traced else None
    with pytest.raises(LedgerError, match="exceeds tolerance"):
        eng.run(trace)
    assert len(calls) == 1 and calls[0] > eng.scenario.engine.dt_coarse
    assert len(files) == (1 if traced else 0) and all(fh.closed for fh in files)
    assert eng._trace is None


@pytest.mark.parametrize("misbooked", [False, True], ids=["as_is", "leak_1pct_high"])
def test_ledger_guard_sees_cap2_on_steps_only_the_monitor_draws_on(monkeypatch, misbooked):
    """The hot scenario's check runs with the pump on, so its 10,000 steps
    are single steps on which only the monitor draws.  cap2's leak booked
    1 % high on every single step that draws on cap2 (cap_euler with a
    negative current) must reach the residual and abort the run: nothing
    folds the error into the monitor's share.  Unchanged, the run closes."""
    if misbooked:
        euler = engine_module.cap_euler

        def high_leak(v, c, r_leak, i_in, dt):
            v_new, leaked = euler(v, c, r_leak, i_in, dt)
            return v_new, leaked * 1.01 if i_in < 0.0 else leaked

        monkeypatch.setattr(engine_module, "cap_euler", high_leak)
        with pytest.raises(LedgerError, match="exceeds tolerance"):
            run_scenario(_hot_scenario())
    else:
        res = run_scenario(_hot_scenario())
        assert res.transmissions == 1 and res.counters.fine_check == 10000
        assert abs(res.ledger.residual()) <= res.ledger.tolerance()


def _step_until(eng: Engine, done) -> Engine:
    while not done(eng):
        eng.step(eng._pick_dt())
    return eng


def _cold_at_60s():
    hot = replace(_hot_scenario(), source=FluctuatingSource(-43.0, -33.0, 60.0, seed=0))
    eng = _step_until(Engine(hot), lambda e: e.t >= 60.0)
    assert eng.sm.state is NodeState.COLD
    return eng


def _at_sleep_wake_up():
    return _step_until(
        Engine(_hot_scenario(max_tx=None, t_end=5000.0)),
        lambda e: e.sm.state is NodeState.SLEEP and e.t >= e.sm.next_wake,
    )


def _offered(eng: Engine, dt: float):
    """The engine with _pick_dt's offer standing, and a dt it does not take."""
    eng._pick_dt()
    return eng, dt


def _stale_offer():
    """A stretch offered at t and stepped, asked for again."""
    eng = _cold_at_60s()
    dt = eng._pick_dt()
    assert dt > 1.0
    eng.step(dt)
    return eng, dt


def _at_a_window_end():
    """t = 37 s under a 37.3 s dwell: the single step left is 0.3 s."""
    eng = _step_until(Engine(_dwell_cycle()), lambda e: e.t >= 37.0)
    assert eng.t == 37.0 and eng._pick_dt() == pytest.approx(0.3)
    return eng, 1.0


def _in_a_check():
    """A coarse step asked for in a check, whose length counts fine steps."""
    eng = _step_until(
        Engine(_hot_scenario(max_tx=None, t_end=5000.0)),
        lambda e: e.sm.state is NodeState.CHECK,
    )
    return _offered(eng, 1.0)


@pytest.mark.parametrize("setup", [
    lambda: _offered(_cold_at_60s(), 600.0),  # ten 60 s source windows
    lambda: _offered(_at_sleep_wake_up(), 100.0),  # a check is due first
    lambda: _offered(_cold_at_60s(), math.inf),
    _at_a_window_end,
    _in_a_check,
    _stale_offer,
], ids=["cold_across_windows", "sleep_wake_up", "inf", "across_a_window_end",
        "coarse_in_a_check", "stale_offer"])
def test_step_takes_only_the_offered_dt(setup):
    """step() takes only the dt _pick_dt offered at the current t, once:
    a longer or a shorter one, an offer already taken, 0, -1 and nan raise
    before the engine moves or the offer goes, and the offered dt then goes
    through."""
    eng, dt = setup()
    before = repr((eng.t, eng.v1, eng.v2, vars(eng.ledger), eng.sm, eng._offer))
    for bad in (dt, 0.0, -1.0, math.nan):
        with pytest.raises(QuantityError, match="not the step _pick_dt offered"):
            eng.step(bad)
        assert repr((eng.t, eng.v1, eng.v2, vars(eng.ledger), eng.sm, eng._offer)) == before
    t = eng.t
    eng.step(eng._pick_dt())
    assert eng.t > t


def _crossing_cases():
    """One scenario per event that ends a quiet loop or changes its
    charging law, each due inside the first coarse stretch, and per event
    that ends a check or falls inside its stretch."""
    quiet = Scenario(  # no pump and no loads: every step is quiet but a clamp
        source=ConstantSource(level_dbm=-25.0),
        frontend=_frontend(),
        storage=_storage(conv1_on=False),
        management=ManagementConfig(loads_enabled=False),
        engine=EngineConfig(t_end=600.0),
    )
    sleeping = Scenario(  # powers up, then sleeps below v_min_operate
        source=ConstantSource(level_dbm=-40.0),
        frontend=_frontend(),
        storage=replace(_storage(conv1_on=False),
                        cap2=Supercap(c=0.01, v=1.801, r_leak=2e7, name="cap2")),
        management=ManagementConfig(monitor=MonitorConfig(wake_period=3600.0)),
        engine=EngineConfig(t_end=600.0),
    )
    fe = quiet.frontend
    p_del = dbm_to_watts(-25.0) * (1.0 - fe.reflection.gamma_sq)
    out = chain_open_circuit(fe.rectifier, fe.tank, fe.carrier_hz, p_del)
    v_oc = out.v_oc

    def caps(cap1=None, cap2=None):
        st = quiet.storage
        return replace(quiet, storage=replace(st, cap1=cap1 or st.cap1, cap2=cap2 or st.cap2))

    leaking = caps(cap1=Supercap(c=0.1, v=v_oc + 0.3, r_leak=1e3, name="cap1"))
    # dt / (c1 r_out) = 2.5 charges past v_oc in one step, and from there
    # dt / (c1 r_leak) = 1.1 leaks a little below 0 V in the next
    c1 = 1.0 / (2.5 * out.r_out)
    ringing = caps(cap1=Supercap(c=c1, v=0.0, r_leak=1.0 / (1.1 * c1), name="cap1"))
    # dt / (c2 r2) = 2: the first step drains the reservoir to -0.5 V
    draining = caps(cap2=Supercap(c=0.1, v=0.5, r_leak=5.0, name="cap2"))
    return [
        pytest.param(_hot_scenario(), lambda a, b: b[2] > 0.0, id="pump_start_v"),
        pytest.param(sleeping, lambda a, b: a[3] == "Sleep" and b[3] == "Cold", id="brown_out"),
        # the same with a monitor that draws nothing: cap2's leak browns it out
        pytest.param(replace(sleeping, management=ManagementConfig(
            monitor=MonitorConfig(wake_period=3600.0, i_sleep=0.0))),
            lambda a, b: a[3] == "Sleep" and b[3] == "Cold", id="brown_out_drawless"),
        pytest.param(leaking, lambda a, b: a[1] >= v_oc > b[1], id="v_oc_from_above"),
        pytest.param(ringing, lambda a, b: a[1] > 0.0 == b[1], id="cap1_clamps_at_0V"),
        pytest.param(draining, lambda a, b: a[2] > 0.0 == b[2], id="cap2_clamps_at_0V"),
        pytest.param(_hot_scenario(), lambda a, b: a[3] == "Check" != b[3], id="check_to_boot"),
        pytest.param(_sleeping_node(), lambda a, b: a[3] == "Check" != b[3], id="check_to_sleep"),
        pytest.param(_check_brown_out(), lambda a, b: a[3] == "Check" and b[3] == "Cold",
                     id="check_brown_out"),
        # the pump moves charge into cap2 from its first step
        pytest.param(_pumped_check(), lambda a, b: a[3] == "Check" and b[2] > a[2],
                     id="check_pump_start_v"),
    ]


def _first_event(rows, event) -> float:
    """End time of the first step whose (before, after) rows show the event."""
    return next(b[0] for a, b in zip(rows, rows[1:]) if event(a, b))


@pytest.mark.parametrize("scn, event", _crossing_cases())
def test_events_inside_a_stretch_land_on_the_single_step_index(monkeypatch, tmp_path, scn, event):
    """The pump reaching its start voltage, a sleeping monitor browning out,
    the harvest cap leaking below v_oc and either cap clamping at 0 V fall
    inside an offered stretch on the same step as when stepping one
    single-rule step per call, with and without a trace file (rows are t,
    v_cap1, v_cap2 and the state after each step; t and the state agree
    exactly, the voltages to 1e-9 relative).  So do a check's end, to Boot
    or to Sleep, on the step after its stretch, and a brown-out or the
    pump's start inside it."""
    eng = Engine(scn)
    rows = [(eng.t, eng.v1, eng.v2, eng.sm.state.value)]
    while eng.t < scn.engine.t_end - 1e-12 and eng.transmissions < 1:
        eng._pick_dt()
        eng._step_one(eng._offer[2])
        rows.append((eng.t, eng.v1, eng.v2, eng.sm.state.value))
    i = next(i for i in range(1, len(rows)) if event(rows[i - 1], rows[i]))
    t_event = rows[i][0]
    by_t = {row[0]: row for row in rows}

    calls = []
    step = Engine.step

    def recording_step(eng, dt):
        calls.append((eng.t, dt))
        step(eng, dt)

    monkeypatch.setattr(Engine, "step", recording_step)
    # untraced runs that end on the step before the event, on it and after
    for t_end in (rows[i - 1][0], t_event, rows[i + 1][0]):
        if t_end > 0.0:
            calls.clear()
            res = run_scenario(replace(scn, engine=replace(scn.engine, t_end=t_end)))
            t, v1, v2, state = by_t[t_end]
            assert repr((res.t_final, res.state_final)) == repr((t, state))
            assert (res.v_cap1, res.v_cap2) == pytest.approx((v1, v2), rel=1e-9, abs=1e-12)
    t_before = rows[i - 1][0]
    if rows[i - 1][3] == "Check":  # the check's stretch reaches the event's step
        stretches = [c for c in calls if c[1] > scn.engine.dt_coarse and c[0] < t_before]
        t, dt = stretches[-1]
        assert t + dt == pytest.approx(t_before, abs=1e-9) or t + dt > t_before
    else:
        assert calls[0] == (0.0, t_event + 1.0)  # one stretch through the event
    # a traced run writes the event's row on the same step
    trace = tmp_path / "trace.csv"
    run_scenario(scn, str(trace))
    traced = [
        (float(r[0]), float(r[2]), float(r[3]), r[4])
        for r in (line.split(",") for line in trace.read_text().splitlines()[1:])
    ]
    first = (0.0, scn.storage.cap1.v, scn.storage.cap2.v, "Cold")
    assert _first_event([first] + traced, event) == float(f"{t_event:.6f}")


@pytest.mark.parametrize("x", [0.0, 1e-9, 2.45e-4, 0.01, 0.3])
@pytest.mark.parametrize("b", [0.0, 4e-4, -2e-3])
def test_affine_closed_form_matches_exact_steps(x, b):
    """The macro-step's closed form against k steps of y <- (1 - x) y + b
    in exact rational arithmetic, from y0 = 1.9 and from 0, on both sides
    of its switch at x k = 1/2 and at x = 0 (r_leak = inf): y_k and the
    sums of y_j and y_j**2 to 1e-13 relative, and their scale where the
    law passes through 0.  The zero law (y0 = b = 0) gives exact zeros on
    both sides."""
    for y0, k in itertools.product((1.9, 0.0), (1, 2, 3, 60, 120)):
        a, y, sum1, sum2 = 1 - Fraction(x), Fraction(y0), Fraction(0), Fraction(0)
        for _ in range(k):
            sum1 += y
            sum2 += y * y
            y = a * y + Fraction(b)
        got = engine_module._affine(x, b, y0, k)
        if y0 == b == 0.0:
            assert repr(got) == repr((0.0, 0.0, 0.0)), k
        scale = (y0 + k * abs(b), k * y0, k * y0 * y0)
        for value, want, size in zip(got, (y, sum1, sum2), scale):
            assert value == pytest.approx(float(want), rel=1e-13, abs=1e-15 * size), (k, value)


@given(
    st.sampled_from([0.0, 1e-9, 2.45e-4, 0.01, 0.3]),
    st.one_of(st.just(0.0), st.floats(-0.01, 0.01)),
    st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
    st.integers(min_value=1, max_value=200),
    st.booleans(),
    st.data(),
)
@settings(max_examples=500, deadline=None)
def test_first_hit_matches_a_brute_force_scan(x, b, y0, k, strict, data):
    """_first_hit against a scan of _affine's y_j for j = 1..k, with the
    crossing c on some y_j or one ulp either side of it, a rising law
    hitting at y >= c (or >) and any other at y <= c (or <), whenever y_k
    hits: leaking (b = 0), charging and draining laws, x = 0 (r_leak = inf)
    and d = b - x y0 = 0 (a flat law)."""
    affine = engine_module._affine
    j = data.draw(st.integers(min_value=1, max_value=k))
    c = affine(x, b, y0, j)[0]
    c = data.draw(st.sampled_from([math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf)]))
    if b - x * y0 > 0.0:
        hit = c.__lt__ if strict else c.__le__
    else:
        hit = c.__gt__ if strict else c.__ge__
    assume(hit(affine(x, b, y0, k)[0]))
    want = next(i for i in range(1, k + 1) if hit(affine(x, b, y0, i)[0]))
    assert engine_module._first_hit(x, b, y0, k, c, hit) == want


def test_event_times_land_on_the_fine_grid():
    """The benchmark's cycle_burst workload checks and cycles at 1 ms from
    anchors on whole-second wake-ups and window ends, so its first
    transmission and its tenth, which ends the run, land within 2 ulps of
    the 1 ms grid."""
    scenarios = Path(__file__).resolve().parents[1] / "benchmarks" / "scenarios"
    res = run_scenario(load_scenario(str(scenarios / "cycle_burst.scenario")).scenario)
    assert (res.stop_reason, res.transmissions) == ("transmissions", 10)
    for got, want in ((res.time_to_first_transmission, 138.002), (res.t_final, 1218.002)):
        assert abs(got - want) <= 2 * math.ulp(want), (got, want)


@given(
    st.sampled_from([1.0, 0.7, 0.25, 1e-3]),
    st.integers(min_value=0, max_value=10**6),  # steps since the anchor
    st.one_of(st.integers(min_value=0, max_value=10**6), st.floats(0.0, 1e6)),
    st.integers(min_value=0, max_value=40),  # steps from the clock to the bound
    st.sampled_from(["on", "ulp_above", "ulp_below", "inside"]),
    st.floats(0.0, 1.0, exclude_max=True),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=500, deadline=None)
def test_steps_before_counts_as_the_clock_steps(dt, j, anchor, ahead, where, part, whole,
                                                reanchor):
    """Engine._steps_before against a brute-force walk over the same
    anchored clock, with the anchor on the grid of dt (an int multiple) or
    off it and the bound exactly on a step's clock, one ulp either side of
    it, or inside a step (less than one step past it).  When the clock
    last stepped another dt, the steps re-anchor at t."""
    t_a = anchor * dt if isinstance(anchor, int) else anchor
    eng = Engine(_hot_scenario())
    eng._t_a, eng._j, eng._dt_a = t_a, j, 2.5 if reanchor else dt
    eng.t = t_a + j * dt
    bound = t_a + (j + ahead) * dt
    if where == "ulp_above":
        bound = math.nextafter(bound, math.inf)
    elif where == "ulp_below":
        bound = math.nextafter(bound, -math.inf)
    elif where == "inside":
        bound += part * dt
    left = dt if whole else engine_module._ANY_TIME
    if reanchor:
        t_a, j = eng.t, 0
    want = 0
    while bound - (t_a + (j + want) * dt) >= left:
        want += 1
    assert eng._steps_before(bound, dt, left) == want


@pytest.mark.parametrize("dt, t_a, j, bound", [
    (0.7, 0.0, 47246, 33080.6),
    (0.3, 55645.432, 13107, 59585.032),
    (0.7, 63077.184, 67711, 110516.184),
])
def test_coarse_stretch_holds_only_the_steps_the_clock_keeps_whole(dt, t_a, j, bound):
    """Where one division of the span by dt counts a step more than the
    anchored clock keeps whole before the bound (t_end here), the coarse
    stretch takes only the whole ones: the single-step rule would cut the
    last one short."""
    scn = _ideal_scenario(None, t_end=bound)
    eng = Engine(replace(scn, engine=replace(scn.engine, dt_coarse=dt)))
    eng._t_a, eng._j, eng._dt_a = t_a, j, dt
    eng.t = t_a + j * dt
    whole = 0
    while bound - (t_a + (j + whole) * dt) >= dt:
        whole += 1
    assert math.floor((bound - eng.t) / dt) == whole + 1
    eng._pick_dt()
    assert eng._offer[1] == whole
