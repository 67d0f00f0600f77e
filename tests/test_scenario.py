"""Scenario file format: defaults, presets, rejection."""

import math

import pytest

from rfharvest.errors import QuantityError, ScenarioError
from rfharvest.rf_environment import ConstantSource, FluctuatingSource
from rfharvest.scenario import (
    _KEYS,
    apply_override,
    builtin_scenario_names,
    load_scenario,
    parse_scenario,
    read_builtin_scenario,
)


def test_empty_text_builds_the_default_scenario():
    b = parse_scenario("")
    scn = b.scenario
    assert isinstance(scn.source, FluctuatingSource)
    assert (scn.source.lo_dbm, scn.source.hi_dbm) == (-43.0, -33.0)
    assert scn.source.dwell_s == 60.0 and scn.source.seed == 0
    assert scn.frontend.rectifier.stages == 25
    assert scn.frontend.tank.f0_hz == 100e6
    assert scn.frontend.coupling == "thevenin"
    assert scn.storage.cap1.c == 1.5 and scn.storage.cap2.c == 1.0
    assert scn.storage.conv2.v_min_operate == 0.25
    assert scn.management.loads_enabled
    assert scn.management.monitor.wake_period == 604800.0
    assert scn.management.monitor.go_threshold == 2.0
    assert scn.engine.dt_coarse == 1.0 and scn.engine.dt_fine == 1e-3
    assert scn.engine.max_transmissions is None


def test_default_origins_and_assumptions():
    b = parse_scenario("[source]\nlo_dbm = -50\n")
    assert b.origins["source.lo_dbm"] == "explicit"
    assert b.origins["source.hi_dbm"] == "default"
    assert b.origins["frontend.stages"] == "preset"
    keys = {k for k, _, _ in b.assumptions()}
    assert "source.lo_dbm" not in keys  # explicit values are not assumptions
    assert "source.hi_dbm" in keys
    assert "frontend.stages" in keys
    origins = {k: o for k, _, o in b.assumptions()}
    assert origins["frontend.stages"] == "preset"
    assert origins["management.wake_period_s"] == "default"


def test_unknown_section_and_key_are_rejected_by_name():
    with pytest.raises(ScenarioError, match=r"\[antenna\]"):
        parse_scenario("[antenna]\ngain = 3\n")
    with pytest.raises(ScenarioError, match="source.fequency"):
        parse_scenario("[source]\nfequency = 1\n")
    with pytest.raises(ScenarioError, match="malformed"):
        parse_scenario("not an ini line\n")
    # converters have no output setpoint: nothing would read one
    for key in ("conv1_v_out_setpoint", "conv2_v_out_setpoint"):
        with pytest.raises(ScenarioError, match=f"storage.{key}"):
            parse_scenario(f"[storage]\n{key} = 3.3\n")
    # the pump starts and stops at transfer_start_v and transfer_stop_v
    for key in ("conv1_v_startup", "conv1_v_min_operate"):
        with pytest.raises(ScenarioError, match=f"storage.{key}"):
            parse_scenario(f"[storage]\n{key} = 0.4\n")
    # the monitor row of the budget is set by i_active_a and check_duration_s
    for key in ("profile.monitor_active.i_a", "profile.monitor_active.t_s"):
        with pytest.raises(ScenarioError, match=f"management.{key}"):
            parse_scenario(f"[management]\n{key} = 1.0\n")


def test_engine_seed_overrides_source_seed():
    def source_of(text):
        return parse_scenario(text).scenario.source

    assert source_of("[source]\nseed = 7\n").seed == 7
    assert source_of("[source]\nseed = 0\n[engine]\nseed = 7\n").seed == 7
    assert source_of("[source]\nseed = 0\n").seed == 0
    # a source without a seed ignores engine.seed
    constant = source_of("[source]\ntype = constant\n[engine]\nseed = 7\n")
    assert isinstance(constant, ConstantSource)


def test_source_type_gates_its_keys():
    with pytest.raises(ScenarioError, match="source.lo_dbm applies to"):
        parse_scenario("[source]\ntype = constant\nlo_dbm = -40\n")
    b = parse_scenario("[source]\ntype = constant\nlevel_dbm = -30\n")
    assert isinstance(b.scenario.source, ConstantSource)
    assert "source.lo_dbm" not in b.values  # inapplicable keys dropped
    assert "source.seed" not in b.values
    with pytest.raises(ScenarioError, match="trace_csv is required"):
        parse_scenario("[source]\ntype = trace\n")


def test_explicit_value_beats_preset():
    b = parse_scenario("[frontend]\npreset = zerovt_100MHz\nstages = 10\n")
    assert b.scenario.frontend.rectifier.stages == 10
    assert b.origins["frontend.stages"] == "explicit"
    assert b.origins["frontend.v_drop"] == "preset"


def test_preset_none_uses_registry_defaults():
    b = parse_scenario("[frontend]\npreset = none\n")
    assert b.origins["frontend.stages"] == "default"
    assert b.scenario.frontend.rectifier.stages == 25


def test_apply_override_rebuilds_from_explicit_keys():
    b = parse_scenario("[source]\nlo_dbm = -50\n")
    b2 = apply_override(b, "management.wake_period_s", "3600")
    assert b2.scenario.management.monitor.wake_period == 3600.0
    assert b2.origins["management.wake_period_s"] == "explicit"
    assert b2.scenario.source.lo_dbm == -50.0  # earlier explicit kept
    assert b.scenario.management.monitor.wake_period == 604800.0
    with pytest.raises(ScenarioError):
        apply_override(b, "management.no_such_key", "1")


def test_optional_none_literal_and_numeric_validation():
    b = parse_scenario("[engine]\nmax_transmissions = 3\nseed = 9\n")
    assert b.scenario.engine.max_transmissions == 3
    assert b.scenario.source.seed == 9
    b = parse_scenario("[engine]\nmax_transmissions = none\n")
    assert b.scenario.engine.max_transmissions is None
    with pytest.raises(ScenarioError):
        parse_scenario("[engine]\nt_end_s = soon\n")
    with pytest.raises((ScenarioError, QuantityError)):
        parse_scenario("[storage]\ncap1_c_f = nan\n")
    with pytest.raises(ScenarioError, match="conv1_enabled: cannot parse 'maybe': expected true"):
        parse_scenario("[storage]\nconv1_enabled = maybe\n")
    with pytest.raises(ScenarioError, match="coupling: cannot parse 'magic': expected one of"):
        parse_scenario("[frontend]\ncoupling = magic\n")
    b = parse_scenario("[storage]\ncap1_r_leak_ohm = inf\n")
    assert math.isinf(b.scenario.storage.cap1.r_leak)


def test_builtin_scenarios_parse_and_differ():
    names = builtin_scenario_names()
    assert set(names) == {"paper_ideal", "realistic_default"}
    ideal = parse_scenario(read_builtin_scenario("paper_ideal"))
    assert isinstance(ideal.scenario.source, ConstantSource)
    assert ideal.scenario.source.level_dbm == -37.0
    assert ideal.scenario.frontend.coupling == "ideal"
    assert ideal.scenario.frontend.reflection.gamma_sq == 0.0
    assert not ideal.scenario.management.loads_enabled
    assert "11.7" in ideal.notes
    real = parse_scenario(read_builtin_scenario("realistic_default"))
    assert isinstance(real.scenario.source, FluctuatingSource)
    assert real.scenario.engine.max_transmissions == 1
    assert real.scenario.management.monitor.go_threshold == 2.0
    with pytest.raises(ScenarioError):
        read_builtin_scenario("nonexistent")


def test_load_scenario_reads_files(tmp_path):
    p = tmp_path / "case.scenario"
    p.write_text("[source]\ntype = constant\nlevel_dbm = -20\n")
    b = load_scenario(str(p))
    assert b.path == str(p)
    assert b.scenario.source.level_dbm == -20.0
    with pytest.raises(ScenarioError, match="cannot read scenario file"):
        load_scenario(str(tmp_path / "missing.scenario"))


def test_key_help_covers_every_default():
    assert all(k.help.strip() for k in _KEYS)
