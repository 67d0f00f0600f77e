"""Scenario file format: defaults, presets, rejection."""

import math
from dataclasses import fields

import pytest

from rfharvest.analog_frontend import RectifierParams, ReflectionModel
from rfharvest.engine import EngineConfig, FrontendConfig, ManagementConfig, StorageConfig
from rfharvest.errors import QuantityError, ScenarioError
from rfharvest.power_mgmt import LoadSwitch, MonitorConfig, table1_profiles
from rfharvest.rf_environment import ConstantSource, FluctuatingSource, TraceSource
from rfharvest.scenario import (
    _KEY_BY_NAME,
    _KEYS,
    _coerce,
    apply_override,
    builtin_scenario_names,
    load_scenario,
    parse_scenario,
    read_builtin_scenario,
)
from rfharvest.storage import DcDcConverter, Supercap, TransferPolicy


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


#: Keys whose default restates a record field's default: record -> {key: field}.
_RESTATED = {
    FluctuatingSource: {"source.dwell_s": "dwell_s", "source.seed": "seed"},
    TraceSource: {"source.hold_last": "hold_last"},
    RectifierParams: {
        "frontend.device": "device", "frontend.stages": "stages", "frontend.v_drop": "v_drop",
        "frontend.alpha": "alpha", "frontend.r_in_ohm": "r_in",
        "frontend.r_out_per_stage_ohm": "r_out_per_stage",
    },
    ReflectionModel: {"frontend.gamma_sq": "gamma_sq"},
    FrontendConfig: {"frontend.coupling": "coupling",
                     "frontend.ideal_efficiency": "ideal_efficiency"},
    Supercap: {"storage.cap1_r_leak_ohm": "r_leak", "storage.cap2_r_leak_ohm": "r_leak"},
    StorageConfig: {"storage.cap2_v_max": "cap2_v_max"},
    DcDcConverter: {
        "storage.conv1_enabled": "enabled", "storage.conv1_efficiency": "efficiency",
        "storage.conv2_v_startup": "v_startup", "storage.conv2_v_min_operate": "v_min_operate",
        "storage.conv2_efficiency": "efficiency",
    },
    TransferPolicy: {"storage.transfer_start_v": "start_v", "storage.transfer_stop_v": "stop_v",
                     "storage.pump_current_a": "pump_current"},
    ManagementConfig: {"management.loads_enabled": "loads_enabled"},
    MonitorConfig: {
        "management.wake_period_s": "wake_period", "management.i_sleep_a": "i_sleep",
        "management.i_active_a": "i_active", "management.monitor_v_min": "v_min_operate",
        "management.check_duration_s": "check_duration",
        "management.go_threshold_v": "go_threshold",
    },
    LoadSwitch: {"management.switch_r_on_ohm": "r_on"},
    EngineConfig: {
        "engine.dt_coarse_s": "dt_coarse", "engine.dt_fine_s": "dt_fine",
        "engine.t_end_s": "t_end", "engine.max_transmissions": "max_transmissions",
        "engine.stop_stored_j": "stop_stored_j",
    },
}

#: The restated defaults that differ on purpose: the scenario's describes
#: the shipped realistic node, the record's the bare part.
_REALISTIC_NODE = {
    "storage.cap1_r_leak_ohm": "a leaking harvest cap; a Supercap does not leak by default",
    "storage.cap2_r_leak_ohm": "a low-leakage reservoir; a Supercap does not leak by default",
    "storage.conv1_enabled": "the node has a charge pump; a DcDcConverter starts disabled",
    "management.go_threshold_v": "a fixed 2.0 V go threshold; a MonitorConfig derives it "
                                 "from the cycle budget",
}


def test_key_defaults_agree_with_the_record_defaults_they_restate():
    """A key default written a second time, as a record field's default or
    as a table1_profiles() row, agrees with it, except where the scenario
    default describes the shipped realistic node (_REALISTIC_NODE)."""
    restated = {}
    for record, keys in _RESTATED.items():
        defaults = {f.name: f.default for f in fields(record)}
        restated.update((key, defaults[name]) for key, name in keys.items())
    for row in table1_profiles():
        for attr, suffix in (("v", "v"), ("i", "i_a"), ("t", "t_s")):
            key = f"management.profile.{row.name}.{suffix}"
            if key in _KEY_BY_NAME:
                restated[key] = getattr(row, attr)
    differ = {key for key, value in restated.items()
              if _coerce(_KEY_BY_NAME[key], _KEY_BY_NAME[key].default) != value}
    assert differ == set(_REALISTIC_NODE)
    assert len(restated) == 46
