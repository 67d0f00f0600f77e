"""Scenario files: human-editable INI describing one complete run.

Sections [source], [frontend], [storage], [management], [engine], plus a
free-text [notes].  Every field is addressable by a dotted key such as
"frontend.stages" or "management.profile.zigbee.t_s"; unknown keys are
rejected, and missing keys fall back to documented defaults.

Each resolved key records where its value came from (explicit, default,
or preset) so reports can echo every assumption that influenced a run
without the user having written it down.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from importlib import resources

from .analog_frontend import (
    Device,
    RectifierParams,
    ReflectionModel,
    ResonantTank,
    builtin_frontend_presets,
    preset_targets,
)
from .engine import (
    COUPLING_IDEAL,
    COUPLING_THEVENIN,
    EngineConfig,
    FrontendConfig,
    ManagementConfig,
    Scenario,
    StorageConfig,
)
from .errors import ScenarioError
from .power_mgmt import LoadProfile, LoadSwitch, MonitorConfig
from .rf_environment import (
    ConstantSource,
    FluctuatingSource,
    RfSourceModel,
    load_trace_csv,
)
from .storage import DcDcConverter, Supercap, TransferPolicy

__all__ = [
    "ScenarioBundle",
    "parse_scenario",
    "load_scenario",
    "apply_override",
    "builtin_scenario_names",
    "read_builtin_scenario",
]

_SECTIONS = ("source", "frontend", "storage", "management", "engine", "notes")

#: Source types and the keys that only make sense for each.
_SOURCE_TYPES = ("constant", "fluctuating", "trace")

_PRESET_NONE = "none"


@dataclass(frozen=True)
class _Key:
    name: str  # dotted: section.rest
    typ: str  # float | int | bool | str | opt_float | opt_int
    default: str  # string form; "" only for notes.text
    help: str
    choices: tuple[str, ...] = ()
    source_only: str = ""  # restrict to one source.type


_KEYS: tuple[_Key, ...] = (
    _Key("source.type", "str", "fluctuating", "ambient source model", _SOURCE_TYPES),
    _Key("source.level_dbm", "float", "-37.0", "constant ambient power", source_only="constant"),
    _Key("source.lo_dbm", "float", "-43.0", "fluctuation lower bound", source_only="fluctuating"),
    _Key("source.hi_dbm", "float", "-33.0", "fluctuation upper bound", source_only="fluctuating"),
    _Key("source.dwell_s", "float", "60.0", "fluctuation window length", source_only="fluctuating"),
    _Key("source.seed", "int", "0", "fluctuation stream seed", source_only="fluctuating"),
    _Key("source.trace_csv", "str", "", "measured power trace file", source_only="trace"),
    _Key("source.hold_last", "bool", "false", "hold final trace sample", source_only="trace"),
    _Key(
        "frontend.preset",
        "str",
        "zerovt_100MHz",
        "calibrated chain preset supplying device/stages/v_drop/alpha/r_in/tank",
        (*preset_targets(), _PRESET_NONE),
    ),
    _Key("frontend.device", "str", "zero_vt_mosfet", "rectifying device", tuple(d.value for d in Device)),
    _Key("frontend.stages", "int", "25", "voltage-doubler stage count"),
    _Key("frontend.v_drop", "float", "0.05", "per-device conduction drop"),
    _Key("frontend.alpha", "float", "0.7", "per-stage geometric contribution ratio"),
    _Key("frontend.r_in_ohm", "float", "5000.0", "multiplier input resistance seen by the tank"),
    _Key("frontend.r_out_per_stage_ohm", "float", "109.0", "Thevenin output resistance per stage"),
    _Key("frontend.tank_f0_hz", "float", "100000000.0", "resonant tank center frequency"),
    _Key("frontend.tank_q", "float", "2.8184", "resonant tank quality factor"),
    _Key("frontend.carrier_hz", "float", "100000000.0", "ambient carrier frequency"),
    _Key("frontend.gamma_sq", "float", "0.5", "reflected power fraction at the unmatched antenna"),
    _Key("frontend.coupling", "str", "thevenin", "rectifier-to-cap coupling model", (COUPLING_THEVENIN, COUPLING_IDEAL)),
    _Key("frontend.ideal_efficiency", "float", "1.0", "harvest efficiency in ideal coupling"),
    _Key("storage.cap1_c_f", "float", "1.5", "harvest cap capacitance"),
    _Key("storage.cap1_v0", "float", "0.0", "harvest cap initial voltage"),
    _Key("storage.cap1_r_leak_ohm", "float", "1000000.0", "harvest cap leak resistance (ordinary part)"),
    _Key("storage.cap2_c_f", "float", "1.0", "reservoir cap capacitance"),
    _Key("storage.cap2_v0", "float", "0.0", "reservoir cap initial voltage"),
    _Key("storage.cap2_r_leak_ohm", "float", "20000000.0", "reservoir cap leak resistance (low-leakage part)"),
    _Key("storage.cap2_v_max", "float", "4.5", "reservoir cap ceiling; the pump pauses there"),
    _Key("storage.conv1_enabled", "bool", "true", "stage-one converter present"),
    _Key("storage.conv1_efficiency", "float", "0.9", "converter 1 efficiency"),
    _Key("storage.conv2_v_startup", "float", "0.5", "converter 2 startup voltage"),
    _Key("storage.conv2_v_min_operate", "float", "0.25", "converter 2 undervoltage cutoff, below the 0.3 V budget floor"),
    _Key("storage.conv2_efficiency", "float", "0.9", "converter 2 efficiency"),
    _Key("storage.transfer_start_v", "float", "0.5", "pump start threshold on the harvest cap"),
    _Key("storage.transfer_stop_v", "float", "0.3", "pump stop threshold on the harvest cap"),
    _Key("storage.pump_current_a", "float", "0.001", "pump transfer current"),
    _Key("management.loads_enabled", "bool", "true", "monitor and cycle loads present"),
    _Key("management.wake_period_s", "float", "604800.0", "monitor check period"),
    _Key("management.i_sleep_a", "float", "6e-07", "monitor power-save supply current"),
    _Key("management.i_active_a", "float", "1e-05", "monitor active supply current"),
    _Key("management.monitor_v_min", "float", "1.8", "monitor minimum operating voltage"),
    _Key("management.check_duration_s", "float", "10.0", "voltage check duration"),
    _Key(
        "management.go_threshold_v",
        "opt_float",
        "2.0",
        "reservoir voltage releasing a cycle; none derives it from the cycle budget",
    ),
    _Key("management.switch_r_on_ohm", "float", "0.045", "load switch on-resistance"),
    _Key("management.profile.monitor_active.v", "float", "1.8", "monitor check rail voltage"),
    _Key("management.profile.controller_active.v", "float", "1.8", "controller rail voltage"),
    _Key("management.profile.controller_active.i_a", "float", "1e-05", "controller current"),
    _Key("management.profile.controller_active.t_s", "float", "8.0", "controller on-time per cycle"),
    _Key("management.profile.sensor.v", "float", "3.3", "sensor rail voltage"),
    _Key("management.profile.sensor.i_a", "float", "0.00055", "sensor current"),
    _Key("management.profile.sensor.t_s", "float", "5.0", "sensor on-time per cycle"),
    _Key("management.profile.zigbee.v", "float", "3.3", "radio rail voltage"),
    _Key("management.profile.zigbee.i_a", "float", "0.035", "radio current"),
    _Key("management.profile.zigbee.t_s", "float", "2.7", "radio on-time per cycle"),
    _Key("engine.dt_coarse_s", "float", "1.0", "coarse step while Cold/Sleep"),
    _Key("engine.dt_fine_s", "float", "0.001", "fine step while active"),
    _Key("engine.t_end_s", "float", "3888000.0", "simulation horizon"),
    _Key("engine.max_transmissions", "opt_int", "none", "stop after this many transmissions"),
    _Key("engine.stop_stored_j", "opt_float", "none", "stop once stored energy grows by this"),
    _Key("engine.seed", "opt_int", "none", "override of the fluctuation seed"),
    _Key("notes.text", "str", "", "free-form commentary echoed by reports"),
)

_KEY_BY_NAME = {k.name: k for k in _KEYS}


@dataclass
class ScenarioBundle:
    """A built scenario plus the provenance of every configuration value."""

    scenario: Scenario
    values: dict[str, str]  # dotted key -> resolved string form
    origins: dict[str, str]  # dotted key -> explicit | default | preset
    path: str | None = None

    @property
    def notes(self) -> str:
        return self.values.get("notes.text", "")

    def assumptions(self) -> list[tuple[str, str, str]]:
        """Non-explicit values in effect: (key, value, origin) tuples in
        registry order, skipping keys inapplicable to the chosen models.
        """
        out = []
        for k in _KEYS:
            if k.name not in self.values:
                continue
            origin = self.origins.get(k.name, "default")
            if origin != "explicit":
                out.append((k.name, self.values[k.name], origin))
        return out


def _coerce(key: _Key, raw: str):
    s = raw.strip()
    if key.typ in ("opt_float", "opt_int") and s.lower() == "none":
        return None
    try:
        if key.typ in ("float", "opt_float"):
            v = float(s)
            if math.isnan(v):
                raise ValueError("nan not allowed")
            return v
        if key.typ in ("int", "opt_int"):
            return int(s, 10)
        if key.typ == "bool":
            if s.lower() in ("true", "yes", "1"):
                return True
            if s.lower() in ("false", "no", "0"):
                return False
            raise ValueError("expected true/false")
        if key.choices and s not in key.choices:
            raise ValueError(f"expected one of {', '.join(key.choices)}")
        return s
    except ValueError as exc:
        raise ScenarioError(f"{key.name}: cannot parse {raw!r}: {exc}") from None


def frontend_values(
    params: RectifierParams, tank: ResonantTank, carrier_hz: float
) -> dict[str, str]:
    """The nine frontend.* keys a calibrated parameter set fixes, as
    scenario text: what a preset supplies and what `calibrate` writes."""
    values = (params.device.value, params.stages, params.v_drop, params.alpha, params.r_in,
              params.r_out_per_stage, tank.f0_hz, tank.q, carrier_hz)
    names = ("device", "stages", "v_drop", "alpha", "r_in_ohm", "r_out_per_stage_ohm",
             "tank_f0_hz", "tank_q", "carrier_hz")
    return {f"frontend.{n}": str(v) for n, v in zip(names, values)}


def parse_scenario(text: str, path: str | None = None) -> ScenarioBundle:
    """Parse scenario text, resolve defaults and presets, build the record.

    Unknown sections or keys raise a configuration error naming them;
    malformed INI reports the offending line.
    """
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    cp.optionxform = str
    try:
        cp.read_string(text, source=path or "<scenario>")
    except configparser.Error as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from None

    explicit: dict[str, str] = {}
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ScenarioError(f"unknown section [{section}]")
        for option, raw in cp.items(section):
            name = f"{section}.{option}"
            if name not in _KEY_BY_NAME:
                raise ScenarioError(f"unknown key {name!r}")
            explicit[name] = raw.strip()
    return _resolve(explicit, path)


def _resolve(explicit: dict[str, str], path: str | None) -> ScenarioBundle:
    values: dict[str, str] = {}
    origins: dict[str, str] = {}
    for k in _KEYS:
        if k.name in explicit:
            values[k.name] = explicit[k.name]
            origins[k.name] = "explicit"
        else:
            values[k.name] = k.default
            origins[k.name] = "default"

    # Preset-derived frontend values unless explicitly overridden.
    preset_name = _coerce(_KEY_BY_NAME["frontend.preset"], values["frontend.preset"])
    if preset_name != _PRESET_NONE:
        preset = builtin_frontend_presets()[preset_name]
        for name, value in frontend_values(preset.params, preset.tank, preset.carrier_hz).items():
            if origins[name] != "explicit":
                values[name] = value
                origins[name] = "preset"

    # Drop keys that do not apply to the chosen source type.
    src_type = _coerce(_KEY_BY_NAME["source.type"], values["source.type"])
    for k in _KEYS:
        if k.source_only and k.source_only != src_type:
            if origins[k.name] == "explicit":
                raise ScenarioError(
                    f"{k.name} applies to source.type={k.source_only}, "
                    f"but source.type is {src_type}"
                )
            del values[k.name]
            del origins[k.name]
    if src_type == "trace" and not values.get("source.trace_csv", "").strip():
        raise ScenarioError("source.trace_csv is required when source.type = trace")

    scenario = build_scenario(values)
    return ScenarioBundle(scenario=scenario, values=values, origins=origins, path=path)


def build_scenario(values: dict[str, str]) -> Scenario:
    """Construct the typed scenario from resolved key strings."""
    g = lambda name: _coerce(_KEY_BY_NAME[name], values[name])

    src_type = g("source.type")
    source: RfSourceModel
    if src_type == "constant":
        source = ConstantSource(level_dbm=g("source.level_dbm"))
    elif src_type == "fluctuating":
        seed = g("engine.seed")
        source = FluctuatingSource(
            lo_dbm=g("source.lo_dbm"),
            hi_dbm=g("source.hi_dbm"),
            dwell_s=g("source.dwell_s"),
            seed=g("source.seed") if seed is None else seed,
        )
    else:
        source = load_trace_csv(g("source.trace_csv"), hold_last=g("source.hold_last"))

    rectifier = RectifierParams(
        stages=g("frontend.stages"),
        device=Device(g("frontend.device")),
        v_drop=g("frontend.v_drop"),
        alpha=g("frontend.alpha"),
        r_in=g("frontend.r_in_ohm"),
        r_out_per_stage=g("frontend.r_out_per_stage_ohm"),
    )
    frontend = FrontendConfig(
        reflection=ReflectionModel(gamma_sq=g("frontend.gamma_sq")),
        tank=ResonantTank(f0_hz=g("frontend.tank_f0_hz"), q=g("frontend.tank_q")),
        rectifier=rectifier,
        carrier_hz=g("frontend.carrier_hz"),
        coupling=g("frontend.coupling"),
        ideal_efficiency=g("frontend.ideal_efficiency"),
    )

    storage = StorageConfig(
        cap1=Supercap(
            c=g("storage.cap1_c_f"),
            v=g("storage.cap1_v0"),
            r_leak=g("storage.cap1_r_leak_ohm"),
            name="cap1",
        ),
        cap2=Supercap(
            c=g("storage.cap2_c_f"),
            v=g("storage.cap2_v0"),
            r_leak=g("storage.cap2_r_leak_ohm"),
            name="cap2",
        ),
        # The pump's thresholds are the transfer policy's.
        conv1=DcDcConverter(
            efficiency=g("storage.conv1_efficiency"), enabled=g("storage.conv1_enabled")
        ),
        conv2=DcDcConverter(
            v_startup=g("storage.conv2_v_startup"),
            v_min_operate=g("storage.conv2_v_min_operate"),
            efficiency=g("storage.conv2_efficiency"),
            enabled=False,
        ),
        transfer=TransferPolicy(
            start_v=g("storage.transfer_start_v"),
            stop_v=g("storage.transfer_stop_v"),
            pump_current=g("storage.pump_current_a"),
        ),
        cap2_v_max=g("storage.cap2_v_max"),
    )

    def profile(name: str) -> LoadProfile:
        stem = f"management.profile.{name}"
        return LoadProfile(
            name=name,
            v=g(f"{stem}.v"),
            i=g(f"{stem}.i_a"),
            t=g(f"{stem}.t_s"),
        )

    r_on = g("management.switch_r_on_ohm")
    management = ManagementConfig(
        monitor=MonitorConfig(
            wake_period=g("management.wake_period_s"),
            i_sleep=g("management.i_sleep_a"),
            i_active=g("management.i_active_a"),
            v_min_operate=g("management.monitor_v_min"),
            check_duration=g("management.check_duration_s"),
            go_threshold=g("management.go_threshold_v"),
        ),
        profiles=(
            # The budget's monitor row is the engine's voltage check.
            LoadProfile(
                name="monitor_active",
                v=g("management.profile.monitor_active.v"),
                i=g("management.i_active_a"),
                t=g("management.check_duration_s"),
            ),
            profile("controller_active"),
            profile("sensor"),
            profile("zigbee"),
        ),
        switch_sensor=LoadSwitch("sensor", r_on=r_on),
        switch_zigbee=LoadSwitch("zigbee", r_on=r_on),
        loads_enabled=g("management.loads_enabled"),
    )

    engine = EngineConfig(
        dt_coarse=g("engine.dt_coarse_s"),
        dt_fine=g("engine.dt_fine_s"),
        t_end=g("engine.t_end_s"),
        max_transmissions=g("engine.max_transmissions"),
        stop_stored_j=g("engine.stop_stored_j"),
    )

    return Scenario(
        source=source,
        frontend=frontend,
        storage=storage,
        management=management,
        engine=engine,
    )


def load_scenario(path: str) -> ScenarioBundle:
    """Read and parse a scenario file from disk."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file {path!r}: {exc}") from None
    return parse_scenario(text, path=path)


def apply_override(bundle: ScenarioBundle, name: str, raw: str) -> ScenarioBundle:
    """Rebuild the bundle with one key replaced by a raw string value."""
    if name not in _KEY_BY_NAME:
        raise ScenarioError(f"unknown key {name!r}")
    explicit = {
        key: bundle.values[key]
        for key in bundle.values
        if bundle.origins.get(key) == "explicit"
    }
    explicit[name] = raw
    return _resolve(explicit, bundle.path)


def builtin_scenario_names() -> list[str]:
    """Names of the scenario files shipped inside the package."""
    root = resources.files("rfharvest") / "scenarios"
    return sorted(
        entry.name.removesuffix(".scenario")
        for entry in root.iterdir()
        if entry.name.endswith(".scenario")
    )


def read_builtin_scenario(name: str) -> str:
    """Text of a shipped scenario by bare name ('realistic_default')."""
    fname = name if name.endswith(".scenario") else f"{name}.scenario"
    ref = resources.files("rfharvest") / "scenarios" / fname
    if not ref.is_file():
        raise ScenarioError(
            f"no shipped scenario named {name!r}; available: "
            f"{', '.join(builtin_scenario_names())}"
        )
    return ref.read_text(encoding="utf-8")
