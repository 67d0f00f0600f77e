"""Behavioral simulator of an ambient-RF energy-harvesting sensor node.

Models the full chain from the ambient field to a duty-cycled radio:
antenna reflection, resonant boost, multi-stage voltage rectification,
two-capacitor storage with leakage and DC-DC transfer, and the
energy-management state machine that gates checks, measurements and
transmissions.  Every run carries an exact energy ledger; conservation
is enforced, not sampled.
"""

from .analog_frontend import (
    CalibrationTarget,
    Device,
    FrontendOutput,
    FrontendPreset,
    RectifierParams,
    ReflectionModel,
    ResonantTank,
    builtin_frontend_presets,
    calibrate_sensitivity,
    chain_open_circuit,
    delivered_power,
    input_amplitude,
    rectifier_open_circuit,
    sensitivity_threshold_dbm,
    tank_gain,
)
from .engine import (
    Engine,
    EngineConfig,
    EnergyLedger,
    FrontendConfig,
    ManagementConfig,
    Scenario,
    SimResult,
    StorageConfig,
    run_scenario,
)
from .errors import (
    CalibrationError,
    LedgerError,
    QuantityError,
    RfHarvestError,
    ScenarioError,
    TraceError,
    TransitionError,
)
from .power_mgmt import (
    CycleReport,
    LoadProfile,
    LoadSwitch,
    MonitorConfig,
    NodeState,
    NodeStateMachine,
    cycle_energy,
    required_go_voltage,
    run_cycle,
    table1_profiles,
)
from .quantities import dbm_to_watts, watts_to_dbm
from .rf_environment import (
    ConstantSource,
    FluctuatingSource,
    RfSourceModel,
    TraceSource,
    load_trace_csv,
    mean_power_watts,
    sample_window,
)
from .scenario import (
    ScenarioBundle,
    apply_override,
    dump_scenario,
    load_scenario,
    parse_scenario,
    read_builtin_scenario,
)
from .storage import (
    DcDcConverter,
    Supercap,
    TransferPolicy,
    transfer_step,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationError",
    "CalibrationTarget",
    "ConstantSource",
    "CycleReport",
    "DcDcConverter",
    "Device",
    "EnergyLedger",
    "Engine",
    "EngineConfig",
    "FluctuatingSource",
    "FrontendConfig",
    "FrontendOutput",
    "FrontendPreset",
    "LedgerError",
    "LoadProfile",
    "LoadSwitch",
    "ManagementConfig",
    "MonitorConfig",
    "NodeState",
    "NodeStateMachine",
    "QuantityError",
    "RectifierParams",
    "ReflectionModel",
    "ResonantTank",
    "RfHarvestError",
    "RfSourceModel",
    "Scenario",
    "ScenarioBundle",
    "ScenarioError",
    "SimResult",
    "StorageConfig",
    "Supercap",
    "TraceError",
    "TraceSource",
    "TransferPolicy",
    "TransitionError",
    "apply_override",
    "builtin_frontend_presets",
    "calibrate_sensitivity",
    "chain_open_circuit",
    "cycle_energy",
    "dbm_to_watts",
    "delivered_power",
    "dump_scenario",
    "input_amplitude",
    "load_scenario",
    "load_trace_csv",
    "mean_power_watts",
    "parse_scenario",
    "read_builtin_scenario",
    "rectifier_open_circuit",
    "required_go_voltage",
    "run_cycle",
    "run_scenario",
    "sample_window",
    "sensitivity_threshold_dbm",
    "table1_profiles",
    "tank_gain",
    "transfer_step",
    "watts_to_dbm",
]
