"""Digital power management: the voltage monitor, the measure/transmit
cycle, and the published load budget.

Two cooperating supervisors share one converter enable line (wired-OR): a
nanopower voltage monitor that sleeps on the reservoir cap, wakes on a slow
schedule to compare the voltage against a go threshold, and raises enable
when there is enough energy; and the main controller, which once booted
asserts its own enable, takes over (the handoff), runs the sensor and the
radio, and kills the converter on the way out so the node returns to
near-zero drain.

The monitor is supplied directly by the reservoir cap and is dead below its
minimum operating voltage: below that the node draws nothing at all.  The
controller and its peripherals are supplied through the second converter
and are gated by MOSFET load switches whose conduction loss is charged to
the cycle.

States: Cold, Sleep, Check, Boot, Handoff, Measure, Transmit, Shutdown.
Monitor brown-out resets the monitor's own schedule but does not tear down
a running cycle; the cycle lives and dies with the converter.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from .analog_frontend import RectifierParams, ReflectionModel, ResonantTank
from .errors import QuantityError, ScenarioError, TransitionError
from .quantities import finite, fraction, nonnegative, not_below, positive, positive_or_inf
from .rf_environment import ConstantSource
from .storage import DcDcConverter, Supercap, TransferPolicy, dcdc_update_running

__all__ = [
    "NodeState",
    "LoadProfile",
    "MonitorConfig",
    "LoadSwitch",
    "NodeStateMachine",
    "CycleReport",
    "table1_profiles",
    "cycle_energy",
    "required_go_voltage",
    "resolve_go_threshold",
    "monitor_step",
    "run_cycle",
    "build_cycle_plan",
]


class NodeState(enum.Enum):
    """A supervisor state; the value is the name traces and reports print.

    fine: stepped at dt_fine.  cycle: owned by the controller, from Boot
    to Shutdown; the monitor only sleeps alongside it.
    """

    COLD = ("Cold", False, False)
    SLEEP = ("Sleep", False, False)
    CHECK = ("Check", True, False)
    BOOT = ("Boot", True, True)
    HANDOFF = ("Handoff", True, True)
    MEASURE = ("Measure", True, True)
    TRANSMIT = ("Transmit", True, True)
    SHUTDOWN = ("Shutdown", True, True)

    def __new__(cls, label: str, fine: bool, cycle: bool):
        member = object.__new__(cls)
        member._value_ = label
        member.fine = fine
        member.cycle = cycle
        return member


CYCLE_STATES = frozenset(s for s in NodeState if s.cycle)


@dataclass(frozen=True)
class LoadProfile:
    """One row of the measured load budget: rail voltage, current, on-time."""

    name: str
    v: float
    i: float
    t: float

    def __post_init__(self):
        positive(f"{self.name}: rail voltage", self.v)
        positive(f"{self.name}: current", self.i)
        positive(f"{self.name}: on-time", self.t)

    @property
    def energy(self) -> float:
        """Energy consumed at the rail: V * I * T."""
        return self.v * self.i * self.t


def table1_profiles() -> tuple[LoadProfile, ...]:
    """The measured per-activity load budget of the reference node.

    The monitor row covers the periodic voltage check; the controller row
    covers the whole supervised cycle; sensor and radio rows cover one
    measurement and one transmission.
    """
    return (
        LoadProfile("monitor_active", 1.8, 0.01e-3, 10.0),
        LoadProfile("controller_active", 1.8, 0.01e-3, 8.0),
        LoadProfile("sensor", 3.3, 0.55e-3, 5.0),
        LoadProfile("zigbee", 3.3, 35e-3, 2.7),
    )


def cycle_energy(profiles: tuple[LoadProfile, ...]) -> float:
    """Total load-side energy of one full wake/measure/transmit cycle."""
    return sum(p.energy for p in profiles)


def required_go_voltage(e_cycle: float, c: float, v_floor: float, efficiency: float) -> float:
    """Minimum reservoir voltage from which a cycle can be supplied.

    Inverts the usable-energy relation: drawing e_cycle / efficiency from a
    cap of size c must leave it no lower than v_floor.
    """
    positive("capacitance", c)
    fraction("efficiency", efficiency)
    e = nonnegative("cycle energy", e_cycle)
    vf = nonnegative("v_floor", v_floor)
    return math.sqrt(vf * vf + 2.0 * e / (c * efficiency))


@dataclass(frozen=True)
class MonitorConfig:
    """Nanopower voltage monitor: schedule, draws, and thresholds."""

    wake_period: float = 604800.0  # one week
    i_sleep: float = 0.6e-6
    i_active: float = 10e-6
    v_min_operate: float = 1.8
    check_duration: float = 10.0
    go_threshold: float | None = None  # None: derived from the cycle budget

    def __post_init__(self):
        positive_or_inf("wake_period", self.wake_period)  # +inf: the monitor never wakes
        positive("check_duration", self.check_duration)
        nonnegative("i_sleep", self.i_sleep)
        nonnegative("i_active", self.i_active)
        finite("v_min_operate", self.v_min_operate)
        if self.go_threshold is not None:
            finite("go_threshold", self.go_threshold)
            not_below("go_threshold", self.go_threshold, "v_min_operate", self.v_min_operate)


def resolve_go_threshold(
    cfg: MonitorConfig,
    profiles: tuple[LoadProfile, ...],
    cap2_c: float,
    conv_v_floor: float,
    conv_efficiency: float,
) -> float:
    """The go threshold actually used: explicit override, or the energy
    requirement of one cycle, but never below the monitor's own minimum."""
    if cfg.go_threshold is not None:
        return cfg.go_threshold
    need = required_go_voltage(cycle_energy(profiles), cap2_c, conv_v_floor, conv_efficiency)
    return max(need, cfg.v_min_operate)


@dataclass(frozen=True)
class LoadSwitch:
    """MOSFET load switch in series with one gated rail."""

    name: str
    r_on: float = 0.045
    closed: bool = False

    def __post_init__(self):
        positive(f"{self.name}: r_on", self.r_on)


@dataclass
class NodeStateMachine:
    """Mutable supervisor state shared by the monitor and the controller."""

    state: NodeState = NodeState.COLD
    enable_monitor: bool = False
    enable_controller: bool = False
    next_wake: float = math.inf
    phase_steps_left: int = 0

    @property
    def enable_line(self) -> bool:
        """Converter 2 enable: wired-OR of the two supervisors."""
        return self.enable_monitor or self.enable_controller


@dataclass
class CycleReport:
    """Outcome and accounting of one supervised cycle."""

    success: bool
    aborted_in: NodeState | None
    duration_s: float
    v_before: float
    v_after: float
    e_by_load: dict[str, float]
    e_from_cap: float
    e_converter_loss: float


@dataclass(frozen=True)
class Phase:
    """One row of the cycle table: a timed controller phase."""

    label: str  # names the on-time in error messages
    on_s: float
    draws: tuple[tuple[str, float], ...]  # (component, rail power in W)
    switches: tuple[LoadSwitch, LoadSwitch]  # sensor and zigbee during the phase
    next: NodeState


def build_cycle_plan(
    profiles: tuple[LoadProfile, ...],
    sw_sensor: LoadSwitch,
    sw_zigbee: LoadSwitch,
) -> dict[NodeState, Phase]:
    """Derive the cycle's phase table, Boot to Shutdown, from the budget rows.

    The controller row spans the whole cycle, so the handoff phase is what
    remains of its on-time after the measure and transmit phases; Boot and
    Shutdown take no time and draw nothing.  Switch conduction loss (i^2
    r_on while conducting) is charged alongside the load it serves.
    """
    rows = {p.name: p for p in profiles}
    try:
        ctrl = rows["controller_active"]
        sensor = rows["sensor"]
        zigbee = rows["zigbee"]
    except KeyError as exc:
        raise ScenarioError(f"load budget is missing the {exc.args[0]!r} row") from None
    controller = ("controller", ctrl.v * ctrl.i)
    idle = (replace(sw_sensor, closed=False), replace(sw_zigbee, closed=False))
    sensor_on = (replace(sw_sensor, closed=True), idle[1])
    zigbee_on = (idle[0], replace(sw_zigbee, closed=True))

    def load_phase(p: LoadProfile, sw: LoadSwitch, switches, next_state: NodeState) -> Phase:
        draws = (controller, (p.name, p.v * p.i), (f"switch_{p.name}", p.i * p.i * sw.r_on))
        return Phase(f"{p.name} on-time", p.t, draws, switches, next_state)

    handoff = max(0.0, ctrl.t - sensor.t - zigbee.t)
    return {
        NodeState.BOOT: Phase("boot", 0.0, (), idle, NodeState.HANDOFF),
        NodeState.HANDOFF: Phase("handoff", handoff, (controller,), idle, NodeState.MEASURE),
        NodeState.MEASURE: load_phase(sensor, sw_sensor, sensor_on, NodeState.TRANSMIT),
        NodeState.TRANSMIT: load_phase(zigbee, sw_zigbee, zigbee_on, NodeState.SHUTDOWN),
        NodeState.SHUTDOWN: Phase("shutdown", 0.0, (), idle, NodeState.SLEEP),
    }


def monitor_step(
    cfg: MonitorConfig,
    sm: NodeStateMachine,
    v_cap2: float,
    clock: float,
    dt: float,
    go_threshold: float,
    check_steps: int,
) -> tuple[float, str]:
    """Advance the monitor by one step.

    Returns (draw_current, ledger_component): the monitor's supply current
    for this step and which bucket it belongs to ("monitor_sleep" or
    "monitor_check"; "" when unpowered).

    The monitor lives directly on the reservoir cap.  Below v_min_operate
    it is unpowered: zero draw, schedule lost.  While a cycle runs the
    monitor only contributes its sleep draw; cycle progress is handled by
    the cycle stepper, not here.
    """
    alive = v_cap2 >= cfg.v_min_operate
    if sm.state.cycle:
        if not alive:
            sm.enable_monitor = False
            return 0.0, ""
        return cfg.i_sleep, "monitor_sleep"
    if not alive:
        if sm.state is not NodeState.COLD:
            sm.state = NodeState.COLD
            sm.enable_monitor = False
            sm.next_wake = math.inf
        return 0.0, ""
    if sm.state is NodeState.COLD:
        # Power-on reset: schedule the first check one full period out.
        sm.state = NodeState.SLEEP
        sm.next_wake = clock + cfg.wake_period
        return cfg.i_sleep, "monitor_sleep"
    if sm.state is NodeState.SLEEP:
        if clock >= sm.next_wake:
            sm.state = NodeState.CHECK
            sm.phase_steps_left = check_steps
            sm.next_wake += cfg.wake_period
            return cfg.i_active, "monitor_check"
        return cfg.i_sleep, "monitor_sleep"
    if sm.state is NodeState.CHECK:
        sm.phase_steps_left -= 1
        if sm.phase_steps_left <= 0:
            if v_cap2 >= go_threshold:
                sm.state = NodeState.BOOT
                sm.enable_monitor = True
            else:
                sm.state = NodeState.SLEEP
        return cfg.i_active, "monitor_check"
    raise TransitionError(f"monitor cannot step from state {sm.state!r}")


def duration_steps(label: str, duration_s: float, dt: float) -> int:
    """Whole steps of dt that cover duration_s: 0 for an empty phase,
    otherwise at least one."""
    if duration_s <= 0:
        return 0
    n = duration_s / dt
    if not math.isfinite(n):
        raise QuantityError(f"{label} {duration_s!r} s spans too many {dt!r} s steps")
    return max(1, round(n))


def cycle_substep(
    sm: NodeStateMachine,
    plan: dict[NodeState, Phase],
    conv2: DcDcConverter,
    v_cap2: float,
    dt: float,
) -> tuple[tuple[tuple[str, float], ...], DcDcConverter, LoadSwitch, LoadSwitch, str]:
    """One fine step of a controller cycle.

    Returns (draws, conv2, sw_sensor, sw_zigbee, event) where draws are
    the (component, rail_power_w) pairs supplied through conv2 this step,
    the switches are the phase table's as they stand after the step, and
    event is "" while the cycle runs, "done" after a clean shutdown, or
    "abort" when the converter dropped out mid-cycle.

    Each row counts sm.phase_steps_left down and ends on the step that
    reaches zero.  Boot is always entered at 0 (the check's countdown ends
    there, and a new machine starts at 0), so it takes one step.
    """
    state = sm.state
    if not state.cycle:
        raise TransitionError(f"cycle_substep called in state {state!r}")

    conv2 = replace(conv2, enabled=sm.enable_line) if conv2.enabled != sm.enable_line else conv2
    conv2 = dcdc_update_running(conv2, v_cap2)

    if state is NodeState.SHUTDOWN or not conv2.running:
        # Teardown, clean after Shutdown or on a mid-cycle brown-out (or an
        # enable lost before boot finished): drop the enables, kill the
        # converter.  The monitor resumes its schedule (or browns out) from Sleep.
        sm.enable_controller = False
        sm.enable_monitor = False
        sm.state = NodeState.SLEEP
        event = "done" if state is NodeState.SHUTDOWN else "abort"
        off = replace(conv2, enabled=False, running=False)
        return (), off, *plan[NodeState.SHUTDOWN].switches, event

    row = plan[state]
    sm.phase_steps_left -= 1
    if sm.phase_steps_left > 0:
        return row.draws, conv2, *row.switches, ""
    # The controller holds from Boot's end; the monitor lets go after the handoff.
    sm.enable_controller = True
    if state is not NodeState.BOOT:
        sm.enable_monitor = False
    sm.state = row.next
    nxt = plan[row.next]
    sm.phase_steps_left = duration_steps(nxt.label, nxt.on_s, dt)
    return row.draws, conv2, *nxt.switches, ""


def run_cycle(
    sm: NodeStateMachine,
    profiles: tuple[LoadProfile, ...],
    switches: tuple[LoadSwitch, LoadSwitch],
    conv2: DcDcConverter,
    cap2: Supercap,
    dt: float = 1e-3,
) -> tuple[CycleReport, DcDcConverter, Supercap]:
    """Run one supervised cycle to completion or abort, standalone.

    Precondition: the machine is in Boot with the enable line raised and
    conv2 enabled.  The cycle runs on the engine with no RF input, no
    charge pump and a monitor that draws nothing, so it is integrated,
    accounted and torn down as in an integrated run: the teardown step
    takes one dt.  Returns the report plus the post-cycle converter and
    reservoir cap.
    """
    if sm.state is not NodeState.BOOT:
        raise TransitionError(f"run_cycle requires state Boot, got {sm.state.value}")
    if not (conv2.enabled and sm.enable_line):
        raise TransitionError("run_cycle requires conv2 enabled via the enable line")
    if not dcdc_update_running(conv2, cap2.v).running:
        raise TransitionError(
            f"conv2 cannot start from v_cap2 = {cap2.v!r} (needs {conv2.v_startup!r})"
        )
    # Imported here: the engine imports this module at load time.
    from .engine import (
        Engine, EngineConfig, FrontendConfig, ManagementConfig, Scenario, StorageConfig,
    )

    monitor = MonitorConfig(i_sleep=0.0, i_active=0.0, v_min_operate=0.0, go_threshold=0.0)
    eng = Engine(
        Scenario(
            source=ConstantSource(0.0),  # all of it reflected: gamma_sq = 1
            frontend=FrontendConfig(
                ReflectionModel(gamma_sq=1.0), ResonantTank(1.0, 1.0), RectifierParams(), 1.0
            ),
            storage=StorageConfig(
                cap1=Supercap(1.0, 0.0, name="cap1"),
                cap2=cap2,
                conv1=DcDcConverter(enabled=False),
                conv2=conv2,
                transfer=TransferPolicy(),
            ),
            management=ManagementConfig(monitor, profiles, *switches),
            engine=EngineConfig(dt_coarse=dt, dt_fine=dt),
        )
    )
    eng.sm = sm
    while sm.state.cycle:
        state_before = sm.state
        eng.step(eng._pick_dt())
    led = eng.ledger
    return (
        CycleReport(
            success=eng.transmissions == 1,
            aborted_in=state_before if eng.aborted_cycles else None,
            duration_s=eng.t,
            v_before=cap2.v,
            v_after=eng.v2,
            e_by_load=dict(led.e_load_by_component),
            e_from_cap=led.e_load_total + led.e_converter_loss,
            e_converter_loss=led.e_converter_loss,
        ),
        eng.conv2,
        replace(cap2, v=eng.v2),
    )
