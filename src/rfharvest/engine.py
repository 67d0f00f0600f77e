"""Two-rate fixed-step simulation engine.

Wires the pipeline together: ambient source -> reflection -> resonant
tank -> rectifier -> harvest cap -> charge pump -> reservoir cap ->
monitor / controller loads, advancing with a coarse step while the node
is Cold or Sleep and a fine step during checks and cycles.  Coarse steps
come in stretches: one step() call takes every coarse step up to the next
window end, wake-up or stop condition.  The quiet ones (monitor and pump
idle, neither cap clamping at 0 V) run in one loop over local variables
with the per-step arithmetic in the per-step order, so results are bit for
bit those of one step per call, for any dt_coarse and with or without a
trace file.  The loop writes a trace row after each step and runs the
ledger guard once, at its end, so the trace of a run the guard aborts may
hold rows up to the end of that loop.

Every joule is attributed exactly once to one of: harvested, leaked,
converter loss, a named load, or the change in stored energy.  The
attribution terms are constructed from capacitor energy differences, so
the ledger residual is zero up to float summation noise; a residual above
tolerance aborts the run, because conservation is the only global oracle
this simulation has.

Ledger boundary: in the default thevenin coupling, e_harvested is the
energy entering the harvest cap's terminals; the rectifier's internal
dissipation upstream of that boundary is not tracked.  In the ideal
coupling (used for lossless-chain studies), e_harvested is the delivered
power itself and any coupling inefficiency shows up as converter loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .analog_frontend import (
    RectifierParams,
    ReflectionModel,
    ResonantTank,
    chain_open_circuit,
    delivered_power,
)
from .errors import LedgerError, QuantityError, ScenarioError, TraceError
from .power_mgmt import (
    LoadProfile,
    LoadSwitch,
    MonitorConfig,
    NodeState,
    NodeStateMachine,
    build_cycle_plan,
    cycle_substep,
    duration_steps,
    monitor_step,
    resolve_go_threshold,
    table1_profiles,
)
from .quantities import dbm_to_watts, fraction, positive
from .rf_environment import RfSourceModel, TraceSource, sample_window
from .storage import (
    CAP2_V_MAX_DEFAULT,
    DcDcConverter,
    Supercap,
    TransferPolicy,
    cap_euler,
    dcdc_supply_current,
    transfer_step,
)

__all__ = [
    "FrontendConfig",
    "StorageConfig",
    "ManagementConfig",
    "EngineConfig",
    "Scenario",
    "EnergyLedger",
    "RunCounters",
    "SimResult",
    "Engine",
    "run_scenario",
    "TRACE_HEADER",
]

TRACE_HEADER = "t_s,p_avail_dbm,v_cap1,v_cap2,state,e_harvested_j,e_consumed_j,e_leaked_j"
_TRACE_ROW = "{:.6f},{:.6g},{:.10g},{:.10g},{},{:.10g},{:.10g},{:.10g}\n".format

#: Ledger tolerance as a share of the energy harvested (see EnergyLedger.tolerance).
LEDGER_REL_TOL = 1e-6

COUPLING_THEVENIN = "thevenin"
COUPLING_IDEAL = "ideal"


@dataclass(frozen=True)
class FrontendConfig:
    """Analog chain wiring: reflection, tank, rectifier, and how the
    rectifier couples into the harvest cap.

    coupling "thevenin" charges the cap through the rectifier's output
    resistance; "ideal" deposits delivered power scaled by
    ideal_efficiency, for lossless-chain baselines.
    """

    reflection: ReflectionModel
    tank: ResonantTank
    rectifier: RectifierParams
    carrier_hz: float
    coupling: str = COUPLING_THEVENIN
    ideal_efficiency: float = 1.0

    def __post_init__(self):
        if self.coupling not in (COUPLING_THEVENIN, COUPLING_IDEAL):
            raise ScenarioError(f"unknown coupling {self.coupling!r}")
        positive("carrier_hz", self.carrier_hz)
        fraction("ideal_efficiency", self.ideal_efficiency)


@dataclass(frozen=True)
class StorageConfig:
    cap1: Supercap
    cap2: Supercap
    conv1: DcDcConverter
    conv2: DcDcConverter
    transfer: TransferPolicy
    cap2_v_max: float = CAP2_V_MAX_DEFAULT

    def __post_init__(self):
        positive("cap2_v_max", self.cap2_v_max)


@dataclass(frozen=True)
class ManagementConfig:
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    profiles: tuple[LoadProfile, ...] = field(default_factory=table1_profiles)
    switch_sensor: LoadSwitch = field(default_factory=lambda: LoadSwitch("sensor"))
    switch_zigbee: LoadSwitch = field(default_factory=lambda: LoadSwitch("zigbee"))
    loads_enabled: bool = True


@dataclass(frozen=True)
class EngineConfig:
    dt_coarse: float = 1.0
    dt_fine: float = 1e-3
    t_end: float = 45 * 86400.0
    max_transmissions: int | None = None
    stop_stored_j: float | None = None

    def __post_init__(self):
        positive("dt_coarse", self.dt_coarse)
        positive("dt_fine", self.dt_fine)
        if self.dt_fine > self.dt_coarse:
            raise QuantityError(
                f"dt_fine {self.dt_fine!r} must not exceed dt_coarse {self.dt_coarse!r}"
            )
        positive("t_end", self.t_end)
        if self.max_transmissions is not None and self.max_transmissions < 1:
            raise QuantityError("max_transmissions must be >= 1 when set")
        if self.stop_stored_j is not None and not self.stop_stored_j > 0:
            raise QuantityError("stop_stored_j must be positive when set")


@dataclass(frozen=True)
class Scenario:
    """Complete, immutable description of one simulation run."""

    source: RfSourceModel
    frontend: FrontendConfig
    storage: StorageConfig
    management: ManagementConfig
    engine: EngineConfig = field(default_factory=EngineConfig)


@dataclass
class EnergyLedger:
    """Per-run energy attribution; residual is the conservation check."""

    e_harvested: float = 0.0
    e_reflected: float = 0.0  # informational, outside the balance
    e_leaked: float = 0.0
    e_converter_loss: float = 0.0
    e_load_by_component: dict[str, float] = field(default_factory=dict)
    e_load_total: float = 0.0  # running sum of the per-component rows
    e_stored_delta: float = 0.0
    e_initial: float = 0.0  # stored energy at t = 0, the base of e_stored_delta
    steps: int = 0  # integrator steps booked

    def residual(self) -> float:
        return (
            self.e_harvested
            - self.e_leaked
            - self.e_converter_loss
            - self.e_load_total
            - self.e_stored_delta
        )

    def tolerance(self) -> float:
        """LEDGER_REL_TOL of the energy harvested, or the rounding floor
        when that is larger.

        Every booking is an energy difference or a product that also sets
        a cap's voltage, so only roundings move the balance, each by at
        most u = 2**-53 of the rounded value.  Per step, the eight sums
        into the totals cost at most u * 3G, and cap2's rounded voltage,
        unbooked when only its leak drains it, u * 2(e0 + G); the
        bookings' own arithmetic and the final sums add u * (17 e0 + 35 G)
        (e0 = e_initial, G the gross throughput).  Like the recursive-
        summation bound, the floor grows linearly in the steps.
        """
        gross = (abs(self.e_harvested) + abs(self.e_leaked)
                 + abs(self.e_converter_loss) + abs(self.e_load_total))
        n = self.steps
        floor = 2.0 ** -53 * ((2 * n + 17) * self.e_initial + (5 * n + 35) * gross)
        return max(LEDGER_REL_TOL * self.e_harvested, floor)

    def check(self) -> None:
        r = self.residual()
        if abs(r) > self.tolerance():
            raise LedgerError(
                f"energy ledger residual {r!r} exceeds tolerance {self.tolerance()!r} "
                f"(harvested {self.e_harvested!r})"
            )


@dataclass
class RunCounters:
    """Work counts of one run.

    An integrator step belongs to the regime of the node state it starts
    in: fine in a check or a cycle state, coarse in Cold or Sleep, where
    it is a pump step when the charge pump runs in it and quiet otherwise.
    """

    coarse_quiet: int = 0
    coarse_pump: int = 0
    fine_check: int = 0
    fine_cycle: int = 0
    windows: int = 0  # source windows sampled, one frontend solve each
    quiet_calls: int = 0  # runs of quiet steps taken in one loop


@dataclass
class SimResult:
    time_to_first_transmission: float | None
    transmissions: int
    aborted_cycles: int
    t_final: float
    state_final: str
    v_cap1: float
    v_cap2: float
    go_threshold: float | None
    ledger: EnergyLedger
    stop_reason: str
    counters: RunCounters


class Engine:
    """One simulation run: single-use, strictly sequential.

    Construct with a scenario, then call run() once; step(dt) advances a
    single step for fine-grained inspection, or a coarse stretch of many
    (see _pick_dt).  Capacitor state lives in plain float attributes; only
    the converters and load switches are records.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        src = scenario.source
        if isinstance(src, TraceSource) and not src.hold_last:
            t_last, t_end = src.samples[-1][0], scenario.engine.t_end
            if t_last < t_end:
                raise TraceError(
                    f"trace ends at {t_last!r} s, before engine.t_end_s = {t_end!r} s; "
                    "set source.hold_last = true or a shorter engine.t_end_s"
                )
        st = scenario.storage
        mg = scenario.management

        self.t = 0.0
        self.v1 = st.cap1.v
        self.v2 = st.cap2.v
        self.c1 = st.cap1.c
        self.c2 = st.cap2.c
        self.r1 = st.cap1.r_leak
        self.r2 = st.cap2.r_leak
        self.conv1 = st.conv1
        self.conv2 = st.conv2
        self.sm = NodeStateMachine()
        self.sw_sensor = mg.switch_sensor
        self.sw_zigbee = mg.switch_zigbee
        self.plan = build_cycle_plan(mg.profiles, mg.switch_sensor, mg.switch_zigbee)
        if mg.loads_enabled:
            self.go_threshold = resolve_go_threshold(
                mg.monitor, mg.profiles, st.cap2.c, st.conv2.v_min_operate, st.conv2.efficiency
            )
        else:
            self.go_threshold = None
        self.check_steps = duration_steps(
            "check_duration", mg.monitor.check_duration, scenario.engine.dt_fine
        )

        self.ledger = EnergyLedger(
            e_initial=0.5 * (self.c1 * self.v1 * self.v1 + self.c2 * self.v2 * self.v2)
        )

        # Source window cache: frontend output is constant within a window.
        self._window_until = -1.0
        self._window_dbm = 0.0
        self._p_avail = 0.0
        self._p_del = 0.0
        self._v_oc = 0.0
        self._r_out = math.inf
        self._p_ideal = 0.0

        self._trace = None  # open trace CSV while run() writes one row per step
        self._offer: tuple[float, float, int] | None = None  # _pick_dt's (t, dt, steps)

        self.transmissions = 0
        self.aborted_cycles = 0
        self.time_to_first_tx: float | None = None
        self.counters = RunCounters()

    def _refresh_window(self) -> None:
        dbm, until = sample_window(self.scenario.source, self.t)
        self.counters.windows += 1
        self._window_dbm = float(dbm)
        self._window_until = float(until)
        fe = self.scenario.frontend
        p_avail = dbm_to_watts(dbm)
        p_del = delivered_power(p_avail, fe.reflection)
        self._p_avail = p_avail
        self._p_del = p_del
        if fe.coupling == COUPLING_THEVENIN:
            out = chain_open_circuit(fe.rectifier, fe.tank, fe.carrier_hz, p_del)
            self._v_oc = out.v_oc
            self._r_out = out.r_out
        else:
            self._p_ideal = fe.ideal_efficiency * p_del

    def _substep_dt(self) -> float:
        """The single-step size rule: dt_fine in a check or cycle, else
        dt_coarse cut short (never below dt_fine) to land on the window end
        or the wake-up, and on t_end.  Refreshes a stale window first."""
        if self.t >= self._window_until:
            self._refresh_window()
        eng = self.scenario.engine
        if self.sm.state.fine:
            dt = eng.dt_fine
        else:
            dt = eng.dt_coarse
            if self.sm.state is NodeState.SLEEP:
                until_wake = self.sm.next_wake - self.t
                if until_wake < dt:
                    dt = max(eng.dt_fine, until_wake)
            if self._window_until > self.t:
                until_window = self._window_until - self.t
                if until_window < dt:
                    dt = max(eng.dt_fine, until_window)
        remaining = eng.t_end - self.t
        if remaining < dt:
            dt = remaining
        return dt

    def _pick_dt(self) -> float:
        """dt of the next step() call: the single-step rule, or in Cold or
        Sleep a coarse stretch of whole coarse steps up to the earliest of
        the window end, the wake-up, t_end, one wake period (a Cold -> Sleep
        flip inside the stretch schedules no check before that) and, with
        stop_stored_j set, the last step before which the stored energy
        provably stays below it.  The offer is recorded: a stretch is the one
        dt above dt_coarse step() accepts, and an offered single step is
        taken without asking the rule again."""
        dt = self._substep_dt()
        sc = self.scenario
        eng = sc.engine
        dtc = eng.dt_coarse
        t = self.t
        if dt < dtc or self.sm.state.fine or not self._window_until > t:
            self._offer = (t, dt, 1)
            return dt
        span = min(self._window_until, eng.t_end) - t
        if sc.management.loads_enabled:
            span = min(span, sc.management.monitor.wake_period)
            if self.sm.state is NodeState.SLEEP:
                span = min(span, self.sm.next_wake - t)
        stop = eng.stop_stored_j
        if stop is not None:
            # Per-step bound on harvested energy: ideal coupling deposits
            # exactly p_ideal * dt; the thevenin charge current is at most
            # v_oc / r_out at a midpoint voltage below v_oc plus half its rise.
            if sc.frontend.coupling == COUPLING_THEVENIN:
                i_max = self._v_oc / self._r_out
                gain = i_max * (self._v_oc + 0.5 * i_max * dtc / self.c1) * dtc
            else:
                gain = self._p_ideal * dtc
            noise = 1e-12 * (stop + self.ledger.e_initial)  # stored-energy rounding a step
            room = stop - self.ledger.e_stored_delta - noise
            span = min(span, room / (gain + noise) * dtc)
        n = math.floor(span / dtc)
        if n < 2:
            n = 1
        else:
            dt = n * dtc
        self._offer = (t, dt, n)
        return dt

    def step(self, dt: float) -> None:
        """Advance the pipeline by dt.

        dt <= dt_coarse is one step, no longer than the single-step rule's
        (_substep_dt) and in a check or cycle exactly it.  A longer dt must
        be the coarse stretch _pick_dt just offered at this t.  Any other dt
        raises before anything moves.  A stretch's steps are sized by the
        single-step rule; the quiet ones are taken by _quiet, the rest by
        _step_one.  A stretch crosses no window end and reaches no check,
        so it advances exactly dt (up to the rounding of the clock) at one
        source level.
        """
        if not dt > 0:
            raise QuantityError(f"dt must be positive, got {dt!r}")
        dtc = self.scenario.engine.dt_coarse
        if dt <= dtc:
            if self._offer != (self.t, dt, 1):
                sub = self._substep_dt()
                if dt > sub or (dt != sub and self.sm.state.fine):
                    raise QuantityError(
                        f"dt {dt!r} breaks the single-step rule at t = {self.t!r}: "
                        f"the step there is {sub!r}"
                        + (" exactly" if self.sm.state.fine else " or shorter")
                    )
            self._step_one(dt)
            return
        offer = self._offer
        if offer is None or offer[:2] != (self.t, dt):
            raise QuantityError(
                f"dt {dt!r} exceeds dt_coarse {dtc!r} and is not the stretch "
                f"_pick_dt offered at t = {self.t!r}"
            )
        left = offer[2]
        while left > 0:
            sub = self._substep_dt()
            done = self._quiet(left if sub == dtc else 1, sub)
            if not done:
                self._step_one(sub)
                done = 1
            left -= done

    def _quiet(self, n: int, dt: float) -> int:
        """Take up to n quiet steps of dt in one loop over local variables;
        return how many were taken (0: the next step is not quiet).

        The caller guarantees Cold or Sleep.  A step is quiet when the
        monitor keeps its state, the pump cannot act and neither cap clamps
        at 0 V; the loop stops before any other step and leaves it to
        _step_one.  After the first step the loop goes on only while the
        single-step rule would take a full coarse step.  The arithmetic is
        _step_one's, cap_euler inlined, in the same order, so the results
        are bit for bit the same.  A run with a trace file gets its row
        after every step; the ledger guard runs once, at the end.
        """
        sc = self.scenario
        st = sc.storage
        mg = sc.management
        sm = self.sm
        pump_watch = st.conv1.enabled
        if pump_watch and self.conv1.running:
            return 0
        t = self.t
        v1, v2 = self.v1, self.v2
        bound = min(self._window_until, sc.engine.t_end)
        # Each step must land above floor1 and floor2: at 0 V a cap clamps,
        # below v_min_operate a sleeping monitor browns out.  An empty cap
        # that nothing charges or drains stays at exactly 0.0.
        thevenin = sc.frontend.coupling == COUPLING_THEVENIN
        fed = self._v_oc > 0.0 if thevenin else self._p_ideal > 0.0
        floor1 = -1.0 if v1 == 0.0 and not fed else 0.0
        floor2 = -1.0 if v2 == 0.0 else 0.0
        i_mon = 0.0
        if mg.loads_enabled:
            lo = mg.monitor.v_min_operate
            if sm.state is NodeState.SLEEP:
                if t >= sm.next_wake or not lo > 0.0 or v2 < lo:
                    return 0
                bound = min(bound, sm.next_wake)
                i_mon, floor2 = mg.monitor.i_sleep, lo
            elif v2 >= lo:  # Cold powers up; v2 only falls in quiet steps
                return 0
        dtc = sc.engine.dt_coarse
        watch = st.transfer.start_v if pump_watch else math.inf
        c1, c2, r1, r2 = self.c1, self.c2, self.r1, self.r2
        hc1, hc2 = 0.5 * c1, 0.5 * c2
        v_oc, r_out = self._v_oc, self._r_out
        e_in = self._p_ideal * dt
        grow = 2.0 * e_in / c1
        e_front = 0.0 if thevenin else self._p_del * dt - e_in
        e_refl = (self._p_avail - self._p_del) * dt
        n_mon, half_mon = -i_mon, i_mon * 0.5
        sqrt = math.sqrt
        trace = self._trace
        dbm, label = self._window_dbm, sm.state.value
        led = self.ledger
        harvested, leaked, conv_loss = led.e_harvested, led.e_leaked, led.e_converter_loss
        reflected, load_total = led.e_reflected, led.e_load_total
        by = led.e_load_by_component
        e_sleep = by.get("monitor_sleep", 0.0)
        e1, e2 = hc1 * v1 * v1, hc2 * v2 * v2
        k = 0
        for k in range(1, n + 1):
            if thevenin:
                head = v_oc - v1
                i_chg = head / r_out if head > 0.0 else 0.0
                u = v1
            else:
                i_chg = 0.0
                u = sqrt(v1 * v1 + grow) if e_in > 0.0 else v1
            i_leak = u / r1
            v1n = u + (i_chg - i_leak) * dt / c1
            i_leak2 = v2 / r2
            v2n = v2 + (n_mon - i_leak2) * dt / c2
            if not (floor1 < v1n < watch and v2n > floor2):
                k -= 1
                break
            leaked1 = i_leak * (0.5 * (u + v1n)) * dt
            e1n = hc1 * v1n * v1n
            harvested += (e1n - e1) + leaked1 + e_front
            conv_loss += e_front
            leaked += leaked1
            reflected += e_refl
            v_sum = v2 + v2n
            leaked2 = i_leak2 * (0.5 * v_sum) * dt
            leaked += leaked2
            if i_mon > 0.0:
                e2n = hc2 * v2n * v2n
                mon_share = half_mon * v_sum * dt
                if mon_share > 0.0:
                    e_sleep += mon_share
                    load_total += mon_share
                    extra = (e2 - e2n - leaked2) - mon_share
                    if extra != 0.0:
                        e_sleep += extra
                        load_total += extra
                e2 = e2n
            v1, v2, e1 = v1n, v2n, e1n
            t = t + dt
            if trace is not None:
                trace.write(_TRACE_ROW(
                    t, dbm, v1, v2, label, harvested, conv_loss + load_total, leaked
                ))
            if bound - t < dtc:
                break
        if k:
            self.t, self.v1, self.v2 = t, v1, v2
            led.e_harvested, led.e_leaked, led.e_converter_loss = harvested, leaked, conv_loss
            led.e_reflected, led.e_load_total = reflected, load_total
            led.e_stored_delta = 0.5 * (c1 * v1 * v1 + c2 * v2 * v2) - led.e_initial
            led.steps += k
            if e_sleep or "monitor_sleep" in by:
                by["monitor_sleep"] = e_sleep
            self.counters.coarse_quiet += k
            self.counters.quiet_calls += 1
            led.check()
        return k

    def _step_one(self, dt: float) -> None:
        """Advance the whole pipeline exactly one step of size dt."""
        led = self.ledger
        sc = self.scenario
        thevenin = sc.frontend.coupling == COUPLING_THEVENIN
        t = self.t
        state = self.sm.state

        # Harvest into cap1.  Attributions come from energy differences so
        # the ledger closes exactly.
        c1 = self.c1
        v1 = self.v1
        e1_before = 0.5 * c1 * v1 * v1
        if thevenin:
            head = self._v_oc - v1
            i_chg = head / self._r_out if head > 0.0 else 0.0
            v1, leaked1 = cap_euler(v1, c1, self.r1, i_chg, dt)
            e_front_loss = 0.0
        else:
            e_in = self._p_ideal * dt
            if e_in > 0.0:
                v1 = math.sqrt(v1 * v1 + 2.0 * e_in / c1)
            v1, leaked1 = cap_euler(v1, c1, self.r1, 0.0, dt)
            e_front_loss = self._p_del * dt - e_in
        e1_after = 0.5 * c1 * v1 * v1
        led.e_harvested += (e1_after - e1_before) + leaked1 + e_front_loss
        led.e_converter_loss += e_front_loss
        led.e_leaked += leaked1
        led.e_reflected += (self._p_avail - self._p_del) * dt

        # Charge pump cap1 -> cap2.
        st = sc.storage
        v2 = self.v2
        c2 = self.c2
        e2_pre = 0.5 * c2 * v2 * v2
        v1, v2, self.conv1, moved, _lost = transfer_step(
            v1, c1, v2, c2, self.conv1, st.transfer, dt, st.cap2_v_max
        )
        self.v1 = v1
        self.v2 = v2
        e_extracted = e1_after - 0.5 * c1 * v1 * v1
        e_deposited = 0.5 * c2 * v2 * v2 - e2_pre
        led.e_converter_loss += e_extracted - e_deposited

        # Management: monitor draw and, during cycles, converter-2 loads.
        e2_before = 0.5 * c2 * v2 * v2
        i_draw = 0.0
        if sc.management.loads_enabled:
            sm = self.sm
            mon = sc.management.monitor
            i_mon, mon_kind = monitor_step(
                mon, sm, v2, t, dt, self.go_threshold, self.check_steps
            )
            draws: tuple[tuple[str, float], ...] = ()
            if sm.state.cycle:
                draws, self.conv2, self.sw_sensor, self.sw_zigbee, event = cycle_substep(
                    sm, self.plan, self.conv2, self.sw_sensor, self.sw_zigbee, v2, dt
                )
                if event == "done":
                    self.transmissions += 1
                    if self.time_to_first_tx is None:
                        self.time_to_first_tx = t + dt
                elif event == "abort":
                    self.aborted_cycles += 1
            i_draw = i_mon
            if draws:
                i_draw += dcdc_supply_current(self.conv2, v2, sum(p for _, p in draws))
        v2, leaked2 = cap_euler(v2, c2, self.r2, -i_draw, dt)
        led.e_leaked += leaked2
        if i_draw > 0.0:
            e_drawn = e2_before - 0.5 * c2 * v2 * v2 - leaked2
            by = led.e_load_by_component
            mon_share = i_mon * 0.5 * (self.v2 + v2) * dt
            if mon_share > 0.0:
                by[mon_kind] = by.get(mon_kind, 0.0) + mon_share
                led.e_load_total += mon_share
            if draws:
                e_loads = 0.0
                for name, p in draws:
                    e = p * dt
                    by[name] = by.get(name, 0.0) + e
                    e_loads += e
                led.e_load_total += e_loads
                led.e_converter_loss += (e_drawn - mon_share) - e_loads
            else:
                # No converter path active: the whole non-monitor part
                # (float noise at most) folds into the monitor share.
                extra = e_drawn - mon_share
                if extra != 0.0 and mon_share > 0.0:
                    by[mon_kind] += extra
                    led.e_load_total += extra
        self.v2 = v2

        self.t = t + dt
        led.e_stored_delta = (
            0.5 * (self.c1 * self.v1 * self.v1 + self.c2 * v2 * v2) - led.e_initial
        )
        led.steps += 1
        counts = self.counters
        if state.cycle:
            counts.fine_cycle += 1
        elif state.fine:
            counts.fine_check += 1
        elif self.conv1.running or moved > 0.0:
            counts.coarse_pump += 1
        else:
            counts.coarse_quiet += 1
        led.check()
        if self._trace is not None:
            self._trace.write(_TRACE_ROW(
                self.t, self._window_dbm, self.v1, v2, self.sm.state.value,
                led.e_harvested, led.e_converter_loss + led.e_load_total, led.e_leaked,
            ))

    def run(self, trace_path: str | None = None) -> SimResult:
        eng = self.scenario.engine
        t_end = eng.t_end
        stop_reason = "t_end"
        try:
            if trace_path is not None:
                self._trace = open(trace_path, "w", encoding="utf-8")
                self._trace.write(TRACE_HEADER + "\n")
            while self.t < t_end - 1e-12:
                self.step(self._pick_dt())
                if (
                    eng.max_transmissions is not None
                    and self.transmissions >= eng.max_transmissions
                ):
                    stop_reason = "transmissions"
                    break
                if (
                    eng.stop_stored_j is not None
                    and self.ledger.e_stored_delta >= eng.stop_stored_j
                ):
                    stop_reason = "stored"
                    break
        finally:
            if self._trace is not None:
                self._trace.close()
                self._trace = None
        self.ledger.check()
        return SimResult(
            time_to_first_transmission=self.time_to_first_tx,
            transmissions=self.transmissions,
            aborted_cycles=self.aborted_cycles,
            t_final=self.t,
            state_final=self.sm.state.value,
            v_cap1=self.v1,
            v_cap2=self.v2,
            go_threshold=self.go_threshold,
            ledger=self.ledger,
            stop_reason=stop_reason,
            counters=self.counters,
        )


def run_scenario(scenario: Scenario, trace_path: str | None = None) -> SimResult:
    """Run one scenario to completion with a fresh engine."""
    return Engine(scenario).run(trace_path)
