"""Two-rate fixed-step simulation engine.

Wires the pipeline together: ambient source -> reflection -> resonant
tank -> rectifier -> harvest cap -> charge pump -> reservoir cap ->
monitor / controller loads, advancing with a coarse step while the node
is Cold or Sleep and a fine step during checks and cycles.  Steps come
in stretches: one step() call takes every coarse step up to the next
window end, wake-up or stop condition, or a check's or a cycle phase's
fine steps but its last.  A run of quiet ones (the monitor keeps its
state, the pump is idle, neither cap clamps at 0 V) is one closed-form
macro-step: inside a window each cap's Euler step is affine,
v <- a v + b, so k steps and the ledger's sums over them are geometric.
The frontend is solved once per scenario; a quiet span (see
Engine._plan) fixes the laws' constants and the monitor's draw, as
monitor_step gives it, once.  A new window takes the next level from the
source's window iterator and evaluates v_oc from the chain's constants;
then it costs one _pick_dt, one step() and, while the node is quiet, one
macro-step with cap1's laws, cap2's step, the booking and the ledger
guard.  The model is the per-step one; only rounding moves, within 1e-9
of stepping one step per call, and events land on the same step.  Traced
and untraced runs take the same macro-steps; a traced one also writes a
row per step, read from the same law, and the state never depends on it.
A macro-step writes its rows in one pass, in chunks of at most
_TRACE_CHUNK rows, with the bytes of stepping one step per row.  Every
step ends in Engine._end, which writes its row before the ledger guard,
so the trace of a run the guard aborts ends with the row it failed on:
a single step's, or the last of a macro-step's.

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
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import islice

from .analog_frontend import (
    RectifierParams,
    ReflectionModel,
    ResonantTank,
    chain_constants,
    chain_open_circuit,  # not called here; benchmarks/layers.py wraps it by this name
    chain_v_oc,
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
from .quantities import count, dbm_to_watts, fraction, not_below, positive
from .rf_environment import (
    FluctuatingSource,
    RfSourceModel,
    TraceSource,
    sample_window,  # not called here; benchmarks/layers.py wraps it by this name
    windows,
)
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
_TRACE_ROW = "%.6f,%.6g,%.10g,%.10g,%s,%.10g,%.10g,%.10g\n"
#: Rows per write of a macro-step's trace, which bounds its memory: one
#: macro-step can span the whole horizon.
_TRACE_CHUNK = 1024

#: Ledger tolerance as a share of the energy harvested (see EnergyLedger.tolerance).
LEDGER_REL_TOL = 1e-6

#: Engine._offer when no offer stands: no dt equals it.
_NO_OFFER = (None, 0, None)

#: The least positive float: bound - t >= _ANY_TIME exactly when t < bound.
_ANY_TIME = math.ulp(0.0)

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
        not_below("dt_coarse", self.dt_coarse, "dt_fine", self.dt_fine)
        positive("t_end", self.t_end)
        # Below 2**52 fine steps ulp(t) < dt_fine, so every step moves t.
        not_below("2**52 dt_fine", 2.0 ** 52 * self.dt_fine, "t_end", self.t_end)
        if self.max_transmissions is not None:
            count("max_transmissions", self.max_transmissions)
        if self.stop_stored_j is not None:
            positive("stop_stored_j", self.stop_stored_j)


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
    e_delivered: float = 0.0  # RF crossing the antenna, outside the balance too
    e_leaked: float = 0.0
    e_converter_loss: float = 0.0
    e_load_by_component: dict[str, float] = field(default_factory=dict)
    e_load_total: float = 0.0  # running sum of the per-component rows
    e_stored_delta: float = 0.0
    e_initial: float = 0.0  # stored energy at t = 0, the base of e_stored_delta
    steps: int = 0  # integrator steps booked
    unbooked: int = 0  # of them, steps that leave cap2's voltage rounding unbooked

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
        into the totals cost at most u * 3G.  cap2's rounded voltage costs
        u * 2(e0 + G) where nothing books it: on a single step with no
        converter draw (the converter's loss, a remainder, books it on the
        others) and once per macro-step, which books cap2 from closed-form
        sums and sets its voltage once.  The bookings' own
        arithmetic and the final sums add u * (17 e0 + 35 G) (e0 =
        e_initial, G the gross throughput).  Like the recursive-summation
        bound, the floor grows linearly in the steps.  A macro-step's
        closed-form sums err by tens of u of what they sum, far inside its
        k steps' share.
        """
        gross = (abs(self.e_harvested) + abs(self.e_leaked)
                 + abs(self.e_converter_loss) + abs(self.e_load_total))
        m = self.unbooked
        floor = 2.0 ** -53 * ((2 * m + 17) * self.e_initial
                              + (3 * self.steps + 2 * m + 35) * gross)
        return max(LEDGER_REL_TOL * self.e_harvested, floor)

    def check(self) -> None:
        r = self.residual()
        # The first test alone passes almost every call: tolerance() is at
        # least LEDGER_REL_TOL of the energy harvested.
        if abs(r) > LEDGER_REL_TOL * self.e_harvested and abs(r) > self.tolerance():
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
    windows: int = 0  # source windows entered, one v_oc evaluation each
    quiet_calls: int = 0  # closed-form macro-steps taken


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


@lru_cache(maxsize=64)
def _series_sums(x: float, k: int) -> tuple[float, float]:
    """m1 = sum s_j and m2 = sum s_j**2 over j < k (see _affine) for
    x k < 1/2, from their binomial series in x.  They depend only on the
    law's x and the step count, which repeat from window to window."""
    c2 = 0.5 * k * (k - 1)
    r = term = c2 * (k - 2) / 3.0  # r = (c2 - m1) / x = sum (-x)**i C(k, i + 3)
    tiny = 1e-17 * r
    i = 3
    while term > tiny or term < -tiny:
        term *= -x * (k - i) / (i + 1)
        r += term
        i += 1
    m2 = ((2 * k - 2) * c2 - 2.0 * r + x * (2 * (1 - k) * r - c2 * c2)
          + x * x * r * (2.0 * c2 - x * r)) / (2.0 - x)
    return c2 - x * r, m2


def _affine(x: float, b: float, y0: float, k: int) -> tuple[float, float, float]:
    """k steps of y <- (1 - x) y + b from y0 in closed form: y_k and the
    sums of y_j and of y_j**2 over j < k.

    With a = 1 - x and s_j = a**0 + ... + a**(j-1), y_j = y0 + (b - x y0) s_j.
    For x k < 1/2 the sums m1 = sum s_j and m2 = sum s_j**2 come from their
    binomial series in x, finite and exact at x = 0 (no leak, a == 1); above
    that from a**k = exp(k log1p(-x)), where the differences no longer cancel.
    """
    if x * k < 0.5:
        m1, m2 = _series_sums(x, k)
        d = b - x * y0
        return y0 + d * (k - x * m1), k * y0 + d * m1, y0 * (k * y0 + 2.0 * d * m1) + d * d * m2
    ln_a = math.log1p(-x)
    s = -math.expm1(k * ln_a) / x
    s2 = -math.expm1(2 * k * ln_a) / (x * (2.0 - x))  # sum a**2j
    return (
        math.exp(k * ln_a) * y0 + b * s,
        y0 * s + b * (k - s) / x,
        y0 * (y0 * s2 + 2.0 * b * (s - s2) / x) + b * b * (k - 2.0 * s + s2) / (x * x),
    )


def _first_hit(x: float, b: float, y0: float, k: int, c: float, hit) -> int:
    """The first j in 1..k for which hit(y_j) holds, y_j as _affine gives
    it, given that hit(y_k) does.  y_j is monotone in j: a log and a ceil
    place the crossing of c, and it is checked at j - 1 and j."""
    d = b - x * y0
    if d == 0.0:
        j = k
    elif x > 0.0:  # a**j = 1 + x (y0 - c) / d
        arg = x * (y0 - c) / d
        j = math.log1p(arg) / math.log1p(-x) if arg > -1.0 else k
    else:
        j = (c - y0) / d
    j = math.ceil(j) if 1.0 <= j < k else (1 if j < 1.0 else k)
    while j > 1 and hit(_affine(x, b, y0, j - 1)[0]):
        j -= 1
    while not hit(_affine(x, b, y0, j)[0]):
        j += 1
    return j


def _quiet_book(c_leak1: float, c_leak2: float, c_mon: float, e_front: float,
                de1: float, q1: float, q2: float, p2: float, j: int):
    """The ledger's bookings over the first j steps of a quiet macro-step
    (coefficients first, see _quiet), from cap1's energy change de1 and the
    sums q1 (see _quiet), q2 = sum v2_j (v2_j + v2_j+1) and
    p2 = sum (v2_j + v2_j+1): harvested, front-end loss, leaked and the
    monitor's draw."""
    leak1 = c_leak1 * q1
    front = j * e_front
    return de1 + leak1 + front, front, leak1 + c_leak2 * q2, c_mon * p2


class Engine:
    """One simulation run: single-use, strictly sequential.

    Construct with a scenario, then call run() once, or step(_pick_dt())
    for fine-grained inspection: a single step or a stretch of many (see
    _pick_dt).  Capacitor state lives in plain float attributes; only
    the converters are records.
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
        if isinstance(src, FluctuatingSource):  # shorter: a step walks every window it skips
            not_below("source.dwell_s", src.dwell_s, "engine.dt_fine_s", scenario.engine.dt_fine)
        st = scenario.storage
        mg = scenario.management

        # The clock: t = t_a + j dt from an anchor t_a, with the dt of the
        # steps since it (0.0 before the first, which no dt equals).
        self.t = self._t_a = 0.0
        self._j = 0
        self._dt_a = 0.0
        self.v1 = st.cap1.v
        self.v2 = st.cap2.v
        self.c1 = st.cap1.c
        self.c2 = st.cap2.c
        self.r1 = st.cap1.r_leak
        self.r2 = st.cap2.r_leak
        self.conv1 = st.conv1
        self.conv2 = st.conv2
        self.sm = NodeStateMachine()
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

        # The frontend solved once: per window only the delivered power moves.
        fe = scenario.frontend
        self._transmitted = 1.0 - fe.reflection.gamma_sq  # share past the reflection
        self._chain = None  # chain_v_oc's constants under thevenin coupling
        self._r_out = math.inf
        if fe.coupling == COUPLING_THEVENIN:
            self._chain, self._r_out = chain_constants(fe.rectifier, fe.tank, fe.carrier_hz)

        # The source's windows in order; frontend output is constant within one.
        self._windows = windows(src, 0.0)
        self._window_until = -1.0
        self._window_dbm = 0.0
        self._p_avail = 0.0
        self._p_del = 0.0
        self._v_oc = 0.0
        self._p_ideal = 0.0

        # Scenario values read on every window's path.
        self._pump = st.conv1.enabled
        self._loads = mg.loads_enabled
        # No coarse stretch spans more than a wake period (see _pick_dt).
        self._wake = mg.monitor.wake_period if mg.loads_enabled else math.inf
        eng = scenario.engine
        self._dtc, self._dtf = eng.dt_coarse, eng.dt_fine
        self._t_end, self._stop = eng.t_end, eng.stop_stored_j

        self._span: tuple | None = None  # the quiet span's plan (see _plan)
        self._trace = None  # open trace CSV while run() writes one row per step
        self._offer: tuple = _NO_OFFER  # _pick_dt's (dt, steps, sub-step), until step() takes it

        self.transmissions = 0
        self.aborted_cycles = 0
        self.time_to_first_tx: float | None = None
        self.counters = RunCounters()

    def _plan(self, dt: float) -> tuple:
        """What a quiet span of steps of dt fixes, worked out once: whether
        its steps are quiet (see _quiet), the laws' constants (cap1's leak
        x1, the charging law's x and the factor of its b, cap2's x2 and
        2 - x2), cap2's b and the monitor's booking coefficient and ledger
        row, both caps' leak booking coefficients, the pump's start_v (inf
        without a pump) and the brown-out level.

        The monitor's draw and row are monitor_step's for the span's first
        step, taken on a copy of the state machine: the row is "" while the
        monitor is off (Cold or no loads), "monitor_sleep" or
        "monitor_check".  The span is quiet only if the copy keeps its state
        and, where the monitor is powered, v_min_operate > 0, so that the
        stop before its brown-out keeps cap2 off 0 V.  A span starts on
        entering Cold or Sleep, at the end of a pump episode or of a check,
        and on a change of step size: _step_one drops the plan, and a plan
        for another dt replaces it.  Nothing it reads moves in between: the
        state, the wake-up and the pump change only in single steps, and
        quiet steps only lower v2, never through the brown-out level, so
        neither a Cold monitor's power-up nor a powered one's brown-out
        comes inside.
        """
        c1, c2, r1, r2 = self.c1, self.c2, self.r1, self.r2
        thevenin = self._chain is not None
        x1 = dt / c1 / r1  # cap1's leak; r_leak = inf gives 0.0, a == 1
        g = dt / c1 / self._r_out if thevenin else 0.0  # the Thevenin charge path
        x2 = dt / c2 / r2
        if thevenin:  # cap1 charges toward v_oc: b = v_oc g
            xc, bmul = x1 + g, g
        else:  # ideal coupling deposits e_in, then the cap leaks: v1**2 is affine
            xc, bmul = x1 * (2.0 - x1), (1.0 - x1) * (1.0 - x1)
        # Both laws keep a > 0 (a law with a <= 0 could ring through 0 V); the pump
        # is idle, as step() calls _quiet only then and only _step_one starts it.
        quiet = x1 + g < 1.0 and x2 < 1.0
        mon = self.scenario.management.monitor
        lo = mon.v_min_operate
        i_mon, kind = 0.0, ""
        if self._loads:
            probe = replace(self.sm)
            i_mon, kind = monitor_step(mon, probe, self.v2, self.t, dt, self.go_threshold,
                                       self.check_steps)
            if probe.state is not self.sm.state or (kind and not lo > 0.0):
                quiet = False
        start_v = self.scenario.storage.transfer.start_v if self._pump else math.inf
        return (dt, quiet, x1, xc, bmul, x2, 2.0 - x2, -i_mon * dt / c2, 0.5 * i_mon * dt, kind,
                0.5 * dt / r1 * (1.0 if thevenin else 2.0 - x1), 0.5 * dt / r2, start_v, lo)

    def _refresh_window(self) -> None:
        """Advance the source's windows to the one holding t and solve the
        frontend at its level from the chain's constants: v_oc under
        thevenin coupling, the deposited power under ideal coupling."""
        t = self.t
        dbm, until = self._window_dbm, self._window_until
        while until <= t:
            dbm, until = next(self._windows)
        self.counters.windows += 1
        self._window_dbm, self._window_until = dbm, until
        self._p_avail = p_avail = dbm_to_watts(dbm)
        self._p_del = p_del = p_avail * self._transmitted
        if self._chain is not None:
            self._v_oc = chain_v_oc(p_del, *self._chain)
        else:
            self._p_ideal = self.scenario.frontend.ideal_efficiency * p_del

    def _pick_dt(self) -> float:
        """dt of the next step() call: a stretch of two or more steps when
        one is open, else one step of the single-step rule: dt_fine in a
        check or a cycle, else dt_coarse cut once (never below dt_fine) to
        land on the earlier of the wake-up (inf in Cold) and the window
        end; either capped at t_end.  A stale window is refreshed first.

        Steps are checked on the clock they will advance (see _end).
        In Cold or Sleep a coarse stretch takes the whole coarse steps
        before the earliest of the window end, the wake-up (inf while the
        monitor is unpowered) and t_end, at most one wake period of them (a
        Cold -> Sleep flip inside the stretch schedules no check before
        that): one division counts them, and _steps_before recounts when
        the clock leaves the last of them short of a whole step (a count
        one short only costs a call).  In a check or a cycle phase a fine
        stretch takes the phase's steps but its last, the one that changes
        the state (a check's compares v2 with the go threshold), that are
        whole before t_end and start before the window end (a fine step is
        never cut short there), counted by _steps_before.  With
        stop_stored_j set, either kind also ends at the last step before
        which the stored energy provably stays below it.
        The offer, (dt, steps, the sub-step), stands until step() takes it,
        and step() takes no other dt: _pick_dt is the one owner of step
        sizes."""
        if self.t >= self._window_until:
            self._refresh_window()
        until = self._window_until
        sm = self.sm
        n = 0
        if not sm.state.fine:
            dt = self._dtc
            bound = sm.next_wake
            if until < bound:
                bound = until
            cut = bound - self.t  # the single step's cut (t_end caps it after)
            if self._t_end < bound:
                bound = self._t_end
            span = bound - self.t
            if self._wake < span:
                span = self._wake
            n = math.floor(span / dt)
            if n > 1:
                t_a, j = (self._t_a, self._j) if dt == self._dt_a else (self.t, 0)
                if bound - (t_a + (j + n - 1) * dt) < dt:
                    n = self._steps_before(bound, dt, dt)
        elif sm.phase_steps_left > 2:
            dt = self._dtf
            n = min(self._steps_before(self._t_end, dt, dt), sm.phase_steps_left - 1)
            if until < self._t_end:
                n = min(n, self._steps_before(until, dt, _ANY_TIME))
        if n > 1 and self._stop is not None:
            n = min(n, self._stored_steps(dt))
        if n > 1:
            self._offer = (dt * n, n, dt)
            return dt * n
        dt = self._dtf
        if not sm.state.fine:
            dt = self._dtc if cut >= self._dtc else max(dt, cut)
        dt = min(dt, self._t_end - self.t)
        self._offer = (dt, 1, dt)
        return dt

    def _steps_before(self, bound: float, dt: float, left: float) -> int:
        """How many steps of dt from t start with at least left before
        bound on the clock they advance (see _end): the count of
        i >= 0 for which bound - (t_a + (j + i) dt) >= left.  That
        difference falls with i, so one floor division places the count
        and the clock itself settles it.  left = _ANY_TIME counts the
        steps that start before bound."""
        if dt == self._dt_a:
            t_a, j = self._t_a, self._j
        else:  # the first step re-anchors at t
            t_a, j = self.t, 0
        m = math.floor((bound - left - t_a) / dt) + 1  # j + the count, up to rounding
        if m < j:
            m = j
        while m > j and bound - (t_a + (m - 1) * dt) < left:
            m -= 1
        while bound - (t_a + m * dt) >= left:
            m += 1
        return m - j

    def _stored_steps(self, dt: float) -> int:
        """The steps of dt before which the stored energy provably stays
        below stop_stored_j."""
        # Per-step bound on harvested energy: ideal coupling deposits
        # exactly p_ideal * dt; the thevenin charge current is at most
        # v_oc / r_out at a midpoint voltage below v_oc plus half its rise.
        if self._chain is not None:
            i_max = self._v_oc / self._r_out
            gain = i_max * (self._v_oc + 0.5 * i_max * dt / self.c1) * dt
        else:
            gain = self._p_ideal * dt
        stop = self._stop
        noise = 1e-12 * (stop + self.ledger.e_initial)  # stored-energy rounding a step
        room = stop - self.ledger.e_stored_delta - noise
        return math.floor(room / (gain + noise))

    def step(self, dt: float) -> None:
        """Advance the pipeline by dt, the stretch or the single step
        _pick_dt offered at this t; any other dt, or an offer already
        taken, raises before anything moves.  A stretch's steps are the
        offer's sub-step: whole steps of dt_coarse, or of dt_fine in a check
        or a cycle phase.  Runs of quiet ones are closed-form
        macro-steps (_quiet); a pump episode's steps, a cycle phase's and
        the rest go to _step_one.  Every step moves the one clock
        (_end), so a stretch ends on the t its steps taken one per call
        reach.  A coarse stretch crosses no window end and reaches no
        check, so it advances dt (up to the clock's one rounding) at one
        source level; a fine one starts no step at or past the window end
        and ends early only on the step that changes the state: a brown-out
        in a check, an abort in a cycle.
        """
        dt_offer, n, sub = self._offer
        if not (dt > 0 and dt == dt_offer):
            raise QuantityError(
                f"dt {dt!r} is not the step _pick_dt offered at t = {self.t!r} "
                f"(offered: {dt_offer!r})"
            )
        self._offer = _NO_OFFER
        if n == 1:
            self._step_one(dt)
            return
        state = self.sm.state
        fine = state.fine
        while True:
            pumping = self.conv1.running and self._pump
            k = 0 if state.cycle or pumping else self._quiet(n, sub)
            if k:
                n -= k
            else:
                self._step_one(sub)
                n -= 1
                if fine and self.sm.state is not state:
                    return
            if n <= 0:
                return

    def _quiet(self, n: int, dt: float) -> int:
        """Take up to n quiet steps of dt as one closed-form macro-step;
        return how many were taken (0: the next step goes to _step_one).

        The caller guarantees Cold, Sleep or a check, and that the n steps
        are whole steps of the single-step rule inside one window (see
        _pick_dt), in a check leaving its last step, which compares v2 with
        the go threshold.  A step is quiet when the monitor keeps its state,
        the pump cannot act and neither cap clamps at 0 V.  Within one
        window each cap then follows v <- a v + b, the Euler step of
        _step_one: cap1 charges through the Thevenin pair while v1 < v_oc
        and only leaks at or above it (under ideal coupling v1**2 follows
        the law), cap2 leaks and feeds the monitor, asleep or checking.
        What the span fixes comes from its plan (_plan); per call only
        cap1's laws, which take the window's level, cap2's step, the clock
        and the booking are worked out.  _affine gives the state after k
        steps and the sums the ledger books.
        _first_hit ends the macro-step where cap2 would brown the monitor
        out or cap1 reach the pump's start_v; it also finds the step that
        takes cap1 below v_oc, where its law switches.  The steps taken
        end in one _end call.  A law with a <= 0 could ring through 0 V,
        so its steps go to _step_one.  A run with a trace file gets a row
        per step, read from the same laws; the state never depends on it.
        """
        plan = self._span
        if plan is None or plan[0] != dt:
            plan = self._span = self._plan(dt)
        _, quiet, x1, xc, bmul, x2, two_x2, b2, c_mon, kind, c_leak1, c_leak2, watch, lo = plan
        if not quiet:
            return 0
        v1, v2 = self.v1, self.v2
        k = n
        cap2 = _affine(x2, b2, v2, k)
        if kind and cap2[0] <= lo:  # stop before the brown-out, drawing or not
            k = _first_hit(x2, b2, v2, k, lo, lo.__ge__) - 1
            if not k:
                return 0
        # cap1's laws with their level terms: the charging law's b and,
        # under ideal coupling, the deposit's v1**2 rise and the front-end
        # loss per step.
        thevenin = self._chain is not None
        if thevenin:
            grow = e_front = 0.0
            v_oc = self._v_oc
            # At or above v_oc cap1 only leaks, down to the step that takes
            # it below v_oc; from there (below v_oc: from the start) it
            # charges.  Neither law crosses v_oc from below.
            kd, leaks = 0, None
            if v1 >= v_oc:
                kd, leaks = k, _affine(x1, 0.0, v1, k)
                if leaks[0] < v_oc:
                    kd, leaks = _first_hit(x1, 0.0, v1, k, v_oc, v_oc.__gt__), None
            laws = ((x1, 0.0, kd, leaks), (xc, v_oc * bmul, k - kd, None))
            top, y = watch, v1
        else:
            e_in = self._p_ideal * dt
            grow = 2.0 * e_in / self.c1
            b1 = bmul * grow
            e_front = self._p_del * dt - e_in
            laws = ((xc, b1, k, None),)  # v1**2
            top, y = watch * watch, v1 * v1
        # Take the laws' segments in turn, stopping before the first step
        # that reaches the pump's start voltage.
        k = 0
        q1 = 0.0  # sum of v1_j (v1_j + v1_j+1), or under ideal coupling of v1_j**2 + grow
        for x, b, steps, out in laws:
            if not steps:
                continue
            ok = steps
            out = out or _affine(x, b, y, steps)
            if b - x * y > 0.0:  # rising: the last step tells
                if out[0] >= top:
                    ok = _first_hit(x, b, y, steps, top, top.__le__) - 1
                    out = _affine(x, b, y, ok)
            elif y >= top and _affine(x, b, y, 1)[0] >= top:  # falling from above
                ok = 0
            if ok:
                y, s, ss = out
                q1 += (2.0 - x) * ss + b * s if thevenin else s + ok * grow
                k += ok
            if ok < steps:
                break
        if not k:
            return 0
        v1k = y if thevenin else math.sqrt(y)
        v2k, s2, ss2 = cap2 if k == n else _affine(x2, b2, v2, k)
        led = self.ledger
        rows = None
        if self._trace is not None:  # _trace_rows' arguments, the totals before this booking
            rows = (laws, k, thevenin, v1, v2, 1.0 - x2, b2, grow,
                    (c_leak1, c_leak2, c_mon, e_front),
                    led.e_harvested, led.e_converter_loss + led.e_load_total, led.e_leaked)
        hc1 = 0.5 * self.c1
        harvested, front, leaked, mon = _quiet_book(
            c_leak1, c_leak2, c_mon, e_front, hc1 * v1k * v1k - hc1 * v1 * v1, q1,
            two_x2 * ss2 + b2 * s2, two_x2 * s2 + k * b2, k,
        )
        led.e_harvested += harvested
        led.e_converter_loss += front
        led.e_leaked += leaked
        if mon > 0.0:
            by = led.e_load_by_component
            by[kind] = by.get(kind, 0.0) + mon
            led.e_load_total += mon
        led.unbooked += 1  # v2k's rounding
        if kind == "monitor_check":
            self.sm.phase_steps_left -= k
        self.counters.quiet_calls += 1
        self._end(dt, k, v1k, v2k, self.sm.state, False, rows)
        return k

    def _end(self, dt: float, k: int, v1: float, v2: float, state: NodeState, pumped: bool,
             rows: tuple | None = None) -> None:
        """End k steps of dt taken from state, their storage-side energy
        booked, with the caps now at v1 and v2: move the clock
        (t = t_a + j dt, one rounding from the anchor t_a, re-anchored at
        t whenever dt changes), book the RF and the stored energy, count
        the steps by regime (a check or a cycle state's are fine; Cold or
        Sleep ones pump if pumped, else are quiet), write a traced run's
        rows (rows: _trace_rows' arguments for a macro-step's steps but
        its last) and the row of the state reached, then run the guard."""
        if dt != self._dt_a:
            self._t_a, self._j, self._dt_a = self.t, 0, dt
        j = self._j = self._j + k
        self.t = self._t_a + j * dt
        led = self.ledger
        led.e_reflected += k * ((self._p_avail - self._p_del) * dt)
        led.e_delivered += k * (self._p_del * dt)
        self.v1, self.v2 = v1, v2
        led.e_stored_delta = 0.5 * (self.c1 * v1 * v1 + self.c2 * v2 * v2) - led.e_initial
        led.steps += k
        counts = self.counters
        if not state.fine:
            if pumped:
                counts.coarse_pump += k
            else:
                counts.coarse_quiet += k
        elif state.cycle:
            counts.fine_cycle += k
        else:
            counts.fine_check += k
        if self._trace is not None:
            if rows is not None:
                self._trace_rows(*rows)
            self._trace.write(_TRACE_ROW % (
                self.t, self._window_dbm, v1, v2, self.sm.state.value,
                led.e_harvested, led.e_converter_loss + led.e_load_total, led.e_leaked,
            ))
        led.check()

    def _trace_rows(self, laws, k, thevenin, v1, v2, a2, b2, grow, coefs, h0, used0, leaked0):
        """Write the rows of a macro-step's k steps but its last, once the
        clock has moved over them, in one pass and at most _TRACE_CHUNK
        rows per write: each row's t is read from the anchor, cap1 steps
        through the laws' segments up to k steps (under ideal coupling as
        v1**2), cap2 through (a2, b2), and the running sums are booked with
        _quiet_book's expressions in its order, coefs its coefficients, on
        the totals before the macro-step's booking (h0, used0, leaked0), so
        the bytes are those of _TRACE_ROW.  What holds over the macro-step
        is decided once: the level and the state, the consumed energy when
        nothing draws or loses (every Cold row under thevenin coupling), and
        the clock's format, from integers when the anchor and dt are whole."""
        c_leak1, c_leak2, c_mon, e_front = coefs
        hc1 = 0.5 * self.c1
        e10 = hc1 * v1 * v1
        y = v1 if thevenin else v1 * v1
        q1 = q2 = p2 = 0.0
        j = 0
        left = k - 1
        t_a, dt, k = self._t_a, self._dt_a, self._j  # the rows are steps k - left .. k - 1
        # A whole t below 2**53 is exact, and "%.6f" prints it as "%d.000000".
        if t_a.is_integer() and float(dt).is_integer() and self.t < 2.0 ** 53:
            t_a, dt = int(t_a), int(dt)
            stamps = map("%d.000000".__mod__, range(t_a + (k - left) * dt, t_a + k * dt, dt))
        else:
            stamps = map("%.6f".__mod__, map(t_a.__add__, map(dt.__mul__, range(k - left, k))))
        # With nothing drawn or lost the front-end and monitor terms are
        # zeros in every row: the consumed column prints used0, and
        # harvested skips adding a zero (h0 + x prints the same).
        still = c_mon == 0.0 and e_front == 0.0
        row = "%%s,%.6g,%%.10g,%%.10g,%s,%%.10g,%s,%%.10g\n" % (
            self._window_dbm, self.sm.state.value, "%.10g" % used0 if still else "%.10g")
        sqrt = math.sqrt
        write = self._trace.write
        for x, b, steps, _ in laws:
            a = 1.0 - x
            steps = min(steps, left)
            left -= steps
            while steps > 0:
                n = min(steps, _TRACE_CHUNK)
                steps -= n
                cells = []
                add = cells.extend
                for stamp in islice(stamps, n):
                    yn = a * y + b
                    q1 += y * (y + yn) if thevenin else y + grow
                    y = yn
                    v1j = y if thevenin else sqrt(y)
                    v2n = a2 * v2 + b2
                    q2 += v2 * (v2 + v2n)
                    leak1 = c_leak1 * q1
                    leaked = leaked0 + (leak1 + c_leak2 * q2)
                    if still:
                        add((stamp, v1j, v2n, h0 + (hc1 * v1j * v1j - e10 + leak1), leaked))
                    else:
                        j += 1
                        front = j * e_front
                        p2 += v2 + v2n
                        add((stamp, v1j, v2n, h0 + (hc1 * v1j * v1j - e10 + leak1 + front),
                             used0 + front + c_mon * p2, leaked))
                    v2 = v2n
                write((row * n) % tuple(cells))

    def _step_one(self, dt: float) -> None:
        """Advance the whole pipeline exactly one step of size dt."""
        led = self.ledger
        sc = self.scenario
        thevenin = self._chain is not None
        state = self.sm.state

        # Harvest into cap1.  Attributions come from energy differences so
        # the ledger closes exactly.
        c1 = self.c1
        v1 = self.v1
        e1_before = 0.5 * c1 * v1 * v1
        i_chg = e_front_loss = 0.0
        if thevenin:
            head = self._v_oc - v1
            if head > 0.0:
                i_chg = head / self._r_out
        else:  # the deposit, then the leak
            e_in = self._p_ideal * dt
            if e_in > 0.0:
                v1 = math.sqrt(v1 * v1 + 2.0 * e_in / c1)
            e_front_loss = self._p_del * dt - e_in
        v1, leaked1 = cap_euler(v1, c1, self.r1, i_chg, dt)
        e1_after = 0.5 * c1 * v1 * v1
        led.e_harvested += (e1_after - e1_before) + leaked1 + e_front_loss
        led.e_converter_loss += e_front_loss
        led.e_leaked += leaked1

        # Charge pump cap1 -> cap2.
        st = sc.storage
        v2 = self.v2
        c2 = self.c2
        e2_pre = 0.5 * c2 * v2 * v2
        v1, v2, self.conv1, moved, _lost = transfer_step(
            v1, c1, v2, c2, self.conv1, st.transfer, dt, st.cap2_v_max
        )
        e_extracted = e1_after - 0.5 * c1 * v1 * v1
        e2_before = 0.5 * c2 * v2 * v2  # after the pump, before the management
        led.e_converter_loss += e_extracted - (e2_before - e2_pre)

        # Management: monitor draw and, during cycles, converter-2 loads.
        i_draw = 0.0
        draws: tuple[tuple[str, float], ...] = ()
        event = ""
        if self._loads:
            sm = self.sm
            mon = sc.management.monitor
            i_mon, mon_kind = monitor_step(
                mon, sm, v2, self.t, dt, self.go_threshold, self.check_steps
            )
            if sm.state.cycle:
                draws, self.conv2, _, _, event = cycle_substep(
                    sm, self.plan, self.conv2, v2, dt
                )
                if event == "done":
                    self.transmissions += 1
                elif event == "abort":
                    self.aborted_cycles += 1
            i_draw = i_mon
            if draws:
                i_draw += dcdc_supply_current(self.conv2, v2, sum(p for _, p in draws))
        v2n, leaked2 = cap_euler(v2, c2, self.r2, -i_draw, dt)
        led.e_leaked += leaked2
        if i_draw > 0.0:
            by = led.e_load_by_component
            mon_share = i_mon * 0.5 * (v2 + v2n) * dt
            if mon_share > 0.0:
                by[mon_kind] = by.get(mon_kind, 0.0) + mon_share
                led.e_load_total += mon_share
            if draws:
                # The converter's loss is what cap2 gave up beyond its leak,
                # the monitor and the loads: it books v2's rounding.
                e_drawn = e2_before - 0.5 * c2 * v2n * v2n - leaked2
                e_loads = 0.0
                for name, p in draws:
                    e = p * dt
                    by[name] = by.get(name, 0.0) + e
                    e_loads += e
                led.e_load_total += e_loads
                led.e_converter_loss += (e_drawn - mon_share) - e_loads
        if not draws:
            led.unbooked += 1  # only the monitor draws, if anything: nothing books v2's rounding
        self._span = None  # the state, the wake-up or the pump may have moved
        self._end(dt, 1, v1, v2n, state, self.conv1.running or moved > 0.0)
        if event == "done" and self.time_to_first_tx is None:
            self.time_to_first_tx = self.t

    def run(self, trace_path: str | None = None) -> SimResult:
        stop_reason = "t_end"
        try:
            if trace_path is not None:
                self._trace = open(trace_path, "w", encoding="utf-8")
                self._trace.write(TRACE_HEADER + "\n")
            max_tx, stop = self.scenario.engine.max_transmissions, self._stop
            t_last = self._t_end - 1e-12
            while self.t < t_last:
                self.step(self._pick_dt())
                if max_tx is not None and self.transmissions >= max_tx:
                    stop_reason = "transmissions"
                    break
                if stop is not None and self.ledger.e_stored_delta >= stop:
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
