"""Per-layer tracing from outside the package.

`Tracer.install` replaces the names that `rfharvest.engine` looks up at
call time (module functions, `Engine.step`/`run`, the ledger guard methods
and the builtin `open` used for the trace CSV) with wrappers that count
calls and time them.  Each layer keeps one aggregate (calls, total time,
time spent in wrapped callees), never one span per call: the realistic run
makes about 15 M calls.  Self time is total minus callee time; the
wrappers' own cost lands in their caller's self time.
"""

from __future__ import annotations

import time

from rfharvest import analog_frontend, engine
from rfharvest.power_mgmt import CYCLE_STATES


class Span:
    __slots__ = ("calls", "total", "child")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0

    @property
    def self_s(self) -> float:
        return self.total - self.child


class StepRegimes:
    """Engine steps by regime, classified from the state before each call.

    A step is coarse when dt exceeds dt_fine.  A coarse step is "pump"
    when the pump could act (converter 1 enabled, and running or cap1 at
    its start voltage) and "quiet" otherwise.  A fine step is "cycle"
    inside a controller cycle and "check" otherwise (voltage checks, plus
    the rare sleep step cut short by a wake instant).
    """

    def __init__(self):
        self.coarse_quiet = 0
        self.coarse_pump = 0
        self.fine_check = 0
        self.fine_cycle = 0
        self.windows = 0
        self.delivered_j = 0.0  # RF energy crossing the antenna, sum of p_del * dt


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.regimes = StepRegimes()
        self.transfer_useful = 0
        self.cycles_done = 0
        self.cycles_aborted = 0
        self.trace_rows = 0
        self._stack = [0.0]  # callee time accumulated per open frame
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str) -> Span:
        return self.spans.setdefault(name, Span())

    def timed(self, name: str, fn, after=None):
        """Wrap fn so every call is counted and timed under span `name`."""
        span = self.span(name)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                span.child += stack.pop()
                stack[-1] += elapsed
                span.calls += 1
                span.total += elapsed
            if after is not None:
                after(out)
            return out

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, replacement)

    def install_calibration(self) -> None:
        """Time the preset calibration paid while a scenario is loaded."""
        self._patch(
            analog_frontend, "calibrate_sensitivity",
            self.timed("analog_frontend.calibrate", analog_frontend.calibrate_sensitivity),
        )

    def install_engine(self) -> None:
        """Wrap every layer the engine calls during a run."""
        for attr, name, after in (
            ("cap_euler", "storage.cap_euler", None),
            ("transfer_step", "storage.transfer_step", self._after_transfer),
            ("monitor_step", "power_mgmt.monitor_step", None),
            ("cycle_substep", "power_mgmt.cycle_substep", self._after_cycle),
            ("sample_window", "rf_environment.sample_window", None),
            ("chain_open_circuit", "analog_frontend.chain_open_circuit", None),
        ):
            self._patch(engine, attr, self.timed(name, getattr(engine, attr), after))
        led = engine.EnergyLedger
        self._patch(led, "tolerance", self.timed("engine.ledger_guard", led.tolerance))
        self._patch(led, "check", self.timed("engine.ledger_guard", led.check))
        self._patch(engine.Engine, "run", self.timed("engine.run", engine.Engine.run))
        self._patch(engine.Engine, "step", self._step_wrapper(engine.Engine.step))
        self._patch(engine, "open", self._open)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _after_transfer(self, out) -> None:
        if out[3] > 0.0:  # energy moved into cap2
            self.transfer_useful += 1

    def _after_cycle(self, out) -> None:
        if out[4] == "done":
            self.cycles_done += 1
        elif out[4] == "abort":
            self.cycles_aborted += 1

    def _step_wrapper(self, step):
        timed_step = self.timed("engine.step", step)
        reg = self.regimes
        last_window = [None]

        def wrapper(eng, dt):
            sc = eng.scenario
            if dt > sc.engine.dt_fine:
                st = sc.storage
                if st.conv1.enabled and (eng.conv1.running or eng.v1 >= st.transfer.start_v):
                    reg.coarse_pump += 1
                else:
                    reg.coarse_quiet += 1
            elif eng.sm.state in CYCLE_STATES:
                reg.fine_cycle += 1
            else:
                reg.fine_check += 1
            if eng._window_until != last_window[0]:
                last_window[0] = eng._window_until
                reg.windows += 1
            reg.delivered_j += eng._p_del * dt
            return timed_step(eng, dt)

        return wrapper

    def _open(self, *args, **kwargs):
        return _TimedFile(open(*args, **kwargs), self)


class _TimedFile:
    """File proxy that times each write of the engine's trace CSV."""

    def __init__(self, fh, tracer: Tracer):
        self._fh = fh
        self._write = tracer.timed("trace.write", fh.write)
        self._tracer = tracer

    def write(self, text: str) -> int:
        self._tracer.trace_rows += 1
        return self._write(text)

    def close(self) -> None:
        self._fh.close()
