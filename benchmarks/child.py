"""One benchmark measurement in a fresh interpreter; prints one JSON line.

  child.py setup WORKLOAD SEED [--traced]   time import + load + Engine()
  child.py run WORKLOAD SEED SECONDS TMPDIR  repeat untraced runs for SECONDS
  child.py trace WORKLOAD SEED TMPDIR        one untraced and one traced run

`run.py` starts these with the checkout's `src` on PYTHONPATH.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

from workloads import WORKLOADS, check, ledger_residual_rel, load_bundle


def _setup(workload, seed: int, traced: bool) -> dict:
    t0 = time.perf_counter()
    import rfharvest
    from rfharvest.engine import Engine

    tracer = None
    if traced:
        from layers import Tracer

        tracer = Tracer()
        tracer.install_calibration()
    t1 = time.perf_counter()
    bundle = load_bundle(workload, seed)
    t2 = time.perf_counter()
    Engine(bundle.scenario)
    t3 = time.perf_counter()
    out = {"setup_s": t3 - t0, "package": os.path.dirname(os.path.abspath(rfharvest.__file__))}
    if tracer is not None:
        calibrate_s = tracer.span("analog_frontend.calibrate").total
        out.update({
            "scenario.load_s": t2 - t1 - calibrate_s,
            "analog_frontend.calibrate_s": calibrate_s,
            "engine.init_s": t3 - t2,
        })
    return out


def _run_once(workload, seed: int, scenario, tmpdir: str) -> dict:
    """Run one fresh Engine and check its output; never raises."""
    from rfharvest.engine import Engine

    trace_path = os.path.join(tmpdir, "trace.csv") if workload.writes_trace else None
    eng = Engine(scenario)
    t0 = time.perf_counter()
    try:
        result = eng.run(trace_path)
    except Exception:  # a failed run is counted, not fatal
        run_s = time.perf_counter() - t0
        traceback.print_exc()
        return {"run_s": run_s, "sim_s": eng.t, "ok": False, "trace_bytes": 0, "result": None}
    run_s = time.perf_counter() - t0
    trace_bytes = 0
    if trace_path is not None:
        trace_bytes = os.path.getsize(trace_path)
        os.remove(trace_path)
    problems = check(workload, seed, result)
    for p in problems:
        print(f"{workload.name} seed {seed}: {p}", file=sys.stderr)
    return {"run_s": run_s, "sim_s": result.t_final, "ok": not problems,
            "trace_bytes": trace_bytes, "result": result}


def _run(workload, seed: int, seconds: float, tmpdir: str) -> dict:
    scenario = load_bundle(workload, seed).scenario
    start = time.perf_counter()
    runs = []
    while True:
        rec = _run_once(workload, seed, scenario, tmpdir)
        del rec["result"]
        runs.append(rec)
        # Start another run only if one more of the same length still fits.
        if time.perf_counter() - start + rec["run_s"] > seconds:
            break
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"runs": runs, "peak_rss_mib": rss_kib / 1024.0}


def _trace(workload, seed: int, tmpdir: str) -> dict:
    from layers import Tracer

    scenario = load_bundle(workload, seed).scenario
    plain = _run_once(workload, seed, scenario, tmpdir)
    tracer = Tracer()
    tracer.install_engine()
    try:
        traced = _run_once(workload, seed, scenario, tmpdir)
    finally:
        tracer.uninstall()
    sp = tracer.span
    reg = tracer.regimes
    steps = sp("engine.step").calls
    transfer = sp("storage.transfer_step")
    led = traced["result"].ledger if traced["result"] is not None else None
    metrics = {
        "engine.step.calls": steps,
        "engine.step.self_s": sp("engine.step").self_s,
        "engine.host_us_per_step": plain["run_s"] / steps * 1e6 if steps else 0.0,
        "engine.steps.coarse_quiet": reg.coarse_quiet,
        "engine.steps.coarse_pump": reg.coarse_pump,
        "engine.steps.fine_check": reg.fine_check,
        "engine.steps.fine_cycle": reg.fine_cycle,
        "engine.windows": reg.windows,
        "engine.run.self_s": sp("engine.run").self_s,
        "engine.ledger_guard.s": sp("engine.ledger_guard").self_s,  # check() nests tolerance()
        "engine.ledger_residual_rel": ledger_residual_rel(led) if led else 0.0,
        "storage.cap_euler.calls": sp("storage.cap_euler").calls,
        "storage.cap_euler.s": sp("storage.cap_euler").total,
        "storage.transfer_step.calls": transfer.calls,
        "storage.transfer_step.s": transfer.total,
        "storage.transfer_step.useful_ratio":
            tracer.transfer_useful / transfer.calls if transfer.calls else 0.0,
        "power_mgmt.monitor_step.calls": sp("power_mgmt.monitor_step").calls,
        "power_mgmt.monitor_step.s": sp("power_mgmt.monitor_step").total,
        "power_mgmt.cycle_substep.calls": sp("power_mgmt.cycle_substep").calls,
        "power_mgmt.cycle_substep.s": sp("power_mgmt.cycle_substep").total,
        "power_mgmt.cycles_done": tracer.cycles_done,
        "power_mgmt.cycles_aborted": tracer.cycles_aborted,
        "rf_environment.sample_window.calls": sp("rf_environment.sample_window").calls,
        "rf_environment.sample_window.s": sp("rf_environment.sample_window").total,
        "analog_frontend.chain_open_circuit.calls": sp("analog_frontend.chain_open_circuit").calls,
        "analog_frontend.chain_open_circuit.s": sp("analog_frontend.chain_open_circuit").total,
        "analog_frontend.harvest_over_delivered":
            led.e_harvested / reg.delivered_j if led and reg.delivered_j > 0.0 else 0.0,
        "trace.rows": max(0, tracer.trace_rows - 1),  # less the header line
        "trace.bytes": traced["trace_bytes"],
        "trace.write_s": sp("trace.write").total,
        "tracing_overhead_s": traced["run_s"] - plain["run_s"],
    }
    problems = []
    if led is not None:
        gamma_sq = scenario.frontend.reflection.gamma_sq
        if 0.0 < gamma_sq < 1.0:
            # The step-wrapper integral must match what the ledger implies.
            from_ledger = led.e_reflected * (1.0 - gamma_sq) / gamma_sq
            if abs(from_ledger - reg.delivered_j) > 1e-6 * reg.delivered_j:
                problems.append(
                    f"delivered RF {reg.delivered_j!r} J disagrees with the ledger's {from_ledger!r} J"
                )
    for p in problems:
        print(f"{workload.name} seed {seed}: {p}", file=sys.stderr)
    runs = [{"ok": plain["ok"]}, {"ok": traced["ok"] and not problems}]
    return {"runs": runs, "metrics": metrics}


def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    workload = WORKLOADS[name]
    if mode == "setup":
        out = _setup(workload, seed, traced="--traced" in argv[3:])
    elif mode == "run":
        out = _run(workload, seed, float(argv[3]), argv[4])
    elif mode == "trace":
        out = _trace(workload, seed, argv[3])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
