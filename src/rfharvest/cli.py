"""Command-line front end: runs, budgets, calibration, and sweeps.

Four subcommands, each mapping to one activity:

  run        execute a scenario, print the report, optionally write a trace
  budget     print the power-budget table for a scenario's load profiles
  calibrate  fit rectifier parameters to sensitivity targets
  sweep      rerun a scenario across values of one key, emit summary CSV

Reports print times in both seconds and days, energies to five
significant digits (budget rows keep their five-decimal table format),
and always echo every defaulted assumption so no hidden constant shapes
a printed number silently.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from decimal import ROUND_HALF_UP, Decimal
from typing import TextIO

from .analog_frontend import (
    CALIBRATION_TOL_DB,
    CalibrationTarget,
    Device,
    RectifierParams,
    ResonantTank,
    calibrate_sensitivity,
    chain_open_circuit,
    delivered_power,
    preset_targets,
    sensitivity_threshold_dbm,
)
from .engine import Engine, Scenario, SimResult, run_scenario
from .errors import LedgerError, RfHarvestError, ScenarioError
from .power_mgmt import LoadProfile, cycle_energy
from .rf_environment import mean_power_watts
from .scenario import (
    ScenarioBundle,
    apply_override,
    frontend_values,
    load_scenario,
    parse_scenario,
    read_builtin_scenario,
)

__all__ = ["main", "cmd_run", "cmd_budget", "cmd_calibrate", "cmd_sweep"]

SWEEP_CSV_HEADER = "value,time_to_first_tx_s,transmissions,final_v2,e_harvested_j,v_oc_v"

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_CONSISTENCY = 3


def _dec(x: float, places: str) -> str:
    """Decimal half-up formatting; '%.5f'-style rounding is banker-biased."""
    return str(Decimal(str(x)).quantize(Decimal(places), rounding=ROUND_HALF_UP))


def _sig(x: float) -> str:
    """Five significant digits, the CSV/energy precision."""
    return f"{x:.5g}"


def _load_bundle(path: str | None) -> ScenarioBundle:
    """Scenario from a filesystem path, a shipped name, or all defaults."""
    if path is None:
        return parse_scenario("", path=None)
    if os.path.exists(path):
        return load_scenario(path)
    missing = f"scenario file not found: {path!r}"
    if os.path.basename(path) != path:
        raise ScenarioError(missing)
    try:
        text = read_builtin_scenario(path.removesuffix(".scenario"))
    except ScenarioError as exc:
        raise ScenarioError(f"{missing}, and {exc}") from None
    return parse_scenario(text, path=f"builtin:{path}")


def format_budget(profiles: tuple[LoadProfile, ...]) -> str:
    """Power-budget table: per-profile V, I, T, E rows plus the total.

    Row energies print at five decimals and the total at two, the same
    precision the reference budget uses.
    """
    header = ("component", "V_v", "I_a", "T_s", "E_j")
    rows = [header]
    for p in profiles:
        rows.append(
            (p.name, _dec(p.v, "0.01"), _dec(p.i, "0.00001"), _dec(p.t, "0.1"),
             _dec(p.energy, "0.00001"))
        )
    total = cycle_energy(profiles)
    rows.append(("total", "", "", "", _dec(total, "0.01")))
    widths = [max(len(r[c]) for r in rows) for c in range(5)]
    out = ["== Power budget =="]
    for r in rows:
        cells = [r[0].ljust(widths[0])]
        cells += [r[c].rjust(widths[c]) for c in range(1, 5)]
        out.append("  ".join(cells).rstrip())
    return "\n".join(out)


def _format_assumptions(bundle: ScenarioBundle) -> list[str]:
    """Report lines echoing every defaulted value; empty when all are set."""
    assumptions = bundle.assumptions()
    if not assumptions:
        return []
    out = ["", "== Assumptions (values not set explicitly) =="]
    for key, value, origin in assumptions:
        tag = " (from preset)" if origin == "preset" else ""
        out.append(f"{key} = {value}{tag}")
    return out


def _days(seconds: float) -> str:
    return _dec(seconds / 86400.0, "0.01")


def _mean_open_circuit_v(scenario: Scenario) -> float:
    """Rectifier open-circuit voltage at the source's mean power."""
    fe = scenario.frontend
    p_del = delivered_power(mean_power_watts(scenario.source), fe.reflection)
    return chain_open_circuit(fe.rectifier, fe.tank, fe.carrier_hz, p_del).v_oc


def format_run_report(bundle: ScenarioBundle, result: SimResult) -> str:
    """Full report: budget table, run summary, ledger, assumptions, notes."""
    sc = bundle.scenario
    led = result.ledger
    out = [format_budget(sc.management.profiles), "", "== Run summary =="]
    out.append(f"scenario: {bundle.path or 'built-in defaults'}")
    out.append(f"stop reason: {result.stop_reason}")
    out.append(
        f"simulated time: {result.t_final:.1f} s ({_days(result.t_final)} days)"
    )
    ttft = result.time_to_first_transmission
    if ttft is None:
        out.append("time to first transmission: none")
    else:
        out.append(
            f"time to first transmission: {ttft:.1f} s ({_days(ttft)} days)"
        )
    out.append(
        f"transmissions: {result.transmissions}"
        f"    aborted cycles: {result.aborted_cycles}"
    )
    out.append(f"final state: {result.state_final}")
    out.append(
        f"final voltages: cap1 {result.v_cap1:.4f} V, cap2 {result.v_cap2:.4f} V"
    )
    if result.go_threshold is not None:
        out.append(f"go threshold: {result.go_threshold:.4f} V")
    else:
        out.append("go threshold: n/a (loads disabled)")

    out += ["", "== Energy ledger =="]
    out.append(f"harvested:        {_sig(led.e_harvested)} J")
    out.append(f"reflected (lost upstream, not in balance): {_sig(led.e_reflected)} J")
    out.append(f"leaked:           {_sig(led.e_leaked)} J")
    out.append(f"converter loss:   {_sig(led.e_converter_loss)} J")
    out.append(f"loads total:      {_sig(led.e_load_total)} J")
    for name in sorted(led.e_load_by_component):
        out.append(f"  {name.ljust(16)} {_sig(led.e_load_by_component[name])} J")
    out.append(f"stored delta:     {_sig(led.e_stored_delta)} J")
    out.append(
        f"residual:         {led.residual():.3g} J (tolerance {led.tolerance():.3g} J)"
    )
    ratio = f"{led.e_harvested / led.e_delivered:.2f}" if led.e_delivered > 0.0 else "n/a"
    out.append(f"harvested / delivered: {ratio}")

    if result.t_final > 0.0:
        harv_p = led.e_harvested / result.t_final
        out.append(f"mean harvested power: {_sig(harv_p)} W")
        mon_e = led.e_load_by_component.get("monitor_sleep", 0.0) + \
            led.e_load_by_component.get("monitor_check", 0.0)
        if sc.management.loads_enabled:
            mon_p = mon_e / result.t_final
            out.append(f"monitor mean power:   {_sig(mon_p)} W")
            if mon_p >= harv_p:
                out.append(
                    "WARNING: monitor quiescent draw meets or exceeds mean "
                    "harvested power; stored energy cannot grow at this "
                    "operating point."
                )

    out += _format_assumptions(bundle)

    if bundle.notes:
        out += ["", "== Notes =="]
        out.append(bundle.notes)
    return "\n".join(out) + "\n"


def _open_out(path: str | None):
    """The --out file, opened before any work so that an unwritable path
    fails at once; a null context when there is none."""
    return open(path, "w", encoding="utf-8") if path else contextlib.nullcontext()


def _emit(text: str, out: TextIO | None) -> None:
    sys.stdout.write(text)
    if out is not None:
        out.write(text)


def cmd_run(args: argparse.Namespace) -> int:
    with _open_out(args.out) as out:
        bundle = _load_bundle(args.scenario)
        if args.seed is not None:
            bundle = apply_override(bundle, "engine.seed", str(args.seed))
        if args.until is not None:
            bundle = apply_override(bundle, "engine.t_end_s", repr(args.until))
        if args.until_joules is not None:
            bundle = apply_override(bundle, "engine.stop_stored_j", repr(args.until_joules))
        if args.until_tx is not None:
            bundle = apply_override(bundle, "engine.max_transmissions", str(args.until_tx))
        result = run_scenario(bundle.scenario, trace_path=args.trace)
        _emit(format_run_report(bundle, result), out)
    return _EXIT_OK


def cmd_budget(args: argparse.Namespace) -> int:
    with _open_out(args.out) as out:
        bundle = _load_bundle(args.scenario)
        lines = [format_budget(bundle.scenario.management.profiles)]
        _emit("\n".join(lines + _format_assumptions(bundle)) + "\n", out)
    return _EXIT_OK


def _parse_target(spec: str) -> CalibrationTarget:
    """DEVICE:STAGES:CARRIER_HZ:DBM[:TANK_Q] -> a calibration target."""
    parts = spec.split(":")
    if len(parts) not in (4, 5):
        raise ScenarioError(
            f"target {spec!r} must be DEVICE:STAGES:CARRIER_HZ:DBM[:TANK_Q]"
        )
    try:
        device = Device(parts[0])
        stages = int(parts[1])
        carrier = float(parts[2])
        dbm = float(parts[3])
        q = float(parts[4]) if len(parts) == 5 else 1.0
    except ValueError as exc:
        raise ScenarioError(f"target {spec!r}: {exc}") from None
    name = f"{device.value}_{stages}st_{carrier / 1e6:g}MHz"
    return CalibrationTarget(
        name, device, stages, carrier, ResonantTank(carrier, q), dbm
    )


def _serialize_param_set(
    name: str, params: RectifierParams, target: CalibrationTarget, achieved: float
) -> str:
    """One INI section whose keys paste directly into [frontend]."""
    head = (f"[{name}]\n# target {target.threshold_dbm:+.2f} dBm, achieved {achieved:+.4f} dBm, "
            f"residual {achieved - target.threshold_dbm:+.4f} dB\n")
    values = frontend_values(params, target.tank, target.carrier_hz)
    return head + "".join(f"{k.removeprefix('frontend.')} = {v}\n" for k, v in values.items())


def cmd_calibrate(args: argparse.Namespace) -> int:
    targets: list[CalibrationTarget] = []
    if args.preset is not None:
        if args.preset != "paper":
            raise ScenarioError(
                f"unknown calibration preset {args.preset!r}; only 'paper' "
                "(the three shipped sensitivity points) is defined"
            )
        targets.extend(preset_targets().values())
    for spec in args.target or ():
        targets.append(_parse_target(spec))
    if not targets:
        raise ScenarioError("nothing to calibrate: give --preset paper or --target")

    # One parameter set per distinct hardware operating point; duplicate
    # points with different thresholds land in one group and fail there.
    groups: dict[tuple, list[CalibrationTarget]] = {}
    for t in targets:
        groups.setdefault((t.device, t.stages, t.carrier_hz), []).append(t)

    sections: list[str] = []
    lines: list[str] = []
    for group in groups.values():
        params = calibrate_sensitivity(group)
        for t in group:
            achieved = sensitivity_threshold_dbm(params, t.tank, t.carrier_hz)
            if t is group[0]:  # the section's header reports the head target
                sections.append(_serialize_param_set(t.name, params, t, achieved))
            residual = achieved - t.threshold_dbm
            lines.append(
                f"{t.name}: target {t.threshold_dbm:+.2f} dBm, achieved "
                f"{achieved:+.4f} dBm, residual {residual:+.4f} dB "
                f"(|residual| <= {CALIBRATION_TOL_DB} dB)"
            )

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(sections))
    lines.append(f"wrote {len(sections)} parameter set(s) to {args.out}")
    sys.stdout.write("\n".join(lines) + "\n")
    return _EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    key, sep, raw_values = args.sweep.partition("=")
    if not sep:
        raise ScenarioError(
            f"--sweep wants KEY=V1,V2,..., got {args.sweep!r}"
        )
    values = [v for v in map(str.strip, raw_values.split(",")) if v]
    if not values:
        raise ScenarioError(f"--sweep {args.sweep!r} names no values")
    with _open_out(args.out) as out:
        base = _load_bundle(args.scenario)
        if args.seed is not None:
            base = apply_override(base, "engine.seed", str(args.seed))

        # Build every run before the first one starts, so that a bad value
        # fails at once instead of after the runs before it.
        runs = []
        for value in values:
            scenario = apply_override(base, key, value).scenario
            runs.append((value, Engine(scenario), _mean_open_circuit_v(scenario)))
        rows = [SWEEP_CSV_HEADER]
        for value, engine, v_oc in runs:
            result = engine.run()
            ttft = result.time_to_first_transmission
            rows.append(",".join([
                value,
                "" if ttft is None else f"{ttft:.10g}",
                str(result.transmissions),
                f"{result.v_cap2:.6g}",
                _sig(result.ledger.e_harvested),
                f"{v_oc:.6g}",
            ]))
        _emit("\n".join(rows) + "\n", out)
    return _EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfharvest",
        description=(
            "Deterministic behavioral simulator of an ambient-RF "
            "energy-harvesting wireless sensor node."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "scenario", nargs="?", metavar="SCENARIO", default=None,
            help="scenario file path or shipped scenario name",
        )
        p.add_argument("--out", metavar="PATH", help="also write output here")

    p_run = sub.add_parser("run", help="run one scenario and print the report")
    add_scenario_args(p_run)
    p_run.add_argument("--trace", metavar="PATH", help="write per-step trace CSV")
    p_run.add_argument("--seed", type=int, metavar="N", help="fluctuation seed")
    p_run.add_argument("--until", type=float, metavar="SECONDS", help="horizon")
    p_run.add_argument(
        "--until-joules", type=float, metavar="J",
        help="stop when stored energy has grown by J",
    )
    p_run.add_argument(
        "--until-tx", type=int, metavar="N", help="stop after N transmissions"
    )
    p_run.set_defaults(func=cmd_run)

    p_budget = sub.add_parser("budget", help="print the power-budget table")
    add_scenario_args(p_budget)
    p_budget.set_defaults(func=cmd_budget)

    p_cal = sub.add_parser(
        "calibrate", help="fit rectifier parameters to sensitivity targets"
    )
    p_cal.add_argument(
        "--preset", metavar="NAME", help="named target set ('paper')"
    )
    p_cal.add_argument(
        "--target", action="append", metavar="DEVICE:STAGES:CARRIER_HZ:DBM[:Q]",
        help="extra sensitivity target; repeatable",
    )
    p_cal.add_argument(
        "--out", metavar="PATH", default="frontend_params.ini",
        help="parameter set file to write",
    )
    p_cal.set_defaults(func=cmd_calibrate)

    p_sweep = sub.add_parser(
        "sweep", help="rerun a scenario across values of one key"
    )
    add_scenario_args(p_sweep)
    p_sweep.add_argument(
        "--sweep", required=True, metavar="KEY=V1,V2,...",
        help="scenario key and comma-separated values",
    )
    p_sweep.add_argument("--seed", type=int, metavar="N", help="fluctuation seed")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LedgerError as exc:
        print(f"consistency error: {exc}", file=sys.stderr)
        return _EXIT_CONSISTENCY
    except (RfHarvestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
