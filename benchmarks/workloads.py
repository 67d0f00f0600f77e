"""Benchmark workloads: which scenario each one runs and how its output is
checked.

Every workload is a scenario (shipped by name, or a file under
``benchmarks/scenarios``) with ``engine.seed`` set to the benchmark seed,
which is exactly what ``rfharvest run <scenario> --seed N`` builds.  The
program receives nothing else.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
SCENARIO_DIR = os.path.join(HERE, "scenarios")
FINGERPRINT_FILE = os.path.join(HERE, "fingerprints.json")

#: Seed at which the anchors and fingerprints below are pinned.
DEFAULT_SEED = 0

#: Relative tolerance of a pinned fingerprint (the macro-step oracle's).
FINGERPRINT_REL_TOL = 1e-9

#: Ledger residual bound relative to gross throughput, as in the
#: acceptance test's conservation check.
LEDGER_REL_TOL = 1e-6
LEDGER_ABS_FLOOR = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str  # shipped scenario name, or a *.scenario file in SCENARIO_DIR
    stop_reason: str
    transmissions: int
    writes_trace: bool = False
    # Anchor at DEFAULT_SEED: (SimResult field, expected value, absolute tol).
    anchor: tuple[str, float, float] | None = None


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "realistic_first_tx", "realistic_default",
            stop_reason="transmissions", transmissions=1,
            anchor=("time_to_first_transmission", 2293359.0, 1.0),
        ),
        Workload(
            "ideal_accumulate", "ideal_accumulate.scenario",
            stop_reason="stored", transmissions=0,
            anchor=("t_final", 1603800.0, 1.0),
        ),
        Workload(
            "cycle_burst", "cycle_burst.scenario",
            stop_reason="transmissions", transmissions=10,
        ),
        Workload(
            "realistic_traced", "realistic_traced.scenario",
            stop_reason="t_end", transmissions=0, writes_trace=True,
        ),
    )
}


def load_bundle(workload: Workload, seed: int):
    """Parse the workload's scenario and set its seed: the set-up a CLI call pays."""
    from rfharvest.scenario import apply_override, load_scenario, parse_scenario, read_builtin_scenario

    if workload.scenario.endswith(".scenario"):
        bundle = load_scenario(os.path.join(SCENARIO_DIR, workload.scenario))
    else:
        bundle = parse_scenario(
            read_builtin_scenario(workload.scenario), path=f"builtin:{workload.scenario}"
        )
    return apply_override(bundle, "engine.seed", str(seed))


def gross_throughput(ledger) -> float:
    return (ledger.e_harvested + abs(ledger.e_stored_delta) + ledger.e_leaked
            + ledger.e_converter_loss + ledger.e_load_total)


def ledger_residual_rel(ledger) -> float:
    gross = gross_throughput(ledger)
    return abs(ledger.residual()) / gross if gross > 0.0 else abs(ledger.residual())


def fingerprint(result) -> dict[str, float | int | str | None]:
    """The numbers a run must reproduce: stop, events, voltages, ledger."""
    led = result.ledger
    return {
        "stop_reason": result.stop_reason,
        "transmissions": result.transmissions,
        "aborted_cycles": result.aborted_cycles,
        "time_to_first_transmission": result.time_to_first_transmission,
        "t_final": result.t_final,
        "v_cap1": result.v_cap1,
        "v_cap2": result.v_cap2,
        "e_harvested": led.e_harvested,
        "e_reflected": led.e_reflected,
        "e_leaked": led.e_leaked,
        "e_converter_loss": led.e_converter_loss,
        "e_load_total": led.e_load_total,
        "e_stored_delta": led.e_stored_delta,
    }


def _pinned() -> dict[str, dict]:
    with open(FINGERPRINT_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _close(a, b) -> bool:
    if isinstance(b, float) and isinstance(a, (int, float)):
        return math.isclose(a, b, rel_tol=FINGERPRINT_REL_TOL, abs_tol=LEDGER_ABS_FLOOR)
    return a == b


def check(workload: Workload, seed: int, result) -> list[str]:
    """Problems with one run's output; an empty list means it passed."""
    problems = []
    led = result.ledger
    bound = max(LEDGER_REL_TOL * gross_throughput(led), LEDGER_ABS_FLOOR)
    if not abs(led.residual()) <= bound:
        problems.append(f"ledger residual {led.residual()!r} J exceeds {bound!r} J")
    if result.stop_reason != workload.stop_reason:
        problems.append(f"stop reason {result.stop_reason!r}, expected {workload.stop_reason!r}")
    if result.transmissions != workload.transmissions:
        problems.append(f"{result.transmissions} transmissions, expected {workload.transmissions}")
    if result.aborted_cycles != 0:
        problems.append(f"{result.aborted_cycles} aborted cycles, expected 0")
    if seed != DEFAULT_SEED:
        return problems
    if workload.anchor is not None:
        field, expected, tol = workload.anchor
        got = getattr(result, field)
        if got is None or not abs(got - expected) <= tol:
            problems.append(f"{field} {got!r}, expected {expected!r} +- {tol!r}")
    pinned = _pinned().get(workload.name)
    if pinned is not None:
        got = fingerprint(result)
        for key, want in pinned.items():
            if not _close(got[key], want):
                problems.append(f"fingerprint {key} {got[key]!r}, pinned {want!r}")
    return problems
