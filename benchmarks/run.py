"""rfharvest benchmark: end-to-end and per-layer timings of simulator workloads.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the simulator is imported from the
checkout's ``src`` directory, nothing is installed.  Every measurement runs
in a fresh child interpreter, one at a time (`child.py`):

* set-up: SETUP_SAMPLES interpreters each time importing ``rfharvest``,
  loading and seeding the scenario and constructing ``Engine``;
* ``--trace 0``: one interpreter repeats untraced runs of the workload for
  about S seconds (at least one run) and checks each run's output;
* ``--trace 1``: one interpreter makes one untraced and one traced run, the
  traced run with per-layer wrappers installed (`layers.py`), and the
  set-up interpreters report the set-up time of each layer.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  BENCHMARK.json lists the workloads that gate a change and
why each was chosen; `workloads.py` defines every workload this script
accepts, the others being for runs by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

#: Fresh interpreters timed for set-up; their median is reported.
SETUP_SAMPLES = 7
#: Whole-benchmark deadline; a child still running then is killed.
DEADLINE_S = 170.0

#: Declared metric names and units, in print order.
SPEC_FILE = os.path.join(ROOT, "BENCHMARK.json")

SETUP_LAYERS = ("scenario.load_s", "analog_frontend.calibrate_s", "engine.init_s")


class ChildError(RuntimeError):
    pass


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _child(deadline: float, *args: str) -> dict:
    """Run child.py with the checkout's src first on the path; parse its JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildError("benchmark deadline passed before a child could start")
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, *args], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, timeout=timeout, check=False,
        )
    except subprocess.TimeoutExpired:
        raise ChildError(f"child {' '.join(args)} overran the deadline") from None
    lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"child {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _setup_samples(deadline: float, workload: str, seed: int, traced: bool) -> list[dict]:
    args = ["setup", workload, str(seed)] + (["--traced"] if traced else [])
    # The first interpreter also compiles the bytecode caches; not timed.
    first = _child(deadline, *args)
    if os.path.commonpath([first["package"], SRC]) != SRC:
        raise ChildError(f"rfharvest was imported from {first['package']}, not from {SRC}")
    return [_child(deadline, *args) for _ in range(SETUP_SAMPLES)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rfharvest", "__init__.py")):
        print(f"error: no rfharvest package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    with open(SPEC_FILE, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    deadline = time.monotonic() + DEADLINE_S
    print(f"host: python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"cpu {_cpu_model()}")
    tmpdir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        setups = _setup_samples(deadline, args.workload, args.seed, bool(args.trace))
        if args.trace:
            out = _child(deadline, "trace", args.workload, str(args.seed), tmpdir)
        else:
            out = _child(deadline, "run", args.workload, str(args.seed),
                         repr(args.seconds), tmpdir)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    runs = out["runs"]
    failed = sum(1 for r in runs if not r["ok"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"runs {len(runs)}  set-up samples {len(setups)}")
    if args.trace:
        values = dict(out["metrics"])
        for name in SETUP_LAYERS:
            values[name] = statistics.median(s[name] for s in setups)
        declared = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "run_s": statistics.median(r["run_s"] for r in runs),
            "sim_s_per_wall_s": statistics.median(r["sim_s"] / r["run_s"] for r in runs),
            "peak_rss_mib": out["peak_rss_mib"],
        }
        declared = spec["end_to_end"]
        # Reported alongside: fail_rate is `failed / attempted` below, and
        # trace_mib is zero on every workload that writes no trace.
        trace_mib = statistics.median(r["trace_bytes"] for r in runs) / 2**20
        print(f"  {'fail_rate':<40} {failed / len(runs):.6g} ratio")
        print(f"  {'trace_mib':<40} {trace_mib:.6g} MiB")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"  {name:<40} {value} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
