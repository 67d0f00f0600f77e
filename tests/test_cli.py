"""Command-line surface: reports, sweeps, calibration files, exit codes."""

from __future__ import annotations

import configparser
import hashlib
import re

import pytest

from rfharvest import engine as engine_module
from rfharvest.cli import SWEEP_CSV_HEADER, main
from rfharvest.engine import Engine, EnergyLedger
from rfharvest.errors import LedgerError
from rfharvest.scenario import parse_scenario


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- budget -----------------------------------------------------------------

def test_budget_prints_reference_rows(capsys):
    code, out, _ = _run(capsys, ["budget"])
    assert code == 0
    assert "== Power budget ==" in out
    assert re.search(r"monitor_active\s+1\.80\s+0\.00001\s+10\.0\s+0\.00018", out)
    assert re.search(r"controller_active\s+1\.80\s+0\.00001\s+8\.0\s+0\.00014", out)
    assert re.search(r"sensor\s+3\.30\s+0\.00055\s+5\.0\s+0\.00908", out)
    assert re.search(r"zigbee\s+3\.30\s+0\.03500\s+2\.7\s+0\.31185", out)
    assert re.search(r"total\s+0\.32\s*$", out, re.MULTILINE)


def test_budget_scales_with_profile_override(tmp_path, capsys):
    scn = _write(tmp_path, "long_tx.scenario",
                 "[management]\nprofile.zigbee.t_s = 5.4\n")
    code, out, _ = _run(capsys, ["budget", scn])
    assert code == 0
    assert re.search(r"zigbee\s+3\.30\s+0\.03500\s+5\.4\s+0\.62370", out)
    assert re.search(r"total\s+0\.63\s*$", out, re.MULTILINE)


def test_budget_monitor_row_follows_check_settings(tmp_path, capsys):
    scn = _write(tmp_path, "long_check.scenario",
                 "[management]\ncheck_duration_s = 20\ni_active_a = 2e-5\n")
    code, out, _ = _run(capsys, ["budget", scn])
    assert code == 0
    assert re.search(r"monitor_active\s+1\.80\s+0\.00002\s+20\.0\s+0\.00072", out)


def test_budget_lists_assumptions_but_not_explicit_keys(tmp_path, capsys):
    scn = _write(tmp_path, "explicit.scenario",
                 "[storage]\ncap2_c_f = 2.0\n")
    code, out, _ = _run(capsys, ["budget", scn])
    assert code == 0
    assert "== Assumptions (values not set explicitly) ==" in out
    assert "storage.cap2_c_f" not in out
    assert "storage.cap1_c_f = 1.5" in out
    assert "frontend.stages = 25 (from preset)" in out


def test_budget_of_a_fully_explicit_scenario_lists_no_assumptions(tmp_path, capsys):
    """A scenario that sets every applicable key prints no assumptions block."""
    sections: dict[str, list[str]] = {}
    for key, value, _ in parse_scenario("").assumptions():
        section, _, name = key.partition(".")
        sections.setdefault(section, []).append(f"{name} = {value}")
    text = "".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items())
    scn = _write(tmp_path, "explicit.scenario", text)
    assert parse_scenario(text).assumptions() == []
    code, out, _ = _run(capsys, ["budget", scn])
    assert code == 0
    assert "== Power budget ==" in out
    assert "Assumptions" not in out


def test_budget_out_file_matches_stdout(tmp_path, capsys):
    out_path = tmp_path / "budget.txt"
    code, out, _ = _run(capsys, ["budget", "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text() == out


# -- run --------------------------------------------------------------------

def test_run_shipped_ideal_scenario_tenth_scale(capsys):
    # 0.032 J at a constant 1.9953e-7 W: exactly a tenth of the full
    # accumulation study, so it finishes in well under a second.
    code, out, _ = _run(capsys, ["run", "paper_ideal", "--until-joules", "0.032"])
    assert code == 0
    assert "scenario: builtin:paper_ideal" in out
    assert "stop reason: stored" in out
    assert "simulated time: 160380.0 s (1.86 days)" in out
    assert "time to first transmission: none" in out
    assert "go threshold: n/a (loads disabled)" in out
    # the shipped notes keep the inconsistent commonly quoted figure visible
    assert "== Notes ==" in out
    assert "11.7" in out
    assert "18.56" in out


@pytest.mark.parametrize("argv, text, ratio", [
    # ideal coupling at efficiency 1: every delivered joule is harvested
    (["run", "paper_ideal", "--until", "86400"], None, "1.00"),
    # the thevenin pair harvests 21.6 times the RF that crosses the antenna
    (["run", "realistic_default"], None, "21.60"),
    # a fully reflecting antenna delivers nothing
    (["run", "dark.scenario"],
     "[frontend]\ngamma_sq = 1.0\n\n[engine]\nt_end_s = 3600\n", "n/a"),
], ids=["paper_ideal", "realistic_default", "nothing_delivered"])
def test_run_report_prints_harvested_over_delivered(tmp_path, capsys, monkeypatch,
                                                    argv, text, ratio):
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / argv[1]).write_text(text)
    code, out, _ = _run(capsys, argv)
    assert code == 0
    ledger = out.split("== Energy ledger ==")[1]
    assert re.search(rf"^harvested / delivered: {re.escape(ratio)}$", ledger, re.MULTILINE)


def test_run_completes_a_duty_cycle(tmp_path, capsys):
    scn = _write(tmp_path, "hot.scenario", (
        "[source]\ntype = constant\nlevel_dbm = -20.0\n\n"
        "[frontend]\ngamma_sq = 0.0\n\n"
        "[storage]\ncap1_c_f = 0.1\ncap2_c_f = 0.05\n\n"
        "[management]\nwake_period_s = 300.0\ngo_threshold_v = 2.0\n\n"
        "[engine]\nt_end_s = 1000.0\n"
    ))
    code, out, _ = _run(capsys, ["run", scn, "--until-tx", "1"])
    assert code == 0
    assert "stop reason: transmissions" in out
    assert "transmissions: 1    aborted cycles: 0" in out
    assert "time to first transmission: 443.0 s" in out
    assert "go threshold: 2.0000 V" in out
    assert "WARNING" not in out


def test_run_seeded_rerun_is_byte_identical(tmp_path, capsys):
    scn = _write(tmp_path, "amb.scenario", (
        "[management]\nloads_enabled = false\n\n"
        "[engine]\nt_end_s = 1800.0\n"
    ))
    t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    code1, out1, _ = _run(capsys, ["run", scn, "--seed", "7", "--trace", str(t1)])
    code2, out2, _ = _run(capsys, ["run", scn, "--seed", "7", "--trace", str(t2)])
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    assert t1.read_bytes() == t2.read_bytes()
    header = t1.read_text().splitlines()[0]
    assert header == ("t_s,p_avail_dbm,v_cap1,v_cap2,state,"
                      "e_harvested_j,e_consumed_j,e_leaked_j")

    _, out3, _ = _run(capsys, ["run", scn, "--seed", "8"])
    assert out3 != out1


_PAPER_IDEAL_1D = "f0699fbeed30800c5164c84cbbd1c772968348aec77622d70bcb19da5cd287fa"

# A sleeping node on a 0.7 s coarse step: the clock is never whole, and
# the monitor's draw moves the consumed column in every row.
_SLEEP_07 = (
    "[source]\ntype = constant\nlevel_dbm = -30.0\n\n"
    "[storage]\ncap2_v0 = 2.2\n\n"
    "[engine]\ndt_coarse_s = 0.7\nt_end_s = 2000\n"
)


_PINNED_TRACES = (
    # ideal coupling, constant source, pump and loads off
    ("paper_ideal_1d", ["run", "paper_ideal", "--until", "86400"], _PAPER_IDEAL_1D),
    # the --seed override and the first pump episode, at 82,852 s
    ("realistic_seed0", ["run", "realistic_default", "--seed", "0", "--until", "100000"],
     "0cdcaf071c08e78f0bd94bd7e2e40768ef18056dd942016f1c62853a346208d7"),
    # 2,858 Sleep rows at 0.7 s steps
    ("sleep_dt07", ["run", "sleep_07.scenario"],
     "5be25d1be5fc0735d7f9422a35554039d78b49b2460ba884e439c167d2969aba"),
)


@pytest.mark.parametrize("argv, sha256, chunk", [
    pytest.param(argv, sha256, chunk, id=name + (f"-chunk{chunk}" if chunk else ""))
    for name, argv, sha256 in _PINNED_TRACES for chunk in (None, 1, 7)
])
def test_run_trace_bytes_are_pinned(tmp_path, capsys, monkeypatch, argv, sha256, chunk):
    """The same bytes whatever the rows per write of a macro-step's trace:
    the default _TRACE_CHUNK, one row, or seven."""
    if chunk is not None:
        monkeypatch.setattr(engine_module, "_TRACE_CHUNK", chunk)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sleep_07.scenario").write_text(_SLEEP_07)
    trace = tmp_path / "trace.csv"
    code, _, _ = _run(capsys, argv + ["--trace", str(trace)])
    assert code == 0
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == sha256


def test_trace_rows_are_written_in_bounded_chunks(tmp_path, capsys, monkeypatch):
    """paper_ideal to one day is one macro-step of 86,400 rows; the trace
    file never gets more than _TRACE_CHUNK rows in one write, so a
    macro-step over the whole horizon holds only a chunk in memory, and
    the bytes are the pinned ones."""
    rows_per_write = []

    class Spy:
        def __init__(self, fh):
            self._fh = fh

        def write(self, text):
            rows_per_write.append(text.count("\n"))
            return self._fh.write(text)

        def close(self):
            self._fh.close()

    monkeypatch.setattr(engine_module, "open", lambda *a, **k: Spy(open(*a, **k)),
                        raising=False)
    trace = tmp_path / "trace.csv"
    code, _, _ = _run(capsys, ["run", "paper_ideal", "--until", "86400",
                               "--trace", str(trace)])
    assert code == 0
    assert sum(rows_per_write) == 86401  # the header and a row per step
    assert max(rows_per_write) <= engine_module._TRACE_CHUNK <= 10_000
    assert len(rows_per_write) < 86401 // 100  # rows go in chunks, not one by one
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == _PAPER_IDEAL_1D


def test_run_warns_when_monitor_outdraws_harvest(tmp_path, capsys):
    # -45 dBm leaves the carrier peak under the rectifier conduction drop:
    # nothing harvests while the powered monitor keeps drawing.
    scn = _write(tmp_path, "deficit.scenario", (
        "[source]\ntype = constant\nlevel_dbm = -45.0\n\n"
        "[storage]\ncap2_v0 = 2.0\n\n"
        "[engine]\nt_end_s = 600.0\n"
    ))
    code, out, _ = _run(capsys, ["run", scn])
    assert code == 0
    assert "mean harvested power: 0 W" in out
    assert ("WARNING: monitor quiescent draw meets or exceeds mean harvested "
            "power") in out


def test_run_missing_scenario_file_exits_with_usage_error(capsys):
    code, out, err = _run(capsys, ["run", "/nope/missing.scenario"])
    assert code == 2
    assert out == ""
    assert "error: scenario file not found: '/nope/missing.scenario'" in err


@pytest.mark.parametrize("text, message", [
    ("[management]\ncheck_duration_s = inf\n",
     "error: check_duration must be positive and finite"),
    ("[source]\ntype = constant\nlevel_dbm = 4000\n[engine]\nt_end_s = 10.0\n",
     "error: dBm level 4000.0 is too large"),
    ("[source]\ntype = constant\nlevel_dbm = 3080\n",
     "error: v_peak must be finite and >= 0, got inf"),
    ("[management]\ncheck_duration_s = 1e306\n",
     "error: check_duration 1e+306 s spans too many"),
    ("[source]\ntype = constant\nlevel_dbm = -20.0\n\n"
     "[frontend]\ngamma_sq = 0.0\n\n"
     "[storage]\ncap1_c_f = 0.1\ncap2_c_f = 0.05\n\n"
     "[management]\nwake_period_s = 300.0\ngo_threshold_v = 2.0\n"
     "profile.sensor.t_s = 1e306\n\n"
     "[engine]\nt_end_s = 1000.0\n",
     "error: sensor on-time 1e+306 s spans too many"),
    (["realistic_default", "--until", "3600", "--until-joules", "inf"],
     "error: stop_stored_j must be positive and finite, got inf"),
    # Past 2**52 fine steps a step no longer moves the clock.
    (["realistic_default", "--until", "1e22", "--until-tx", "1"],
     "below t_end 1e+22"),
])
def test_run_rejects_out_of_range_values(tmp_path, capsys, text, message):
    """A scenario text, or the arguments after `run`, that exit 2 before
    anything is simulated."""
    args = text if isinstance(text, list) else [_write(tmp_path, "s.scenario", text)]
    code, out, err = _run(capsys, ["run", *args])
    assert code == 2
    assert out == ""
    assert message in err


def _write_bytes(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


def _trace_scenario(tmp_path, trace_csv):
    text = f"[source]\ntype = trace\ntrace_csv = {trace_csv}\n"
    return _write(tmp_path, "trace.scenario", text)


@pytest.mark.parametrize("argv", [
    lambda d: ["budget", _trace_scenario(d, d / "missing.csv")],
    lambda d: ["budget", _trace_scenario(d, d)],
    lambda d: ["budget", _write_bytes(d, "s.scenario", b"[engine]\nt_end_s = 10\xff\n")],
    lambda d: ["budget", _trace_scenario(
        d, _write_bytes(d, "t.csv", b"time_s,power_dbm\n0,-30\xff\n"))],
    lambda d: ["budget", _trace_scenario(
        d, _write_bytes(d, "t.csv", b"time_s,power_dbm\n0," + b"1" * 200000 + b"\n"))],
    lambda d: ["budget", "--out", str(d / "missing" / "x.txt")],
    lambda d: ["run", "paper_ideal", "--until", "10", "--trace", str(d / "missing" / "x.csv")],
    lambda d: ["calibrate", "--preset", "paper", "--out", str(d / "missing" / "x.ini")],
    lambda d: ["run", "paper_ideal", "--until", "86400", "--out", str(d / "missing" / "x.txt")],
    lambda d: ["sweep", "paper_ideal", "--sweep", "engine.t_end_s=3600,7200",
               "--out", str(d / "missing" / "x.csv")],
], ids=[
    "trace_missing", "trace_is_directory", "scenario_not_utf8", "trace_not_utf8",
    "trace_field_too_large", "budget_out_unwritable", "run_trace_unwritable",
    "calibrate_out_unwritable", "run_out_unwritable", "sweep_out_unwritable",
])
def test_unreadable_or_unwritable_files_exit_with_usage_error(tmp_path, capsys, argv):
    """Bad paths fail before any work: no report reaches stdout."""
    code, out, err = _run(capsys, argv(tmp_path))
    assert code == 2
    assert out == ""
    assert re.search(r"^error: ", err, re.MULTILINE)


def test_run_maps_ledger_error_to_consistency_exit(capsys, monkeypatch):
    def boom(scenario, trace_path=None):
        raise LedgerError("energy balance off by 1 J")

    monkeypatch.setattr("rfharvest.cli.run_scenario", boom)
    code, out, err = _run(capsys, ["run", "paper_ideal"])
    assert code == 3
    assert out == ""
    assert "consistency error: energy balance off by 1 J" in err


def _precharged_month(tmp_path):
    """A 484 J reservoir, a -70 dBm source, daily checks, 30 days."""
    return _write(tmp_path, "precharged.scenario", (
        "[source]\ntype = constant\nlevel_dbm = -70.0\n\n"
        "[storage]\ncap2_c_f = 50\ncap2_v0 = 4.4\n\n"
        "[management]\nwake_period_s = 86400\n\n"
        "[engine]\nt_end_s = 2592000\n"
    ))


def test_run_precharged_powerless_month_closes_the_ledger(tmp_path, capsys):
    """A 484 J reservoir drained for 30 days with nothing harvested: the
    float rounding of 3.1 M steps of accounting is no ledger violation."""
    code, out, err = _run(capsys, ["run", _precharged_month(tmp_path)])
    assert (code, err) == (0, "")
    assert "stop reason: t_end" in out
    assert re.search(r"^harvested:\s+0 J$", out, re.MULTILINE)
    assert "== Energy ledger ==" in out and "residual:" in out


def _every_step_floor(led: EnergyLedger) -> float:
    """The ledger tolerance when every step was charged 2u(e0 + G) for
    cap2's voltage rounding, booked or not."""
    gross = (abs(led.e_harvested) + abs(led.e_leaked)
             + abs(led.e_converter_loss) + abs(led.e_load_total))
    n = led.steps
    floor = 2.0 ** -53 * ((2 * n + 17) * led.e_initial + (5 * n + 35) * gross)
    return max(1e-6 * led.e_harvested, floor)


@pytest.mark.parametrize("rule, code", [("counted", 3), ("every_step", 0)])
def test_run_precharged_month_catches_a_misbooked_cap2_leak(tmp_path, capsys, monkeypatch,
                                                           rule, code):
    """cap2's leak booked 5e-8 high in every macro-step of the precharged
    month, about 1.2e-7 J by the end: the rounding floor that charges only
    the steps leaving cap2's rounding unbooked aborts the run (exit 3), the
    floor that charged every step for it lets the run close."""
    book = engine_module._quiet_book

    def misbooked(*args):
        harvested, front, leaked, mon = book(*args)
        return harvested, front, leaked * (1.0 + 5e-8), mon

    monkeypatch.setattr(engine_module, "_quiet_book", misbooked)
    if rule == "every_step":
        monkeypatch.setattr(EnergyLedger, "tolerance", _every_step_floor)
    got, out, err = _run(capsys, ["run", _precharged_month(tmp_path)])
    assert got == code
    if code:
        assert out == "" and "exceeds tolerance" in err
    else:
        assert "stop reason: t_end" in out


# -- sweep ------------------------------------------------------------------

def test_sweep_writes_one_csv_row_per_value(tmp_path, capsys):
    scn = _write(tmp_path, "sw.scenario", (
        "[source]\ntype = constant\nlevel_dbm = -37.0\n\n"
        "[management]\nloads_enabled = false\n\n"
        "[engine]\nt_end_s = 300.0\n"
    ))
    code, out, _ = _run(
        capsys, ["sweep", scn, "--sweep", "source.level_dbm=-40,-35,-30"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert lines[0] == ("value,time_to_first_tx_s,transmissions,final_v2,"
                        "e_harvested_j,v_oc_v")
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["-40", "-35", "-30"]
    assert all(r[1] == "" and r[2] == "0" for r in rows)  # loads disabled
    harvested = [float(r[4]) for r in rows]
    v_oc = [float(r[5]) for r in rows]
    assert harvested == sorted(harvested) and harvested[0] < harvested[-1]
    assert v_oc == sorted(v_oc) and v_oc[0] < v_oc[-1]
    # Each value is trimmed once, where the list is split.
    spaced = _run(capsys, ["sweep", scn, "--sweep", "source.level_dbm= -40, -35 ,-30 "])
    assert spaced == (0, out, "")


@pytest.mark.parametrize(
    "spec", ["engine.t_end_s=", "engine.t_end_s=,,", "nosuch.key="],
    ids=["empty", "commas_only", "unknown_key"],
)
def test_sweep_with_no_values_exits_with_usage_error(tmp_path, capsys, spec):
    out_path = tmp_path / "sweep.csv"
    code, out, err = _run(capsys, ["sweep", "paper_ideal", "--sweep", spec,
                                   "--out", str(out_path)])
    assert code == 2
    assert out == ""
    assert re.search(r"^error: .*names no values", err, re.MULTILINE)
    assert not out_path.exists()


def _short_trace_scenario(d):
    return _trace_scenario(d, _write(d, "t.csv", "time_s,power_dbm\n0,-30\n600,-30\n"))


@pytest.mark.parametrize("argv, message", [
    (lambda d: ["sweep", "paper_ideal", "--sweep", "engine.t_end_s=400000,abc"],
     "engine.t_end_s: cannot parse 'abc'"),
    (lambda d: ["sweep", _short_trace_scenario(d), "--sweep", "engine.t_end_s=300,1000000"],
     "trace ends at 600.0 s"),
    (lambda d: ["sweep", "paper_ideal", "--sweep", "engine.t_end_s"],
     "--sweep wants KEY=V1,V2,..., got 'engine.t_end_s'"),
], ids=["unparsable_value", "past_the_trace", "no_equals_sign"])
def test_sweep_checks_every_value_before_the_first_run(
    tmp_path, capsys, monkeypatch, argv, message
):
    """A bad value fails before any run starts, not after the runs before it."""
    runs = []
    engine_run = Engine.run

    def counting_run(self, trace_path=None):
        runs.append(self)
        return engine_run(self, trace_path)

    monkeypatch.setattr(Engine, "run", counting_run)
    code, out, err = _run(capsys, argv(tmp_path))
    assert code == 2
    assert out == ""
    assert message in err
    assert runs == []


def test_sweep_seed_wins_over_the_source_seed(tmp_path, capsys):
    scn = _write(tmp_path, "sw.scenario", (
        "[management]\nloads_enabled = false\n\n"
        "[engine]\nt_end_s = 1800.0\n"
    ))

    def harvested(*extra):
        code, out, _ = _run(capsys, ["sweep", scn, *extra])
        assert code == 0
        return [line.split(",")[4] for line in out.splitlines()[1:]]

    by_source_seed = harvested("--sweep", "source.seed=1,2,5")
    assert len(set(by_source_seed)) == 3
    assert harvested("--seed", "5", "--sweep", "source.seed=1,2") == [by_source_seed[2]] * 2


def test_sweep_unknown_key_exits_with_usage_error(tmp_path, capsys):
    scn = _write(tmp_path, "sw.scenario", "[engine]\nt_end_s = 10.0\n")
    code, _, err = _run(capsys, ["sweep", scn, "--sweep", "storage.nope=1"])
    assert code == 2
    assert "error: unknown key 'storage.nope'" in err


# -- calibrate ---------------------------------------------------------------

def test_calibrate_preset_writes_three_parameter_sets(tmp_path, capsys):
    out_path = tmp_path / "fp.ini"
    code, out, _ = _run(capsys, ["calibrate", "--preset", "paper",
                                 "--out", str(out_path)])
    assert code == 0
    assert f"wrote 3 parameter set(s) to {out_path}" in out

    residuals = re.findall(r"residual ([+-]\d+\.\d+) dB", out)
    assert len(residuals) == 3
    assert all(abs(float(r)) <= 0.1 for r in residuals)

    ini = configparser.ConfigParser()
    ini.read(out_path)
    assert set(ini.sections()) == {
        "schottky_100MHz", "zerovt_100MHz", "zerovt_900MHz"
    }
    for name in ini.sections():
        sec = ini[name]
        assert float(sec["v_drop"]) > 0.0
        assert sec["alpha"] == "0.7"
        assert sec["r_in_ohm"] == "5000.0"
    assert ini["schottky_100MHz"]["device"] == "schottky"
    assert ini["schottky_100MHz"]["stages"] == "20"
    assert ini["schottky_100MHz"]["tank_q"] == "1.0"
    assert ini["zerovt_100MHz"]["stages"] == "25"
    assert ini["zerovt_900MHz"]["carrier_hz"] == "900000000.0"


@pytest.mark.parametrize("name", ["schottky_100MHz", "zerovt_100MHz", "zerovt_900MHz"])
def test_calibrated_set_pastes_into_a_scenario_frontend(tmp_path, capsys, name):
    """A section `calibrate --preset paper` writes, pasted under [frontend]
    with preset = none, builds the frontend that preset = <name> builds."""
    out_path = tmp_path / "fp.ini"
    code, _, _ = _run(capsys, ["calibrate", "--preset", "paper", "--out", str(out_path)])
    assert code == 0
    section = out_path.read_text().split(f"[{name}]\n")[1].split("\n[")[0]
    pasted = parse_scenario(f"[frontend]\npreset = none\n{section}")
    assert list(pasted.origins.values()).count("explicit") == 10  # preset and nine keys
    named = parse_scenario(f"[frontend]\npreset = {name}\n")
    assert pasted.scenario.frontend == named.scenario.frontend


def test_calibrate_single_custom_target(tmp_path, capsys):
    out_path = tmp_path / "one.ini"
    code, out, _ = _run(capsys, ["calibrate", "--target",
                                 "schottky:12:250e6:-22", "--out", str(out_path)])
    assert code == 0
    assert "schottky_12st_250MHz: target -22.00 dBm" in out
    residuals = re.findall(r"residual ([+-]\d+\.\d+) dB", out)
    assert len(residuals) == 1 and abs(float(residuals[0])) <= 0.1

    ini = configparser.ConfigParser()
    ini.read(out_path)
    assert ini.sections() == ["schottky_12st_250MHz"]
    assert ini["schottky_12st_250MHz"]["stages"] == "12"


def test_long_horizon_still_transmits_on_the_same_step(capsys):
    """A horizon near the clock's range, about 127,000 years of fine steps,
    runs to the shipped realistic scenario's first transmission."""
    code, out, _ = _run(capsys, ["run", "realistic_default", "--until", "4e12",
                                 "--until-tx", "1"])
    assert code == 0
    assert "time to first transmission: 2293359.0 s" in out


def test_calibrate_header_reports_the_head_target(tmp_path, capsys):
    """A parameter set's header reports the target it was fit to, whose
    tank_q the set holds."""
    out_path = tmp_path / "two.ini"
    code, _, _ = _run(capsys, [
        "calibrate",
        "--target", "zero_vt_mosfet:25:100e6:-37:2.8184",
        "--target", "zero_vt_mosfet:25:100e6:-37:2.83",
        "--out", str(out_path),
    ])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[1] == "# target -37.00 dBm, achieved -37.0000 dBm, residual +0.0000 dB"
    assert "tank_q = 2.8184" in lines


def test_calibrate_gives_each_tank_its_own_set(tmp_path, capsys):
    """Targets that differ only in tank_q are distinct operating points:
    each gets its own set, named with its Q, and fits to its own power."""
    out_path = tmp_path / "two.ini"
    code, out, _ = _run(capsys, [
        "calibrate",
        "--target", "zero_vt_mosfet:25:100e6:-37:2.8184",
        "--target", "zero_vt_mosfet:25:100e6:-37:2.83",
        "--out", str(out_path),
    ])
    assert code == 0
    assert f"wrote 2 parameter set(s) to {out_path}" in out
    ini = configparser.ConfigParser()
    ini.read(out_path)
    names = ["zero_vt_mosfet_25st_100MHz_q2.8184", "zero_vt_mosfet_25st_100MHz_q2.83"]
    assert ini.sections() == names
    assert [ini[n]["tank_q"] for n in names] == ["2.8184", "2.83"]
    headers = [line for line in out_path.read_text().splitlines() if line.startswith("#")]
    assert headers == ["# target -37.00 dBm, achieved -37.0000 dBm, residual +0.0000 dB"] * 2


def test_calibrate_names_each_set_with_its_exact_numbers(tmp_path, capsys):
    """Tanks whose Q differ only past the sixth digit, and carriers one ulp
    apart (whose quotients by 1e6 are one float), get a set each with a
    name each, so the file reads back."""
    out_path = tmp_path / "q.ini"
    code, out, _ = _run(capsys, [
        "calibrate",
        "--target", "zero_vt_mosfet:25:100e6:-37:2.8184",
        "--target", "zero_vt_mosfet:25:100e6:-37:2.81840001",
        "--target", "schottky:20:1234.567e6:-18",
        "--target", "zero_vt_mosfet:25:8218604573.116368:-10",
        "--target", "zero_vt_mosfet:25:8218604573.116369:-10",
        "--out", str(out_path),
    ])
    assert code == 0
    assert f"wrote 5 parameter set(s) to {out_path}" in out
    ini = configparser.ConfigParser()
    ini.read(out_path)
    assert ini.sections() == [
        "zero_vt_mosfet_25st_100MHz_q2.8184",
        "zero_vt_mosfet_25st_100MHz_q2.81840001",
        "schottky_20st_1234.567MHz",
        "zero_vt_mosfet_25st_8218.604573116368MHz",
        "zero_vt_mosfet_25st_8218.604573116369MHz",
    ]


def test_calibrate_targets_within_the_tolerance_share_a_set(tmp_path, capsys):
    """Two targets on one operating point 0.05 dB apart: the set is fit to
    the first, and the second is met within CALIBRATION_TOL_DB."""
    out_path = tmp_path / "tol.ini"
    code, out, _ = _run(capsys, [
        "calibrate",
        "--target", "zero_vt_mosfet:25:100e6:-37:2.8184",
        "--target", "zero_vt_mosfet:25:100e6:-37.05:2.8184",
        "--out", str(out_path),
    ])
    assert code == 0
    assert re.findall(r"target (\S+) dBm, achieved (\S+) dBm, residual (\S+) dB", out) == [
        ("-37.00", "-37.0000", "+0.0000"), ("-37.05", "-37.0000", "+0.0500")]
    assert f"wrote 1 parameter set(s) to {out_path}" in out
    ini = configparser.ConfigParser()
    ini.read(out_path)
    assert ini.sections() == ["zero_vt_mosfet_25st_100MHz_q2.8184"]
    assert out_path.read_text().splitlines()[1] == (
        "# target -37.00 dBm, achieved -37.0000 dBm, residual +0.0000 dB")


def test_calibrate_contradictory_targets_fail_loudly(tmp_path, capsys):
    code, _, err = _run(capsys, [
        "calibrate",
        "--target", "schottky:20:100e6:-18",
        "--target", "schottky:20:100e6:-30",
        "--out", str(tmp_path / "bad.ini"),
    ])
    assert code == 2
    assert "contradictory or infeasible" in err
    assert list(tmp_path.iterdir()) == []  # nothing written


def test_calibrate_rejects_malformed_target(tmp_path, capsys):
    code, _, err = _run(capsys, ["calibrate", "--target", "schottky:20",
                                 "--out", str(tmp_path / "x.ini")])
    assert code == 2
    assert "must be DEVICE:STAGES:CARRIER_HZ:DBM[:TANK_Q]" in err


@pytest.mark.parametrize("argv, message", [
    (["calibrate", "--preset", "other"], "error: unknown calibration preset 'other'"),
    (["calibrate", "--target", "schottky:20:fast:-18"],
     "error: target 'schottky:20:fast:-18': could not convert string to float"),
    (["run", "no_such_scenario"], "error: scenario file not found: 'no_such_scenario', and no "
     "shipped scenario named 'no_such_scenario'; available: paper_ideal, realistic_default"),
], ids=["unknown_preset", "non_numeric_target_field", "unknown_bare_name"])
def test_bad_arguments_exit_with_usage_error(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)  # no file by that name; calibrate writes nothing
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert message in err
    assert list(tmp_path.iterdir()) == []


def test_calibrate_without_targets_is_an_error(tmp_path, capsys):
    code, _, err = _run(capsys, ["calibrate", "--out", str(tmp_path / "x.ini")])
    assert code == 2
    assert "nothing to calibrate" in err
