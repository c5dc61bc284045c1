"""Command line behavior: exit codes, goldens, report files."""

import io
import json
from pathlib import Path

import pytest

from watchstack.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCENARIO1 = str(ROOT / "programs" / "scenario1.ws")
DEMO = str(ROOT / "programs" / "demo.ws")
GOLDEN = Path(__file__).resolve().parent / "golden"

SPIN = """\
.org 0x08000000
.func main hal
.label again
    b again
.endfunc
"""

SHADOW_POKE = """\
.org 0x08000000
.func main hal
    movw r0, #0x0000
    movt r0, #0x00e0
    mov r1, #7
    str r1, [r0]
    bkpt #0
.endfunc
"""


def test_asm_matches_golden(capsys):
    assert main(["asm", SCENARIO1]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "scenario1.ws").read_text()


def test_asm_listing_shows_addresses(capsys):
    assert main(["asm", SCENARIO1, "--listing"]) == 0
    out = capsys.readouterr().out
    assert "08000000  4b  3c  bl foo" in out
    assert "<bar>" in out


def test_asm_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(SPIN))
    assert main(["asm", "-"]) == 0
    assert "b again" in capsys.readouterr().out


def test_asm_output_file(tmp_path, capsys):
    out = tmp_path / "a.ws"
    assert main(["asm", SCENARIO1, "-o", str(out)]) == 0
    assert out.read_text() == (GOLDEN / "scenario1.ws").read_text()
    assert capsys.readouterr().out == ""


def test_asm_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.ws"
    bad.write_text(".org 0x08000000\n.func f\n    frobnicate r0\n.endfunc\n")
    assert main(["asm", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_file_exits_1(capsys):
    assert main(["asm", "no-such-file.ws"]) == 1
    assert "error" in capsys.readouterr().err


def test_instrument_matches_golden(capsys):
    assert main(["instrument", SCENARIO1]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "scenario1_instrumented.ws").read_text()


def test_instrument_plan_json(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    assert main(["instrument", SCENARIO1, "--plan", str(plan),
                 "-o", str(tmp_path / "out.ws")]) == 0
    records = json.loads(plan.read_text())
    by_name = {r["function"]: r for r in records}
    assert by_name["main"]["skipped"]  # hal code stays untouched
    bar = by_name["bar"]
    assert bar["scratch_gprs"]
    assert bar["inserted_prologue"]
    assert bar["size_delta_bytes"] > 0


def test_run_protected_scenario_exits_0(capsys):
    code = main(["run", SCENARIO1, "--instrument", "--protected"])
    out = capsys.readouterr().out
    assert code == 0
    assert "outcome=SafeReturn" in out
    assert "halt=normal" in out


def test_run_violation_under_reset_exits_3(tmp_path, capsys):
    src = tmp_path / "poke.ws"
    src.write_text(SHADOW_POKE)
    code = main(["run", str(src), "--protected"])
    out = capsys.readouterr().out
    assert code == 3
    assert "outcome=ViolationTrapped" in out
    assert "violations=1" in out
    assert "violation=pc:" in out


def test_run_violation_under_report_exits_0(tmp_path, capsys):
    src = tmp_path / "poke.ws"
    src.write_text(SHADOW_POKE)
    code = main(["run", str(src), "--protected", "--policy", "report"])
    out = capsys.readouterr().out
    assert code == 0
    assert "outcome=ViolationTrapped" in out


def test_run_step_budget_exits_2(tmp_path, capsys):
    src = tmp_path / "spin.ws"
    src.write_text(SPIN)
    code = main(["run", str(src), "--max-steps", "100"])
    out = capsys.readouterr().out
    assert code == 2
    assert "halt=step-budget" in out
    assert "steps=100" in out


def test_run_raise_injection_and_report(tmp_path, capsys):
    report = tmp_path / "r.json"
    code = main(["run", DEMO, "--instrument", "--protected",
                 "--raise", "systick@20", "--report", str(report)])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["outcome"] == "SafeReturn"
    assert data["registers"]["r0"] == 26
    assert data["exit_code"] == 0
    assert data["protected"] is True
    capsys.readouterr()


def test_run_raise_accepts_numeric_ids(tmp_path):
    report = tmp_path / "r.json"
    code = main(["run", DEMO, "--instrument", "--protected",
                 "--raise", "15@20", "--report", str(report)])
    assert code == 0
    assert json.loads(report.read_text())["registers"]["r0"] == 26


@pytest.mark.parametrize("spec", ["systick", "nosuch@3", "15", "systick@-5"])
def test_bad_raise_spec_exits_1(spec, capsys):
    with pytest.raises(SystemExit) as e:
        main(["run", DEMO, "--raise", spec])
    assert e.value.code == 1
    capsys.readouterr()


@pytest.mark.parametrize("steps", ["-5", "-0x10", "many"])
def test_bad_max_steps_exits_1(steps, capsys):
    with pytest.raises(SystemExit) as e:
        main(["run", DEMO, "--max-steps", steps])
    assert e.value.code == 1
    assert "--max-steps" in capsys.readouterr().err


def test_unknown_handler_name_exits_1(tmp_path, capsys):
    src = tmp_path / "nmi.ws"
    src.write_text(SPIN + ".func nmi_handler handler\n    bx lr\n.endfunc\n")
    assert main(["run", str(src)]) == 1
    err = capsys.readouterr().err
    assert err == ("watchstack: error: handler 'nmi_handler' does not name "
                   "a known exception\n")


@pytest.mark.parametrize("flags", [["--ss-start", "0x00E00100"],
                                   ["--ss-size-log2", "40"],
                                   ["--ss-size-log2", "1"]])
def test_inexpressible_shadow_region_exits_1(flags, capsys):
    assert main(["run", DEMO, "--instrument", "--protected"] + flags) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("watchstack: error: ")


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as e:
        main(["run"])  # missing input
    assert e.value.code == 1
    capsys.readouterr()


def test_bench_default_microbenchmark(tmp_path, capsys):
    report = tmp_path / "bench.json"
    assert main(["bench", "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "optimal.baseline.cycles=25" in out
    assert "optimal.pro.cycles=21" in out
    assert "optimal.epi.cycles=16" in out
    assert "optimal.derived_baseline.cycles=25" in out
    assert "naive.derived_baseline.cycles=25" in out
    data = json.loads(report.read_text())
    assert data["optimal"]["baseline_cycles"] == 25
    assert data["optimal"]["derived_baseline_cycles"] == 25
    assert data["naive"]["protected_cycles"] \
        > data["optimal"]["protected_cycles"]


def test_bench_rejects_programs_that_fault(tmp_path, capsys):
    src = tmp_path / "spin.ws"
    src.write_text(SPIN.replace("b again", "udf #0"))
    assert main(["bench", str(src)]) == 1
    assert "error" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert "watchstack" in capsys.readouterr().out
