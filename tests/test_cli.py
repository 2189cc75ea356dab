"""Command-line behaviour: output formats and the exit-code contract."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qedet.catalog import get_code
from qedet.cli import main
from qedet.enumerators import stabilizer_enumerators
from qedet.gf4 import parse_code
from qedet.oracle import code_projector, pue_nonstab_mc
from qedet.pue import pue_nonstabilizer, pue_stabilizer

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enum_c422(capsys):
    code, out, _ = run(capsys, "enum", "c422", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["B"] == ["1", "0", "0", "0", "3"]
    assert doc["d"] == 2


def test_enum_five13_json(capsys):
    code, out, _ = run(capsys, "enum", "five13", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == 3
    assert doc["K"] == "2"


def test_enum_pretty_output_is_json_too(capsys):
    code, out, _ = run(capsys, "enum", "bell")
    assert code == 0
    assert json.loads(out)["K"] == "1"


def test_enum_missing_code_exits_2(capsys):
    code, _, err = run(capsys, "enum", "definitely-not-a-code")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("kind", ["syntax", "directory", "non_utf8"])
def test_enum_bad_file_exits_2(tmp_path, capsys, kind):
    bad = tmp_path / "bad.code"
    if kind == "syntax":
        bad.write_text("XQ\n")
    elif kind == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"XX\xff\xfe\n")
    code, _, err = run(capsys, "enum", str(bad))
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_enum_reads_code_files(tmp_path, capsys):
    f = tmp_path / "c422.code"
    f.write_text("# comment\nn=4 k=2\nXXXX\nZZZZ\n")
    code, out, _ = run(capsys, "enum", str(f), "--json")
    assert code == 0
    assert json.loads(out)["d"] == 2


def test_pue_single_point(capsys):
    code, out, _ = run(capsys, "pue", "trivial-n1", "--p", "0.1", "--mode", "s")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,mode,pue"
    p, mode, value = lines[1].split(",")
    assert (float(p), mode, float(value)) == (0.1, "stabilizer", 0.1)


def test_pue_sweep_csv(capsys):
    code, out, _ = run(capsys, "pue", "c422", "--sweep", "0:0.75:0.25",
                       "--mode", "c")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5  # header + 4 rows
    assert all(line.split(",")[1] == "composite" for line in lines[1:])


def test_pue_hundreds_of_qubits(tmp_path, capsys):
    # Bperp coefficients pass the float range from n = 512 on.
    big = tmp_path / "big.code"
    big.write_text("X" * 600 + "\n" + "Z" * 600 + "\n")
    code, out, _ = run(capsys, "pue", str(big), "--sweep", "0:0.75:0.25")
    assert code == 0
    values = [float(line.split(",")[2]) for line in out.strip().splitlines()[1:]]
    assert len(values) == 4 and values[0] == 0.0
    assert all(0.0 < v <= 1.0 for v in values[1:])


def test_pue_out_of_range_exits_1(capsys):
    code, _, err = run(capsys, "pue", "c422", "--p", "0.9")
    assert code == 1


@pytest.mark.parametrize("sweep, exit_code", [
    ("0:inf:0.1", 2),          # unbounded
    ("0:0.75:1e-300", 2),      # 7.5e299 points
    ("0:0.75:1e-7", 2),        # 7.5e6 points
    ("0.5:0.5:1e-17", 2),      # x += step never moves x
    ("nan:0.75:0.1", 2),
    ("0:nan:0.1", 2),
    ("0:0.75:inf", 2),
    ("0.5:0.25:0.1", 2),       # starts after it stops
    ("0:0.9:0.1", 1),          # a finite grid leaving [0, 3/4]
])
def test_pue_bad_sweep_exits_promptly(sweep, exit_code):
    # In a subprocess, so that a grid loop that never ends fails the test
    # instead of hanging the suite.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qedet.cli", "pue", "c422",
             f"--sweep={sweep}"],
            env=env, capture_output=True, text=True, timeout=30)
    except subprocess.TimeoutExpired:
        pytest.fail(f"qed pue --sweep={sweep} did not exit within 30 s")
    assert proc.returncode == exit_code, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert len(proc.stderr.splitlines()) == 1


def test_pue_nonstabilizer_mode(capsys):
    code, out, _ = run(capsys, "pue", "trivial-n1", "--p", "0.3", "--mode", "n")
    assert code == 0
    value = float(out.strip().splitlines()[1].split(",")[2])
    assert value == pytest.approx(0.3 * 2 / 3, rel=1e-12)


def test_simulate_fixed_seed_bit_identical(capsys):
    args = ("simulate", "c422", "--p", "0.1", "--trials", "500", "--seed", "9")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["trials"] == 500 and doc["seed"] == 9


def test_simulate_reports_sigma_distance(capsys):
    code, _, err = run(capsys, "simulate", "c422", "--p", "0.1",
                       "--trials", "2000", "--seed", "3")
    assert code == 0
    assert "stderr" in err  # analytic comparison goes to stderr, not stdout


def test_simulate_distance_without_undetected_trials(capsys):
    # No trial ends undetected, so the sample's own stderr is 0; the band
    # is the binomial stderr at the closed form q.
    code, out, err = run(capsys, "simulate", "five13", "--p", "0.01",
                         "--trials", "1000", "--seed", "0")
    assert code == 0
    assert json.loads(out)["counts"]["undetected"] == 0
    q = pue_stabilizer(stabilizer_enumerators(get_code("five13")), 0.01)
    assert err.startswith(f"analytic {q!r},") and "stderr" in err
    distance = float(err.split("distance ")[1].split()[0])
    assert distance == pytest.approx(q / math.sqrt(q * (1 - q) / 1000), abs=0.01)
    # At p = 0 the band is 0 and so is every distance from it.
    code, _, err = run(capsys, "simulate", "c422", "--p", "0", "--trials", "10")
    assert code == 0
    assert err == "analytic 0.0, distance 0.00 x stderr bound\n"


@pytest.mark.parametrize("protocol, closed_form", [
    ("stabilizer", pue_stabilizer), ("nonstabilizer", pue_nonstabilizer)])
def test_simulate_analytic_is_the_closed_form(capsys, protocol, closed_form):
    code, _, err = run(capsys, "simulate", "c422", "--p", "0.1",
                       "--trials", "300", "--protocol", protocol)
    assert code == 0
    analytic = closed_form(stabilizer_enumerators(get_code("c422")), 0.1)
    assert err.startswith(f"analytic {analytic!r},")


def test_verify_c422_passes(capsys):
    code, out, _ = run(capsys, "verify", "c422", "--samples", "5000", "--seed", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "check,status,detail"
    statuses = {line.split(",")[1] for line in lines[1:]}
    assert statuses == {"PASS"}


def test_verify_one_sample_passes(capsys):
    # One sample lies exactly the predicted rms from each moment target.
    code, out, _ = run(capsys, "verify", "c422", "--samples", "1")
    assert code == 0, out
    assert "\nmean_projector_identity,PASS," in out
    assert "\nfourth_moment_identity,PASS," in out


VERIFY_CHECKS = [
    "self_orthogonal", "enum_properties", "min_distance",
    "macwilliams_forward", "macwilliams_roundtrip", "coset_sum_vs_polynomial",
    "moments_form", "projector_valid", "oracle_enumerators",
    "classification_agreement", "uniform_functional_mc",
    "composite_functional", "mean_projector_identity",
    "fourth_moment_identity",
]


def test_verify_times_go_to_stderr_only(capsys):
    code, out, err = run(capsys, "verify", "c422", "--samples", "2000")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "check,status,detail"
    assert [line.split(",")[0] for line in lines[1:]] == VERIFY_CHECKS
    assert all(len(line.split(",")) == 3 for line in lines)
    times = [line.split() for line in err.splitlines()
             if line.startswith("time ")]
    assert [t[1] for t in times] == VERIFY_CHECKS
    assert all(t[3] == "ms" and float(t[2]) >= 0 for t in times)


def test_verify_all_catalog_codes(capsys):
    for name in ("trivial-n1", "bell", "five13"):
        code, out, _ = run(capsys, "verify", name, "--samples", "4000",
                           "--seed", "1")
        assert code == 0, f"{name} failed:\n{out}"
        assert "\ncomposite_functional,PASS," in out


def test_verify_composite_row_follows_size_rule(tmp_path, capsys):
    # The composite row runs on every code within the oracle cap, this
    # [[6,2]] code (K = 4) included.
    g62 = tmp_path / "g62.code"
    g62.write_text("n=6 k=2\nXXXYXY\nXYYIII\nZZYZII\nIIYIZI\n")
    code, out, _ = run(capsys, "verify", str(g62), "--samples", "2000")
    assert code == 0, out
    assert "\ncomposite_functional,PASS," in out


def test_verify_mc_band_does_not_collapse(capsys):
    # With one state and one error drawn at a time, this seed drew few
    # undetected errors: the estimate lay 4.79 of its own (shrunken) stderrs
    # from the closed form, yet only 2.27 times the variance bound.
    code, out, _ = run(capsys, "verify", "five13", "--samples", "20000",
                       "--seed", "563333863")
    assert code == 0
    assert ",FAIL," not in out


def test_verify_mc_band_does_not_collapse_block_draws(tmp_path, capsys,
                                                      monkeypatch):
    # A [[7,2,2]] code (K = 4, 4^n K^2 = 2^18) whose undetected errors are
    # rare: one weight-2 logical operator.  Block draws of states and
    # errors once put this seed's estimate 8.58 of its own stderrs from the
    # closed form; both functionals are now closed forms, and both rows
    # compare them with the polynomials.
    c72 = tmp_path / "c72.code"
    c72.write_text("n=7 k=2\nZIZXYZX\nZXIZIZZ\nIIIXYXZ\nXIYZYIY\nIYYIXYZ\n")
    monkeypatch.setenv("QED_ORACLE_CAP", "7")
    code, out, _ = run(capsys, "verify", str(c72), "--samples", "10000",
                       "--seed", "562")
    assert code == 0
    assert "\nuniform_functional_mc,PASS,abs_err=" in out
    assert "\ncomposite_functional,PASS,abs_err=" in out
    c = parse_code(c72.read_text())
    est = pue_nonstab_mc(code_projector(c, cap=7), c.dim, 0.1, 10000,
                         seed=562, cap=7)
    target = pue_nonstabilizer(stabilizer_enumerators(c), 0.1)
    assert est.stderr == 0.0 and abs(est.estimate - target) <= 1e-12


def test_verify_large_code_space_passes_every_row(tmp_path, capsys,
                                                  monkeypatch):
    # A [[5,4]] code: K = 16, so the fourth moment runs on 256 x 256
    # matrices.  Then the [[8,3,3]] code, past the default cap of 6 qubits.
    cases = {"c54": ("n=5 k=4\nXZZXI\n", "6"),
             "c833": ("XXXXXXXX\nZZZZZZZZ\nIXIXYZYZ\nIXZYIXZY\nIYXZXZIY\n",
                      "8")}
    for name, (text, cap) in cases.items():
        monkeypatch.setenv("QED_ORACLE_CAP", cap)
        path = tmp_path / f"{name}.code"
        path.write_text(text)
        code, out, _ = run(capsys, "verify", str(path), "--samples", "2000")
        assert code == 0, (name, out)
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [r[0] for r in rows] == VERIFY_CHECKS, name
        assert {r[1] for r in rows} == {"PASS"}, (name, out)


def test_verify_zero_qubit_code(tmp_path, capsys):
    empty = tmp_path / "empty.code"
    empty.write_text("n=0 k=0\n")
    code, out, _ = run(capsys, "verify", str(empty), "--samples", "2000")
    assert code == 0, out
    assert ",FAIL," not in out


def test_verify_code_without_generators(tmp_path, capsys):
    # P = I on four qubits: K = 16, so the fourth-moment check runs on
    # 256 x 256 matrices.
    whole = tmp_path / "whole.code"
    whole.write_text("n=4 k=4\n")
    code, out, _ = run(capsys, "verify", str(whole))
    assert code == 0, out
    assert ",FAIL," not in out


def test_verify_oracle_cap_message(tmp_path, capsys):
    big = tmp_path / "big.code"
    big.write_text("X" * 8 + "\n")
    code, _, err = run(capsys, "verify", str(big))
    assert code == 1
    assert "oracle cap" in err


def test_verify_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("QED_ORACLE_CAP", "3")
    code, _, err = run(capsys, "verify", "c422")
    assert code == 1
    assert "oracle cap" in err and "QED_ORACLE_CAP" in err
    monkeypatch.setenv("QED_ORACLE_CAP", "4")
    code, _, _ = run(capsys, "verify", "c422", "--samples", "2000")
    assert code == 0


@pytest.mark.parametrize("value", ["abc", "-1", "", "4.5"],
                         ids=["word", "negative", "empty", "decimal"])
@pytest.mark.parametrize("argv", [
    ("verify", "c422", "--samples", "100"),
    ("simulate", "c422", "--p", "0.1", "--trials", "10"),
], ids=["verify", "simulate"])
def test_malformed_oracle_cap_exits_2_before_stdout(capsys, monkeypatch,
                                                     argv, value):
    monkeypatch.setenv("QED_ORACLE_CAP", value)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == ("error: QED_ORACLE_CAP must be an integer >= 0, "
                   f"not {value!r}\n")


@pytest.mark.parametrize("argv", [
    ("verify", "c422", "--samples", "0"),
    ("verify", "c422", "--seed", "-1"),
    ("simulate", "c422", "--p", "0.1", "--seed", "-1"),
    ("simulate", "c422", "--p", "0.1", "--trials", "0"),
    ("simulate", "c422", "--p", "0.1", "--trials", "-5"),
], ids=["verify-samples-0", "verify-seed-negative", "simulate-seed-negative",
        "simulate-trials-0", "simulate-trials-negative"])
def test_bad_numeric_option_exits_2_before_stdout(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert f"error: argument {argv[-2]}" in err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
