"""CLI surface: formats, exit codes, golden outputs, determinism."""

import hashlib
import json
import subprocess
import sys

import pytest

from gencosec import cli
from gencosec.cli import TABLE1_ROWS_MAX, ZETA_PRECISION_MAX, ZETA_V_MAX, main
from gencosec.coeffs import coefficient
from gencosec.exactnum import frac_to_str
from gencosec.partitions import partition_count
from gencosec.suites import suite_all


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table1_text_golden(capsys):
    code, out, _ = run(capsys, "table1", "--k", "4")
    assert code == 0
    assert out == (
        "partition  multiplicities  length\n"
        "{4}        4:1             1\n"
        "{3,1}      1:1 3:1         2\n"
        "{2,2}      2:2             2\n"
        "{2,1,1}    1:2 2:1         3\n"
        "{1,1,1,1}  1:4             4\n"
    )


def test_table1_json_has_eleven_rows_for_k6(capsys):
    code, out, _ = run(capsys, "table1", "--k", "6", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 11
    assert rows[3] == {
        "partition": "{4,1,1}",
        "multiplicities": {"1": 2, "4": 1},
        "length": 3,
    }


def test_table2_text_golden(capsys):
    code, out, _ = run(capsys, "table2", "--k-max", "2")
    assert code == 0
    assert out == (
        "k  coefficients\n"
        "0  1/1\n"
        "1  0/1 1/6\n"
        "2  0/1 1/180 1/72\n"
    )


def test_table2_verify_reports_known_misprint(capsys):
    code, out, err = run(capsys, "table2", "--k-max", "15", "--verify")
    assert code == 0
    assert "k=6 rho^2" in err
    assert "3327584" in err


def test_table3_csv(capsys):
    code, out, _ = run(capsys, "table3", "--rhos", "1000", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rho,k=6,k=8,k=10,k=12,k=15,notes"
    assert lines[1] == "1000,0.999999,0.999999,0.999999,0.999999,0.999999,"


def test_beta_table_alias(capsys):
    code_a, out_a, _ = run(capsys, "table3", "--rhos", "50", "--ks", "6")
    code_b, out_b, _ = run(capsys, "beta-table", "--rhos", "50", "--ks", "6")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_table4_golden(capsys):
    code, out, _ = run(capsys, "table4", "--ell-max", "2")
    assert code == 0
    assert out == (
        "ell  coefficients\n"
        "1    1/1\n"
        "2    -1/4 3/4\n"
    )


def test_cosec_row_and_value(capsys):
    code, out, _ = run(capsys, "cosec", "--k", "2")
    assert code == 0
    assert "0/1 1/180 1/72" in out
    code, out, _ = run(capsys, "cosec", "--k", "4", "--rho", "10")
    assert code == 0
    assert "128/315" in out


def test_cosec_rational_rho(capsys):
    code, out, _ = run(capsys, "cosec", "--k", "1", "--rho", "3/2", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["value"] == "1/4"


def test_secant_value(capsys):
    code, out, _ = run(capsys, "secant", "--k", "2", "--rho", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["value"] == "5/24"


# sha256 of row output, recorded while rows were still summed one
# partition at a time
ROW_DIGESTS = [
    (("cosec", "--k", "40", "--format", "json"),
     "1f1a98a2c4aaf76a8e4612fce7d2b0810485bbe4e378c208d21146856bba71b3"),
    (("secant", "--k", "40", "--format", "json"),
     "99325ba9bc50f8923a7a38a1e750ba647b4e5843092294a0cebf9ecf1fb03b20"),
    (("cosec", "--k", "0"),
     "dc9b84d2267604bef66c9ece15396aaa545e9955f40647e34ac04bc87c93a185"),
    (("secant", "--k", "25", "--rho=-3/7", "--format", "json"),
     "3a641e3cf5aafa07d76f8b26733e053a60ae168d58c2e653e395fe355549dbda"),
]


@pytest.mark.parametrize(("argv", "digest"), ROW_DIGESTS)
def test_row_output_bytes(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout, recorded while table1 still went through a validated
# partition type and verify dispatched a second time by suite name
PRODUCER_DIGESTS = [
    (("table1", "--k", "7", "--format", "json"),
     "949215e2c4abdc0d02b3c80232c942935ed4e4f663fa7426f758470c917d594b"),
    (("table1", "--k", "7", "--format", "csv"),
     "47595a72d1172198ea10a1ed388e65c461c875dac44a76e9fef7f9286093d27a"),
    (("table1", "--k", "0"),
     "22967e5f2593709eef2e2ba114518223d7ebf30c196ea90e546ded4d9608503a"),
    (("verify", "--suite", "all", "--format", "text"),
     "1964f614166efce568e95909861edf95aec87585325dbb24299f5241b4c5f414"),
    (("verify", "--suite", "hurwitz", "--v-max", "7", "--format", "csv"),
     "5b83bfbda32b36b3abfafdfac6e5cd3b2c98cea46c8e32ca8a4b379aba71ab80"),
]


@pytest.mark.parametrize(("argv", "digest"), PRODUCER_DIGESTS)
def test_producer_output_bytes(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_coeff_closed_triples(capsys):
    code, out, _ = run(capsys, "coeff-closed", "--k-max", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert {"k": 1, "ell": 0, "value": "1/6"} in rows
    assert all(set(r) == {"k", "ell", "value"} for r in rows)
    # ell beyond the four hand-written forms is derived, not clamped
    code, out, _ = run(
        capsys, "coeff-closed", "--k-max", "12", "--ell-max", "8", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert {r["ell"] for r in rows} == set(range(9))
    for r in rows:
        assert r["value"] == frac_to_str(coefficient(r["k"], r["k"] - r["ell"])), r


# sha256 of `coeff-closed --k-max 40` output, recorded while the closed
# forms for ell <= 4 were still written out by hand
COEFF_CLOSED_DIGESTS = [
    ((), "c0e9354de6559e68e6d06e6fc10b6ef8ecee1a516fe4711efc0a4ee9be8d0aa2"),
    (("--format", "json"), "e8c81a92fc050f781f31d01bd2c94646762e6f90f9f6046cb3beae1d68abff77"),
]


@pytest.mark.parametrize(("extra", "digest"), COEFF_CLOSED_DIGESTS)
def test_coeff_closed_output_bytes(capsys, extra, digest):
    code, out, _ = run(capsys, "coeff-closed", "--k-max", "40", *extra)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_json_and_exit_code(capsys):
    code, out, err = run(capsys, "verify", "--suite", "stirling")
    assert code == 0
    reports = json.loads(out)
    assert all(r["equal"] for r in reports)
    assert "0 failures" in err


def test_verify_json_is_one_indented_document(capsys):
    # about 20k encoder pieces, so the output is written in several batches
    code, out, _ = run(capsys, "verify", "--suite", "all")
    assert code == 0
    expected = [r.as_dict() for r in suite_all()]
    assert out == json.dumps(expected, indent=2) + "\n"


def test_verify_range_override(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "oracle", "--k-max", "5")
    assert code == 0
    reports = json.loads(out)
    # both series families, k = 0..5 each
    assert len(reports) == 12
    code, out, _ = run(capsys, "verify", "--suite", "hurwitz", "--v-max", "7")
    assert code == 0
    # m = 1..5, v = m+1..7
    assert len(json.loads(out)) == 20


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2


def test_zeta_subcommand(capsys):
    code, out, _ = run(
        capsys, "zeta", "--m", "2", "--v", "10", "--precision", "30", "--format", "json"
    )
    assert code == 0
    row = json.loads(out)[0]
    assert row["within_bounds"] is True
    assert row["estimate"].startswith("1.0819")


# sha256 of `zeta --m m --v v --precision 60 --format json`, recorded
# before riemann_limit moved to the power-sum route at every v
ZETA_DIGESTS = [
    ((1,10), "7c83844d94cb06fe77d7100443ae37a6d96cf489abc2327be5b82579965cb0a4"),
    ((3,30), "f8f04699dca89d6bf5e0ffb328f1c76ef01c7c2df72bd570aa251f0c2d3b32b7"),
    ((5,31), "90a0341514258559f9e76b77280bffcc80fd5513bf93a62ccfded8d2cee3dc43"),
    ((2,200), "8c0cc3e4691a62673cf92133d5cef372515322581df42954390dabefd1b2e5e1"),
]


@pytest.mark.parametrize(("mv", "digest"), ZETA_DIGESTS)
def test_zeta_output_bytes(capsys, mv, digest):
    m, v = mv
    code, out, _ = run(
        capsys, "zeta", "--m", str(m), "--v", str(v), "--precision", "60", "--format", "json"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the same at the benchmark's scale, "m,v,precision", recorded while
# harmonic_power_sum still added its terms one at a time
ZETA_DIGESTS_HP = [
    ("5,3000,2000", "02b480f9d372e7314885e97885a0ea7b6226cf5fe1a4099870880b16bf90f0dc"),
    ("1,1000,1000", "bef3604600390d92e7f9d0a5476b648791b5ea3c4a077f592901a17393b2e5c9"),
]


@pytest.mark.parametrize(("case", "digest"), ZETA_DIGESTS_HP)
def test_zeta_output_bytes_high_precision(capsys, case, digest):
    m, v, precision = case.split(",")
    code, out, _ = run(
        capsys, "zeta", "--m", m, "--v", v, "--precision", precision, "--format", "json"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    ("argv", "env_precision"),
    [
        (["cosec", "--k", "-1"], None),
        (["cosec", "--k", "3", "--rho", "abc"], None),
        (["table3", "--rhos", "0"], None),
        (["zeta", "--m", "1", "--v", "10"], "5"),
        (["table2", "--k-max", "-2"], None),
        (["zeta", "--m", "31", "--v", "40"], None),
        (["table1", "--k", "46"], None),
        (["table1", "--k", "100"], None),
        (["cosec", "--k", "101"], None),
        (["secant", "--k", "101", "--rho", "2"], None),
        (["table2", "--k-max", "101"], None),
        (["verify", "--suite", "oracle", "--k-max", "101"], None),
        (["verify", "--suite", "oracle", "--k-max", "0"], None),
        (["verify", "--suite", "oracle", "--k-max", "-3"], None),
        (["verify", "--suite", "hurwitz", "--v-max", "-1"], None),
        (["verify", "--suite", "nine", "--k-max", "3"], None),
        (["verify", "--suite", "all", "--k-max", "200"], None),
        (["table3", "--ks", "150", "--rhos", "10"], None),
        (["beta-table", "--ks", "101"], None),
        (["verify", "--suite", "c2v", "--v-max", "102"], None),
        (["coeff-closed", "--k-max", "12", "--ell-max", "11"], None),
        (["coeff-closed", "--k-max", "12", "--ell-max", "-1"], None),
        (["coeff-closed", "--k-max", "-3"], None),
        (["coeff-closed", "--k-max", "101"], None),
        (["verify", "--suite", "stirling", "--k-max", "50"], None),
        (["cosec", "--k", "3", "--rho", "1/0"], None),
        (["secant", "--k", "2", "--rho=5/0"], None),
        (["zeta", "--m", "30", "--v", "40", "--precision", "50"], None),
        (["zeta", "--m", "1", "--v", str(ZETA_V_MAX + 1)], None),
        (["zeta", "--m", "1", "--v", "10", "--precision", str(ZETA_PRECISION_MAX + 1)], None),
        (["zeta", "--m", "1", "--v", "10", "--precision", "29"], None),
        (["zeta", "--m", "1", "--v", "2"], None),
    ],
)
def test_bad_input_is_usage_error(capsys, monkeypatch, argv, env_precision):
    if env_precision is not None:
        monkeypatch.setenv("GENCOSEC_PRECISION", env_precision)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith("gencosec: error: ")


def test_zeta_caps_admit_the_benchmark_grid(capsys):
    # perfbench's zeta-hp draws v up to 3000 and precision up to 2000
    assert ZETA_V_MAX >= 3000 and ZETA_PRECISION_MAX >= 2000
    code, out, _ = run(capsys, "zeta", "--m", "5", "--v", "3000", "--precision", "30")
    assert code == 0 and "True" in out
    code, out, _ = run(capsys, "zeta", "--m", "1", "--v", str(ZETA_V_MAX), "--precision", "30")
    assert code == 0 and "True" in out


def test_precision_env_default(capsys, monkeypatch):
    monkeypatch.setenv("GENCOSEC_PRECISION", "33")
    code, out, _ = run(capsys, "zeta", "--m", "1", "--v", "10", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["precision"] == 33


def test_bad_rho_is_refused_before_the_row_is_built(capsys, monkeypatch):
    monkeypatch.setattr(cli, "gen_cosecant", lambda k: pytest.fail("row was built"))
    with pytest.raises(SystemExit) as exc:
        main(["cosec", "--k", "100", "--rho", "1/0"])
    assert exc.value.code == 2


def test_precision_env_is_read_only_by_zeta(capsys, monkeypatch):
    monkeypatch.setenv("GENCOSEC_PRECISION", "abc")
    code, out, _ = run(capsys, "cosec", "--k", "2")
    assert code == 0
    assert "1/180" in out


def test_bad_precision_env_is_usage_error_for_zeta(capsys, monkeypatch):
    monkeypatch.setenv("GENCOSEC_PRECISION", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["zeta", "--m", "1", "--v", "10"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--precision" in errors[0]


def test_table1_limit_admits_k45():
    assert partition_count(45) <= TABLE1_ROWS_MAX < partition_count(46)


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "row.txt"
    code, out, _ = run(capsys, "cosec", "--k", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert "1/180" in target.read_text()


def test_out_into_missing_directory_is_usage_error(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["cosec", "--k", "2", "--out", str(tmp_path / "missing" / "row.txt")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith("gencosec: error: ")


def test_out_directory_is_checked_before_the_work(capsys, monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(cli, "suite_all", lambda: calls.append("suite_all") or [])
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "all", "--out", str(tmp_path / "missing" / "all.json")])
    assert exc.value.code == 2
    assert calls == []
    # an existing file is not opened, so not truncated, by a refused command
    target = tmp_path / "kept.txt"
    target.write_text("kept\n")
    with pytest.raises(SystemExit):
        main(["cosec", "--k", "-1", "--out", str(target)])
    assert target.read_text() == "kept\n"


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gencosec.cli", "cosec", "--k", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "1/180" in proc.stdout


def test_deterministic_output(capsys):
    first = run(capsys, "verify", "--suite", "nine")
    second = run(capsys, "verify", "--suite", "nine")
    assert first == second
