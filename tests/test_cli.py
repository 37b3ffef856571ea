import json
import subprocess
import sys

import pytest

from rc.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_telescope_emits_certificate(capsys):
    code, out, err = run_cli(
        capsys, "telescope", "--seq", "W", "--p", "8*k+9", "--window=-2..0", "--deg", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["seqA"] == doc["seqB"] == "W"
    assert doc["p"] == ["9", "8"]
    assert {(e["i"], e["j"]) for e in doc["g"]} == {(-2, -1), (-2, 0), (-1, -1), (-1, 0)}
    assert "S(k)" in err


def test_telescope_certify_round_trip(capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, _, _ = run_cli(
        capsys,
        "telescope",
        "--seq", "T",
        "--p", "k*(k+1)*(8*k+9)",
        "--window=-1..0",
        "--target-shifts", "0,1",
        "--deg", "4",
        "--out", str(path),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "certify", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["symbolic_ok"] and doc["numeric_ok"]


def test_telescope_not_found_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "telescope", "--seq", "W", "--p", "8*k+9", "--window=-2..0", "--deg", "1"
    )
    assert code == 1
    assert "no certificate" in err


def test_telescope_output_is_byte_identical(capsys):
    args = ("telescope", "--seq", "T", "--p", "(k+1)*(16*k+21)",
            "--window=-1..0", "--target-shifts", "0,1")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_verify_builtin_claim(capsys):
    code, out, err = run_cli(capsys, "verify", "--claim", "theorem-1.1i", "--range", "1..500")
    assert code == 0
    (doc,) = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["points_checked"] == 500
    assert "theorem-1.1i" in err


def test_verify_primes_range(capsys):
    code, out, _ = run_cli(capsys, "verify", "--claim", "theorem-1.2", "--primes", "5..300")
    assert code == 0
    (doc,) = json.loads(out)
    assert doc["verdict"] == "pass" and doc["points_checked"] == 60


def test_verify_corrupted_claim_fails_with_points(capsys, tmp_path):
    claims = {
        "claims": [
            {
                "id": "wrong-w-congruence",
                "description": "off by one on purpose",
                "lhs": {
                    "sum": {
                        "coeff": {"num": ["9", "8"], "den": ["1"]},
                        "factors": [
                            {"seq": {"name": "W", "shift": 0}},
                            {"seq": {"name": "W", "shift": 0}},
                        ],
                        "lo": 0,
                        "upper": "n-1",
                    }
                },
                "rhs": {"add": [{"var": "n"}, {"const": "1"}]},
                "modulus": {"mul": [{"const": "2"}, {"var": "n"}]},
                "domain": {"kind": "integers", "start": 1},
            }
        ]
    }
    path = tmp_path / "claims.json"
    path.write_text(json.dumps(claims))
    code, out, err = run_cli(capsys, "verify", "--claims-file", str(path), "--range", "1..20")
    assert code == 1
    (doc,) = json.loads(out)
    assert doc["verdict"] == "fail"
    assert doc["failures"][0]["n"] == 1
    assert "failed at n=" in err


def test_verify_every_builtin_by_default(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    docs = json.loads(out)
    assert len(docs) >= 16
    assert all(d["verdict"] == "pass" for d in docs)


def test_eval_terms(capsys):
    code, out, _ = run_cli(capsys, "eval", "--seq", "W", "--range=-2..4")
    assert code == 0
    doc = json.loads(out)
    assert doc["terms"] == ["0", "-1", "-1", "-1", "1", "5", "13"]


def test_unknown_sequence_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "eval", "--seq", "nope")
    assert code == 2
    assert "unknown sequence" in err


def test_unknown_claim_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--claim", "theorem-9.9")
    assert code == 2
    assert "unknown claim" in err


def test_malformed_polynomial_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "telescope", "--seq", "W", "--p", "8*k+", "--window=-2..0"
    )
    assert code == 2
    assert "position" in err


@pytest.mark.parametrize(
    "argv",
    [
        # the window does not match the recurrence order of W
        ("telescope", "--seq", "W", "--window=-3..0", "--p", "8*k+9"),
        ("telescope", "--seq", "W", "--window=-2..0", "--p", "0"),
        ("telescope", "--seq", "W", "--window=0..-1", "--p", "8*k+9"),
        # symmetric mode takes one window for both factors
        ("telescope", "--seq", "T", "--window=-1..0", "--window-b=0..1", "--p", "k+1"),
        ("discover", "--seq", "T", "--window=-1..0", "--window-b=0..1", "--p", "k+1"),
        ("discover", "--seq", "W", "--window=-3..0"),
        ("telescope", "--seq", "W", "--window=-2..0", "--p", "8*k+9", "--deg", "-1"),
        ("discover", "--seq", "W", "--window=-2..0", "--deg", "-1"),
        ("discover", "--seq", "W", "--window=-2..0", "--p-degree", "-1"),
    ],
)
def test_bad_solver_input_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        # W starts at index -2
        ("eval", "--seq", "W", "--range=-5..3"),
        # prime enumeration stops at 10^6
        ("verify", "--claim", "t-prime", "--primes", "5..2000000"),
        ("verify", "--claim", "t-prime", "--exclude", "foo"),
    ],
)
def test_bad_range_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_point_error_fails_only_that_point(capsys, tmp_path):
    n_minus_3 = {"sub": [{"var": "n"}, {"const": "3"}]}
    claim = {
        "id": "vanishing-divisor",
        "lhs": {"div": [{"mul": [{"var": "n"}, n_minus_3]}, n_minus_3]},
        "rhs": {"var": "n"},
        "modulus": {"const": "0"},
        "domain": {"kind": "integers", "start": 1},
    }
    path = tmp_path / "claims.json"
    path.write_text(json.dumps({"claims": [claim]}))
    code, out, err = run_cli(capsys, "verify", "--claims-file", str(path), "--range", "1..10")
    assert code == 1
    (doc,) = json.loads(out)
    assert doc["points_checked"] == 10
    assert doc["failures"] == [
        {"n": 3, "status": "fail", "reason": "ZeroDivisionError: division by zero in expression"}
    ]
    assert "Traceback" not in err and "failed at n=3" in err


def test_malformed_range_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "eval", "--seq", "W", "--range", "abc")
    assert code == 2
    assert "range" in err


def test_discover_cli(capsys):
    code, out, _ = run_cli(
        capsys,
        "discover",
        "--seq", "T",
        "--p", "k+1",
        "--p-degree", "1",
        "--window=-1..0",
        "--target-shifts", "0,1",
        "--deg", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["solutions"]
    assert doc["solution_coords"]


def test_jobs_flag_gives_same_report(capsys):
    _, seq_out, _ = run_cli(capsys, "verify", "--claim", "theorem-1.3i", "--range", "1..200")
    _, par_out, _ = run_cli(
        capsys, "verify", "--claim", "theorem-1.3i", "--range", "1..200", "--jobs", "4"
    )
    a, b = json.loads(seq_out)[0], json.loads(par_out)[0]
    assert a == b


def test_verify_output_is_byte_identical(capsys):
    args = ("verify", "--claim", "theorem-1.3ii", "--range", "2..1000")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("certify", {"seq_a": "W"}, "certificate lacks the field 'windows'"),
        ("verify", {"claims": [{"id": "x"}]}, "claims file lacks the field 'lhs'"),
        ("verify", {"claims": [{"id": "x", "lhs": {"bogus": 1}}]}, "malformed claims file: "),
        (
            "verify",
            {"claims": [{"id": "x", "lhs": {"var": "n"}, "rhs": {"var": "n"}, "modulus": {"const": "0"}}]},
            "claim 'x' has no default range; give --range or --primes",
        ),
    ],
)
def test_bad_document_is_usage_error(capsys, tmp_path, command, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = (command, str(path)) if command == "certify" else (command, "--claims-file", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: " + message) and err.count("\n") == 1


def test_internal_key_error_is_not_bad_input(monkeypatch):
    def broken(name):
        raise KeyError(name)

    monkeypatch.setattr("rc.cli.get_sequence", broken)
    with pytest.raises(KeyError):
        main(["eval", "--seq", "W"])


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "rc.cli", "eval", "--seq", "T", "--range", "0..5"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["terms"] == ["1", "1", "3", "7", "19", "51"]
