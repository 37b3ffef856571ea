import copy
import functools
import hashlib
import io
import json
import resource
import runpy
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from rc.cli import main
from rc.exactmath import MAX_ECHO
from rc.sequences import get_sequence, sequence_to_json

ROOT = Path(__file__).resolve().parent.parent


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


W_GOLDEN = ROOT / "perfbench" / "golden" / "cert_W_8k9_win-2..0.json"


def test_one_target_shift_means_a_second_shift_of_zero(capsys):
    args = ("telescope", "--seq", "W", "--p", "8*k+9", "--window=-2..0", "--target-shifts")
    for shifts in ("0", "0,0"):
        code, out, _ = run_cli(capsys, *args, shifts)
        assert code == 0 and out == W_GOLDEN.read_text(), shifts


def test_certify_reads_a_certificate_from_stdin(capsys, monkeypatch):
    _, want, _ = run_cli(capsys, "certify", str(W_GOLDEN))
    monkeypatch.setattr(sys, "stdin", io.StringIO(W_GOLDEN.read_text()))
    code, out, _ = run_cli(capsys, "certify", "-")
    assert code == 0 and out == want


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


def test_verify_excluded_points_and_primes_of_an_integer_claim(capsys):
    # --exclude drops 7 and 11 from the 13 primes of 5..50; --primes moves a
    # claim over the integers onto the primes of its range
    for argv, points in [
        (("--claim", "t-prime", "--primes", "5..50"), 13),
        (("--claim", "t-prime", "--primes", "5..50", "--exclude", "7,11"), 11),
        (("--claim", "t-difference", "--primes", "2..30"), 10),
    ]:
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 0, argv
        (doc,) = json.loads(out)
        assert doc["verdict"] == "pass" and doc["points_checked"] == points, argv


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


def test_eval_prints_a_term_of_more_than_4300_digits_in_full(capsys):
    code, out, err = run_cli(capsys, "eval", "--seq", "W", "--range", "10000..10000")
    assert code == 0 and err == ""
    (term,) = json.loads(out)["terms"]
    assert len(term) > 4300 and term == str(get_sequence("W").term(10000))


def test_eval_streams_past_the_memo(capsys, monkeypatch):
    # the terms above the memo top are stepped through a window, so the memo
    # keeps only its initial terms
    w = get_sequence("W")
    monkeypatch.setattr(w, "_memo", w._memo[: len(w.initial)])
    code, out, _ = run_cli(capsys, "eval", "--seq", "W", "--range=-1..300")
    assert code == 0 and len(w._memo) == len(w.initial)
    assert json.loads(out)["terms"] == [str(w.term(i)) for i in range(-1, 301)]


def test_a_failure_with_a_huge_difference_is_reported_in_full(capsys, tmp_path):
    w = {"seq": "W", "shift": 0}
    claim = {
        "id": "seven-w-squared-plus-one",
        "lhs": {"add": [{"mul": [{"const": "7"}, w, w]}, {"const": "1"}]},
        "rhs": {"const": "0"},
        "modulus": {"const": "7"},
        "domain": {"kind": "integers", "start": 1},
    }
    path = tmp_path / "claims.json"
    path.write_text(json.dumps({"claims": [claim]}))
    code, out, err = run_cli(capsys, "verify", "--claims-file", str(path), "--range", "9000..9000")
    assert code == 1
    (fail,) = json.loads(out)[0]["failures"]
    lhs = str(7 * get_sequence("W").term(9000) ** 2 + 1)
    assert len(lhs) > 4300
    assert fail == {
        "n": 9000,
        "status": "fail",
        "lhs": lhs,
        "rhs": "0",
        "modulus": "7",
        "reason": f"difference {lhs} != 0 mod 7",
    }
    assert "Traceback" not in err and "failed at n=9000" in err


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
    assert err == "error: bad polynomial '8*k+': unexpected end of input at position 4\n"


@pytest.mark.parametrize(
    "p, message",
    [
        # refused before the power or product is computed
        ("k^100000000", "exponent 100000000 above 100 at position 1"),
        ("k**101", "exponent 101 above 100 at position 1"),
        ("(k^60)*(k+1)^41", "degree 101 above 100 at position 6"),
        ("(k^2+1)^51", "degree 102 above 100 at position 7"),
        ("((2^100)^100)^100", "coefficients of more than 65536 bits at position 13"),
        ("k+" + "7" * 5000, "an integer of more than 4300 digits at position 2"),
    ],
)
def test_oversized_polynomial_is_usage_error(capsys, p, message):
    code, out, err = run_cli(capsys, "telescope", "--seq", "W", "--p", p, "--window=-2..0")
    assert code == 2
    assert out == ""
    # the text is echoed as its repr, cut after MAX_ECHO characters
    echo = repr(p) if len(repr(p)) <= MAX_ECHO else repr(p)[:MAX_ECHO] + "..."
    assert err == f"error: bad polynomial {echo}: {message}\n"


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
        # degree bounds above the cap are rejected before any system is built
        ("telescope", "--seq", "W", "--p", "k", "--window=-2..0", "--deg", "100000000000"),
        ("discover", "--seq", "T", "--p", "k+1", "--window=-1..0", "--p-degree", "999999999999"),
        ("discover", "--seq", "T", "--p", "k+1", "--window=-1..0", "--deg", "101"),
        # so are target shifts farther outside their window than the shift cap
        ("telescope", "--seq", "T", "--window=-1..0", "--p", "k", "--target-shifts=0,17", "--deg", "1"),
        ("telescope", "--seq", "T", "--window=-1..0", "--p", "k", "--target-shifts=0,100000"),
        ("telescope", "--seq", "T", "--window=-1..0", "--p", "k", "--target-shifts=-50,0"),
        ("telescope", "--seq", "W", "--window=-2..0", "--p", "k", "--target-shifts=-19,0"),
        ("discover", "--seq", "T", "--window=-1..0", "--target-shifts=0,24", "--deg", "1"),
        ("discover", "--seq", "W", "--window=-2..0", "--target-shifts=100000,0"),
        # so is a window farther from 0 than the window offset cap, before any
        # term is read
        ("telescope", "--seq", "W", "--window=100000..100002", "--p", "k", "--target-shifts=100000,100000"),
        ("telescope", "--seq", "W", "--window=-67..-65", "--p", "k", "--target-shifts=-66,-66"),
        ("discover", "--seq", "T", "--window=-1..0", "--seq-b=W", "--window-b=63..65", "--target-shifts=0,64"),
        # and a system with more entries than the size cap, before any row is built
        ("telescope", "--seq", "W", "--window=-2..0", "--p", "k^3+1", "--deg", "100", "--target-shifts=8,0"),
        ("telescope", "--seq", "W", "--window=-2..0", "--p", "k^3+1", "--deg", "100", "--target-shifts=16,0"),
        ("discover", "--seq", "T", "--window=-1..0", "--p-degree", "100", "--deg", "100"),
        # a zero fixed factor makes every weight zero
        ("discover", "--seq", "W", "--window=-2..0", "--p", "0"),
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
        # a reversed range is bad input; a range without domain points is not
        ("verify", "--claim", "t-prime", "--range", "5..1"),
        ("verify", "--claim", "t-prime", "--primes", "1..-5"),
        # certify checks S(n) - S(0) at n = 1..N, so any other range is bad input
        ("certify", "{cert}", "--range", "50..60"),
        ("certify", "{cert}", "--range=-100..-90"),
        # a top above 10^6 is refused as the range is parsed, before any term is read
        ("eval", "--seq", "W", "--range", "0..1000001"),
        ("eval", "--seq", "T", "--range", "0..1000000000000000000"),
        ("certify", "{cert}", "--range", "1..1000001"),
        ("verify", "--claim", "t-difference", "--range", "2..1000001"),
        ("verify", "--claim", "theorem-1.1i", "--range", "1..1000000000000"),
        # --range and --primes exclude each other
        ("verify", "--claim", "theorem-1.1i", "--range", "1..3", "--primes", "2..5"),
    ],
)
def test_bad_range_is_usage_error(capsys, tmp_path, argv):
    cert = tmp_path / "cert.json"  # {cert}: a file holding W_CERT
    cert.write_text(json.dumps(W_CERT))
    code, out, err = run_cli(capsys, *(a.format(cert=cert) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        # a directory where a file is read or written
        ("verify", "--claims-file", "{dir}"),
        ("certify", "{dir}"),
        ("eval", "--seq", "T", "--range", "0..5", "--out", "{dir}"),
        ("verify", "--claim", "t-prime", "--primes", "5..50", "--out", "{dir}"),
        # a claims file or certificate that is not UTF-8
        ("verify", "--claims-file", "{latin1}"),
        ("certify", "{latin1}"),
    ],
)
def test_unreadable_file_is_usage_error(capsys, tmp_path, argv):
    latin1 = tmp_path / "latin1.json"  # {latin1}: a JSON document with a Latin-1 byte
    latin1.write_bytes(b'{"claims": [], "note": "\xe9"}')
    code, out, err = run_cli(capsys, *(a.format(dir=tmp_path, latin1=latin1) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _nested_claims(depth):
    # n inside depth sums of one term, written as text: json.dumps itself
    # recurses once per level
    lhs = '{"add": [' * depth + '{"var": "n"}' + "]}" * depth
    return (
        '{"claims": [{"id": "deep", "lhs": ' + lhs + ', "rhs": {"var": "n"}, '
        '"modulus": {"const": "0"}, "domain": {"kind": "integers", "start": 1}}]}'
    )


@pytest.mark.parametrize(
    "argv, text",
    [
        # past the expression depth cap, refused before the claim is compiled
        (("verify", "--claims-file", "{doc}", "--range", "1..3"), _nested_claims(400)),
        # too deep for the JSON parser
        (("verify", "--claims-file", "{doc}", "--range", "1..3"), _nested_claims(5000)),
        (("certify", "{doc}"), "[" * 5000),
        # polynomial text past the nesting cap, refused as it is parsed
        (("telescope", "--seq", "W", "--window=-2..0", "--p", "(" * 3000 + "k" + ")" * 3000), ""),
        (("discover", "--seq", "W", "--window=-2..0", "--p=" + "-" * 5000 + "k"), ""),
    ],
    ids=["claims-400", "claims-5000", "certificate-5000", "parentheses-3000", "minus-signs-5000"],
)
def test_deeply_nested_input_is_usage_error(capsys, tmp_path, argv, text):
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    code, out, err = run_cli(capsys, *(a.format(doc=doc) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


NINES = "9" * 5000


@pytest.mark.parametrize(
    "argv, shown",
    [
        (("eval", "--seq", "W", "--range", "1.." + NINES), "ends above 10^6"),
        (("eval", "--seq", "W", "--range", NINES + "..1"), "is reversed"),
        (("eval", "--seq", "W", "--range", "1.." + "x" * 5000), "expected a range"),
        (("telescope", "--seq", "W", "--window=-2.." + NINES, "--p", "k"), "ends above 10^6"),
        (("verify", "--claim", "t-prime", "--exclude", "7," * 3000 + "x"), "comma-separated points"),
        (("telescope", "--seq", "T", "--window=-1..0", "--p", "k", "--target-shifts=0," + NINES + "x"),
         "target shifts"),
        (("telescope", "--seq", "W", "--window=-2..0", "--p", "(" * 3000 + "k" + ")" * 3000),
         "nested more than 32 deep at position 32"),
        (("verify", "--claim", "x" * 5000), "unknown claim"),
        (("eval", "--seq", "x" * 5000), "unknown sequence"),
        (("telescope", "--seq", "W", "--window=-2..0", "--p", "k", "--deg", "x" * 5000),
         "argument --deg: invalid int value"),
        (("telescope", "--seq", "W", "--window=-2..0", "--p", "k", "--deg", NINES), "--deg must be in 0..100"),
        (("discover", "--seq", "W", "--window=-2..0", "--p-degree=-" + NINES), "--p-degree must be in 0..100"),
    ],
    ids=[
        "range-top", "range-reversed", "range-text", "window-top", "exclude", "target-shifts", "p-parentheses",
        "claim-id", "seq-name", "deg-text", "deg-digits", "p-degree-digits",
    ],
)
def test_long_arguments_are_echoed_in_part(capsys, argv, shown):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and shown in err
    assert len(err.encode()) < 200 and "..." in err and "Traceback" not in err


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


def test_verify_output_is_byte_identical(capsys):
    args = ("verify", "--claim", "theorem-1.3ii", "--range", "2..1000")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


# the (8k+9) W(k)^2 certificate over the window -2..0
W_CERT = {
    "seqA": "W",
    "seqB": "W",
    "windows": {"a": [-2, 0], "b": [-2, 0]},
    "target_shifts": [0, 0],
    "symmetric": True,
    "p": ["9", "8"],
    "g": [
        {"i": -2, "j": -1, "poly": ["0", "-9/2", "9/2"]},
        {"i": -2, "j": 0, "poly": ["0", "3/2", "-3/2"]},
        {"i": -1, "j": -1, "poly": ["0", "21/2", "-3/2"]},
        {"i": -1, "j": 0, "poly": ["0", "-1/2", "1/2"]},
    ],
}


def _with_seq_factor_in_direct():
    seq = sequence_to_json(get_sequence("T"))
    seq["name"] = "T2"
    seq["direct"]["factors"].append({"seq": {"name": "W", "shift": 0}})
    return {"sequences": [seq], "claims": []}


_N_EQUALS_N = {"id": "x", "lhs": {"var": "n"}, "rhs": {"var": "n"}, "modulus": {"const": "0"}}
_ONE_AS_Q = {**sequence_to_json(get_sequence("one")), "name": "Q"}
_T2_WITH_W_DIRECT = {
    **sequence_to_json(get_sequence("T")),
    "name": "T2",
    "direct": sequence_to_json(get_sequence("W"))["direct"],
}


def _claim_with_sum(factors, lo=0):
    """n = n, with the sum of the factors over k = lo..n as its lhs."""
    spec = {"coeff": {"num": ["1"], "den": ["1"]}, "factors": factors, "lo": lo, "upper": "n"}
    return {"claims": [{**_N_EQUALS_N, "lhs": {"sum": spec}}]}


# an affine argument of a sum factor is a JSON list of exactly three integers
_BAD_AFFINES = [
    (_claim_with_sum([{"binom": {"top": [1, 0], "bottom": [0, 1, 0]}}]),
     "a binomial's top must be a list of three integers, got [1, 0]"),
    (_claim_with_sum([{"binom": {"top": [0, 1, 0], "bottom": [1, 0, 0, 0]}}]),
     "a binomial's bottom must be a list of three integers, got [1, 0, 0, 0]"),
    (_claim_with_sum([{"geom": {"base": 2, "exp": "n"}}]),
     "a geometric exp must be a list of three integers, got 'n'"),
]

# every expression node is a JSON object with one key, its kind (a seq node
# may add its shift), and a two-operand node takes a list of two
_BAD_NODES = [
    ({"legendre": [1, 2, 3]}, "the operands of legendre must be a list of two, got [1, 2, 3]"),
    ({"binom": ["n", "1", "2"]}, "the operands of binom must be a list of two, got ['n', '1', '2']"),
    ({"sub": [{"var": "n"}]}, "the operands of sub must be a list of two, got [{'var': 'n'}]"),
    ({"div": {"a": {"var": "n"}}}, "the operands of div must be a list of two, got {'a': {'var': 'n'}}"),
    ({"add": "ab"}, "the operands of add must be a list, got 'ab'"),
    ({"add": ["var", "var"]}, "an expression node must be a JSON object, got 'var'"),
    ({"var": "m"}, "the only variable is 'n', got 'm'"),
    ("n", "an expression node must be a JSON object, got 'n'"),
    ({"mul": [{"var": "n"}, 3]}, "an expression node must be a JSON object, got 3"),
    ({"var": "n", "const": "1"}, "an expression node must have exactly one key, got {'var': 'n', 'const': '1'}"),
    ({}, "an expression node must have exactly one key, got {}"),
    ({"seq": "W", "shift": 0, "x": 1}, "an expression node must have exactly one key, got {'seq': 'W', 'shift': 0, 'x': 1}"),
    ({"const": "1", "shift": 0}, "an expression node must have exactly one key, got {'const': '1', 'shift': 0}"),
]


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
        (
            "certify",
            {**W_CERT, "windows": {"a": [-1, 0], "b": [-1, 0]}, "g": []},
            "window -1..0 does not match recurrence order 3",
        ),
        (
            "certify",
            {**W_CERT, "g": W_CERT["g"] + [{"i": 0, "j": 1, "poly": ["1"]}]},
            "certificate has g entries outside its windows: [(0, 1)]",
        ),
        (
            "certify",
            {**W_CERT, "target_shifts": [0, 0, 0]},
            "malformed certificate: target_shifts must hold two shifts, got 3",
        ),
        (
            "verify",
            _with_seq_factor_in_direct(),
            "malformed claims file: a direct formula takes no seq factors",
        ),
        (
            "verify",
            {"claims": [{**_N_EQUALS_N, "lhs": {"seq": {"name": "Q", "shift": 0}}}]},
            "malformed claims file: a sequence name must be a string, got {'name': 'Q', 'shift': 0}",
        ),
        (
            "verify",
            {"sequences": [_ONE_AS_Q, _ONE_AS_Q], "claims": []},
            "malformed claims file: the sequence 'Q' is defined twice",
        ),
        (
            "verify",
            {"claims": [{**_N_EQUALS_N, "lhs": {"seq": "Q"}}]},
            "unknown sequence 'Q'",
        ),
        (
            "verify",
            {"claims": [{**_N_EQUALS_N, "id": False}]},
            "malformed claims file: a claim id must be a string, got False",
        ),
        ("verify", {"claims": [{**_N_EQUALS_N, "lhs": {"const": "1/0"}}]}, "malformed claims file: "),
        (
            "verify",
            {"claims": [{**_N_EQUALS_N, "domain": {"kind": "prime"}}]},
            "malformed claims file: a domain kind must be 'integers' or 'primes', got 'prime'\n",
        ),
        (
            "verify",
            {"claims": [{**_N_EQUALS_N, "domain": {"kind": None}}]},
            "malformed claims file: a domain kind must be 'integers' or 'primes', got None\n",
        ),
        (
            "verify",
            {"claims": [{**_N_EQUALS_N, "domain": {"kind": "primes", "parity": "even"}}]},
            "malformed claims file: a domain parity must be 'odd' or absent, got 'even'\n",
        ),
        (
            "verify",
            {"claims": [{**_N_EQUALS_N, "domain": {"parity": 1}}]},
            "malformed claims file: a domain parity must be 'odd' or absent, got 1\n",
        ),
        (
            "certify",
            {**W_CERT, "target_shifts": [0, 60]},
            "target shift 60 lies more than 16 outside the window -2..0\n",
        ),
        # list fields are lists: a string is not split into its characters
        (
            "verify",
            {"claims": [{**_N_EQUALS_N, "notes": "one note"}]},
            "malformed claims file: notes must be a list of strings, got 'one note'\n",
        ),
        (
            "verify",
            {"claims": [{**_N_EQUALS_N, "notes": ["fine", 7]}]},
            "malformed claims file: notes must be a list of strings, got ['fine', 7]\n",
        ),
        (
            "verify",
            {"claims": [{**_N_EQUALS_N, "flag_points": "12"}]},
            "malformed claims file: flag_points must be a list of integers, got '12'\n",
        ),
        (
            "verify",
            {"claims": [{**_N_EQUALS_N, "flag_points": [3, True]}]},
            "malformed claims file: flag_points must be a list of integers, got [3, True]\n",
        ),
        (
            "verify",
            {"claims": [{**_N_EQUALS_N, "domain": {"exclude": "34"}}]},
            "malformed claims file: a domain exclude must be a list of integers, got '34'\n",
        ),
        (
            "verify",
            {"claims": [{**_N_EQUALS_N, "domain": {"exclude": [3.0]}}]},
            "malformed claims file: a domain exclude must be a list of integers, got [3.0]\n",
        ),
        # a window farther from 0 than the window offset cap, before any term is read
        (
            "certify",
            {**W_CERT, "windows": {"a": [100000, 100002], "b": [-2, 0]}},
            "malformed certificate: the window 100000..100002 lies more than 64 from 0\n",
        ),
        (
            "certify",
            {**W_CERT, "windows": {"a": [-2, 0], "b": [-67, -65]}},
            "malformed certificate: the window -67..-65 lies more than 64 from 0\n",
        ),
        # an integer field takes a JSON integer only: no float, bool or string
        (
            "certify",
            {**W_CERT, "target_shifts": [0, 0.9]},
            "malformed certificate: a target shift must be an integer, got 0.9\n",
        ),
        (
            "certify",
            {**W_CERT, "windows": {"a": [-2, 0], "b": [-2.0, 0]}},
            "malformed certificate: a window bound must be an integer, got -2.0\n",
        ),
        (
            "certify",
            {**W_CERT, "g": [{**W_CERT["g"][0], "i": True}]},
            "malformed certificate: a g index must be an integer, got True\n",
        ),
        (
            "certify",
            {**W_CERT, "g": [{**W_CERT["g"][0], "j": "0"}]},
            "malformed certificate: a g index must be an integer, got '0'\n",
        ),
        (
            "verify",
            _claim_with_sum([], lo=0.5),
            "malformed claims file: a sum's lo must be an integer, got 0.5\n",
        ),
        (
            "verify",
            {"claims": [{**_N_EQUALS_N, "lhs": {"seq": "W", "shift": True}}]},
            "malformed claims file: a seq shift must be an integer, got True\n",
        ),
        (
            "verify",
            _claim_with_sum([{"seq": {"name": "W", "shift": 1.5}}]),
            "malformed claims file: a seq shift must be an integer, got 1.5\n",
        ),
        (
            "verify",
            {"claims": [{**_N_EQUALS_N, "lhs": {"pow": {"base": "2", "exp": "n"}}}]},
            "malformed claims file: a pow base must be an integer, got '2'\n",
        ),
        (
            "verify",
            _claim_with_sum([{"geom": {"base": 2.0, "exp": [0, 1, 0]}}]),
            "malformed claims file: a geom base must be an integer, got 2.0\n",
        ),
        (
            "verify",
            _claim_with_sum([{"binom": {"top": [0, 1, 0.5], "bottom": [0, 1, 0]}}]),
            "malformed claims file: an affine coefficient must be an integer, got 0.5\n",
        ),
        *(("verify", doc, f"malformed claims file: {message}\n") for doc, message in _BAD_AFFINES),
        (
            "verify",
            {"claims": [{**_N_EQUALS_N, "domain": {"start": 4.7}}]},
            "malformed claims file: a domain start must be an integer, got 4.7\n",
        ),
        # a rational or an initial value is a JSON string: no number or bool
        (
            "verify",
            {"claims": [{**_N_EQUALS_N, "lhs": {"const": 0.5}, "rhs": {"const": "1/2"}}]},
            "malformed claims file: a const must be a string, got 0.5\n",
        ),
        (
            "verify",
            {"claims": [{**_N_EQUALS_N, "lhs": {"const": True}, "rhs": {"const": "1"}}]},
            "malformed claims file: a const must be a string, got True\n",
        ),
        (
            "certify",
            {**W_CERT, "p": [9, 8.0]},
            "malformed certificate: a polynomial coefficient must be a string, got 9\n",
        ),
        (
            "verify",
            {"sequences": [{**_ONE_AS_Q, "recurrence": {"coeffs": [["-1"], [1]]}}], "claims": []},
            "malformed claims file: a polynomial coefficient must be a string, got 1\n",
        ),
        (
            "verify",
            {"sequences": [{**_ONE_AS_Q, "initial": {"0": True}}], "claims": []},
            "malformed claims file: an initial value must be a string, got True\n",
        ),
        (
            "verify",
            {"sequences": [{**_ONE_AS_Q, "initial": {"0": 1.5}}], "claims": []},
            "malformed claims file: an initial value must be a string, got 1.5\n",
        ),
        # a polynomial is a JSON list, never a string read digit by digit
        (
            "certify",
            {**W_CERT, "p": "98"},
            "malformed certificate: a polynomial must be a list of coefficient strings, got '98'\n",
        ),
        (
            "verify",
            {"sequences": [{**_ONE_AS_Q, "recurrence": {"coeffs": ["-1", ["1"]]}}], "claims": []},
            "malformed claims file: a polynomial must be a list of coefficient strings, got '-1'\n",
        ),
        # symmetric is a JSON boolean
        (
            "certify",
            {**W_CERT, "symmetric": "false"},
            "malformed certificate: symmetric must be true or false, got 'false'\n",
        ),
        (
            "certify",
            {**W_CERT, "symmetric": 0},
            "malformed certificate: symmetric must be true or false, got 0\n",
        ),
        # an error whose message cannot name its field ends with the field's path
        (
            "verify",
            {"claims": [_N_EQUALS_N, {**_N_EQUALS_N, "lhs": {"seq": {"name": "Q", "shift": 0}}}]},
            "malformed claims file: a sequence name must be a string, got {'name': 'Q', 'shift': 0}"
            " (at claims[1].lhs)\n",
        ),
        (
            "verify",
            {"sequences": [{**_ONE_AS_Q, "recurrence": [["1"], ["x"]]}], "claims": []},
            "malformed claims file: a value of the wrong JSON type (at sequences[0].recurrence)\n",
        ),
        (
            "verify",
            {"sequences": [{**_ONE_AS_Q, "recurrence": {"coeffs": [["1"]]}}], "claims": []},
            "malformed claims file: a recurrence needs order >= 1 (at sequences[0].recurrence)\n",
        ),
        (
            "verify",
            {"claims": [{**_N_EQUALS_N, "rhs": {"bogus": 1}}]},
            "malformed claims file: unknown expression node {'bogus': 1} (at claims[0].rhs)\n",
        ),
        (
            "verify",
            {"claims": [{**_N_EQUALS_N, "modulus": {"sum": 5}}]},
            "malformed claims file: a value of the wrong JSON type (at claims[0].modulus)\n",
        ),
        (
            "verify",
            {"claims": [{**_N_EQUALS_N, "domain": 5}]},
            "malformed claims file: a value of the wrong JSON type (at claims[0].domain)\n",
        ),
        (
            "verify",
            _claim_with_sum([{"seq": {"name": "Q"}}]),
            "unknown sequence 'Q' (at claims[0].lhs)\n",
        ),
        (
            "certify",
            {**W_CERT, "g": W_CERT["g"][:2] + [{"i": -1, "j": -1}]},
            "certificate lacks the field 'poly' (at g[2])\n",
        ),
        (
            "certify",
            {**W_CERT, "g": [W_CERT["g"][0], ["0", "1"]]},
            "malformed certificate: a value of the wrong JSON type (at g[1])\n",
        ),
        ("certify", {**W_CERT, "seqB": "Q"}, "unknown sequence 'Q' (at seqB)\n"),
        *(
            ("verify", {"claims": [_N_EQUALS_N, {**_N_EQUALS_N, "lhs": lhs}]},
             f"malformed claims file: {message} (at claims[1].lhs)\n")
            for lhs, message in _BAD_NODES
        ),
        # two reports under one id could not be told apart
        ("verify", {"claims": [_N_EQUALS_N, _N_EQUALS_N]}, "malformed claims file: the claim 'x' is defined twice\n"),
        # a polynomial has at most MAX_DEGREE + 1 coefficients, as in polynomial text
        (
            "verify",
            {"claims": [{**_N_EQUALS_N, "lhs": {"sum": {"coeff": {"num": ["1"] * 301, "den": ["1"]}, "upper": "n"}}}]},
            "malformed claims file: a polynomial has more than 101 coefficients (at claims[0].lhs)\n",
        ),
        (
            "verify",
            {"sequences": [{**_ONE_AS_Q, "recurrence": {"coeffs": [["-1"], ["1"] * 102]}}], "claims": []},
            "malformed claims file: a polynomial has more than 101 coefficients (at sequences[0].recurrence)\n",
        ),
        (
            "certify",
            {**W_CERT, "p": ["1"] * 102},
            "malformed certificate: a polynomial has more than 101 coefficients (at p)\n",
        ),
        (
            "certify",
            {**W_CERT, "g": [{"i": -2, "j": -1, "poly": ["1"] * 102}]},
            "malformed certificate: a polynomial has more than 101 coefficients (at g[0])\n",
        ),
        # a file sequence's direct formula agrees with its recurrence, at the
        # initial data and the terms stepped just past it
        (
            "verify",
            {"sequences": [_T2_WITH_W_DIRECT], "claims": []},
            "malformed claims file: the direct formula of the sequence 'T2' disagrees with its recurrence at n = 0\n",
        ),
        (
            "verify",
            {"sequences": [{**_ONE_AS_Q, "recurrence": {"coeffs": [["-2"], ["1"]]}}], "claims": []},
            "malformed claims file: the direct formula of the sequence 'Q' disagrees with its recurrence at n = 1\n",
        ),
        (
            "verify",
            {"sequences": [{**_ONE_AS_Q, "direct": {**_ONE_AS_Q["direct"], "coeff": {"num": ["1"], "den": ["0", "1"]}}}],
             "claims": []},
            "malformed claims file: the direct formula of the sequence 'Q' fails at n = 0: denominator vanishes at 0\n",
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


_DIGITS = "1" + "0" * 4999  # 5000 digits, one past CPython's default limit of 4300


@pytest.mark.parametrize(
    "command, doc, old, new, message",
    [
        # JSON integers are refused as they are read, strings before they are read
        ("certify", W_CERT, '"target_shifts": [0, 0]', f'"target_shifts": [{_DIGITS}, 0]',
         "invalid JSON input: an integer of more than 4300 digits"),
        ("certify", W_CERT, '"p": ["9", "8"]', f'"p": ["9", "{_DIGITS}/3"]',
         "malformed certificate: a polynomial coefficient has more than 4300 digits"),
        ("certify", W_CERT, '"p": ["9", "8"]', '"p": ["9", "1e999999999"]',
         "malformed certificate: a polynomial coefficient must not have an exponent"),
        ("verify", {"claims": [_N_EQUALS_N]}, '"id": "x"', f'"id": "x", "flag_points": [{_DIGITS}]',
         "invalid JSON input: an integer of more than 4300 digits"),
        ("verify", {"claims": [_N_EQUALS_N]}, '"const": "0"', f'"const": "-{_DIGITS}"',
         "malformed claims file: a const has more than 4300 digits"),
        ("verify", {"sequences": [_ONE_AS_Q], "claims": []}, '"initial": {"0"', f'"initial": {{"{_DIGITS}"',
         "malformed claims file: an initial index has more than 4300 digits"),
        ("verify", _claim_with_sum([]), '"upper": "n"', f'"upper": "n+{_DIGITS}"',
         "malformed claims file: a bound has more than 4300 digits"),
    ],
)
def test_long_number_literals_are_usage_errors(capsys, tmp_path, command, doc, old, new, message):
    text = json.dumps(doc)
    assert text.count(old) == 1
    path = tmp_path / "doc.json"
    path.write_text(text.replace(old, new))
    argv = (command, str(path)) if command == "certify" else (command, "--claims-file", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


_LONG = "x" * 5000


def _sum_of(factors):
    return {"sum": {"coeff": {"num": ["1"], "den": ["1"]}, "factors": factors, "upper": "n"}}


@pytest.mark.parametrize(
    "command, doc, shown",
    [
        ("verify", {"claims": [{**_N_EQUALS_N, "lhs": {"seq": {"name": _LONG}}}]},
         "a sequence name must be a string"),
        ("verify", {"claims": [{**_N_EQUALS_N, "lhs": {"seq": _LONG}}]}, "unknown sequence"),
        ("verify", {"claims": [{**_N_EQUALS_N, "lhs": _sum_of([{"seq": {"name": _LONG}}])}]}, "unknown sequence"),
        ("verify", {"claims": [{**_N_EQUALS_N, "lhs": {_LONG: 1}}]}, "unknown expression node"),
        ("verify", {"claims": [{**_N_EQUALS_N, "domain": {"kind": _LONG}}]}, "a domain kind must be"),
        ("verify", {"claims": [{**_N_EQUALS_N, "domain": {"parity": _LONG}}]}, "a domain parity must be"),
        ("verify", {"claims": [{**_N_EQUALS_N, "lhs": {"const": _LONG}}]}, "a const is not a number"),
        ("verify", {"claims": [{**_N_EQUALS_N, "lhs": {"pow": {"base": 2, "exp": _LONG}}}]}, "cannot parse bound"),
        ("verify", {"claims": [{**_N_EQUALS_N, "lhs": _sum_of([{_LONG: 1}])}]}, "unknown sum factor"),
        ("verify", {"claims": [{**_N_EQUALS_N, "id": [_LONG]}]}, "a claim id must be a string"),
        ("verify", {"claims": [{**_N_EQUALS_N, "notes": [_LONG, 1]}]}, "notes must be a list of strings"),
        ("verify", {"sequences": [{**_ONE_AS_Q, "initial": {"0": _LONG}}], "claims": []},
         "an initial value is not a number"),
        ("verify", {"sequences": [{**_ONE_AS_Q, "name": _LONG}] * 2, "claims": []}, "is defined twice"),
        ("certify", {**W_CERT, "seqA": _LONG}, "unknown sequence"),
        ("certify", {**W_CERT, "seqA": [_LONG]}, "a sequence name must be a string"),
        ("certify", {**W_CERT, "symmetric": _LONG}, "symmetric must be true or false"),
        ("certify", {**W_CERT, "p": _LONG}, "a polynomial must be a list of coefficient strings"),
        ("certify", {**W_CERT, "p": [_LONG]}, "a polynomial coefficient is not a number"),
        ("certify", {**W_CERT, "windows": {"a": [-2, _LONG], "b": [-2, 0]}}, "a window bound must be an integer"),
        ("certify", {**W_CERT, "g": [{"i": 5, "j": j, "poly": ["1"]} for j in range(1000)]},
         "certificate has g entries outside its windows"),
    ],
    ids=[
        "seq-name-object", "seq-name-unknown", "seq-factor-unknown", "expr-node", "domain-kind", "domain-parity",
        "const", "bound", "sum-factor", "claim-id", "notes", "initial-value", "defined-twice",
        "cert-seq-unknown", "cert-seq-object", "cert-symmetric", "cert-p-text", "cert-p-coefficient",
        "cert-window", "cert-stray-g",
    ],
)
def test_long_document_values_are_echoed_in_part(capsys, tmp_path, command, doc, shown):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = (command, str(path)) if command == "certify" else (command, "--claims-file", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and shown in err
    assert len(err.encode()) < 200 and "..." in err and "Traceback" not in err


def test_flagged_points_note_whether_they_pass(capsys, tmp_path):
    doc = {
        "claims": [
            {**_N_EQUALS_N, "flag_points": [0]},
            {**_N_EQUALS_N, "id": "y", "rhs": {"const": "1"}, "flag_points": [2]},
        ]
    }
    path = tmp_path / "claims.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", "--claims-file", str(path), "--range", "1..1")
    assert code == 0
    assert "  note: n=0 is outside the domain and passes\n" in err
    assert "  note: n=2 is outside the domain and fails (sides differ (exact equality required))" in err


def test_paper_suite_json_is_byte_identical(capsys, tmp_path):
    blobs = []
    for name in ("first.json", "second.json"):
        code, _, _ = run_cli(capsys, "paper-suite", "--out", str(tmp_path / name))
        assert code == 0
        blobs.append((tmp_path / name).read_bytes())
    assert blobs[0] == blobs[1]
    doc = json.loads(blobs[0])
    assert doc["verdict"] == "pass" and len(doc["rows"]) == 40


def test_reproduce_certificates_script_finds_all_four():
    out = io.StringIO()
    with redirect_stdout(out):
        runpy.run_path(str(ROOT / "scripts" / "reproduce_certificates.py"), run_name="__main__")
    text = out.getvalue()
    assert text.count("certified: symbolic=True numeric(n<=200)=True") == 4
    assert "NOT FOUND" not in text


def test_claims_file_may_not_redefine_a_builtin_sequence(capsys, tmp_path):
    w = sequence_to_json(get_sequence("W"))
    w.pop("direct")
    w["recurrence"] = {"coeffs": [["-2"], ["1"]]}  # W(n+1) = 2 W(n)
    w["initial"] = {"0": "1"}
    path = tmp_path / "claims.json"
    path.write_text(json.dumps({"sequences": [w], "claims": []}))
    argv = ("verify", "--claims-file", str(path), "--claim", "theorem-1.1i", "--range", "1..20")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: malformed claims file: the built-in sequence 'W' may not be redefined\n"
    code, out, _ = run_cli(capsys, "verify", "--claim", "theorem-1.1i", "--range", "1..20")
    assert code == 0
    assert json.loads(out)[0]["verdict"] == "pass"


_SHIFT = st.integers(-3, 3)
_SEQ = st.sampled_from(["W", "T", "one"])
_POLY = st.lists(st.integers(-9, 9).map(str), max_size=3)
_WINDOW = st.tuples(_SHIFT, _SHIFT).map(sorted)
_G_ENTRY = st.fixed_dictionaries({"i": _SHIFT, "j": _SHIFT, "poly": _POLY})
_CERT_MUTATIONS = {
    "seqA": _SEQ,
    "seqB": _SEQ,
    "windows": st.fixed_dictionaries({"a": _WINDOW, "b": _WINDOW}),
    "target_shifts": st.lists(_SHIFT, min_size=1, max_size=3),
    "symmetric": st.booleans(),
    "p": _POLY,
    "g": st.lists(_G_ENTRY, max_size=4),
}


@st.composite
def _mutated_certificate(draw):
    """The W certificate with some of its fields replaced."""
    doc = dict(W_CERT)
    for key, values in _CERT_MUTATIONS.items():
        if draw(st.booleans()):
            doc[key] = draw(values)
    return doc


@settings(max_examples=60, deadline=None)
@given(_mutated_certificate())
def test_certify_fuzz_exits_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cert.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["certify", str(path), "--range", "1..20"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1


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


def test_running_out_of_memory_is_one_error_line():
    # a certify range the CLI accepts, whose memo outgrows a 400 MB address
    # space; the limit is set on the child process alone
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

    proc = subprocess.run(
        [sys.executable, "-m", "rc.cli", "certify", str(W_GOLDEN), "--range", "1..1000000"],
        capture_output=True,
        text=True,
        timeout=300,
        preexec_fn=limit,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: out of memory\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("eval",),
        ("verify", "--range", "1..5", "--claim"),
        # a value that starts with '-' needs '=', as in --range=-2..3
        ("eval", "--seq", "W", "--range", "-2..3"),
        ("telescope", "--seq", "W"),
        ("frobnicate",),
        ("verify", "--bogus"),
        (),
    ],
)
def test_argument_errors_are_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_help_still_exits_zero(capsys):
    for argv in (["--help"], ["eval", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: rc")


def test_deterministic_outputs_are_pinned(capsys):
    # `rc verify` over every built-in claim at its default range, and the
    # exported catalogue, byte for byte
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f00312899e65f339528ff15c81f3a7248c95b046fd889918abefd05446cf70fe"
    )
    assert hashlib.sha256(_exported_claims().encode()).hexdigest() == (
        "c850bb6204b1d0613019750a2bdb09437c47931ccfb6c9337c97db79f2614cd9"
    )


# sha256 of `rc certify` stdout for the four golden certificates, at the
# default range and at 1..2000
CERTIFY_DIGESTS = [
    ("cert_W_8k9_win-2..0.json", (), "a4e6e0b8d941ed2ef4399cb3c8151bafe9b77c9fe7464814d8b86c65e3016cd5"),
    ("cert_W_8k9_win-2..0.json", ("--range", "1..2000"),
     "6d86f0c00d7e8f2df8564c8cd43e4d6727226872970fc09d47e51680e27d2fd9"),
    ("cert_T_k_k1_8k9_win-1..0.json", (), "cd18b84bc49a6df96d3fd21043d544550847601cb1af5c18a302033e056e24b9"),
    ("cert_T_k_k1_8k9_win-1..0.json", ("--range", "1..2000"),
     "e485724443edeca6f475e64f0ab1b8b2dc42a40ae9777366b26cd6ea85933233"),
    ("cert_T_k_k1_8k9_win0..1.json", (), "a4a1ff63dad5f1b165183e5e016ecd97cd0e3bca512742100d978b3758febe7d"),
    ("cert_T_k_k1_8k9_win0..1.json", ("--range", "1..2000"),
     "d99024a6e5686a430b87ef6d4259f93cd372ae6ca430c08be2328597cfb9c3d3"),
    ("cert_T_k1_16k21_win-1..0.json", (), "0dfe1fa66e2adee9af479cce0efc225dc517da40cb3efb79007fc359cc5e5897"),
    ("cert_T_k1_16k21_win-1..0.json", ("--range", "1..2000"),
     "c10d0ef3887dcedc4f976c8f98974f1980f42e66ea0005ade2bc33e2db011e9b"),
]


@pytest.mark.parametrize("name, args, digest", CERTIFY_DIGESTS)
def test_certify_outputs_are_pinned(capsys, name, args, digest):
    code, out, _ = run_cli(capsys, "certify", str(ROOT / "perfbench" / "golden" / name), *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@functools.cache
def _exported_claims() -> str:
    """The document `scripts/export_claims.py` prints: the built-in sequences
    and the built-in catalogue."""
    out = io.StringIO()
    with redirect_stdout(out):
        runpy.run_path(str(ROOT / "scripts" / "export_claims.py"), run_name="__main__")
    return out.getvalue()


_EXPR_KINDS = ("const", "var", "seq", "legendre", "pow", "binom", "add", "mul", "sub", "div", "sum")
_WRONG_TYPES = st.sampled_from([None, True, 1.5, -7, "x", "", [], [1, 2], {}, {"a": 1}])
_SMALL_RATIONAL = st.builds(
    lambda num, den: str(num) if den == 1 else f"{num}/{den}",
    st.integers(-12, 12),
    st.sampled_from([1, 1, 2, 3, 4]),
)
_CONST = _SMALL_RATIONAL.map(lambda c: {"const": c})
_DIVISORS = st.one_of(_CONST, st.just({"var": "n"}))
_MODULI = st.one_of(
    st.sampled_from(["0", "1", "2", "4", "6", "12", "-3", "1/2"]).map(lambda c: {"const": c}),
    st.just({"var": "n"}),
    st.just({"mul": [{"var": "n"}, {"var": "n"}]}),
)


def _nodes(doc, path=()):
    """Every (path, value) in a JSON document, the root included."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    # a copy: a later mutation of the document must not change the value a
    # strategy hands out again, or the generation differs between runs
    _at(doc, path[:-1])[path[-1]] = copy.deepcopy(value)


def _is_expr(v) -> bool:
    return isinstance(v, dict) and len(set(v) & set(_EXPR_KINDS)) == 1


def _swap_kind(draw, node):
    (old,) = set(node) & set(_EXPR_KINDS)
    node[draw(st.sampled_from([k for k in _EXPR_KINDS if k != old]))] = node.pop(old)


def _change_coefficient(draw, doc, path):
    value = _at(doc, path)
    if path[-1] == "const":
        _set(doc, path, draw(_SMALL_RATIONAL))
    elif isinstance(value, list) and value:
        value[draw(st.integers(0, len(value) - 1))] = draw(_SMALL_RATIONAL)


@st.composite
def _mutated_claims_document(draw):
    """The exported catalogue with one to three mutations: a dropped key, a
    swapped expression kind or a value of the wrong type anywhere, or a
    changed shift, coefficient, divisor or modulus."""
    doc = json.loads(_exported_claims())
    for _ in range(draw(st.integers(1, 3))):
        nodes = [(p, v) for p, v in _nodes(doc) if p]
        paths = [p for p, _ in nodes]
        keyed = [p for p in paths if isinstance(p[-1], str)]
        exprs = [(p, v) for p, v in nodes if _is_expr(v)]
        divs = [p for p, v in exprs if isinstance(v.get("div"), list) and len(v["div"]) == 2]
        claims = [p for p, v in nodes if len(p) == 2 and p[0] == "claims" and isinstance(v, dict)]
        # each mutation: (the paths where it applies, what it does at one)
        mutations = {
            "drop": (keyed, lambda p: _at(doc, p[:-1]).pop(p[-1])),
            "swap": ([p for p, _ in exprs], lambda p: _swap_kind(draw, _at(doc, p))),
            "retype": (paths, lambda p: _set(doc, p, draw(_WRONG_TYPES))),
            "shift": (
                [p for p in keyed if p[-1] == "shift"],
                lambda p: _set(doc, p, draw(st.integers(-4, 4))),
            ),
            "coefficient": (
                [p for p in keyed if p[-1] in ("num", "den", "const")],
                lambda p: _change_coefficient(draw, doc, p),
            ),
            "divisor": (divs, lambda p: _set(doc, p + ("div", 1), draw(_DIVISORS))),
            "modulus": (claims, lambda p: _set(doc, p + ("modulus",), draw(_MODULI))),
        }
        kinds = sorted(k for k, (where, _) in mutations.items() if where)
        if not kinds:
            break
        where, apply = mutations[draw(st.sampled_from(kinds))]
        apply(draw(st.sampled_from(where)))
    return doc


# Python's own texts, which no message of the program may show
_PYTHON_TEXTS = ("unpack", "not subscriptable", "object has no attribute", "indices must be integers")


@settings(max_examples=60, deadline=None)
@given(_mutated_claims_document())
@example(_BAD_AFFINES[0][0])
@example(_BAD_AFFINES[1][0])
@example(_BAD_AFFINES[2][0])
def test_verify_claims_document_fuzz_exits_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "claims.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["verify", "--claims-file", str(path), "--range", "1..30"])
    text = out.getvalue() + err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in text
    assert not [t for t in _PYTHON_TEXTS if t in text], text
    if code == 2:
        line = err.getvalue()
        assert out.getvalue() == "" and line.count("\n") == 1 and line.startswith("error: ")
        assert len(line) <= 4 * MAX_ECHO + 100


# small solver inputs, and now and then a value past a cap: a target shift
# past MAX_SHIFT_DISTANCE, a degree past MAX_DEGREE or a negative one
_FUZZ_SHIFT = st.sampled_from([0, 1, -1] * 4 + [*range(-4, 5), -40, 25, 100000])
_FUZZ_DEGREE = st.sampled_from([*range(4)] * 4 + [-1, 101, 10**11])
_ORDERS = {"W": 3, "T": 2, "one": 1}


@st.composite
def _fuzz_window(draw, seq):
    """Mostly the default window, the order shifts ending at 0; now and then
    one that starts elsewhere or has another length."""
    order = _ORDERS[seq]
    lo = draw(st.sampled_from([1 - order] * 4 + [*range(-3, 2)]))
    length = draw(st.sampled_from([order] * 4 + [1, 2, 3]))
    return f"{lo}..{lo + length - 1}"


@st.composite
def _solver_argv(draw):
    command = draw(st.sampled_from(["telescope", "discover"]))
    seq = draw(st.sampled_from(sorted(_ORDERS)))
    argv = [command, "--seq", seq, f"--window={draw(_fuzz_window(seq))}"]
    argv.append(f"--target-shifts={draw(_FUZZ_SHIFT)},{draw(_FUZZ_SHIFT)}")
    if draw(st.integers(0, 3)) == 0:
        seq_b = draw(st.sampled_from(sorted(_ORDERS)))
        argv += [f"--seq-b={seq_b}", f"--window-b={draw(_fuzz_window(seq_b))}"]
    weights = st.sampled_from(["1", "k", "8*k+9", "k^2+1", "k*(k+1)*(8*k+9)"] * 3 + ["0", "k+"])
    if command == "telescope" or draw(st.booleans()):
        argv.append(f"--p={draw(weights)}")
    if command == "discover":
        argv.append(f"--p-degree={draw(_FUZZ_DEGREE)}")
    argv.append(f"--deg={draw(_FUZZ_DEGREE)}")
    return argv


@settings(max_examples=150, deadline=None)
@given(_solver_argv())
def test_solver_argv_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1


# a range text: two small bounds in either order (the top at most 300), or a
# malformed one; never a large top
_FUZZ_RANGE = st.one_of(
    st.tuples(st.integers(-8, 300), st.integers(-8, 300)).map(lambda t: f"{t[0]}..{t[1]}"),
    st.sampled_from(["", "..", "1..", "..5", "1..2..3", "a..b", "1.5..3", "1-5", " 1 .. 4", "0x1..3"]),
)
_FUZZ_SEQ = st.sampled_from(["W", "T", "one"] * 3 + ["X", "w", ""])


@st.composite
def _range_argv(draw):
    if draw(st.booleans()):
        argv, ranges = ["eval", "--seq", draw(_FUZZ_SEQ)], _FUZZ_RANGE
    else:
        # {cert} is a file holding W_CERT with its factors replaced
        argv = ["certify", "{cert}"]
        ranges = st.one_of(st.integers(-3, 300).map(lambda n: f"1..{n}"), _FUZZ_RANGE)
    if draw(st.integers(0, 4)):
        argv.append(f"--range={draw(ranges)}")
    return argv


@settings(max_examples=80, deadline=None)
@given(_range_argv(), st.sampled_from(["W"] * 4 + ["T", "one", "X"]))
def test_range_argv_fuzz_exits_cleanly(argv, cert_seq):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cert.json"
        path.write_text(json.dumps({**W_CERT, "seqA": cert_seq, "seqB": cert_seq}))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([str(path) if x == "{cert}" else x for x in argv])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1
