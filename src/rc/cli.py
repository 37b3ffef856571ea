"""Command-line interface.

Subcommands: `telescope` (find a certificate), `discover` (solve with a free
weight ansatz), `certify` (recheck a certificate file), `verify` (check
claims over a range), `eval` (print sequence terms), and `paper-suite` (the
full bundled verification run).

Exit codes: 0 success / all pass, 1 verification failure or nothing found,
2 usage errors. Machine output is JSON on stdout (or --out); human-oriented
rendering goes to stderr. Identical inputs produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, replace

from .congruence import (
    MAX_RANGE_TOP,
    SumEvaluator,
    builtin_claims,
    format_report_table,
    get_claim,
    load_claims_document,
    report_to_json,
    suite_range,
    verify_claim_range,
)
from .exactmath import MAX_LITERAL_DIGITS, ONE, Poly, PolyParseError, echo, parse_poly, nullspace
from .sequences import (
    DerivedSequence,
    T,
    UnknownSequence,
    W,
    check_derived_recurrence,
    check_parity_odd,
    check_recurrence_consistency,
    eval_direct,
    get_sequence,
    recurrence,
    trinomial_middle,
    T_PAIR_FORMULA,
)
from .telescoper import (
    CERTIFY_N_MAX,
    MAX_DEGREE,
    REFERENCE_SEARCHES,
    cert_from_json,
    cert_to_json,
    certify,
    discover_weights,
    find_telescoper,
    partial_sum,
    pretty,
)
from fractions import Fraction


class UsageError(Exception):
    pass


def _int(text: str) -> int:
    """The value of an integer option; a bad one is quoted by `echo`."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {echo(text)}") from None


def _degree(flag: str, value: int) -> None:
    """Reject a degree bound of the command line outside 0..`MAX_DEGREE`."""
    if not 0 <= value <= MAX_DEGREE:
        raise UsageError(f"{flag} must be in 0..{MAX_DEGREE}, got {echo(str(value))}")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are usage errors: one line on stderr
    and exit 2, as for every other bad input. Subparsers share the class."""

    def error(self, message):
        raise UsageError(message)


def _parse_range(text: str) -> tuple[int, int]:
    """lo..hi with lo <= hi <= `MAX_RANGE_TOP`; a reversed range or a higher
    top is bad input, rejected before anything is computed."""
    try:
        lo, hi = (int(x) for x in text.split(".."))
    except ValueError:
        raise UsageError(f"expected a range like 1..500, got {echo(text)}") from None
    if hi < lo:
        raise UsageError(f"the range {echo(text)} is reversed")
    if hi > MAX_RANGE_TOP:
        raise UsageError(f"the range {echo(text)} ends above 10^6, the highest top rc checks")
    return lo, hi


def _parse_points(text: str) -> frozenset[int]:
    try:
        return frozenset(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"expected comma-separated points like 7,11, got {echo(text)}") from None


def _json_int_literal(text: str) -> int:
    # an integer literal of a JSON document, refused past MAX_LITERAL_DIGITS
    # digits before it is read
    if len(text.lstrip("-")) > MAX_LITERAL_DIGITS:
        raise UsageError(f"invalid JSON input: an integer of more than {MAX_LITERAL_DIGITS} digits")
    return int(text)


def _load_json(fh):
    """json.load(fh), with a document nested too deep for the parser as
    invalid JSON, and so an integer of more than `MAX_LITERAL_DIGITS` digits."""
    try:
        return json.load(fh, parse_int=_json_int_literal)
    except RecursionError:
        raise UsageError("invalid JSON input: nested too deeply") from None


def _decode(what: str, decode, doc):
    """decode(doc) for a JSON document from outside; a missing field, a value
    of the wrong JSON type, a malformed value and an unknown sequence are bad
    input. The message ends with the path of the field the decoder names
    (`exactmath.json_field`), if any, such as " (at claims[1].lhs)"."""
    try:
        return decode(doc)
    except (LookupError, AttributeError, TypeError, ValueError, ArithmeticError, UnknownSequence) as e:
        path = getattr(e, "field_path", "")
        at = f" (at {path})" if path else ""
        if isinstance(e, KeyError):
            message = f"{what} lacks the field {e.args[0]!r}"
        elif isinstance(e, UnknownSequence):
            message = str(e)
        elif isinstance(e, (AttributeError, TypeError)):
            message = f"malformed {what}: a value of the wrong JSON type"  # not Python's text
        else:
            message = f"malformed {what}: {e}"
        raise UsageError(message + at) from None


def _parse_shifts(text: str) -> tuple[int, int]:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return int(parts[0]), 0
        if len(parts) == 2:
            return int(parts[0]), int(parts[1])
    except ValueError:
        pass
    raise UsageError(f"expected target shifts like 0,1 - got {echo(text)}")


def _parse_p(text: str) -> Poly:
    try:
        return parse_poly(text)
    except PolyParseError as e:  # one line, not the parser's caret diagram
        raise UsageError(f"bad polynomial {echo(e.text)}: {e.reason} at position {e.pos}") from None


def _solver_args(args) -> tuple:
    """Parse what `telescope` and `discover` share: (seq_b, target shifts,
    window a, window b). A --deg outside 0..`MAX_DEGREE` is rejected."""
    _degree("--deg", args.deg)
    return (
        args.seq_b if args.seq_b else args.seq,
        _parse_shifts(args.target_shifts),
        _parse_range(args.window),
        _parse_range(args.window_b) if args.window_b else None,
    )


def _emit(doc, out_path: str | None) -> None:
    blob = json.dumps(doc, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(blob)
    else:
        sys.stdout.write(blob)


# -- subcommands -------------------------------------------------------------------


def _cmd_telescope(args) -> int:
    seq_b, target, window_a, window_b = _solver_args(args)
    p = _parse_p(args.p)
    try:
        cert = find_telescoper(args.seq, seq_b, p, target, window_a, window_b, deg_bound=args.deg)
    except ValueError as e:  # a window, weight or mode that defines no system
        raise UsageError(str(e)) from None
    if cert is None:
        print("no certificate up to the degree bound", file=sys.stderr)
        return 1
    report = certify(cert)
    _emit(cert_to_json(cert), args.out)
    print(pretty(cert), file=sys.stderr)
    if not report.ok:
        print("warning: certificate failed re-certification", file=sys.stderr)
        return 1
    return 0


def _cmd_discover(args) -> int:
    seq_b, target, window_a, window_b = _solver_args(args)
    p_fixed = _parse_p(args.p) if args.p else ONE
    _degree("--p-degree", args.p_degree)
    try:
        result = discover_weights(
            args.seq, seq_b, p_fixed, args.p_degree, target, window_a, window_b, deg_bound=args.deg
        )
    except ValueError as e:  # a window or mode that defines no system
        raise UsageError(str(e)) from None
    doc = {
        "p_basis": [p.to_json() for p in result.p_basis],
        "solutions": [cert_to_json(c) for c in result.solutions],
        "solution_coords": [[str(x) for x in co] for co in result.solution_coords],
        "kernels": [
            [{"i": i, "j": j, "poly": g.to_json()} for (i, j), g in sorted(k.items())]
            for k in result.kernels
        ],
    }
    _emit(doc, args.out)
    for cert in result.solutions:
        print(pretty(cert), file=sys.stderr)
    return 0 if result.solutions else 1


def _cmd_certify(args) -> int:
    n_max = CERTIFY_N_MAX
    if args.range:
        lo, n_max = _parse_range(args.range)
        if lo != 1:  # the numeric half checks S(n) - S(0) at n = 1..N
            raise UsageError(f"a certify range must be 1..N with N >= 1, got {args.range}")
    if args.certificate == "-":
        doc = _load_json(sys.stdin)
    else:
        with open(args.certificate) as fh:
            doc = _load_json(fh)
    cert = _decode("certificate", cert_from_json, doc)
    try:
        report = certify(cert, n_max)
    except ValueError as e:  # windows, pairs or terms the sequences do not define
        raise UsageError(str(e)) from None
    _emit(
        {
            "certificate": cert_to_json(cert),
            "symbolic_ok": report.symbolic_ok,
            "numeric_ok": report.numeric_ok,
            "checked_to": report.checked_to,
            "residuals": [
                {"pair": list(pair), "value": text} for pair, text in report.residuals
            ],
            "mismatch": None
            if report.mismatch is None
            else {"n": report.mismatch[0], "expected": str(report.mismatch[1]), "got": str(report.mismatch[2])},
        },
        args.out,
    )
    return 0 if report.ok else 1


def _cmd_verify(args) -> int:
    claims = []
    if args.claims_file:
        with open(args.claims_file) as fh:
            claims.extend(_decode("claims file", load_claims_document, _load_json(fh)))
    if args.claim:
        try:
            claims.append(get_claim(args.claim))
        except KeyError:
            raise UsageError(f"unknown claim {echo(args.claim)}") from None
    if not claims:
        claims = builtin_claims()

    exclude = _parse_points(args.exclude) if args.exclude else frozenset()
    reports = []
    evaluator = SumEvaluator()
    for claim in claims:
        if exclude:
            claim = replace(claim, domain=replace(claim.domain, exclude=claim.domain.exclude | exclude))
        if args.primes:
            lo, hi = _parse_range(args.primes)
            if claim.domain.kind != "primes":
                claim = replace(claim, domain=replace(claim.domain, kind="primes"))
        elif args.range:
            lo, hi = _parse_range(args.range)
        else:
            try:
                lo, hi = suite_range(claim.claim_id)
            except KeyError:
                raise UsageError(
                    f"claim {claim.claim_id!r} has no default range; give --range or --primes"
                ) from None
        try:
            reports.append(verify_claim_range(claim, lo, hi, evaluator))
        except ValueError as e:  # a range the domain cannot enumerate
            raise UsageError(str(e)) from None

    _emit([report_to_json(r) for r in reports], args.out)
    print(format_report_table(reports), file=sys.stderr)
    return 0 if all(r.ok for r in reports) else 1


def _cmd_eval(args) -> int:
    seq = get_sequence(args.seq)
    lo, hi = _parse_range(args.range) if args.range else (0, 20)
    # streamed through a window, so the memo keeps no term read here
    window = seq.window()
    try:
        seq.term(min(hi, seq.min_index))  # a range wholly below the initial data is refused at its top
        terms = [window.term(i) for i in range(lo, hi + 1)]
    except ValueError as e:  # an index below the initial data
        raise UsageError(str(e)) from None
    _emit({"seq": seq.name, "lo": lo, "hi": hi, "terms": [str(t) for t in terms]}, args.out)
    return 0


# -- the bundled suite ----------------------------------------------------------------


@dataclass
class SuiteRow:
    name: str
    ok: bool
    seconds: float
    notes: list[str]


def _row(name: str, fn) -> SuiteRow:
    t0 = time.perf_counter()
    notes: list[str] = []
    try:
        ok = fn(notes)
    except Exception as e:  # a crash is a failure with the message preserved
        ok = False
        notes.append(f"error: {e}")
    return SuiteRow(name, bool(ok), time.perf_counter() - t0, notes)


def _span_contains(coords, direction) -> bool:
    rows = [list(c) for c in coords]
    ncols = len(direction)
    rank = ncols - len(nullspace(rows, ncols=ncols))
    rank_aug = ncols - len(nullspace(rows + [list(direction)], ncols=ncols))
    return rank == rank_aug


def _suite_rows() -> list[SuiteRow]:
    rows: list[SuiteRow] = []
    evaluator = SumEvaluator()

    def consistency(seq, notes):
        rep = check_recurrence_consistency(seq, 60)
        if not rep.ok:
            notes.append(f"first mismatch at n={rep.mismatches[0].n}")
        return rep.ok

    rows.append(_row("foundation: W recurrence equals direct sum (n<=60)", lambda n: consistency(W, n)))
    rows.append(_row("foundation: T recurrence equals direct sum (n<=60)", lambda n: consistency(T, n)))

    def trinomial_defs(notes):
        for n in range(0, 61):
            v = T.term(n)
            if not (eval_direct(T.direct, n) == eval_direct(T_PAIR_FORMULA, n) == trinomial_middle(n) == v):
                notes.append(f"definitions disagree at n={n}")
                return False
        return True

    rows.append(_row("foundation: three trinomial definitions agree (n<=60)", trinomial_defs))
    rows.append(_row("foundation: W odd (n<=500)", lambda n: check_parity_odd(W, 500)))
    rows.append(_row("foundation: T odd (n<=500)", lambda n: check_parity_odd(T, 500)))

    def t_combination(notes):
        ds = DerivedSequence("t", T, ((1, Fraction(1, 2)), (0, Fraction(-3, 2))))
        rec = recurrence([Poly([3, 3]), Poly([2, 2]), Poly([-3, -1])])
        rep = check_derived_recurrence(ds, rec, 100)
        if not rep.ok:
            notes.append(f"residual at n={rep.mismatches[0].n}")
        return rep.ok

    rows.append(_row("foundation: t = (T(n+1)-3T(n))/2 recurrence residuals (n<=100)", t_combination))

    w_search, t_lo_search, t_hi_search, t16_search = REFERENCE_SEARCHES

    def w_certificate(notes):
        cert = w_search.find()
        if cert is None:
            notes.append("no certificate found")
            return False
        if not certify(cert).ok:
            notes.append("certification failed")
            return False
        if partial_sum(cert, 1) != 9 or partial_sum(cert, 2) != 26:
            notes.append("spot values wrong")
            return False
        return True

    rows.append(_row("certificate: (8k+9) W(k)^2 over window -2..0", w_certificate))

    def t_products_both_windows(notes):
        lo_cert, hi_cert = t_lo_search.find(), t_hi_search.find()
        if lo_cert is None or hi_cert is None:
            notes.append("certificate missing")
            return False
        if not (certify(lo_cert).ok and certify(hi_cert).ok):
            notes.append("certification failed")
            return False
        lo_closed, hi_closed = lo_cert.closed_form(), hi_cert.closed_form()
        for n in range(1, 201):
            if lo_closed.partial(n) != hi_closed.partial(n):
                notes.append(f"windows disagree at n={n}")
                return False
        return True

    rows.append(_row("certificate: k(k+1)(8k+9) T(k)T(k+1), windows -1..0 and 0..1 agree", t_products_both_windows))

    def t16_certificate(notes):
        cert = t16_search.find()
        if cert is None or not certify(cert).ok:
            notes.append("certificate missing or invalid")
            return False
        return True

    rows.append(_row("certificate: (k+1)(16k+21) T(k)T(k+1) over window -1..0", t16_certificate))

    def discovery(notes):
        disc = discover_weights("T", "T", parse_poly("k+1"), 1, (0, 1), (-1, 0), deg_bound=3)
        if not disc.solutions:
            notes.append("no weights found")
            return False
        if not _span_contains(disc.solution_coords, (21, 16)):
            notes.append("the direction (16k+21) is not in the solution span")
            return False
        return all(certify(c, 60).ok for c in disc.solutions)

    rows.append(_row("discovery: weight ansatz (k+1)(a k + b) contains 16k+21", discovery))

    for claim in builtin_claims():
        lo, hi = suite_range(claim.claim_id)

        def run_claim(notes, claim=claim, lo=lo, hi=hi):
            rep = verify_claim_range(claim, lo, hi, evaluator)
            for r in rep.failures[:3]:
                notes.append(f"failed at n={r.n}: {r.reason}")
            for r in rep.flagged:
                notes.append(f"note: n={r.n} outside domain, status={r.status}")
            return rep.ok

        rows.append(_row(f"claim: {claim.claim_id} [{lo}..{hi}]", run_claim))

    return rows


def _cmd_paper_suite(args) -> int:
    t0 = time.perf_counter()
    rows = _suite_rows()
    total = time.perf_counter() - t0
    width = max(len(r.name) for r in rows)
    print(f"{'check':<{width}}  {'result':<6}  {'time':>8}")
    print("-" * (width + 18))
    for row in rows:
        print(f"{row.name:<{width}}  {'pass' if row.ok else 'FAIL':<6}  {row.seconds:>7.2f}s")
        for note in row.notes:
            print(f"  {note}")
    passed = sum(1 for r in rows if r.ok)
    print("-" * (width + 18))
    print(f"{passed}/{len(rows)} checks passed in {total:.1f}s")
    if args.out:
        _emit(
            {
                "rows": [
                    {"name": r.name, "status": "pass" if r.ok else "fail", "notes": r.notes}
                    for r in rows
                ],
                "verdict": "pass" if passed == len(rows) else "fail",
            },
            args.out,
        )
    return 0 if passed == len(rows) else 1


# -- argument parsing ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rc",
        description="exact telescoping certificates and congruence verification "
        "for partial sums of P-recursive sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_solver_flags(p):
        p.add_argument("--seq", required=True, help="sequence name (built-in: W, T, one)")
        p.add_argument("--seq-b", help="second factor; defaults to --seq (a square)")
        p.add_argument("--window", required=True, help="shift window, e.g. -2..0")
        p.add_argument("--window-b", help="window for the second factor")
        p.add_argument("--target-shifts", default="0,0", help="shifts of the summand, e.g. 0,1")
        p.add_argument("--out", help="write JSON here instead of stdout")

    p = sub.add_parser("telescope", help="find a telescoping certificate")
    add_common_solver_flags(p)
    p.add_argument("--p", required=True, help='weight polynomial, e.g. "8*k+9"')
    p.add_argument(
        "--deg", type=_int, default=6, help=f"degree bound for g, at most {MAX_DEGREE} (default 6)"
    )
    p.set_defaults(fn=_cmd_telescope)

    p = sub.add_parser("discover", help="solve with a free weight ansatz")
    add_common_solver_flags(p)
    p.add_argument("--p", help="fixed polynomial factor of the ansatz (default 1)")
    p.add_argument(
        "--p-degree", type=_int, default=1, help=f"degree of the free ansatz part, at most {MAX_DEGREE}"
    )
    p.add_argument("--deg", type=_int, default=6, help=f"degree bound for g, at most {MAX_DEGREE}")
    p.set_defaults(fn=_cmd_discover)

    p = sub.add_parser("certify", help="recheck a certificate JSON file")
    p.add_argument("certificate", help="path to certificate JSON, or - for stdin")
    p.add_argument("--range", help=f"numeric check range 1..N (default 1..{CERTIFY_N_MAX})")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("verify", help="verify congruence claims over a range")
    p.add_argument("--claim", help="built-in claim id, e.g. theorem-1.1i")
    p.add_argument("--claims-file", help="JSON document with custom claims")
    points = p.add_mutually_exclusive_group()
    points.add_argument("--range", help="integer range, e.g. 1..500")
    points.add_argument("--primes", help="prime range, e.g. 5..300")
    p.add_argument("--exclude", help="comma-separated points to skip")
    p.add_argument("--out", help="write report JSON here instead of stdout")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("eval", help="print exact sequence terms")
    p.add_argument("--seq", required=True)
    p.add_argument("--range", help="index range, e.g. -2..10")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("paper-suite", help="run the full bundled verification suite")
    p.add_argument("--out", help="write the suite summary JSON here")
    p.set_defaults(fn=_cmd_paper_suite)

    return parser


def main(argv=None) -> int:
    # exact results are printed in full, however many digits they have
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except (UsageError, UnknownSequence, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        print(f"error: invalid JSON input: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
