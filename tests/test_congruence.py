import dataclasses
import json
import tracemalloc
from fractions import Fraction as F

import pytest

from rc.exactmath import Poly, RatFunc, parse_poly, rat_mod
from rc.exactmath import legendre as leg_sym
from rc.congruence import (
    BinomExpr,
    Bound,
    C,
    CongruenceClaim,
    Domain,
    Legendre,
    N,
    PowInt,
    SumEvaluator,
    SumNode,
    SumSpec,
    SUM_T_PRODUCTS_8K9,
    SUM_T_PRODUCTS_16K21,
    SUM_W_SQUARES,
    builtin_claims,
    check_claim_at,
    claim_from_json,
    claim_to_json,
    div,
    eval_expr,
    eval_sum,
    expr_from_json,
    expr_to_json,
    format_report_table,
    get_claim,
    leg,
    load_claims_document,
    mul,
    primes_in,
    report_to_json,
    seq,
    sub,
    suite_range,
    verify_claim_range,
)
from rc.sequences import Affine, BinomFactor, GeomFactor, SequenceDef, T, W, binom, recurrence, register_sequence
from rc.telescoper import find_telescoper, partial_sum


def test_catalogue_size_and_unique_ids():
    claims = builtin_claims()
    assert len(claims) >= 16
    ids = [c.claim_id for c in claims]
    assert len(set(ids)) == len(ids)


def test_eval_sum_examples():
    assert eval_sum(SUM_W_SQUARES, 5) == 7805
    assert eval_sum(SUM_T_PRODUCTS_8K9, 7) == 144079992
    assert eval_sum(SUM_T_PRODUCTS_8K9, 0) == 0  # empty range


def _sum_specs(e):
    if isinstance(e, SumNode):
        yield e.spec
        return
    for f in dataclasses.fields(e):
        value = getattr(e, f.name)
        for x in value if isinstance(value, tuple) else (value,):
            if dataclasses.is_dataclass(x):
                yield from _sum_specs(x)


def _fraction_oracle(spec, n_max):
    """The sum at n = 0..n_max as a Fraction, from a dense running sum of
    `spec.term`; the summand must not depend on n."""
    running = [F(0)]
    for k in range(spec.lo, spec.upper.at(n_max) + 1):
        running.append(running[-1] + F(spec.term(n_max, k)))
    return [running[max(0, spec.upper.at(n) - spec.lo + 1)] for n in range(n_max + 1)]


def test_cached_sums_equal_the_fraction_oracle():
    specs = {
        spec
        for claim in builtin_claims()
        for side in (claim.lhs, claim.rhs, claim.modulus)
        for spec in _sum_specs(side)
        if spec.n_free
    }
    # the three certificate-backed sums, binom(2k,k) and its /k and /(2k-1) sums
    assert len(specs) == 7
    # and term denominators of either sign: 1/(2k-5) and (-3)^(-k)
    specs.add(SumSpec(RatFunc(Poly([1]), Poly([-5, 2])), (GeomFactor(-3, Affine(0, -1, 0)),)))
    for spec in specs:
        want = _fraction_oracle(spec, 300)
        ascending, top_first = SumEvaluator(), SumEvaluator()
        top_first.eval_sum(spec, 300)
        for n in range(301):
            for ev in (ascending, top_first):
                got = ev.eval_sum(spec, n)
                assert (got.numerator, got.denominator) == (want[n].numerator, want[n].denominator)


def test_running_sums_follow_any_read_order():
    # an integer summand and a rational one, read on one evaluator in turns:
    # ascending, repeated, a jump forward, reads below the cursor
    central = BinomFactor(Affine(0, 2, 0), Affine(0, 1, 0))
    over_k = SumSpec(RatFunc(Poly([1]), Poly([0, 1])), (central,), lo=1)
    specs = (SUM_T_PRODUCTS_8K9, over_k)
    want = {spec: _fraction_oracle(spec, 300) for spec in specs}
    reads = [0, 1, 2, 3, 3, 3, 4, 40, 41, 41, 300, 300, 7, 8, 150, 149, 0, 1, 299, 2, 300]
    ev = SumEvaluator()
    for n, m in zip(reads, reversed(reads)):
        for spec, at in zip(specs, (n, m)):
            got, oracle = ev.eval_sum(spec, at), want[spec][at]
            assert (got.numerator, got.denominator) == (oracle.numerator, oracle.denominator)


def test_range_verification_keeps_no_pass_values():
    # measured about 0.2 MB; keeping every prefix sum and the sides of every
    # passing point takes 6.8 MB
    claim = get_claim("theorem-1.3i")
    T.term(3001)
    ev = SumEvaluator()
    tracemalloc.start()
    try:
        rep = verify_claim_range(claim, 1, 3000, ev)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.points_checked == 3000
    assert peak < 1_000_000


def test_eval_expr_examples():
    assert eval_expr(get_claim("theorem-1.1ii").rhs, 5) == 61
    assert eval_expr(get_claim("theorem-1.3ii").rhs, 5) == F(-4145, 2)
    assert eval_expr(get_claim("sun-divisibility").modulus, 5) == 100


def test_check_claim_spot_values():
    r = check_claim_at(get_claim("theorem-1.1i"), 2)
    assert (r.status, r.lhs, r.rhs, r.modulus) == ("pass", 26, 2, 4)
    r = check_claim_at(get_claim("theorem-1.1i"), 5)
    assert r.lhs == 7805 and r.status == "pass"
    r = check_claim_at(get_claim("theorem-1.2"), 7)
    assert r.status == "pass"
    assert rat_mod(r.lhs, 343) == 98 == rat_mod(r.rhs, 343)
    r = check_claim_at(get_claim("theorem-1.3ii"), 5)
    assert r.status == "pass"
    assert rat_mod(r.lhs, 125) == 115 == rat_mod(r.rhs, 125)
    r = check_claim_at(get_claim("theorem-1.3i"), 2)
    assert (r.lhs, r.rhs) == (486, 54) and r.status == "pass"


def test_out_of_domain_points():
    assert check_claim_at(get_claim("theorem-1.2"), 6).status == "out_of_domain"
    assert check_claim_at(get_claim("theorem-1.2"), 3).status == "out_of_domain"
    assert check_claim_at(get_claim("theorem-1.3ii"), 2).status == "out_of_domain"


def test_theorem_11ii_includes_p3():
    r = check_claim_at(get_claim("theorem-1.1ii"), 3)
    assert r.status == "pass"
    assert r.lhs == 17  # (9 + 17 + 25) / 3


def test_non_invertible_denominator_is_a_failure_not_a_crash():
    claim = CongruenceClaim(
        claim_id="bad-denominator",
        description="1/2 mod 4 cannot be reduced",
        lhs=C(F(1, 2)),
        rhs=C(0),
        modulus=C(4),
        domain=Domain("integers", 1),
    )
    r = check_claim_at(claim, 1)
    assert r.status == "fail"
    assert "not invertible" in r.reason


def test_degenerate_zero_modulus_requires_equality():
    # the quartic divisibility modulus vanishes at n=1; the sum is 0 there
    r = check_claim_at(get_claim("sun-divisibility"), 1)
    assert r.status == "pass" and r.modulus == 0 and r.lhs == 0


@pytest.mark.parametrize(
    "claim_id",
    [c.claim_id for c in builtin_claims()],
)
def test_every_builtin_claim_passes_its_suite_range(claim_id):
    lo, hi = suite_range(claim_id)
    rep = verify_claim_range(get_claim(claim_id), lo, hi)
    assert rep.ok, [(f.n, f.reason) for f in rep.failures[:3]]
    assert rep.points_checked > 0


def test_flagged_point_for_theorem_13ii():
    rep = verify_claim_range(get_claim("theorem-1.3ii"), 2, 300)
    assert rep.ok
    assert len(rep.flagged) == 1
    note = rep.flagged[0]
    assert note.n == 2 and note.status == "fail"
    assert rat_mod(note.lhs, 8) == 3
    assert rat_mod(note.rhs, 8) == 5


def test_parallel_verification_is_deterministic():
    claim = get_claim("theorem-1.1i")
    a = verify_claim_range(claim, 1, 200, jobs=1)
    b = verify_claim_range(claim, 1, 200, jobs=4)
    assert a.points_checked == b.points_checked
    assert a.failures == b.failures == ()


def test_primes_in():
    assert primes_in(2, 20, exclude={3}) == [2, 5, 7, 11, 13, 17, 19]
    assert primes_in(3, 10, parity="odd") == [3, 5, 7]
    assert primes_in(990, 1000) == [991, 997]
    with pytest.raises(ValueError):
        primes_in(2, 10**7)


def test_domain_membership():
    d = Domain("primes", 5, parity="odd", exclude=frozenset({7}))
    assert d.contains(11) and not d.contains(7) and not d.contains(2)
    assert not d.contains(9)
    assert d.points(1, 20) == [5, 11, 13, 17, 19]
    assert "primes" in d.describe()


def test_telescoping_consistency_with_certificates():
    # two independent routes: direct summation vs certificate difference
    pairs = [
        (
            SUM_W_SQUARES,
            find_telescoper("W", "W", parse_poly("8*k+9"), (0, 0), (-2, 0), deg_bound=2),
        ),
        (
            SUM_T_PRODUCTS_8K9,
            find_telescoper("T", "T", parse_poly("k*(k+1)*(8*k+9)"), (0, 1), (-1, 0), deg_bound=4),
        ),
        (
            SUM_T_PRODUCTS_16K21,
            find_telescoper("T", "T", parse_poly("(k+1)*(16*k+21)"), (0, 1), (-1, 0), deg_bound=6),
        ),
    ]
    for spec, cert in pairs:
        assert cert is not None
        for n in range(0, 201):
            assert eval_sum(spec, n) == partial_sum(cert, n)


def test_t_prime_expansion_identity():
    # T(n) - 1 = (n/2) sum_{k=1}^{(n-1)/2} binom(n-1, 2k-1) binom(2k, k) / k
    # holds exactly for odd n, not just primes
    for n in range(3, 60, 2):
        total = F(0)
        for k in range(1, (n - 1) // 2 + 1):
            total += F(binom(n - 1, 2 * k - 1) * binom(2 * k, k), k)
        assert F(n, 2) * total == T.term(n) - 1


def test_lemma_21_exact_small_case():
    a, b = leg_sym(-3, 5), leg_sym(-1, 5)
    assert W.term(5) == 29 == -1 - 5 * (1 + 3 * a - 4 * b)


def test_claim_json_round_trip_all_builtins():
    for claim in builtin_claims():
        doc = claim_to_json(claim)
        back = claim_from_json(json.loads(json.dumps(doc)))
        assert claim_to_json(back) == doc
        assert back.domain == claim.domain
    # verdicts survive the round trip
    claim = claim_from_json(claim_to_json(get_claim("theorem-1.1i")))
    assert check_claim_at(claim, 5).status == "pass"


def test_expression_json_round_trip():
    exprs = [
        get_claim("theorem-1.3ii").rhs,
        get_claim("central-binom-telescope").lhs,
        div(SumNode(SUM_W_SQUARES), N),
        mul(C(F(9, 2)), seq("W", -1), BinomExpr(Bound(2, 0, 1), Bound(1, 0, 1))),
    ]
    for e in exprs:
        doc = expr_to_json(e)
        assert expr_to_json(expr_from_json(doc)) == doc
        assert eval_expr(expr_from_json(doc), 7) == eval_expr(e, 7)


def test_load_claims_document_with_custom_sequence():
    doc = {
        "sequences": [
            {
                "name": "pow2",
                "recurrence": {"coeffs": [["-2"], ["1"]]},
                "initial": {"0": "1"},
            }
        ],
        "claims": [
            {
                "id": "pow2-mod-7",
                "description": "2^n cycles mod 7",
                "lhs": {"seq": "pow2", "shift": 3},
                "rhs": {"mul": [{"const": "8"}, {"seq": "pow2", "shift": 0}]},
                "modulus": {"const": "7"},
                "domain": {"kind": "integers", "start": 0},
            }
        ],
    }
    (claim,) = load_claims_document(doc)
    rep = verify_claim_range(claim, 0, 30)
    assert rep.ok and rep.points_checked == 31


def test_theorem_13ii_report_is_unchanged():
    claim = get_claim("theorem-1.3ii")
    doc = report_to_json(verify_claim_range(claim, *suite_range(claim.claim_id)))
    assert doc == {
        "claim": "theorem-1.3ii",
        "description": claim.description,
        "range": [2, 300],
        "points_checked": 60,
        "verdict": "pass",
        "failures": [],
        "flagged": [
            {
                "n": 2,
                "status": "fail",
                "lhs": "243",
                "rhs": "-67",
                "modulus": "8",
                "reason": "difference 310 != 0 mod 8",
            }
        ],
        "notes": list(claim.notes),
    }


@pytest.mark.parametrize(
    "expr, bad, error",
    [
        (div(C(1), sub(N, C(3))), [3], "ZeroDivisionError"),
        (PowInt(2, Bound(1, 0, 2)), [1, 3, 5, 7], "ValueError"),
        (Legendre(div(N, C(2)), C(3)), [1, 3, 5, 7], "ValueError"),
        (leg(N, C(4)), list(range(9)), "ValueError"),
        (seq("W", -5), [0, 1, 2], "ValueError"),
        (seq("stuck-at-5"), [5, 6, 7, 8], "LeadingCoefficientVanishes"),
    ],
)
def test_an_evaluation_error_fails_only_its_point(expr, bad, error):
    # (n-4) a(n+1) = 2 (n-4) a(n): the step to a(5) divides by zero
    stuck = SequenceDef("stuck-at-5", recurrence([Poly([8, -2]), Poly([-4, 1])]), {0: 1})
    register_sequence(stuck, replace=True)
    claim = CongruenceClaim("errors", "", expr, expr, C(0), Domain("integers", 0))
    rep = verify_claim_range(claim, 0, 8)
    assert rep.points_checked == 9
    assert [r.n for r in rep.failures] == bad
    for r in rep.failures:
        assert r.status == "fail" and r.lhs is None
        assert r.reason.startswith(error + ": ")


def test_report_rendering():
    rep = verify_claim_range(get_claim("theorem-1.3ii"), 2, 60)
    doc = report_to_json(rep)
    assert doc["verdict"] == "pass"
    assert doc["flagged"][0]["n"] == 2
    table = format_report_table([rep])
    assert "theorem-1.3ii" in table and "pass" in table and "note:" in table


def test_failures_are_data_with_deterministic_details():
    wrong = CongruenceClaim(
        claim_id="wrong",
        description="deliberately off by one",
        lhs=SumNode(SUM_W_SQUARES),
        rhs=sub(N, C(1)),
        modulus=mul(C(2), N),
        domain=Domain("integers", 1),
    )
    rep = verify_claim_range(wrong, 1, 20)
    assert not rep.ok
    again = verify_claim_range(wrong, 1, 20)
    assert rep.failures == again.failures
    assert all(r.status == "fail" for r in rep.failures)
