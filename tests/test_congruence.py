import copy
import dataclasses
import functools
import hashlib
import json
import math
import random
import runpy
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from rc import congruence, exactmath, sequences, telescoper
from rc.exactmath import Poly, rat_mod
from rc.exactmath import legendre as leg_sym
from rc.congruence import (
    DIRECT_CHECK_TOP,
    BinomExpr,
    Bound,
    C,
    add,
    CongruenceClaim,
    Domain,
    Legendre,
    N,
    PowInt,
    SeqFactor,
    SeqRef,
    SumEvaluator,
    SumNode,
    SumSpec,
    VerificationReport,
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
    sub,
    suite_range,
    verify_claim_range,
)
from rc.sequences import (
    Affine,
    BinomFactor,
    GeomFactor,
    SequenceDef,
    T,
    W,
    UnknownSequence,
    binom,
    binom_step,
    builtin_names,
    get_sequence,
    recurrence,
    sequence_to_json,
)
from rc.telescoper import REFERENCE_SEARCHES, cert_from_json, cert_to_json, certify, partial_sum


def test_catalogue_size_and_unique_ids():
    claims = builtin_claims()
    assert len(claims) >= 16
    ids = [c.claim_id for c in claims]
    assert len(set(ids)) == len(ids)


def test_eval_sum_examples():
    assert eval_sum(SUM_W_SQUARES, 5) == 7805
    assert eval_sum(SUM_T_PRODUCTS_8K9, 7) == 144079992
    assert eval_sum(SUM_T_PRODUCTS_8K9, 0) == 0  # empty range


def _nodes(e, cls):
    """The nodes of type cls in the expression e, outside sums."""
    if isinstance(e, cls):
        yield e
    if isinstance(e, SumNode):
        return
    for f in dataclasses.fields(e):
        value = getattr(e, f.name)
        for x in value if isinstance(value, tuple) else (value,):
            if dataclasses.is_dataclass(x):
                yield from _nodes(x, cls)


def _sum_specs(e):
    return (node.spec for node in _nodes(e, SumNode))


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
    specs.add(SumSpec(factors=(GeomFactor(-3, Affine(0, -1, 0)),), den=Poly([-5, 2])))
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
    over_k = SumSpec(factors=(central,), lo=1, den=Poly([0, 1]))
    specs = (SUM_T_PRODUCTS_8K9, over_k)
    want = {spec: _fraction_oracle(spec, 300) for spec in specs}
    reads = [0, 1, 2, 3, 3, 3, 4, 40, 41, 41, 300, 300, 7, 8, 150, 149, 0, 1, 299, 2, 300]
    ev = SumEvaluator()
    for n, m in zip(reads, reversed(reads)):
        for spec, at in zip(specs, (n, m)):
            got, oracle = ev.eval_sum(spec, at), want[spec][at]
            assert (got.numerator, got.denominator) == (oracle.numerator, oracle.denominator)


_READ = st.tuples(st.booleans(), st.integers(0, 60))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([Poly([0, 1]), Poly([-5, 2]), Poly([7, -5, 1])]),
    st.sampled_from([(), (BinomFactor(Affine(0, 2, 0), Affine(0, 1, 0)),)]),
    st.lists(_READ, min_size=1, max_size=12),
)
def test_rational_running_sums_keep_the_lcm_of_their_denominators(den, factors, reads):
    # reads (restart, step): at step when restart, else step past the last
    # read: ascending gaps, repeated reads (step 0) and reads below the cursor;
    # term denominators k, 2k - 5 (of both signs) and k^2 - 5k + 7
    spec = SumSpec(factors=factors, lo=1, den=den)
    want = _fraction_oracle(spec, 300)
    den_at = spec._coeff_at[1]
    ev, n = SumEvaluator(), 0
    for restart, step in reads:
        n = step if restart else min(n + step, 300)
        num, d = ev.running_sum(spec, n, {})
        assert F(num, d) == want[n]
        # den is the lcm of the term denominators read, not their product
        assert abs(d) == math.lcm(*(den_at(k) for k in range(1, n)))


def _term_oracle(spec, n):
    """The sum at n as the Fraction sum of `spec.term`, or the type of the
    exception that summing it raises."""
    try:
        return sum((spec.term(n, k) for k in range(spec.lo, spec.upper.at(n) + 1)), F(0))
    except (ArithmeticError, ValueError) as e:
        return type(e)


def _read(ev, spec, n):
    try:
        return F(ev.eval_sum(spec, n))
    except (ArithmeticError, ValueError) as e:
        return type(e)


_SMALL = st.integers(-3, 3)
# 1, 0, -1, 0, 1, ...: a factor that is zero inside the range and not at its
# ends, so the factors after it are left out at some k and not at the next
_COS = SequenceDef("cos", recurrence([Poly([1]), Poly([0]), Poly([1])]), {0: 1, 1: 0})
_ROOTS = st.lists(st.integers(-2, 6), max_size=2)


def _poly_with_roots(scale, roots):
    p = Poly([scale])
    for r in roots:
        p = p * Poly([-r, 1])
    return p


@st.composite
def _stepped_spec(draw, n_free):
    """A SumSpec of affine binomial and geometric factors: k-coefficients in
    -2..2, negative constants and tops, geometric bases -3..3 and exponents
    that are negative somewhere in the range or nowhere, and a coefficient
    with zeros and poles at small k; a factor may also be a sequence term
    with zeros, or one below the sequence's first index."""
    cn = st.just(0) if n_free else st.integers(-1, 2)
    affine = st.builds(Affine, cn, st.integers(-2, 2), _SMALL)
    # binomials such as binom(2k+1, k-1), nonzero over most of the range
    top = st.builds(Affine, cn, st.integers(1, 2), st.integers(0, 3))
    bottom = st.builds(Affine, st.just(0), st.integers(0, 1), st.integers(-1, 1))
    # a constant of at least 48 keeps the exponent >= 0 for every k <= 24
    exp = st.builds(Affine, cn, st.integers(-2, 2), _SMALL | st.integers(48, 50))
    factor = st.one_of(
        st.builds(BinomFactor, affine, affine),
        st.builds(BinomFactor, top, bottom),
        st.builds(GeomFactor, _SMALL, exp),
        st.builds(SeqFactor, st.just(_COS), _SMALL),
    )
    return SumSpec(
        coeff=_poly_with_roots(draw(st.integers(-2, 2)), draw(_ROOTS)),
        den=_poly_with_roots(draw(st.integers(1, 2)), draw(_ROOTS)),
        factors=tuple(draw(st.lists(factor, max_size=4))),
        lo=draw(st.integers(-2, 3)),
        upper=Bound(draw(st.integers(0, 2)), draw(_SMALL), draw(st.sampled_from([1, 2]))),
    )


_K_PLUS_3 = BinomFactor(Affine(0, 1, 3), Affine(0, 0, 1))  # binom(k+3, 1)
_2K_OVER_K = BinomFactor(Affine(0, 2, 0), Affine(0, 1, 0))
# binom(3k+1, 2k): a step multiplies six factors, and its top passes 64 by n = 24
_3K1_OVER_2K = BinomFactor(Affine(0, 3, 1), Affine(0, 2, 0))
# binom(2n-3k+40, 3k): a top that falls with k, read past bottom > top
_FALLING_TOP = BinomFactor(Affine(2, -3, 40), Affine(0, 3, 0))
# binom(k, 3): 0 for k < 3
_K_OVER_3 = BinomFactor(Affine(0, 1, 0), Affine(0, 0, 3))
# binom(65k, k): a step would multiply 65 + 1 + 64 factors, past `_MAX_STEP_FACTORS`
_PAST_CAP = BinomFactor(Affine(0, 65, 0), Affine(0, 1, 0))
_TRINOMIAL_SPECS = {
    claim.claim_id: (claim.lhs.spec, claim.rhs.spec)
    for claim in builtin_claims()
    if claim.claim_id.startswith("trinomial-transform-")
}


@settings(max_examples=400, deadline=None)
@given(
    st.booleans().flatmap(_stepped_spec),
    st.lists(st.integers(0, 24), min_size=1, max_size=8),
)
# a zero of the coefficient inside the range, then a zero of the first factor
@example(SumSpec(Poly([0, 1]), (_K_PLUS_3,), lo=-2), [3, 6])
@example(SumSpec(factors=(SeqFactor(_COS), _K_PLUS_3)), [3, 6])
# an n-free cursor that carries two stepped factors
@example(SumSpec(factors=(_2K_OVER_K, GeomFactor(-3, Affine(0, 1, 0)))), [2, 5, 9])
# steps of several factors each, n-free and n-dependent, past both step starts
@example(SumSpec(factors=(_3K1_OVER_2K,)), [24, 9, 24])
@example(SumSpec(factors=(BinomFactor(Affine(1, 3, 1), Affine(0, 2, 0)), _FALLING_TOP)), [24, 20])
# term denominators 7, 3, 1 at k = 0, 1, 2: a unit one after larger ones (31/21 at n = 3)
@example(SumSpec(den=Poly([7, -5, 1])), [3, 5])
# binom(n-1-k, k): a top that falls until bottom > top, within the range
@example(SumSpec(factors=(BinomFactor(Affine(1, -1, -1), Affine(0, 1, 0)),), upper=Bound(1, 0, 1)), [24, 9, 1])
# geometric bases 0, 1 and -1: the trinomial transforms at m = 0, 1, 2 and 3
@example(_TRINOMIAL_SPECS["trinomial-transform-m0"][0], [24, 1, 2, 9])
@example(_TRINOMIAL_SPECS["trinomial-transform-m1"][0], [24, 9])
@example(_TRINOMIAL_SPECS["trinomial-transform-m1"][1], [24, 9])
@example(_TRINOMIAL_SPECS["trinomial-transform-m2"][1], [24, 1, 2, 9])
@example(_TRINOMIAL_SPECS["trinomial-transform-m3"][1], [24, 9])
# binom(k, 1) from k = -2: the ratio's denominator k - 1 is 0 at k = 1,
# where the block starts again from 0
@example(SumSpec(factors=(BinomFactor(Affine(0, 1, 0), Affine(0, 0, 1)),), lo=-2), [3, 6])
# a factor past `_MAX_STEP_FACTORS` among stepped ones, n-free and not
@example(SumSpec(factors=(_2K_OVER_K, _PAST_CAP, GeomFactor(3, Affine(0, 1, 0)))), [4, 2, 5])
@example(SumSpec(factors=(_PAST_CAP, BinomFactor(Affine(1, 0, 0), Affine(0, 1, 0)))), [6, 3])
# the first zero factor, in declared order, ends the term: a sequence read
# below the first index raises before binom(k, 3) is 0, and not after it
@example(SumSpec(factors=(SeqFactor(_COS, -3), _K_OVER_3)), [2, 6])
@example(SumSpec(factors=(_K_OVER_3, SeqFactor(_COS, -3))), [2, 6])
@example(SumSpec(factors=(SeqFactor(_COS, -3), BinomFactor(Affine(1, 0, -5), Affine(0, 1, 0)))), [3, 8])
def test_stepped_sums_equal_the_term_oracle(spec, reads):
    # the cursor path (n-free) and the n-dependent path, each read order on
    # its own evaluator: as drawn, ascending, each point twice, descending
    orders = (reads, sorted(reads), [n for n in sorted(reads) for _ in (0, 1)], sorted(reads)[::-1])
    want = {n: _term_oracle(spec, n) for n in reads}
    for order in orders:
        ev = SumEvaluator()
        for n in order:
            assert _read(ev, spec, n) == want[n], (order, n)


@functools.cache
def _term_sum(spec, n, k_lo, k_hi):
    """The terms k = k_lo..k_hi of spec at n, summed from `SumSpec.term`."""
    terms = [spec.term(n, k) for k in range(k_lo, k_hi + 1)]
    return sum(t.numerator for t in terms if t.denominator == 1) + sum((t for t in terms if t.denominator != 1), F(0))


def _term_running_sums(spec, n, k_lo, k_hi, num, den, summand=None):
    """`sequences._running_sums` from `_term_sum`."""
    total = F(num, den) + _term_sum(spec, n, k_lo, k_hi)
    return total.numerator, total.denominator, summand


@pytest.mark.parametrize("claim_id", sorted(_TRINOMIAL_SPECS))
def test_trinomial_transforms_equal_the_term_oracle(monkeypatch, claim_id):
    # the stepped sums decide every point as the `SumSpec.term` oracle does,
    # and failure for failure when the rhs is one more
    assert len(_TRINOMIAL_SPECS) == 11
    claim = get_claim(claim_id)
    claims = (claim, dataclasses.replace(claim, rhs=add(claim.rhs, C(1))))
    got = [report_to_json(verify_claim_range(c, 1, 400, SumEvaluator())) for c in claims]
    monkeypatch.setattr(congruence, "_running_sums", _term_running_sums)
    want = [report_to_json(verify_claim_range(c, 1, 400, SumEvaluator())) for c in claims]
    assert got == want
    assert [len(r["failures"]) for r in got] == [0, 400]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-4, 40), min_size=4, max_size=4))
def test_binom_step_equals_binom(xs):
    x0, y0, x1, y1 = xs
    assert binom_step(binom(x0, y0), x0, y0, x1, y1) == binom(x1, y1)


def test_a_large_k_coefficient_gets_no_step_plan():
    # a claims file may give any coefficient, and the work of a step does not
    # grow with it: such factors are never stepped
    tracemalloc.start()
    try:
        binomial = BinomFactor(Affine(0, 10**5, 0), Affine(0, 1, 0))
        power = GeomFactor(2, Affine(0, 10**7, 0))
        assert eval_sum(SumSpec(factors=(binomial, power), upper=Bound(0, 0, 1)), 0) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200_000
    # past the cap, such factors are computed directly
    binomial = BinomFactor(Affine(0, 130, 0), Affine(0, 1, 0))
    spec = SumSpec(factors=(binomial, GeomFactor(-3, Affine(0, 130, 1))), upper=Bound(1, -1, 1))
    assert eval_sum(spec, 4) == sum(spec.term(4, k) for k in range(4))


def test_catalogue_sums_and_binomials_equal_the_reference():
    # one evaluator, each claim at ascending domain points of its suite range,
    # and one compiled reader per binomial node
    ev = SumEvaluator()
    compiler, readers = congruence._Compiler(ev), {}
    for claim in builtin_claims():
        lo, hi = suite_range(claim.claim_id)
        if claim.claim_id.startswith("trinomial-transform-"):
            hi = 60
        sides = (claim.lhs, claim.rhs, claim.modulus)
        specs = {spec for side in sides for spec in _sum_specs(side)}
        binoms = {b for side in sides for b in _nodes(side, BinomExpr)}
        oracles = {spec: _fraction_oracle(spec, hi) for spec in specs if spec.n_free}
        readers.update({b: compiler(b) for b in binoms if b not in readers})
        for n in claim.domain.points(lo, hi):
            for spec in specs:
                want = oracles[spec][n] if spec.n_free else _term_oracle(spec, n)
                assert ev.eval_sum(spec, n) == want, (claim.claim_id, n)
            for b in binoms:
                assert readers[b](n, None) == binom(b.top.exact_at(n), b.bottom.exact_at(n))
    # binom(p-1, (p-1)/2) read on by the same reader: backward, across prime
    # gaps, and by a long jump
    (middle,) = _nodes(get_claim("central-binom-middle").lhs, BinomExpr)
    for p in (7, 1009, 1013, 1019, 997, 1021, 5, 7919, 7927):
        assert readers[middle](p, None) == binom(p - 1, (p - 1) // 2), p


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


def test_primes_in():
    assert primes_in(2, 20, exclude={3}) == [2, 5, 7, 11, 13, 17, 19]
    assert primes_in(3, 10, parity="odd") == [3, 5, 7]
    assert primes_in(990, 1000) == [991, 997]
    assert primes_in(2, 20, parity="odd")[0] == 3
    with pytest.raises(ValueError):
        primes_in(2, 10**7)


def test_domain_membership():
    d = Domain("primes", 5, parity="odd", exclude=frozenset({7}))
    assert d.contains(11) and not d.contains(7) and not d.contains(2)
    assert not d.contains(9)
    assert d.points(1, 20) == [5, 11, 13, 17, 19]
    assert Domain("integers", 1, parity="odd").points(1, 9) == [1, 3, 5, 7, 9]
    assert not Domain("primes", 2, parity="odd").contains(2)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-5, 30),
    st.sampled_from([None, "odd"]),
    st.frozensets(st.integers(-5, 40), max_size=4),
    st.integers(-10, 40),
    st.integers(-10, 40),
)
@example(1, None, frozenset(), 5, 4)  # an empty range
@example(1, None, frozenset(), 9, 2)  # a reversed one
def test_integer_domain_points_are_the_filtered_range(start, parity, exclude, lo, hi):
    d = Domain("integers", start, parity=parity, exclude=exclude)
    assert list(d.each_point(lo, hi)) == list(filter(d.contains, range(lo, hi + 1)))


def test_telescoping_consistency_with_certificates():
    # two independent routes: direct summation vs certificate difference
    w_search, t_lo_search, _, t16_search = REFERENCE_SEARCHES
    pairs = [
        (SUM_W_SQUARES, w_search.find()),
        (SUM_T_PRODUCTS_8K9, t_lo_search.find()),
        (SUM_T_PRODUCTS_16K21, t16_search.find()),
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
        mul(C(F(9, 2)), SeqRef(W, -1), BinomExpr(Bound(2, 0, 1), Bound(1, 0, 1))),
    ]
    for e in exprs:
        doc = expr_to_json(e)
        assert expr_to_json(expr_from_json(doc)) == doc
        assert eval_expr(expr_from_json(doc), 7) == eval_expr(e, 7)


def test_expression_depth_cap():
    def nested(depth):  # n inside depth - 1 sums of one term
        doc = {"var": "n"}
        for _ in range(depth - 1):
            doc = {"add": [doc]}
        return doc

    assert eval_expr(expr_from_json(nested(congruence.MAX_EXPR_DEPTH)), 7) == 7
    with pytest.raises(ValueError, match="nested deeper than 32 levels"):
        expr_from_json(nested(congruence.MAX_EXPR_DEPTH + 1))


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


def _geometric_claims_file(ratio):
    """Q(n+1) = ratio Q(n), Q(0) = 1, and the claims Q(n+1) = ratio Q(n) and
    sum_{k<n} Q(k) = (Q(n) - 1)/(ratio - 1); both files write the same sum."""
    def q(shift):
        return {"seq": "Q", "shift": shift}

    q_sum = {
        "coeff": {"num": ["1"], "den": ["1"]},
        "factors": [{"seq": {"name": "Q", "shift": 0}}],
        "lo": 0,
        "upper": "n-1",
    }
    return {
        "sequences": [
            {"name": "Q", "recurrence": {"coeffs": [[str(-ratio)], ["1"]]}, "initial": {"0": "1"}}
        ],
        "claims": [
            {
                "id": f"step-{ratio}",
                "lhs": q(1),
                "rhs": {"mul": [{"const": str(ratio)}, q(0)]},
                "modulus": {"const": "0"},
                "domain": {"kind": "integers", "start": 0},
            },
            {
                "id": f"sum-{ratio}",
                "lhs": {"sum": q_sum},
                "rhs": {"div": [{"sub": [q(0), {"const": "1"}]}, {"const": str(ratio - 1)}]},
                "modulus": {"const": "0"},
                "domain": {"kind": "integers", "start": 0},
            },
        ],
    }


def test_claims_files_keep_their_own_sequences():
    first = load_claims_document(_geometric_claims_file(2))
    second = load_claims_document(_geometric_claims_file(3))
    ev = SumEvaluator()  # one evaluator for both files, as `rc verify` has
    for claim in first + second + first:
        rep = verify_claim_range(claim, 0, 10, ev)
        assert rep.ok and rep.points_checked == 11, (claim.claim_id, rep.failures[:1])
    assert first[0].lhs.seq is not second[0].lhs.seq
    assert first[1].lhs.spec != second[1].lhs.spec


def test_loading_a_claims_file_leaves_the_builtins_alone():
    (claim, _) = load_claims_document(_geometric_claims_file(2))
    assert claim.lhs.name == "Q"
    assert builtin_names() == ["T", "W", "one"]
    with pytest.raises(UnknownSequence):
        get_sequence("Q")


def _seq_nodes(e):
    """Every SeqRef and SeqFactor in e, sums included."""
    if isinstance(e, (SeqRef, SeqFactor)):
        yield e
        return
    for f in dataclasses.fields(e):
        value = getattr(e, f.name)
        for x in value if isinstance(value, tuple) else (value,):
            if dataclasses.is_dataclass(x):
                yield from _seq_nodes(x)


def test_builtin_claims_hold_the_builtin_sequences():
    nodes = [
        x
        for claim in builtin_claims()
        for side in (claim.lhs, claim.rhs, claim.modulus)
        for x in _seq_nodes(side)
    ]
    assert {type(x) for x in nodes} == {SeqRef, SeqFactor}
    assert {x.name for x in nodes} == {"W", "T"}
    for x in nodes:
        assert x.seq is get_sequence(x.name)


def test_exported_catalogue_loads_back_with_the_same_verdicts(capsys):
    script = Path(__file__).parent.parent / "scripts" / "export_claims.py"
    runpy.run_path(str(script), run_name="__main__")
    doc = json.loads(capsys.readouterr().out)
    w = get_sequence("W")
    claims = load_claims_document(doc)
    assert get_sequence("W") is w
    assert [c.claim_id for c in claims] == [c.claim_id for c in builtin_claims()]
    assert len(claims) == 30
    for claim in claims:
        lo, hi = suite_range(claim.claim_id)
        got = report_to_json(verify_claim_range(claim, lo, hi))
        want = report_to_json(verify_claim_range(get_claim(claim.claim_id), lo, hi))
        assert got == want and got["verdict"] == "pass"


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


# (n-4) a(n+1) = 2 (n-4) a(n): the step to a(5) divides by zero
STUCK_AT_5 = SequenceDef("stuck-at-5", recurrence([Poly([8, -2]), Poly([-4, 1])]), {0: 1})


@pytest.mark.parametrize(
    "expr, bad, error",
    [
        (div(C(1), sub(N, C(3))), [3], "ZeroDivisionError"),
        (PowInt(2, Bound(1, 0, 2)), [1, 3, 5, 7], "ValueError"),
        (Legendre(div(N, C(2)), C(3)), [1, 3, 5, 7], "ValueError"),
        (leg(N, C(4)), list(range(9)), "ValueError"),
        (SeqRef(W, -5), [0, 1, 2], "ValueError"),
        (SeqRef(STUCK_AT_5), [5, 6, 7, 8], "LeadingCoefficientVanishes"),
    ],
)
def test_an_evaluation_error_fails_only_its_point(expr, bad, error):
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


def test_report_table_rows_line_up_with_a_short_id():
    rep = VerificationReport("x", "", 1, 2, 2, (), (), 0.5)
    header, rule, row = format_report_table([rep]).splitlines()
    assert header.index("verdict") == row.index("pass")
    assert len(header) == len(rule) == len(row)


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


# -- certificate-backed residue verification ------------------------------------

CERTIFIED = {
    "theorem-1.1i": SUM_W_SQUARES,
    "theorem-1.1ii": SUM_W_SQUARES,
    "sun-divisibility": SUM_T_PRODUCTS_8K9,
    "theorem-1.2": SUM_T_PRODUCTS_8K9,
    "theorem-1.3i": SUM_T_PRODUCTS_16K21,
    "theorem-1.3ii": SUM_T_PRODUCTS_16K21,
}


def _oracle() -> SumEvaluator:
    """Running sums only: no certificate, so no closed form. A range check
    through it still screens its points by residues (of the running sums)."""
    return SumEvaluator(certificates=())


def _exact_walk(claim: CongruenceClaim, lo: int, hi: int) -> dict:
    """The report JSON of `check_claim_at` at every point of [lo, hi] and at
    the flagged points, with running sums only: exact values, no residues."""
    ev = SumEvaluator(certificates=())
    results = [check_claim_at(claim, n, ev) for n in claim.domain.points(lo, hi)]
    flagged = tuple(
        check_claim_at(dataclasses.replace(claim, domain=Domain("integers", n)), n, ev)
        for n in claim.flag_points
    )
    failures = tuple(r for r in results if r.status != "pass")
    return report_to_json(
        VerificationReport(
            claim.claim_id, claim.description, lo, hi, len(results), failures, flagged, 0.0, claim.notes
        )
    )


# sha256 of `json.dumps(cert_to_json(c), indent=2) + "\n"` for the certificate c
# of each reference search, in table order; these are also the digests of
# perfbench/golden/cert_*.json
REFERENCE_DIGESTS = (
    "97a07853edd3c8c16382527c304836511179b334b449eed645bd1c212d460574",  # W 8k+9, -2..0
    "d4e8ab52dad41c0689edfd25de0644df2f84df406b780d4253cce259a973c657",  # T k(k+1)(8k+9), -1..0
    "dd038d68b802bc7ae62b8bd69cfd36e84c86a224d4ce03696c24ace16ac312ec",  # T k(k+1)(8k+9), 0..1
    "a89fb8e165ee4d6ff9880961fc07d182ff7745e686626b19c93f1d1839d5b0d0",  # T (k+1)(16k+21), -1..0
)


def test_reference_certificates_are_the_solver_output():
    certs = [search.find() for search in REFERENCE_SEARCHES]
    for cert, digest in zip(certs, REFERENCE_DIGESTS, strict=True):
        blob = json.dumps(cert_to_json(cert), indent=2) + "\n"
        assert hashlib.sha256(blob.encode()).hexdigest() == digest
    # the default evaluator's closed forms are those of the pinned certificates:
    # the T 8k+9 sum takes the first matching search, the window -1..0
    def fields(closed):
        return closed.seq_a, closed.seq_b, closed.scale, closed.terms

    ev = SumEvaluator()
    for spec, cert in zip(
        (SUM_W_SQUARES, SUM_T_PRODUCTS_8K9, SUM_T_PRODUCTS_16K21), (certs[0], certs[1], certs[3])
    ):
        assert fields(ev.closed_sum(spec)[0]) == fields(cert.closed_form())
    # certificates given explicitly replace the searches
    ev = SumEvaluator(certificates=[certs[0]])
    assert fields(ev.closed_sum(SUM_W_SQUARES)[0]) == fields(certs[0].closed_form())
    assert ev.closed_sum(SUM_T_PRODUCTS_8K9) is None


@pytest.mark.parametrize("claim_id", sorted(CERTIFIED))
@pytest.mark.parametrize("wrong_rhs", [None, leg(N, C(3)), C(F(1, 2))])
def test_residue_path_reports_match_the_running_sum_oracle(claim_id, wrong_rhs):
    # integer claims over n <= 2000, prime claims over the primes below 2000;
    # a wrong rhs makes points fail, on the residue path and by a non-unit
    claim = get_claim(claim_id)
    if wrong_rhs is not None:
        claim = dataclasses.replace(claim, rhs=add(claim.rhs, wrong_rhs))
    ev = SumEvaluator()
    assert ev.closed_sum(CERTIFIED[claim_id]) is not None
    got = report_to_json(verify_claim_range(claim, 1, 2000, ev))
    want = report_to_json(verify_claim_range(claim, 1, 2000, _oracle()))
    assert got == want
    assert got == _exact_walk(claim, 1, 2000)
    assert (got["verdict"] == "pass") == (wrong_rhs is None)


def test_certified_sums_equal_the_running_sums():
    ev, oracle = SumEvaluator(), _oracle()
    for spec in (SUM_W_SQUARES, SUM_T_PRODUCTS_8K9, SUM_T_PRODUCTS_16K21):
        assert ev.closed_sum(spec) is not None and oracle.closed_sum(spec) is None
        for n in range(0, 2001):
            got, want = ev.eval_sum(spec, n), oracle.eval_sum(spec, n)
            assert got == want and type(got) is int


def test_certified_sums_read_in_descending_order_use_the_memo(monkeypatch):
    # the first read streams through the window; each lower read after it is
    # random access, served by the memo instead of a window restarted per read
    monkeypatch.setattr(W, "_memo", W._memo[: len(W.initial)])
    ev = SumEvaluator()
    got = {n: ev.eval_sum(SUM_W_SQUARES, n) for n in range(600, -1, -1)}
    assert ev.window(W).steps <= 600
    oracle = _oracle()
    assert got == {n: oracle.eval_sum(SUM_W_SQUARES, n) for n in range(0, 601)}


def test_a_certificate_that_fails_certify_is_never_used():
    w_cert = cert_to_json(REFERENCE_SEARCHES[0].find())
    tampered = copy.deepcopy(w_cert)
    tampered["g"][2]["poly"][1] = "23/2"  # was 21/2
    assert not certify(cert_from_json(tampered)).ok
    outside = {**copy.deepcopy(w_cert), "g": [{"i": 0, "j": 1, "poly": ["1"]}]}
    for table in ([tampered], [outside, tampered]):
        ev = SumEvaluator(certificates=[cert_from_json(doc) for doc in table])
        assert ev.closed_sum(SUM_W_SQUARES) is None
        for claim_id in ("theorem-1.1i", "theorem-1.1ii"):
            claim = get_claim(claim_id)
            got = report_to_json(verify_claim_range(claim, 1, 300, ev))
            assert got == report_to_json(verify_claim_range(claim, 1, 300, _oracle()))
            assert got == _exact_walk(claim, 1, 300)
            assert got["verdict"] == "pass"


def test_a_certificate_is_used_only_past_the_denominator_root_check(monkeypatch):
    monkeypatch.setattr("rc.congruence.reductions_defined_from", lambda cert: False)
    assert SumEvaluator().closed_sum(SUM_W_SQUARES) is None


def test_an_unreduced_coefficient_decodes_to_the_reduced_sum():
    # (8k+9)(k+1) / (k+1) in a claims file is the theorem-1.1i summand: the
    # same spec, hash and JSON, so it shares the certificate and the cursor
    doc = claim_to_json(get_claim("theorem-1.1i"))
    doc["lhs"]["sum"]["coeff"] = {"num": ["9", "17", "8"], "den": ["1", "1"]}
    (claim,) = load_claims_document({"claims": [doc]})
    spec = claim.lhs.spec
    assert spec == SUM_W_SQUARES
    assert hash(spec) == hash(SUM_W_SQUARES)
    assert spec.to_json() == SUM_W_SQUARES.to_json()
    assert SumEvaluator().closed_sum(spec) is not None


def test_certificates_apply_only_to_their_own_summand():
    ev = SumEvaluator()
    for spec in (
        dataclasses.replace(SUM_W_SQUARES, lo=-1),
        dataclasses.replace(SUM_W_SQUARES, coeff=Poly([9, 7])),
        dataclasses.replace(SUM_W_SQUARES, factors=(SeqFactor(W, 0), SeqFactor(W, 1))),
        dataclasses.replace(SUM_T_PRODUCTS_8K9, factors=(SeqFactor(T, 0), SeqFactor(T, 0))),
        dataclasses.replace(SUM_W_SQUARES, factors=(SeqFactor(T, 0), SeqFactor(T, 0))),
    ):
        assert ev.closed_sum(spec) is None
    # another lower limit and upper bound keep the certificate
    spec = SumSpec(coeff=SUM_W_SQUARES.coeff, factors=SUM_W_SQUARES.factors, lo=3, upper=Bound(1, 0, 2))
    assert ev.closed_sum(spec) is not None
    for n in range(0, 60):
        assert ev.eval_sum(spec, n) == _oracle().eval_sum(spec, n)


def test_residue_points_fall_back_to_the_exact_path():
    # divisors that are not units, negative and vanishing divisors, moduli
    # of 0 and 1, negative powers: the reports are the oracle's
    s = SumNode(SUM_W_SQUARES)
    cases = [
        (div(s, C(4)), sub(N, C(0)), mul(C(2), N)),
        (div(s, sub(N, C(3))), N, C(2)),
        (div(s, C(F(-3, 2))), div(N, C(-3)), N),
        (s, N, C(0)),
        (s, C(F(1, 2)), C(1)),
        (mul(s, PowInt(2, Bound(1, -3, 1))), N, N),
        (add(s, PowInt(0, Bound(1, -3, 1))), N, C(3)),
    ]
    for lhs, rhs, modulus in cases:
        claim = CongruenceClaim("fallback", "", lhs, rhs, modulus, Domain("integers", 0))
        got = report_to_json(verify_claim_range(claim, 0, 40, SumEvaluator()))
        assert got == report_to_json(verify_claim_range(claim, 0, 40, _oracle()))
        assert got == _exact_walk(claim, 0, 40)


def test_only_the_flagged_point_is_computed_exactly(monkeypatch):
    exact = []
    inner = congruence._check_raw
    monkeypatch.setattr(congruence, "_check_raw", lambda c, n, ev: exact.append(n) or inner(c, n, ev))
    assert verify_claim_range(get_claim("theorem-1.3ii"), 2, 300).ok
    assert exact == [2]
    assert verify_claim_range(get_claim("theorem-1.3ii"), 2, 300, _oracle()).ok
    assert exact == [2, 2]  # the running sum is screened too


_BOUNDS = st.builds(Bound, st.integers(-2, 2), st.integers(-6, 6), st.integers(1, 2))
_LEAVES = st.one_of(
    st.builds(lambda a, b: C(F(a, b)), st.integers(-9, 9), st.integers(1, 4)),
    st.just(N),
    st.builds(SeqRef, st.sampled_from([W, T]), st.integers(-3, 3)),
    st.builds(PowInt, st.integers(-3, 3), _BOUNDS),  # negative where cn n + c < 0
    st.builds(BinomExpr, _BOUNDS, _BOUNDS),
)
_SUM_FREE_TREES = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(
        st.builds(Legendre, kids, st.one_of(st.sampled_from([C(3), C(5), C(7)]), kids)),
        st.lists(kids, min_size=1, max_size=3).map(lambda xs: add(*xs)),
        st.lists(kids, min_size=1, max_size=3).map(lambda xs: mul(*xs)),
        st.builds(sub, kids, kids),
        st.builds(div, kids, kids),
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(
    _SUM_FREE_TREES,
    st.lists(
        st.tuples(st.integers(0, 40), st.sampled_from([1, 2, 3, 4, 7, 9, 12, 25, 60])),
        min_size=1,
        max_size=6,
    ),
)
@example(PowInt(0, Bound(1, -3, 1)), [(0, 1)])  # 0^-3 raises, also modulo 1
@example(leg(N, C(3)), [(2, 7)])  # (2|3) = -1 is 6 modulo 7
def test_residues_agree_with_exact_values(e, points):
    # the two modes of one compiled expression: wherever f(n, m) returns, so
    # does f(n, None), and f(n, m) is its residue; f reads the sequences
    # through windows in both modes, at points in any order, and a
    # compilation that is not routed reads the same values from the memo
    compiler = congruence._Compiler(SumEvaluator())
    f = compiler(e)
    compiler.route()
    from_memo = congruence._Compiler(SumEvaluator())(e)
    for n, m in points:
        try:
            r = f(n, m)
        except congruence._POINT_ERRORS:
            continue
        v = f(n, None)
        assert v == from_memo(n, None)
        assert r == (v % m if isinstance(v, int) else rat_mod(v, m))


# -- the bounded term window ------------------------------------------------------


def _w_claim_doc(shift: int) -> dict:
    """theorem-1.1i with W(n + shift) - W(n) added to both sides."""
    extra = {"sub": [{"seq": "W", "shift": shift}, {"seq": "W", "shift": 0}]}
    return {
        "claims": [
            {
                "id": "w-squares-plus-a-far-term",
                "lhs": {"add": [{"sum": SUM_W_SQUARES.to_json()}, extra]},
                "rhs": {"add": [{"var": "n"}, extra]},
                "modulus": {"mul": [{"const": "2"}, {"var": "n"}]},
            }
        ]
    }


def test_ascending_verification_steps_each_term_once(monkeypatch):
    # the claim reads W at n-2..n (its sum's closed form) and at n + 40, so
    # the window holds the order 3 plus a span of 42; a narrower one would
    # start again from the memo at each point
    monkeypatch.setattr(W, "_memo", W._memo[: len(W.initial)])
    (claim,) = load_claims_document(_w_claim_doc(40))
    ev = SumEvaluator()
    assert ev.closed_sum(SUM_W_SQUARES) is not None  # certify fills the memo to 200
    memo_top = W.min_index + len(W._memo) - 1
    rep = verify_claim_range(claim, 1, 600, ev)
    assert rep.ok and rep.points_checked == 600
    assert W.min_index + len(W._memo) - 1 == memo_top  # no point was computed exactly
    window = ev.window(W)
    assert window.width == W.recurrence.order + 42
    assert window.steps == 600 + 40 - memo_top
    # the exact sum at the top point reads the window without a step
    assert ev.eval_sum(SUM_W_SQUARES, 601) == _oracle().eval_sum(SUM_W_SQUARES, 601)
    assert window.steps == 600 + 40 - memo_top
    # once the memo reaches past the window, the window steps on from the memo
    W.term(700)
    assert window.term(701) == W.term(701) and window.steps == 600 + 40 - memo_top + 1


def test_a_sequence_read_at_two_rates_is_read_from_the_memo():
    # theorem-1.1i at u = 2n + 1, with W(n) added to both sides: the closed
    # form reads W near 2n and the reference at n, so no window of fixed
    # width holds both, and the residue check reads W from the memo
    double = dataclasses.replace(SUM_W_SQUARES, upper=Bound(2, 0, 1))
    lhs = add(SumNode(double), SeqRef(W, 0))
    rhs = add(mul(C(2), N), C(1), SeqRef(W, 0))
    modulus = add(mul(C(4), N), C(2))
    claim = CongruenceClaim("two-rates", "", lhs, rhs, modulus, Domain("integers", 1))
    ev = SumEvaluator()
    got = report_to_json(verify_claim_range(claim, 1, 300, ev))
    assert got == report_to_json(verify_claim_range(claim, 1, 300, _oracle()))
    assert got == _exact_walk(claim, 1, 300)
    assert got["verdict"] == "pass" and ev.window(W).steps == 0


@pytest.mark.parametrize(
    "claim_id, kind, lo, hi, failures",
    [
        pytest.param("theorem-1.1i", "integers", 1, 8000, 0, id="theorem-1.1i-1-8000"),
        pytest.param("t-prime", "primes", 5, 8000, 0, id="t-prime-5-8000"),
        # T(8000) is not 1 modulo 8000^2: the exact check of the failing
        # point reads the window that its residue check just stepped
        pytest.param("t-prime", "integers", 8000, 8000, 1, id="t-prime-integers-8000-8000"),
    ],
)
def test_windowed_verification_memory_stays_bounded(claim_id, kind, lo, hi, failures):
    # in a fresh process, so that no other test has filled a memo: with the
    # memo alone theorem-1.1i peaks at 7.4 MB, t-prime at 7.1 MB and its
    # failing point at 7.06 MB, with the window at 0.36 MB, 53 KB and 17 KB
    script = (
        "import dataclasses, tracemalloc\n"
        "from rc.congruence import get_claim, verify_claim_range\n"
        f"claim = get_claim({claim_id!r})\n"
        f"claim = dataclasses.replace(claim, domain=dataclasses.replace(claim.domain, kind={kind!r}))\n"
        "tracemalloc.start()\n"
        f"rep = verify_claim_range(claim, {lo}, {hi})\n"
        "print(rep.ok, len(rep.failures), rep.points_checked, tracemalloc.get_traced_memory()[1])\n"
    )
    src = str(Path(congruence.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": src, "PATH": ""},
    )
    assert proc.returncode == 0, proc.stderr
    ok, failed, points, peak = proc.stdout.split()
    domain = dataclasses.replace(get_claim(claim_id).domain, kind=kind)
    assert ok == str(not failures) and int(failed) == failures
    assert int(points) == len(domain.points(lo, hi))
    assert int(peak) < 1_000_000


def test_a_division_of_integers_stays_exact():
    # an integer quotient is an int, an inexact one the Fraction it was
    for a, b in ((12, 4), (-12, 4), (12, -4), (0, 7), (7, 2), (-7, 2), (7, -2)):
        got = eval_expr(div(C(a), C(b)), 0)
        want = F(a, b)
        assert got == want
        assert type(got) is (int if want.denominator == 1 else F)
    # n^2 (n^2 - 1) / 6 at n = 10^6, a 79-bit quotient
    n2 = mul(N, N)
    modulus = div(mul(n2, sub(n2, C(1))), C(6))
    assert eval_expr(modulus, 10**6) == 10**12 * (10**12 - 1) // 6


# -- folded polynomial nodes and the residue pass -------------------------------------


_NONZERO_CONSTS = st.builds(
    lambda a, b: C(F(a, b)), st.integers(-9, 9).filter(bool), st.integers(1, 4)
)
_POLYNOMIAL_TREES = st.recursive(
    st.one_of(st.builds(lambda a, b: C(F(a, b)), st.integers(-9, 9), st.integers(1, 4)), st.just(N)),
    lambda kids: st.one_of(
        st.lists(kids, min_size=1, max_size=3).map(lambda xs: add(*xs)),
        st.lists(kids, min_size=1, max_size=3).map(lambda xs: mul(*xs)),
        st.builds(sub, kids, kids),
        st.builds(div, kids, st.one_of(_NONZERO_CONSTS, _NONZERO_CONSTS.map(lambda c: add(c, C(0))))),
    ),
    max_leaves=10,
)


def _unfolded(e, n: int) -> F:
    """The value at n of a tree of constants, n, +, -, x and division, node by node."""
    if isinstance(e, congruence.Const):
        return e.value
    if isinstance(e, congruence.VarN):
        return F(n)
    if isinstance(e, congruence.Add):
        return sum((_unfolded(t, n) for t in e.terms), F(0))
    if isinstance(e, congruence.Mul):
        out = F(1)
        for x in e.factors:
            out *= _unfolded(x, n)
        return out
    if isinstance(e, congruence.Sub):
        return _unfolded(e.a, n) - _unfolded(e.b, n)
    return _unfolded(e.a, n) / _unfolded(e.b, n)


@settings(max_examples=300, deadline=None)
@given(_POLYNOMIAL_TREES, st.integers(-60, 60), st.integers(1, 720))
@example(mul(C(F(1, 2)), N), 2, 2)  # n/2 is 1 modulo 2 at n = 2, though 1/2 has no residue
@example(div(N, C(6)), 3, 3)  # 3/6 = 1/2 is 2 modulo 3, though 6 is not a unit
@example(div(N, C(6)), 2, 3)  # 2/6 = 1/3 has no residue modulo 3
def test_folded_polynomials_equal_the_unfolded_tree(e, n, m):
    # exactly: the same value, an int where it is integral and a Fraction
    # elsewhere; modulo m: the residue of that value, or the ValueError that
    # inverting its denominator raises
    assert congruence._polynomial(e) is not None
    f = congruence._Compiler(SumEvaluator(certificates=()))(e)
    want = _unfolded(e, n)
    got = f(n, None)
    assert got == want and type(got) is (int if want.denominator == 1 else F)
    try:
        want_mod = want.numerator * pow(want.denominator, -1, m) % m
    except ValueError:
        with pytest.raises(ValueError):
            f(n, m)
    else:
        assert f(n, m) == want_mod


def test_a_division_by_a_zero_constant_is_not_folded():
    e = div(N, sub(C(2), C(2)))
    assert congruence._polynomial(e) is None
    claim = CongruenceClaim("zero-divisor", "", e, C(0), C(5), Domain("integers", 0))
    reason = "ZeroDivisionError: division by zero in expression"
    assert [r.reason for r in verify_claim_range(claim, 0, 3).failures] == [reason] * 4
    assert check_claim_at(claim, 7).reason == reason


@pytest.mark.parametrize(
    "claim_id, spec, reads, exact_points",
    [
        # W(n-2), W(n-1) and W(n) for the closed form
        ("theorem-1.1i", SUM_W_SQUARES, 3 * 300, []),
        # the modulus n^2 (n^2 - 1) / 6 is 0 at n = 1: equality, checked exactly
        ("sun-divisibility", SUM_T_PRODUCTS_8K9, 2 * 300, [1]),
        # T(n-1) and T(n), for the closed form and for the rhs 9n T(n-1) T(n)
        ("theorem-1.3i", SUM_T_PRODUCTS_16K21, 2 * 300, []),
    ],
)
def test_a_screened_point_reads_each_term_once(monkeypatch, claim_id, spec, reads, exact_points):
    # every point with a nonzero modulus passes on its residue, with one
    # window read per term it holds
    ev = SumEvaluator()
    assert ev.closed_sum(spec) is not None  # reads D S(lo) before counting
    exact, read = [], []
    term, check = sequences.TermWindow.term, congruence._check_raw
    monkeypatch.setattr(sequences.TermWindow, "term", lambda w, i: read.append(i) or term(w, i))
    monkeypatch.setattr(congruence, "_check_raw", lambda c, n, sides: exact.append(n) or check(c, n, sides))
    rep = verify_claim_range(get_claim(claim_id), 1, 300, ev)
    assert rep.ok and rep.points_checked == 300
    assert exact == exact_points and len(read) == reads


def test_two_claims_read_t_in_turn(monkeypatch):
    # sun-divisibility leaves the evaluator's T window at N + 1, so
    # theorem-1.3i, starting again at n = 1, steps every T term past the
    # memo a second time: this pins the count, whatever a step costs
    monkeypatch.setattr(T, "_memo", T._memo[: len(T.initial)])
    ev, hi = SumEvaluator(), 600
    for claim_id in ("sun-divisibility", "theorem-1.3i"):
        assert verify_claim_range(get_claim(claim_id), 1, hi, ev).ok
    top = T.min_index + len(T._memo)  # certify filled the memo below this
    assert top < hi and ev.window(T).steps == 2 * (hi + 1 - top)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 64), st.integers(-(1 << 13000), 1 << 13000))
def test_a_power_of_two_residue_is_a_mask(a, x):
    # read_point reduces by mask where the frame modulus is 2^a, also the
    # negative terms (W's initial terms are negative)
    m = 1 << a
    assert x & (m - 1) == x % m


@pytest.mark.parametrize("claim_id, lo, hi", [("theorem-1.1i", 1, 2000), ("w-adjacent-products", 2, 2000)])
def test_a_power_of_two_frame_decides_every_point(monkeypatch, claim_id, lo, hi):
    # the frame modulus is 4 at every point of both claims, so each held term
    # is reduced by mask; every point passes on its residue
    claim, bigs, exact = get_claim(claim_id), set(), []
    read_point, check = congruence._Compiler.read_point, congruence._check_raw

    def recorded(self, n, m):
        read_point(self, n, m)
        bigs.add(self.frame[1])

    monkeypatch.setattr(congruence._Compiler, "read_point", recorded)
    monkeypatch.setattr(congruence, "_check_raw", lambda c, n, sides: exact.append(n) or check(c, n, sides))
    got = report_to_json(verify_claim_range(claim, lo, hi, SumEvaluator()))
    assert bigs == {4} and exact == []
    monkeypatch.undo()
    assert got == _exact_walk(claim, lo, hi)


def test_a_vanishing_divisor_is_not_masked(monkeypatch):
    # w-adjacent-products with its lhs times and over n - 5, from a claims
    # file: the frame modulus 4 |n - 5| is a power of two at n = 4 and 6 and
    # 0 at n = 5, where reading the frame raises, as % 0 does, and the point
    # is checked exactly; no frame is kept modulo 0
    doc = claim_to_json(get_claim("w-adjacent-products"))
    shifted = {"sub": [{"var": "n"}, {"const": "5"}]}
    doc["lhs"] = {"div": [{"mul": [doc["lhs"], shifted]}, shifted]}
    (claim,) = load_claims_document({"claims": [doc]})
    read_point, bigs, raised = congruence._Compiler.read_point, {}, []

    def recorded(self, n, m):
        try:
            read_point(self, n, m)
        except ZeroDivisionError:
            raised.append(n)
            raise
        bigs[n] = self.frame[1]

    monkeypatch.setattr(congruence._Compiler, "read_point", recorded)
    got = report_to_json(verify_claim_range(claim, 2, 12, SumEvaluator()))
    assert raised == [5] and bigs[4] == bigs[6] == 4 and 0 not in bigs.values()
    monkeypatch.undo()
    assert got == _exact_walk(claim, 2, 12)
    assert [f["n"] for f in got["failures"]] == [5]


@pytest.mark.parametrize("claim_id", ["theorem-1.1i", "sun-divisibility", "theorem-1.3i"])
def test_the_residue_pass_makes_no_horner_call(monkeypatch, claim_id):
    # the recurrence coefficients, the closed form's g and the folded nodes
    # are built into evaluators once, so a point evaluates no polynomial
    # through horner
    calls = []
    horner = exactmath.horner

    def counted(coeffs, x):
        calls.append(x)
        return horner(coeffs, x)

    for module in (exactmath, sequences, congruence, telescoper):
        if hasattr(module, "horner"):
            monkeypatch.setattr(module, "horner", counted)
    claim, ev = get_claim(claim_id), SumEvaluator()
    assert verify_claim_range(claim, 1, 5, ev).ok  # the certificate search and certify
    calls.clear()
    rep = verify_claim_range(claim, 1, 300, ev)
    assert rep.ok and rep.points_checked == 300
    assert calls == []


def test_a_sum_under_a_division_reads_each_term_once(monkeypatch):
    # theorem-1.1ii divides its sum by n, so its closed form is asked for
    # residues modulo m n D: the frame covers that modulus, and each point
    # reads W(n-2), W(n-1) and W(n) once, after the 3 reads of D S(lo)
    read = []
    term = sequences.TermWindow.term
    monkeypatch.setattr(sequences.TermWindow, "term", lambda w, i: read.append(i) or term(w, i))
    rep = verify_claim_range(get_claim("theorem-1.1ii"), 3, 997, SumEvaluator())
    assert rep.ok and rep.points_checked == 167
    assert len(read) == 3 * 167 + 3


@pytest.mark.parametrize(
    "claim_id, bits",
    # m = 2n, q = k, D = 2: 4; m = n^2 (n^2 - 1) / 6, q = k^2, D = 24: 4 (n^2 - 1);
    # m = n^2 for the rhs's T(n-1) T(n), and q = k, D = 8 for the sum
    [("theorem-1.1i", 3), ("sun-divisibility", 28), ("theorem-1.3i", 26)],
)
def test_the_frame_modulus_leaves_out_q(claim_id, bits):
    # the sum's closed form needs its terms modulo m D / gcd(q(n), m D) only
    compiler = congruence._Compiler(SumEvaluator())
    _, _, modulus = compiler.sides(get_claim(claim_id))
    assert compiler.frame_modulus(8000, int(modulus(8000, None))).bit_length() == bits


def test_no_residue_is_carried_across_a_change_of_modulus_or_a_gap(monkeypatch):
    # theorem-1.1i restated from a claims file modulo n (1 + (n|3)^2): 2n, or
    # n where 3 divides n, so the frame modulus goes 4, 4, 2, 4, 4, 2, ...;
    # every point reads all three terms, each modulo its own frame modulus
    doc = claim_to_json(get_claim("theorem-1.1i"))
    leg3 = {"legendre": [{"var": "n"}, {"const": "3"}]}
    doc["modulus"] = {"mul": [{"var": "n"}, {"add": [{"const": "1"}, {"mul": [leg3, leg3]}]}]}
    (claim,) = load_claims_document({"claims": [doc]})
    compiler = congruence._Compiler(SumEvaluator())
    _, _, modulus = compiler.sides(claim)
    assert [compiler.frame_modulus(n, int(modulus(n, None))) for n in range(1, 7)] == [4, 4, 2, 4, 4, 2]

    read, frames = [], []
    term, read_point = sequences.TermWindow.term, congruence._Compiler.read_point
    monkeypatch.setattr(sequences.TermWindow, "term", lambda w, i: read.append(i) or term(w, i))

    def recorded(self, n, m):
        read_point(self, n, m)
        frames.append(list(self.frame))

    monkeypatch.setattr(congruence._Compiler, "read_point", recorded)
    rep = verify_claim_range(claim, 1, 300, SumEvaluator())
    assert rep.ok and rep.points_checked == 300
    assert len(read) == 3 + 3 * 300  # D S(0), then three terms per point
    for n, big, held in frames:
        assert held == [W.term(n + s) % big for s in (-2, -1, 0)]

    # theorem-1.1i on the primes: the frame modulus is 4 at every point, and
    # each point across a gap reads all three terms too
    read.clear()
    frames.clear()
    primes = dataclasses.replace(get_claim("theorem-1.1i"), domain=Domain("primes", 3))
    rep = verify_claim_range(primes, 3, 997, SumEvaluator())
    assert rep.ok and rep.points_checked == 167
    assert len(read) == 3 + 3 * 167
    assert {big for _, big, _ in frames} == {4}


@pytest.mark.parametrize(
    "claim_id, change",
    [
        ("theorem-1.3i", {"rhs": mul(C(10), N, SeqRef(T, -1), SeqRef(T, 0))}),
        ("sun-divisibility", {"modulus": div(mul(N, N, sub(mul(N, N), C(1))), C(3))}),
    ],
)
def test_a_false_claim_is_reported_as_the_exact_path_reports_it(claim_id, change):
    claim = dataclasses.replace(get_claim(claim_id), **change)
    got = report_to_json(verify_claim_range(claim, 1, 300, SumEvaluator()))
    assert got == report_to_json(verify_claim_range(claim, 1, 300, _oracle()))
    assert got == _exact_walk(claim, 1, 300)
    assert got["verdict"] == "fail"


# claims over W and T at shifts -1..2, the catalogue's sums, Legendre symbols
# on primes, +, -, x and division by constants and by n +- 1, modulo a fixed
# list of moduli, on both domains
_SCREEN_SUMS = (SUM_W_SQUARES, SUM_T_PRODUCTS_8K9, SUM_T_PRODUCTS_16K21) + tuple(
    spec
    for claim_id in ("central-binom-over-k-half", "central-binom-over-k-full", "central-binom-sum-half", "central-binom-2k-1")
    for spec in _sum_specs(get_claim(claim_id).lhs)
)
_SCREEN_LEAVES = st.one_of(
    st.builds(C, st.integers(-4, 4)),
    st.just(N),
    st.builds(SeqRef, st.sampled_from([W, T]), st.integers(-1, 2)),
    st.sampled_from(_SCREEN_SUMS).map(SumNode),
    st.sampled_from([leg(N, C(3)), leg(N, C(5)), leg(C(-3), N), leg(C(-1), N)]),
)
_SCREEN_TREES = st.recursive(
    _SCREEN_LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, min_size=2, max_size=3).map(lambda xs: add(*xs)),
        st.lists(kids, min_size=2, max_size=3).map(lambda xs: mul(*xs)),
        st.builds(sub, kids, kids),
        st.builds(div, kids, st.sampled_from([C(2), C(3), C(-4), add(N, C(1)), sub(N, C(1))])),
    ),
    max_leaves=6,
)
_SCREEN_MODULI = (
    C(2), C(4), C(12), N, mul(C(2), N), mul(N, N), sub(N, C(1)), div(mul(N, N, sub(mul(N, N), C(1))), C(6)),
)


@st.composite
def _screened_claims(draw):
    """A claim lhs = rhs modulo one of `_SCREEN_MODULI`: rhs is lhs plus the
    modulus times a tree, which passes wherever that tree is integral, or any
    tree, which fails most points."""
    lhs, modulus = draw(_SCREEN_TREES), draw(st.sampled_from(_SCREEN_MODULI))
    rhs = draw(st.one_of(_SCREEN_TREES.map(lambda f: add(lhs, mul(modulus, f))), _SCREEN_TREES))
    domain = Domain(draw(st.sampled_from(["integers", "primes"])), draw(st.integers(0, 3)))
    return CongruenceClaim("screened", "", lhs, rhs, modulus, domain)


@settings(max_examples=100, deadline=None)
@given(_screened_claims(), st.integers(0, 6), st.integers(0, 54))
# W(2) = 1 is odd: a residue of W kept from n = 1, modulo 1, would pass n = 2
@example(CongruenceClaim("screened", "", C(0), SeqRef(W), N, Domain("integers", 0)), 0, 2)
def test_screened_reports_equal_the_exact_walk(claim, lo, width):
    # the residue pass, with and without certificates, against every point
    # computed exactly
    want = _exact_walk(claim, lo, lo + width)
    for ev in (SumEvaluator(), SumEvaluator(certificates=())):
        assert report_to_json(verify_claim_range(claim, lo, lo + width, ev)) == want


def test_integer_points_are_streamed():
    # a claim over 1..200000 checks its points without the list of them
    # (7.7 MB here, 38.6 MB for 1..10^6)
    doc = {
        "claims": [
            {
                "id": "consecutive-product",
                "lhs": {"mul": [{"var": "n"}, {"add": [{"var": "n"}, {"const": "1"}]}]},
                "rhs": {"const": "0"},
                "modulus": {"const": "2"},
            }
        ]
    }
    (claim,) = load_claims_document(doc)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        points = claim.domain.points(1, 200_000)
        list_peak = tracemalloc.get_traced_memory()[1] - base
        del points
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        rep = verify_claim_range(claim, 1, 200_000)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.points_checked == 200_000
    assert peak < list_peak


# -- running sums screened by residues ---------------------------------------------


@pytest.mark.parametrize(
    "claim_id",
    ["central-binom-over-k-full", "central-binom-over-k-half", "central-binom-2k-1", "central-binom-sum-half"],
)
@pytest.mark.parametrize("plus_one", [False, True], ids=["claim", "rhs-plus-1"])
def test_running_sums_are_screened_by_residues(monkeypatch, claim_id, plus_one):
    # these sums have no certificate: a point is decided from num / den of
    # the cursor modulo p, and only the failing points are computed exactly
    claim = get_claim(claim_id)
    if plus_one:
        claim = dataclasses.replace(claim, rhs=add(claim.rhs, C(1)))
    lo, hi = suite_range(claim_id)
    want = _exact_walk(claim, lo, 4 * hi)
    ev = SumEvaluator()
    assert all(ev.closed_sum(spec) is None for spec in _sum_specs(claim.lhs))
    exact, check = [], congruence._check_raw
    monkeypatch.setattr(congruence, "_check_raw", lambda c, n, sides: exact.append(n) or check(c, n, sides))
    got = report_to_json(verify_claim_range(claim, lo, 4 * hi, ev))
    assert got == want
    assert exact == [r["n"] for r in got["failures"]]
    assert got["verdict"] == ("fail" if plus_one else "pass")


def test_a_denominator_that_is_not_a_unit_falls_back_to_the_exact_path(monkeypatch):
    # H(n-1) = sum 1/k for k < n modulo n: the cursor's den, the lcm of
    # 1..n-1, is a unit modulo a prime, where H(p-1) = 0 (p >= 3) passes on
    # its residue; at a composite n it is not, and the exact path decides
    harmonic = SumNode(SumSpec(lo=1, upper=Bound(1, -1, 1), den=Poly([0, 1])))
    claim = CongruenceClaim("harmonic", "", harmonic, C(0), N, Domain("integers", 1))
    want = _exact_walk(claim, 1, 400)
    exact, check = [], congruence._check_raw
    monkeypatch.setattr(congruence, "_check_raw", lambda c, n, sides: exact.append(n) or check(c, n, sides))
    got = report_to_json(verify_claim_range(claim, 1, 400, SumEvaluator()))
    assert got == want
    composites = [n for n in range(4, 401) if n not in primes_in(4, 400)]
    assert exact == [2] + composites == [r["n"] for r in got["failures"]]
    assert "is not invertible" in got["failures"][1]["reason"]


def _t2_document(extra: dict | None = None, kind: str = "integers") -> dict:
    """A claims file with T2, a copy of T, and theorem-1.3i restated over it,
    with extra added to both sides."""
    claim = claim_to_json(get_claim("theorem-1.3i"))
    text = json.dumps(claim).replace('"name": "T"', '"name": "T2"').replace('"seq": "T"', '"seq": "T2"')
    claim = {**json.loads(text), "id": "theorem-1.3i-T2"}
    claim["domain"]["kind"] = kind
    if extra is not None:
        claim["lhs"] = {"add": [claim["lhs"], extra]}
        claim["rhs"] = {"add": [claim["rhs"], extra]}
    return {"sequences": [{**sequence_to_json(T), "name": "T2"}], "claims": [claim]}


def test_a_claims_file_sum_streams_through_the_windows():
    # the sum of T2(k) T2(k+1) and the references T2(n-1), T2(n) share one
    # window: each term is stepped once and T2's memo is never filled, not
    # even by the check of T2's direct formula (T's) at load
    (claim,) = load_claims_document(_t2_document())
    got = report_to_json(verify_claim_range(claim, 1, 300, SumEvaluator()))
    want = report_to_json(verify_claim_range(get_claim("theorem-1.3i"), 1, 300, SumEvaluator()))
    assert got == {**want, "claim": "theorem-1.3i-T2"}
    (claim,) = load_claims_document(_t2_document())
    t2 = claim.rhs.factors[-1].seq
    ev = SumEvaluator()
    rep = verify_claim_range(claim, 1, 2000, ev)
    assert rep.ok and rep.points_checked == 2000
    assert ev.window(t2).steps == 2000 - t2.max_initial
    assert t2.direct == T.direct and len(t2._memo) == len(t2.initial)


def test_a_recurrence_step_that_raises_ends_the_direct_check():
    # n Q(n + 1) = Q(n) cannot step past Q(0): the check stops there, and a
    # claim fails at the points that read Q(1) on, as it did before the check
    q = {**sequence_to_json(get_sequence("one")), "name": "Q", "recurrence": {"coeffs": [["-1"], ["0", "1"]]}}
    claim = {"id": "q", "lhs": {"seq": "Q", "shift": 0}, "rhs": {"const": "1"}, "modulus": {"const": "0"}}
    (claim,) = load_claims_document({"sequences": [q], "claims": [claim]})
    rep = verify_claim_range(claim, 1, 3, SumEvaluator())
    assert [r.n for r in rep.failures] == [1, 2, 3]
    assert all(r.reason.startswith("LeadingCoefficientVanishes") for r in rep.failures)


def test_the_direct_check_stops_at_its_top():
    # Q(n + 1) = 2 Q(n) against the direct formula 1 disagrees at its first
    # stepped term, which is checked only up to DIRECT_CHECK_TOP
    def doc(start: int) -> dict:
        q = {**sequence_to_json(get_sequence("one")), "name": "Q", "initial": {str(start): "1"}}
        return {"sequences": [{**q, "recurrence": {"coeffs": [["-2"], ["1"]]}}], "claims": []}

    with pytest.raises(ValueError, match=f"'Q' disagrees with its recurrence at n = {DIRECT_CHECK_TOP}$"):
        load_claims_document(doc(DIRECT_CHECK_TOP - 1))
    assert load_claims_document(doc(DIRECT_CHECK_TOP)) == []


def test_a_degree_60_sum_coefficient_decodes_at_once():
    # a coprime pair of degree 60 with 7-digit coefficients, which Euclid over
    # the rationals took seconds to bring to lowest terms
    rng = random.Random(60)
    num, den = ([rng.randint(-(10**7), 10**7) for _ in range(60)] + [rng.randint(1, 10**7)] for _ in range(2))
    spec = {"coeff": {"num": list(map(str, num)), "den": list(map(str, den))}, "upper": "n"}
    doc = {"claims": [{"id": "x", "lhs": {"sum": spec}, "rhs": {"var": "n"}, "modulus": {"const": "0"}}]}
    start = time.process_time()
    (claim,) = load_claims_document(doc)
    assert verify_claim_range(claim, 1, 3, SumEvaluator()).points_checked == 3
    assert time.process_time() - start < 5
    # nothing cancels, and the denominator is made monic
    assert claim.lhs.spec.coeff == Poly([F(x, den[-1]) for x in num])
    assert claim.lhs.spec.den == Poly([F(x, den[-1]) for x in den])


def test_a_running_sum_reads_its_new_terms_before_the_references():
    # over the primes the cursor reads T2 from the previous prime on, while
    # T2(p + 40) is read at each p: the sum reads first, so the window (of
    # width 2 + 41) never falls behind and steps each term once
    extra = {"sub": [{"seq": "T2", "shift": 40}, {"seq": "T2", "shift": 0}]}
    (claim,) = load_claims_document(_t2_document(extra, "primes"))
    t2 = claim.rhs.terms[-1].a.seq
    ev = SumEvaluator()
    rep = verify_claim_range(claim, 1, 2000, ev)
    assert rep.ok and rep.points_checked == len(primes_in(1, 2000))
    assert ev.window(t2).steps == 1999 + 40 - t2.max_initial
    assert len(t2._memo) == len(t2.initial)
