from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from rc.exactmath import Poly, RatFunc
from rc.sequences import (
    Affine,
    BinomFactor,
    Bound,
    DerivedSequence,
    GeomFactor,
    LeadingCoefficientVanishes,
    NonIntegerTerm,
    ONE_SEQ,
    SequenceDef,
    SumFormula,
    T,
    T_PAIR_FORMULA,
    UnknownSequence,
    W,
    binom,
    check_derived_recurrence,
    check_parity_odd,
    check_recurrence_consistency,
    derived_terms,
    eval_direct,
    get_sequence,
    recurrence,
    sequence_from_json,
    sequence_to_json,
    trinomial_middle,
)

T_REC_CANDIDATE = recurrence([Poly([3, 3]), Poly([3, 2]), Poly([-2, -1])])
T_DERIVED_REC = recurrence([Poly([3, 3]), Poly([2, 2]), Poly([-3, -1])])


def t_seq():
    return DerivedSequence("t", T, ((1, F(1, 2)), (0, F(-3, 2))))


def test_w_terms():
    assert W.terms(0, 4) == [-1, -1, 1, 5, 13]
    assert W.terms(-2, -1) == [0, -1]
    assert W.term(5) == 29


def test_t_terms():
    assert T.terms(0, 8) == [1, 1, 3, 7, 19, 51, 141, 393, 1107]


def test_terms_below_initial_data_raise():
    with pytest.raises(ValueError):
        W.term(-3)
    assert W.terms(3, 2) == []


def test_direct_formula_values():
    assert eval_direct(W.direct, 0) == -1
    assert eval_direct(T.direct, 4) == 19
    assert eval_direct(T.direct, 0) == 1
    with pytest.raises(ValueError):
        eval_direct(W.direct, -1)


def test_binom_convention():
    assert binom(4, 2) == 6
    assert binom(3, -1) == 0
    assert binom(2, 5) == 0
    assert binom(-2, 0) == 0  # negative top is out of range here, not extended


def test_oracle_equivalence_to_60():
    assert check_recurrence_consistency(W, 60).ok
    assert check_recurrence_consistency(T, 60).ok


def test_all_three_trinomial_definitions_agree():
    for n in range(0, 61):
        v = T.term(n)
        assert eval_direct(T.direct, n) == v
        assert eval_direct(T_PAIR_FORMULA, n) == v
        assert trinomial_middle(n) == v


def test_corrupted_initial_value_is_reported():
    bad = SequenceDef("Wbad", W.recurrence, {-2: 0, -1: -1, 0: 0, 1: -1}, W.direct)
    rep = check_recurrence_consistency(bad, 5)
    assert not rep.ok
    assert rep.mismatches[0].n == 0
    assert rep.mismatches[0].expected == -1 and rep.mismatches[0].got == 0


def test_pre_initial_instance_is_data_not_a_constraint():
    # The shipped extension satisfies instances from the forward start on;
    # the instance at n=-2 is overridden by the stored value of W(1).
    assert W.forward_start == -1
    assert W.instance_holds(-1)
    assert not W.instance_holds(-2)
    assert W.residual(-2) == -7
    assert T.instance_holds(-1)


def test_parity():
    assert check_parity_odd(W, 500)
    assert check_parity_odd(T, 500)
    even = SequenceDef("even", ONE_SEQ.recurrence, {0: 2})
    assert not check_parity_odd(even, 10)


def test_adjacent_w_product_mod_4():
    for n in range(2, 501):
        assert ((W.term(n - 1) + W.term(n)) * (W.term(n - 2) + W.term(n - 1))) % 4 == 0


def test_t_difference_divisibility():
    for n in range(2, 501):
        assert (T.term(n + 1) - 3 * T.term(n)) % (n - 1) == 0


def test_derived_t_terms():
    assert derived_terms(t_seq(), 0, 4) == [-1, 0, -1, -1, -3]


def test_derived_t_recurrence_residuals_vanish():
    assert check_derived_recurrence(t_seq(), T_DERIVED_REC, 100).ok


def test_derived_zero_combo():
    z = DerivedSequence("z", T, ((0, F(1)), (0, F(-1))))
    assert derived_terms(z, 0, 5) == [0] * 6


def test_derived_non_integer_is_an_error():
    half = DerivedSequence("half", T, ((0, F(1, 2)),))
    with pytest.raises(NonIntegerTerm):
        derived_terms(half, 0, 2)


def test_leading_coefficient_vanishing_is_an_error():
    # (n-2) a(n+1) = 2 a(n): stepping dies at n=2
    seq = SequenceDef("stuck", recurrence([Poly([-2]), Poly([-2, 1])]), {0: 1})
    with pytest.raises(LeadingCoefficientVanishes):
        seq.term(5)


def test_non_integer_step_is_an_error():
    # 2 a(n+1) = a(n) from a(0)=1
    seq = SequenceDef("halved", recurrence([Poly([-1]), Poly([2])]), {0: 1})
    with pytest.raises(NonIntegerTerm):
        seq.term(1)


def _fraction_forward(coeffs, initial, hi):
    """Terms up to index hi by the plain Fraction step, and the failure that
    stopped it: ("lead", n), ("nonint", index, value) or None."""
    d = len(coeffs) - 1
    memo = dict(initial)
    for idx in range(max(initial) + 1, hi + 1):
        n = idx - d
        den = coeffs[d](n)
        if den == 0:
            return memo, ("lead", n)
        val = -sum((coeffs[i](n) * memo[n + i] for i in range(d)), F(0)) / den
        if val.denominator != 1:
            return memo, ("nonint", idx, val)
        memo[idx] = int(val)
    return memo, None


@st.composite
def _random_recurrences(draw):
    order = draw(st.integers(1, 3))
    polys = st.lists(st.integers(-6, 6), max_size=3).map(Poly)
    coeffs = draw(st.lists(polys, min_size=order, max_size=order))
    coeffs.append(draw(polys.filter(lambda p: not p.is_zero)))
    lo = draw(st.integers(-2, 1))
    values = draw(st.lists(st.integers(-9, 9), min_size=order, max_size=order + 1))
    return coeffs, {lo + i: v for i, v in enumerate(values)}


@given(_random_recurrences())
@settings(max_examples=300, deadline=None)
def test_integer_fill_matches_fraction_step(case):
    coeffs, initial = case
    seq = SequenceDef("r", recurrence(coeffs), initial)
    hi = max(initial) + 15
    want, failure = _fraction_forward(coeffs, initial, hi)
    if failure is None:
        assert seq.terms(seq.min_index, hi) == [want[i] for i in range(seq.min_index, hi + 1)]
        return
    if failure[0] == "lead":
        with pytest.raises(LeadingCoefficientVanishes) as info:
            seq.term(hi)
        assert info.value.n == failure[1]
    else:
        with pytest.raises(NonIntegerTerm) as info:
            seq.term(hi)
        assert (info.value.n, info.value.value) == failure[1:]
    # the terms before the failing step are kept
    top = max(want)
    assert seq.terms(seq.min_index, top) == [want[i] for i in range(seq.min_index, top + 1)]


def test_registry():
    assert get_sequence("W") is W
    assert get_sequence("one") is ONE_SEQ
    with pytest.raises(UnknownSequence):
        get_sequence("nope")


def test_sequence_json_round_trip():
    for seq in (W, T, ONE_SEQ):
        data = sequence_to_json(seq)
        back = sequence_from_json(data)
        assert sequence_to_json(back) == data
        assert back.terms(back.min_index, 12) == seq.terms(seq.min_index, 12)


def test_geometric_factor():
    f = GeomFactor(-3, Affine(0, -1, 0))  # (-3)^(-k)
    assert f.value(0, 2) == F(1, 9)
    assert f.value(0, 1) == F(-1, 3)
    zero = GeomFactor(0, Affine(1, -2, -1))  # 0^(n-2k-1)
    assert zero.value(5, 2) == 1  # exponent 0
    assert zero.value(5, 1) == 0
    with pytest.raises(ZeroDivisionError):
        zero.value(0, 1)


def test_bound_parsing_and_printing():
    for s in ("n", "n-1", "floor(n/2)", "floor((n-1)/2)", "0", "2*n+1"):
        b = Bound.from_str(s)
        assert Bound.from_str(b.to_str()) == b
    assert Bound.from_str("floor((n-1)/2)").at(9) == 4
    assert Bound.from_str("n-1").at(9) == 8
    with pytest.raises(ValueError):
        Bound.from_str("floor(n/3)")
    with pytest.raises(ValueError):
        Bound(1, -1, 2).exact_at(4)
    assert Bound(1, -1, 2).exact_at(5) == 2


def test_formula_with_coefficient_pole_outside_range():
    # 1/k with summation starting at 1 is fine; starting at 0 blows up
    f = SumFormula(
        factors=(BinomFactor(Affine(0, 2, 0), Affine(0, 1, 0)),),
        coeff=RatFunc(Poly([1]), Poly([0, 1])),
        lo=1,
        upper=Bound(1, 0, 1),
    )
    assert eval_direct(f, 3) == 2 + 3 + F(20, 3)
    bad = SumFormula(factors=f.factors, coeff=f.coeff, lo=0, upper=f.upper)
    with pytest.raises(ZeroDivisionError):
        eval_direct(bad, 3)
