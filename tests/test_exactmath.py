import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from rc.exactmath import (
    DenominatorNotInvertible,
    K,
    ONE,
    Poly,
    PolyParseError,
    RatFunc,
    ZERO,
    frac_to_str,
    legendre,
    nullspace,
    parse_poly,
    poly,
    poly_divmod,
    poly_gcd,
    rat_mod,
)

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)
polys = st.lists(fractions, max_size=9).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)


@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@given(polys, polys)
def test_shift_is_a_ring_homomorphism(a, b):
    assert (a * b).shift() == a.shift() * b.shift()
    assert (a + b).shift() == a.shift() + b.shift()


@given(polys, st.integers(-5, 5), st.fractions(max_denominator=6))
def test_shift_agrees_with_evaluation(a, j, x):
    assert a.shift(j)(x) == a(x + j)


@given(polys, nonzero_polys)
def test_divmod_round_trip(a, b):
    q, r = poly_divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_divmod_examples():
    q, r = poly_divmod(poly(0, 0, 1), K)
    assert (q, r) == (K, ZERO)
    q, r = poly_divmod(parse_poly("-(3/2)*n*(n-7)"), poly(0, 2))
    assert q == Poly([F(21, 4), F(-3, 4)]) and r.is_zero
    q, r = poly_divmod(poly(1, 1, 1), poly(-1, 1))
    assert q == poly(2, 1) and r == poly(3)
    with pytest.raises(ZeroDivisionError):
        poly_divmod(K, ZERO)


@given(polys, polys)
def test_gcd_divides_both(a, b):
    if a.is_zero and b.is_zero:
        with pytest.raises(ValueError):
            poly_gcd(a, b)
        return
    g = poly_gcd(a, b)
    assert g.lead in (0, 1)  # monic (or everything was zero on one side)
    for p in (a, b):
        _, r = poly_divmod(p, g)
        assert r.is_zero


def test_gcd_examples():
    assert poly_gcd(poly(-1, 0, 1), poly(-1, 1)) == poly(-1, 1)
    assert poly_gcd(K, poly(1, 1)) == ONE
    g = poly_gcd(parse_poly("(2*k-1)*(k+3)"), parse_poly("(2*k-1)*k"))
    assert g == Poly([F(-1, 2), F(1)])


def test_poly_examples():
    assert parse_poly("8*k+9").shift() == parse_poly("8*k+17")
    assert (K * (K - 1))(2) == 2
    f = parse_poly("-(3/2)*k*(k-7)")
    assert (f.shift() - f)(0) == 9


def test_content_and_primitive():
    p = Poly([F(9, 2), F(-3, 2), F(21, 2)])
    assert p.content() == F(3, 2)
    assert p.primitive() == poly(3, -1, 7)
    assert ZERO.content() == 0


# -- nullspace ---------------------------------------------------------------

matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=1, max_size=6
    )
)


@given(matrices)
@settings(max_examples=150)
def test_nullspace_soundness(rows):
    basis = nullspace(rows)
    ncols = len(rows[0])
    for v in basis:
        assert len(v) == ncols
        assert math.gcd(*v) in (0, 1) if len(v) > 1 else True
        for row in rows:
            assert sum(F(x) * y for x, y in zip(row, v)) == 0
        first = next((x for x in v if x != 0), None)
        assert first is not None and first > 0


@given(matrices)
@settings(max_examples=150, deadline=None)
def test_nullspace_dimension_matches_rank_nullity(rows):
    sympy = pytest.importorskip("sympy")
    basis = nullspace(rows)
    rank = sympy.Matrix(rows).rank()
    assert len(basis) == len(rows[0]) - rank
    if basis:
        assert sympy.Matrix(basis).rank() == len(basis)  # linearly independent


def test_nullspace_examples():
    assert nullspace([[1, -1]]) == [[1, 1]]
    assert nullspace([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == []
    assert nullspace([[2, 4], [1, 2]]) == [[2, -1]]  # (-2, 1) up to sign


def _sympy_nullspace(rows, ncols):
    """sympy's nullspace basis, scaled like ours: coprime integer entries with
    a positive leading nonzero entry."""
    sympy = pytest.importorskip("sympy")
    flat = [sympy.Rational(x.numerator, x.denominator) for row in rows for x in map(F, row)]
    basis = []
    for vec in sympy.Matrix(len(rows), ncols, flat).nullspace():
        den = math.lcm(*(x.q for x in vec))
        ints = [int(x * den) for x in vec]
        g = math.gcd(*ints)
        lead = next(x for x in ints if x)
        basis.append([x // g if lead > 0 else -x // g for x in ints])
    return basis


@st.composite
def rational_matrices(draw):
    """(rows, ncols) with zero entries and zero rows, rows that are rational
    combinations of earlier rows (rank-deficient), and sometimes no rows."""
    ncols = draw(st.integers(1, 6))
    entries = st.one_of(st.just(F(0)), st.fractions(-20, 20, max_denominator=7))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=5))
    if rows:
        coeffs = st.lists(st.fractions(-5, 5, max_denominator=4), min_size=len(rows), max_size=len(rows))
        for cs in draw(st.lists(coeffs, max_size=2)):
            rows.append([sum((c * r[j] for c, r in zip(cs, rows)), F(0)) for j in range(ncols)])
    rows += [[F(0)] * ncols] * draw(st.integers(0, 1))
    return draw(st.permutations(rows)), ncols


@given(rational_matrices())
@example(([], 3))
@example(([[F(0), F(0)], [F(1, 2), F(-3, 4)], [F(0), F(0)]], 2))
@settings(max_examples=150, deadline=None)
def test_nullspace_matches_sympy(case):
    rows, ncols = case
    assert nullspace(rows, ncols=ncols) == _sympy_nullspace(rows, ncols)


@pytest.mark.parametrize(
    "seq, window, target, weights, deg, shape, dim",
    [
        # a W-square search with no certificate, at degree 12
        ("W", (-2, 0), (0, 0), ["2*k^3+3*k^2+k+4"], 12, (91, 79), 0),
        # the (k+1)(x0 + x1 k) T(k)T(k+1) discovery system
        ("T", (-1, 0), (0, 1), ["k+1", "k^2+k"], 3, (18, 14), 1),
    ],
)
def test_nullspace_matches_sympy_on_search_systems(seq, window, target, weights, deg, shape, dim):
    from rc.sequences import get_sequence
    from rc.telescoper import ShiftWindow, _build_system

    a = get_sequence(seq)
    w = ShiftWindow(*window)
    system = _build_system(a, a, w, w, target, [parse_poly(x) for x in weights], deg, True)
    ncols = len(system.columns)
    assert (len(system.matrix), ncols) == shape
    basis = nullspace(system.matrix, ncols=ncols)
    assert len(basis) == dim
    assert basis == _sympy_nullspace(system.matrix, ncols)


# -- legendre / jacobi ---------------------------------------------------------


def _primes_below(n):
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(n) if sieve[i]]


def test_legendre_brute_force_agreement():
    # against direct residue enumeration, all odd primes below 100
    for p in _primes_below(100):
        if p == 2:
            continue
        residues = {pow(x, 2, p) for x in range(1, p)}
        for a in range(0, p):
            expected = 0 if a == 0 else (1 if a in residues else -1)
            assert legendre(a, p) == expected


def test_legendre_multiplicative():
    for p in _primes_below(200):
        if p == 2:
            continue
        for a in range(1, p):
            for b in (1, 2, a, p - 1):
                assert legendre(a, p) * legendre(b % p if b % p else 1, p) == legendre(
                    (a * (b % p if b % p else 1)) % p, p
                )


def test_legendre_examples():
    assert legendre(-1, 5) == 1
    assert legendre(5, 3) == -1
    for m in (3, 9, 15, 121):
        assert legendre(1, m) == 1
    for m in (1, 2, 4, -3):
        with pytest.raises(ValueError):
            legendre(7, m)


# -- rational residues ----------------------------------------------------------


@given(
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=97),
    st.integers(2, 10**6),
)
def test_rat_mod_contract(x, m):
    if math.gcd(x.denominator, m) != 1:
        with pytest.raises(DenominatorNotInvertible):
            rat_mod(x, m)
        return
    r = rat_mod(x, m)
    assert 0 <= r < m
    assert (x.denominator * r - x.numerator) % m == 0


def test_rat_mod_examples():
    assert rat_mod(F(125, 6), 125) == 0
    assert rat_mod(F(-1421, 3), 343) == 98
    with pytest.raises(DenominatorNotInvertible):
        rat_mod(F(1, 2), 4)


# -- serialization and parsing ---------------------------------------------------


def test_poly_json_round_trip():
    p = parse_poly("8*k+9")
    assert p.to_json() == ["9", "8"]
    assert Poly.from_json(["9", "8"]) == p
    q = Poly([F(1, 2), 0, F(-7, 3)])
    assert Poly.from_json(q.to_json()) == q
    assert ZERO.to_json() == []


@given(polys)
def test_poly_str_parse_round_trip(p):
    assert parse_poly(p.to_str()) == p


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError) as e:
        parse_poly("8*k+")
    assert e.value.pos == 4
    with pytest.raises(PolyParseError):
        parse_poly("k + n")
    with pytest.raises(PolyParseError):
        parse_poly("(k+1")
    with pytest.raises(PolyParseError):
        parse_poly("k/ (k+1)")


def test_ratfunc_normalization():
    r = RatFunc(poly(0, 4, 8), poly(0, 2))
    assert r == RatFunc(poly(2, 4))
    assert r.den == ONE
    r = RatFunc(poly(0, 1), poly(0, -2))  # k / (-2k)
    assert r.den == ONE and r.num == Poly([F(-1, 2)])
    with pytest.raises(ZeroDivisionError):
        RatFunc(ONE, ZERO)


@given(polys, nonzero_polys, polys, nonzero_polys)
@settings(max_examples=60)
def test_ratfunc_field_laws(a, b, c, d):
    x = RatFunc(a, b)
    y = RatFunc(c, d)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) - y == x
    if not y.is_zero:
        assert (x / y) * y == x


def test_frac_to_str():
    assert frac_to_str(F(9, 2)) == "9/2"
    assert frac_to_str(F(-3)) == "-3"
    assert frac_to_str(7) == "7"
