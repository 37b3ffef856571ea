import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import rc.exactmath
from rc.exactmath import (
    MAX_DEGREE,
    MAX_LITERAL_DIGITS,
    MAX_POLY_NESTING,
    SCREEN_PRIME,
    DenominatorNotInvertible,
    K,
    ONE,
    Poly,
    PolyParseError,
    ZERO,
    clear_denominators,
    evaluator,
    frac_to_str,
    horner,
    iadd,
    igcd,
    imul,
    independent_prefix,
    iprod,
    iquo,
    ishift,
    legendre,
    lowest_terms,
    nullspace,
    parse_poly,
    poly,
    poly_divmod,
    prime_factors,
    primitive,
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


# -- the integer-polynomial kernel ---------------------------------------------


def _trim(cs):
    # an ascending coefficient list without trailing zeros, as the kernel keeps it
    while cs and not cs[-1]:
        cs = cs[:-1]
    return cs


def _ints(p: Poly) -> list[int]:
    assert all(c.denominator == 1 for c in p.coeffs)
    return [c.numerator for c in p.coeffs]


int_polys = st.lists(st.integers(-60, 60), max_size=8).map(_trim)


@pytest.mark.parametrize("length", range(9))  # the empty list, each straight-line branch, the loop
@given(data=st.data())
def test_an_evaluator_equals_horner(length, data):
    coeffs = data.draw(st.lists(st.integers(-(10**20), 10**20), min_size=length, max_size=length))
    x = data.draw(st.sampled_from([0]) | st.integers(-(10**30), -1) | st.integers(10, 10**30))
    value = evaluator(coeffs)
    assert value(x) == horner(coeffs, x) and type(value(x)) is int
    assert value(-x) == horner(coeffs, -x)  # one evaluator, many points


@given(
    int_polys,
    int_polys,
    st.lists(int_polys, max_size=4),
    st.integers(-6, 6),
    st.lists(st.lists(fractions, max_size=6), max_size=4),
)
def test_integer_kernel_matches_poly(a, b, factors, j, rational_lists):
    pa, pb = Poly(a), Poly(b)
    assert imul(a, b) == _ints(pa * pb)
    assert iadd(a, b) == _ints(pa + pb)
    assert iadd(iadd(a, b), [-x for x in b]) == a  # b's top terms cancel when longer
    assert ishift(a, j) == _ints(pa.shift(j))
    assert iprod(factors) == _ints(math.prod(map(Poly, factors), start=ONE))
    assert horner(a, j) == pa(j) == sum(c * j**e for e, c in enumerate(a))
    if a:
        prim = pa.primitive()
        assert primitive(a) == tuple(_ints(prim if prim.lead > 0 else -prim))

    # den clears every list, and no proper divisor of it does; each primitive
    # part is that of the list itself
    den, ints = clear_denominators(*rational_lists)
    assert den >= 1 and len(ints) == len(rational_lists)
    for cs, xs in zip(rational_lists, ints):
        assert all(type(x) is int for x in xs) and xs == [c * den for c in cs]
        assert Poly(xs).content() == Poly(cs).content() * den
    for q in prime_factors(den):
        assert any((c * (den // q)).denominator != 1 for cs in rational_lists for c in cs)


@given(int_polys, int_polys)
def test_gcd_divides_both(a, b):
    if not a and not b:
        with pytest.raises(ValueError, match="gcd of two zero polynomials"):
            igcd(a, b)
        return
    g = igcd(a, b)
    assert type(g) is tuple and g[-1] > 0
    assert math.gcd(*g) == math.gcd(*a, *b)  # the content is kept
    for p in (a, b):
        assert iquo(p, g) is not None


def test_gcd_examples():
    assert igcd((-1, 0, 1), (-1, 1)) == (-1, 1)
    assert igcd((0, 1), (1, 1)) == (1,)
    assert igcd(imul((-1, 2), (3, 1)), imul((-1, 2), (0, 1))) == (-1, 2)
    # -6 (k - 1) and 4 k (k - 1): the contents' gcd 2 times k - 1
    assert igcd((6, -6), (0, -4, 4)) == (-2, 2)
    # a zero operand: the other one with a positive lead, its content kept
    assert igcd((0, -3), ()) == (0, 3)
    assert igcd((), [2, -4]) == (-2, 4)
    assert igcd((5,), []) == (5,)
    with pytest.raises(ValueError, match="gcd of two zero polynomials"):
        igcd((), [])


nonzero_int_polys = st.lists(st.integers(-(10**12), 10**12), min_size=1, max_size=7).map(_trim).filter(bool)


@given(nonzero_int_polys, nonzero_int_polys, nonzero_int_polys)
@settings(deadline=None)  # sympy's first gcd imports its polynomial machinery
@example([1], [1], [-3, 0, 3])  # a common factor that is a constant times a primitive one
@example([2, 2], [0, 4], [1, 1])  # contents 2 and 4, the factor squared on one side
def test_igcd_equals_sympy_gcd(a, b, c):
    sympy = pytest.importorskip("sympy")
    a, b = imul(a, c), imul(b, c)
    k = sympy.Symbol("k")
    want = sympy.Poly(sympy.gcd(sympy.Poly(a[::-1], k), sympy.Poly(b[::-1], k)), k).all_coeffs()[::-1]
    want = [int(x) for x in want]
    if want[-1] < 0:
        want = [-x for x in want]
    assert igcd(a, b) == tuple(want)
    assert iquo(igcd(a, b), c) is not None  # the planted factor divides it


@given(int_polys, int_polys.filter(bool), int_polys, st.booleans())
def test_iquo_is_division_with_an_integer_quotient(a, b, c, planted):
    if planted:
        a = imul(b, c)
    q, r = poly_divmod(Poly(a), Poly(b))
    exact = r.is_zero and all(x.denominator == 1 for x in q.coeffs)
    got = iquo(a, b)
    assert (got is None) == (not exact)
    if exact:
        assert got == _ints(q)
    if planted:
        assert got == c  # an integer multiple divides back


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


@given(matrices, st.lists(st.fractions(F(1, 9), 9, max_denominator=9), min_size=6, max_size=6))
@settings(max_examples=150)
def test_nullspace_of_integer_rows_matches_fraction_and_mixed_rows(rows, scales):
    as_fractions = [[F(x) for x in row] for row in rows]
    # every other row as Fractions, scaled by a positive rational
    mixed = [[x * s for x in row] if i % 2 else row for i, (row, s) in enumerate(zip(rows, scales))]
    basis = nullspace(rows)
    assert nullspace(as_fractions) == basis
    assert nullspace(mixed) == basis


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
    from rc.telescoper import ShiftWindow, _Equations

    a = get_sequence(seq)
    w = ShiftWindow(*window)
    system = _Equations(a, a, w, w, target, True).system([parse_poly(x) for x in weights], deg)
    ncols = len(system.columns)
    assert (len(system.matrix), ncols) == shape
    basis = nullspace(system.matrix, ncols=ncols)
    assert len(basis) == dim
    assert basis == _sympy_nullspace(system.matrix, ncols)


# -- rank screen modulo a prime --------------------------------------------------


@st.composite
def screened_matrices(draw):
    """An integer matrix of at most 4 rows whose columns are often sums and
    differences of the drawn columns before them, with a column order. Its
    entries are at most 5 * 9 = 45, so by Hadamard's bound every minor is at
    most (2 * 45)^4 < SCREEN_PRIME."""
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    drawn: list[list[int]] = []
    cols: list[list[int]] = []
    for _ in range(ncols):
        if drawn and draw(st.booleans()):
            signs = draw(st.lists(st.integers(-1, 1), min_size=len(drawn), max_size=len(drawn)))
            cols.append([sum(c * col[r] for c, col in zip(signs, drawn)) for r in range(nrows)])
        else:
            drawn.append(draw(st.lists(st.integers(-9, 9), min_size=nrows, max_size=nrows)))
            cols.append(drawn[-1])
    rows = [[col[r] for col in cols] for r in range(nrows)]
    return rows, draw(st.permutations(range(ncols)))


def _columns(rows, order):
    return [[row[c] for c in order] for row in rows]


@given(screened_matrices(), st.sampled_from([2, 3, 7]))
@settings(max_examples=200, deadline=None)
def test_independent_prefix_is_independent_over_q(case, small_prime):
    rows, order = case
    # the longest prefix of the order whose columns have a trivial exact kernel
    exact = 0
    while exact < len(order) and not nullspace(_columns(rows, order[: exact + 1])):
        exact += 1
    # no minor is divisible by the default prime, so it hides no pivot
    assert independent_prefix(rows, order) == exact
    # a small prime may hide pivots: the prefix is then shorter, never wrong
    default, rc.exactmath.SCREEN_PRIME = rc.exactmath.SCREEN_PRIME, small_prime
    try:
        n = independent_prefix(rows, order)
    finally:
        rc.exactmath.SCREEN_PRIME = default
    assert n <= exact
    assert not nullspace(_columns(rows, order[:n]), ncols=n)


def test_a_pivot_hidden_by_the_prime_ends_the_prefix():
    # the first column is SCREEN_PRIME times a unit vector: zero modulo the
    # prime, so the screen proves nothing, while the exact kernel is trivial
    rows = [[SCREEN_PRIME, 0], [0, 1]]
    assert independent_prefix(rows, [0, 1]) == 0
    assert independent_prefix(rows, [1, 0]) == 1
    assert nullspace(rows) == []


def test_independent_prefix_examples():
    assert independent_prefix([[1, 2], [2, 4]], [0, 1]) == 1
    assert independent_prefix([[2, 0], [0, 3]], [1, 0]) == 2
    assert independent_prefix([[0, 5]], [0, 1]) == 0
    assert independent_prefix([[1]], []) == 0


# -- legendre / jacobi ---------------------------------------------------------


def _primes_below(n):
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(n) if sieve[i]]


def test_prime_factors_against_a_sieve():
    primes = _primes_below(2000)
    for n in range(-50, 2000):
        want = [p for p in primes if n % p == 0] if abs(n) > 1 else []
        assert prime_factors(n) == want
        assert (prime_factors(n) == [n]) == (n in primes)
    assert prime_factors(1000003) == [1000003]
    assert prime_factors(2**5 * 3**4 * 1009**2) == [2, 3, 1009]


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


@pytest.mark.parametrize("data", ["98", {"0": "9"}, ("9", "8"), None, 98])
def test_poly_from_json_takes_only_a_list(data):
    with pytest.raises(ValueError, match="a polynomial must be a list of coefficient strings"):
        Poly.from_json(data)


def test_poly_from_json_caps_the_degree_as_text_does():
    assert Poly.from_json(["1"] * (MAX_DEGREE + 1)).degree == MAX_DEGREE
    # refused before a coefficient is read; not a FieldError, so `json_field`
    # gives it the path of its field
    with pytest.raises(ValueError, match=f"a polynomial has more than {MAX_DEGREE + 1} coefficients") as e:
        Poly.from_json([None] * (MAX_DEGREE + 2))
    assert not isinstance(e.value, rc.exactmath.FieldError)


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


def test_polynomial_text_up_to_the_bounds_is_read():
    assert parse_poly(f"k^{MAX_DEGREE}") == K**MAX_DEGREE
    assert parse_poly("(k^50)*(k+1)^50").degree == MAX_DEGREE
    assert parse_poly("(" * MAX_POLY_NESTING + "k" + ")" * MAX_POLY_NESTING) == K
    assert parse_poly("9" * MAX_LITERAL_DIGITS) == Poly([10**MAX_LITERAL_DIGITS - 1])
    assert parse_poly("0*k") == parse_poly("(k-k)^2") == parse_poly("0^7/3") == ZERO
    for past in (
        f"k^{MAX_DEGREE + 1}",
        "k^50*k^51",
        "(" * (MAX_POLY_NESTING + 1) + "k" + ")" * (MAX_POLY_NESTING + 1),
        "9" * (MAX_LITERAL_DIGITS + 1),
        "((2^100)^100)^100",
    ):
        with pytest.raises(PolyParseError):
            parse_poly(past)


@given(polys, polys)
def test_height_bounds_products_and_coefficients(p, q):
    height = rc.exactmath._height
    assert height(p * q) <= height(p) + height(q) + min(len(p.coeffs), len(q.coeffs)).bit_length()
    for c in p.coeffs:
        assert max(c.numerator.bit_length(), c.denominator.bit_length()) <= height(p)


def test_lowest_terms():
    assert lowest_terms(poly(0, 4, 8), poly(0, 2)) == (poly(2, 4), ONE)
    # k / (-2k): the denominator is made monic
    assert lowest_terms(poly(0, 1), poly(0, -2)) == (Poly([F(-1, 2)]), ONE)
    # (k^2 - 1) / (2k^2 + 4k + 2) = (k - 1) / (2k + 2)
    assert lowest_terms(poly(-1, 0, 1), poly(2, 4, 2)) == (Poly([F(-1, 2), F(1, 2)]), poly(1, 1))
    assert lowest_terms(ZERO, poly(3, 1)) == (ZERO, ONE)
    with pytest.raises(ZeroDivisionError, match="rational function with zero denominator"):
        lowest_terms(ONE, ZERO)


small_polys = st.lists(fractions, max_size=5).map(Poly)


@given(small_polys, small_polys.filter(bool), small_polys.filter(bool))
@settings(max_examples=60)
def test_lowest_terms_normal_form(a, b, c):
    num, den = lowest_terms(a * c, b * c)
    assert (num, den) == lowest_terms(a, b)
    assert den.lead == 1
    _, ints = clear_denominators(num.coeffs, den.coeffs)
    assert num.is_zero and den == ONE or len(igcd(*ints)) == 1


@given(
    small_polys.filter(bool),
    small_polys.filter(bool),
    small_polys.filter(lambda c: c.degree > 0),
    st.sampled_from([2, 3, 5, SCREEN_PRIME]),
)
@settings(max_examples=200)
@example(poly(1, 1), poly(2, 1), poly(0, 1), 2)  # coprime modulo 2 too
@example(poly(1, 1), poly(3, 1), poly(0, 1), 2)  # coprime, equal modulo 2
@example(poly(1, 2), poly(1, 1), poly(0, 1), 2)  # 2 divides a lead: the screen does not apply
def test_the_coprimality_screen_never_misses_a_common_factor(a, b, c, prime):
    # the screen's True is a proof: the integer gcd then has degree 0; a
    # common factor of positive degree is never screened out
    _, (x, y) = clear_denominators(a.coeffs, b.coeffs)
    if rc.exactmath._coprime_modulo(x, y, prime):
        assert len(igcd(x, y)) == 1
    _, (x, y) = clear_denominators((a * c).coeffs, (b * c).coeffs)
    assert not rc.exactmath._coprime_modulo(x, y, prime)


def test_the_coprimality_screen_settles_a_large_coprime_pair():
    # two random coprime polynomials of degree 100 with 50-digit coefficients:
    # the pseudo-remainder sequence alone takes about 11 s of CPU on a 2-vCPU VM
    rng = random.Random(1)
    a, b = ([rng.randrange(-(10**50), 10**50) for _ in range(100)] + [10**49 + n] for n in range(2))
    start = time.process_time()
    num, den = lowest_terms(Poly(a), Poly(b))
    assert time.process_time() - start < 1
    assert den == Poly([F(x, b[-1]) for x in b]) and num == Poly([F(x, b[-1]) for x in a])


def test_frac_to_str():
    assert frac_to_str(F(9, 2)) == "9/2"
    assert frac_to_str(F(-3)) == "-3"
    assert frac_to_str(7) == "7"
