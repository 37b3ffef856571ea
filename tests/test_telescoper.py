import dataclasses
import hashlib
import json
import math
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import rc.exactmath
import rc.telescoper
from rc.exactmath import ONE, Poly, ZERO, lowest_terms, nullspace, parse_poly
from rc.sequences import ONE_SEQ, NonIntegerTerm, SequenceDef, T, UnknownSequence, W, recurrence
from rc.telescoper import (
    MAX_DEGREE,
    MAX_SHIFT_DISTANCE,
    MAX_SYSTEM_ENTRIES,
    MAX_WINDOW_OFFSET,
    REFERENCE_SEARCHES,
    ShiftWindow,
    TelescoperCertificate,
    cert_from_json,
    cert_to_json,
    certify,
    check_hl_mode,
    discover_weights,
    find_telescoper,
    partial_sum,
    pretty,
    reductions_defined_from,
)
from rc.telescoper import _Equations, _pair_setup, _reduction_table, _search_setup

P_W = parse_poly("8*k+9")
P_T1 = parse_poly("k*(k+1)*(8*k+9)")
P_T2 = parse_poly("(k+1)*(16*k+21)")

CENTRAL_BINOM_REC = recurrence([Poly([-2, -4]), Poly([1, 1])])


def _reference_cert(index: int):
    cert = REFERENCE_SEARCHES[index].find()
    assert cert is not None
    return cert


@pytest.fixture(scope="module")
def w_cert():
    return _reference_cert(0)


@pytest.fixture(scope="module")
def t_cert_lo():
    return _reference_cert(1)


@pytest.fixture(scope="module")
def t_cert_hi():
    return _reference_cert(2)


@pytest.fixture(scope="module")
def d2_cert():
    return _reference_cert(3)


def reference_w_certificate():
    """The known antidifference for (8k+9) W(k)^2, entered by hand."""
    half = F(1, 2)
    k = Poly([0, 1])
    return TelescoperCertificate(
        seq_a=W,
        seq_b=W,
        window_a=ShiftWindow(-2, 0),
        window_b=ShiftWindow(-2, 0),
        target_shifts=(0, 0),
        p=P_W,
        g={
            (-2, -1): 9 * half * k * (k - 1),
            (-2, 0): -3 * half * k * (k - 1),
            (-1, 0): half * k * (k - 1),
            (-1, -1): -3 * half * k * (k - 7),
        },
        symmetric=True,
    )


def reference_t_certificate_hi():
    """The known upward-window antidifference for k(k+1)(8k+9) T(k) T(k+1)."""
    k = Poly([0, 1])
    return TelescoperCertificate(
        seq_a=T,
        seq_b=T,
        window_a=ShiftWindow(0, 1),
        window_b=ShiftWindow(0, 1),
        target_shifts=(0, 1),
        p=P_T1,
        g={
            (1, 1): F(-1, 24) * (k + 1) ** 2 * (2 * k - 3) ** 2,
            (0, 1): F(1, 4) * (k + 1) * (4 * k**3 - 5 * k + 3),
            (0, 0): F(-3, 8) * (k + 1) ** 2 * (2 * k - 1) ** 2,
        },
        symmetric=True,
    )


# -- reduce_shift ---------------------------------------------------------------


def reduce_shift(rec, m, window) -> tuple[tuple[Poly, Poly], ...]:
    """(num, den) in lowest terms of each r_s(k) with a(k+m) = sum_s r_s(k)
    a(k+s), s in the window, from `_reduction_table`."""
    nums, factors = _reduction_table(rec, ShiftWindow(*window), [m])[m]
    den = ONE
    for f in factors:
        den = den * Poly(f)
    return tuple(lowest_terms(Poly(num), den) for num in nums)


def test_reduce_shift_within_window_is_unit():
    vec = reduce_shift(T.recurrence, 1, (0, 1))
    assert vec == ((ZERO, ONE), (ONE, ONE))


def test_reduce_shift_central_binomial():
    (r,) = reduce_shift(CENTRAL_BINOM_REC, 1, (0, 0))
    assert r == (Poly([2, 4]), Poly([1, 1]))


def test_reduce_shift_trinomial_step():
    vec = reduce_shift(T.recurrence, 2, (0, 1))
    assert vec[0] == (Poly([3, 3]), Poly([2, 1]))
    assert vec[1] == (Poly([3, 2]), Poly([2, 1]))


def test_reduce_shift_numeric_identity():
    cases = [
        (T, (0, 1), (-3, -1, 2, 4), 30, 25),
        # order 3, both directions: the stepping indexes the recurrence by its order
        (W, (-2, 0), (-5, -3, 1, 3), 40, 35),
    ]
    for seq, window, ms, k_hi, at_least in cases:
        shifts = range(window[0], window[1] + 1)
        for m in ms:
            vec = reduce_shift(seq.recurrence, m, window)
            checked = 0
            for k in range(2, k_hi):
                if k + m < -1:
                    continue  # W's initial data overdetermine its instance at -2
                if any(den(k) == 0 for _, den in vec):
                    continue  # pole of the rational identity, not a failure
                got = sum(num(k) / den(k) * seq.term(k + s) for (num, den), s in zip(vec, shifts))
                assert got == F(seq.term(k + m)), (seq.name, m, k)
                checked += 1
            assert checked >= at_least, (seq.name, m)


def test_reduce_shift_round_trip():
    # reduce into one window, then re-express through a second window; the
    # composition runs in sympy's field of rational functions in k
    sympy = pytest.importorskip("sympy")
    _, k = sympy.field("k", sympy.QQ)

    def field(vec):
        return [_at(num.coeffs, k) / _at(den.coeffs, k) for num, den in vec]

    w1, w2 = (0, 1), (1, 2)
    for m in (-2, 3, 5):
        direct = field(reduce_shift(T.recurrence, m, w2))
        via_w1 = field(reduce_shift(T.recurrence, m, w1))
        basis_maps = [field(reduce_shift(T.recurrence, s, w2)) for s in range(w1[0], w1[1] + 1)]
        composed = [k.field.zero, k.field.zero]
        for coef, bmap in zip(via_w1, basis_maps):
            composed = [acc + coef * x for acc, x in zip(composed, bmap)]
        assert composed == direct, m


def test_reduce_shift_backward_needs_trailing_coefficient():
    rec = recurrence([ZERO, Poly([-1]), Poly([1])])  # a(n+2) = a(n+1)
    with pytest.raises(ValueError):
        reduce_shift(rec, -1, (0, 1))


def test_reduce_shift_window_must_match_order():
    with pytest.raises(ValueError):
        reduce_shift(T.recurrence, 2, (0, 2))


@st.composite
def _random_factor(draw):
    """A recurrence of order 1-3 with integer polynomial coefficients of
    degree <= 2, nonzero lead and trailing ones, and a window of its length
    within 4 of 0."""
    order = draw(st.integers(1, 3))
    coeff = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(Poly)
    cs = [draw(coeff) for _ in range(order + 1)]
    assume(not cs[0].is_zero and not cs[-1].is_zero)
    lo = draw(st.integers(-4, 5 - order))
    seq = SequenceDef("R", recurrence(cs), {i: 1 for i in range(order)})
    return seq, ShiftWindow(lo, lo + order - 1)


def _near(window: ShiftWindow):
    return st.integers(window.lo - 6, window.hi + 6)


def _at(coeffs, x):
    sympy = pytest.importorskip("sympy")
    # the polynomial with ascending coefficients `coeffs` at x, an element of
    # a sympy field of rational functions
    value = x.field.zero
    for c in reversed(coeffs):
        value = value * x + x.field(sympy.Rational(c.numerator, c.denominator))
    return value


def _sympy_reductions(rec, window, shifts, k):
    """The reductions of `_reduction_table`, stepped in sympy's field of
    rational functions in k, which cancels every result."""
    d = rec.order
    vecs = {s: [_at([int(s == t)], k) for t in window.shifts()] for s in window.shifts()}
    for m in range(window.hi + 1, max(shifts) + 1):
        at = [_at(c.coeffs, k + m - d) for c in rec.coeffs]
        vecs[m] = [-sum(at[i] * vecs[m - d + i][x] for i in range(d)) / at[d] for x in range(d)]
    for m in range(window.lo - 1, min(shifts) - 1, -1):
        at = [_at(c.coeffs, k + m) for c in rec.coeffs]
        vecs[m] = [-sum(at[i] * vecs[m + i][x] for i in range(1, d + 1)) / at[0] for x in range(d)]
    return vecs


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_reductions_agree_with_sympy(data):
    sympy = pytest.importorskip("sympy")
    _, k = sympy.field("k", sympy.QQ)
    seq_a, wa = data.draw(_random_factor())
    symmetric = data.draw(st.booleans())
    seq_b, wb = (seq_a, wa) if symmetric else data.draw(_random_factor())
    target = (data.draw(_near(wa)), data.draw(_near(wb)))

    shifts = data.draw(st.lists(_near(wa), min_size=1, max_size=3))
    ref = _sympy_reductions(seq_a.recurrence, wa, shifts, k)
    for m in shifts:
        for (num, den), expected in zip(reduce_shift(seq_a.recurrence, m, (wa.lo, wa.hi)), ref[m]):
            assert _at(num.coeffs, k) / _at(den.coeffs, k) == expected, (m, num, den)

    pairs, shifted, target_red, (shifts_a, shifts_b) = _pair_setup(seq_a, seq_b, wa, wb, target, symmetric)
    vecs_a = _sympy_reductions(seq_a.recurrence, wa, shifts_a, k)
    vecs_b = _sympy_reductions(seq_b.recurrence, wb, shifts_b, k)
    k_min = data.draw(st.integers(-10, 10))
    poles = False
    values = {}
    reductions = [((i, j), (i + 1, j + 1), shifted[i, j]) for i, j in pairs] + [("t", target, target_red)]
    for name, (ma, mb), (entries, den) in reductions:
        expected = {}
        for s, x in zip(wa.shifts(), vecs_a[ma]):
            for t, y in zip(wb.shifts(), vecs_b[mb]):
                key = (min(s, t), max(s, t)) if symmetric else (s, t)
                expected[key] = expected.get(key, k.field.zero) + x * y
        assert set(entries) == {key for key, v in expected.items() if v != 0}
        for key, num in entries.items():
            denominator = 1
            for f in den:
                denominator *= _at(f, k)
            assert _at(num, k) / denominator == expected[key], key
            lowest = sympy.Poly(expected[key].denom.as_expr(), sympy.Symbol("k"))
            poles |= any(r >= k_min for r in sympy.roots(lowest, filter="Z"))
        values[name] = expected
    cert = TelescoperCertificate(seq_a, seq_b, wa, wb, target, ONE, {}, symmetric)
    assert reductions_defined_from(cert, k_min) == (not poles)

    # each equation of the solver's system is cleared to the lcm of its
    # entries' denominators in lowest terms, up to a constant
    for pair in pairs:
        entries = {name: (red[pair], den) for name, _, (red, den) in reductions if pair in red}
        den, cleared = rc.telescoper._cleared(entries)
        lcm = k.field.ring.one
        for name in entries:
            lcm = lcm.lcm(values[name][pair].denom)
        ratio = _at(den, k) / k.field(lcm)
        assert ratio.numer.is_ground and ratio.denom.is_ground, (pair, den, lcm)
        for name in entries:
            assert _at(cleared[name], k) / _at(den, k) == values[name][pair], (pair, name)


# -- find_telescoper ----------------------------------------------------------------


def test_trivial_constant_sequence():
    cert = find_telescoper("one", "one", ONE, (0, 0), (0, 0), deg_bound=1)
    assert cert is not None
    assert cert.g == {(0, 0): Poly([0, 1])}
    assert certify(cert, 50).ok


def test_w_certificate_matches_reference(w_cert):
    assert w_cert.g == reference_w_certificate().g
    report = certify(w_cert, 200)
    assert report.ok
    assert partial_sum(w_cert, 1) == 9
    assert partial_sum(w_cert, 2) == 26


def test_w_certificate_partial_sums_match_direct_summation(w_cert):
    running = 0
    for n in range(1, 201):
        k = n - 1
        running += (8 * k + 9) * W.term(k) ** 2
        assert partial_sum(w_cert, n) == running


def test_t_certificates_both_windows(t_cert_lo, t_cert_hi):
    assert certify(t_cert_lo, 200).ok
    assert certify(t_cert_hi, 200).ok
    assert t_cert_hi.g == reference_t_certificate_hi().g


def test_window_independence(t_cert_lo, t_cert_hi):
    for n in list(range(1, 30)) + [100, 200]:
        assert partial_sum(t_cert_lo, n) == partial_sum(t_cert_hi, n)
    assert partial_sum(t_cert_lo, 1) == 0  # summand vanishes at k=0


def test_d2_certificate(d2_cert):
    assert certify(d2_cert, 200).ok
    running = 0
    for n in range(1, 201):
        k = n - 1
        running += (k + 1) * (16 * k + 21) * T.term(k) * T.term(k + 1)
        assert partial_sum(d2_cert, n) == running


def test_symmetric_and_ordered_modes_agree(w_cert):
    # the W certificate in ordered form: each off-diagonal g_ij split evenly
    # between (i, j) and (j, i)
    g = {}
    for (i, j), poly in w_cert.g.items():
        g[i, j] = g[j, i] = poly if i == j else F(1, 2) * poly
    ordered = TelescoperCertificate(**{**vars(w_cert), "g": g, "symmetric": False})
    assert certify(ordered, 100).ok
    for n in (1, 2, 3, 10, 60, 100):
        assert partial_sum(ordered, n) == partial_sum(w_cert, n)


def test_not_found_below_required_degree():
    assert find_telescoper("W", "W", P_W, (0, 0), (-2, 0), deg_bound=1) is None


def test_zero_weight_rejected():
    with pytest.raises(ValueError):
        find_telescoper("W", "W", ZERO, (0, 0), (-2, 0))


# (sequence, weight, target shifts, window, smallest feasible degree)
# each reference search as (sequence name, weight, target shifts, window, the
# least degree of g with a certificate)
SEARCH_DEGREES = [
    (s.seq.name, s.p, s.target_shifts, s.window, d_min)
    for s, d_min in zip(REFERENCE_SEARCHES, (2, 4, 4, 3), strict=True)
]


@pytest.fixture
def solves(monkeypatch):
    """Counts the systems find_telescoper solves."""
    count = [0]
    inner = rc.telescoper.nullspace

    def counting(*args, **kwargs):
        count[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(rc.telescoper, "nullspace", counting)
    return count


@pytest.mark.parametrize("seq, p, target, window, d_min", SEARCH_DEGREES)
def test_degree_search_result_does_not_depend_on_the_bound(seq, p, target, window, d_min):
    assert find_telescoper(seq, seq, p, target, window, deg_bound=d_min - 1) is None
    at_min = find_telescoper(seq, seq, p, target, window, deg_bound=d_min)
    assert at_min is not None
    assert max(g.degree for g in at_min.g.values()) == d_min
    for bound in range(d_min + 1, d_min + 4):
        cert = find_telescoper(seq, seq, p, target, window, deg_bound=bound)
        assert cert_to_json(cert) == cert_to_json(at_min)


@pytest.mark.parametrize("seq, p, target, window, d_min", SEARCH_DEGREES)
def test_degree_search_solves_logarithmically_many_systems(solves, seq, p, target, window, d_min):
    bound = 12
    assert find_telescoper(seq, seq, p, target, window, deg_bound=bound) is not None
    assert solves[0] <= 1 + math.ceil(math.log2(bound + 1))


def test_degree_search_without_certificate_makes_no_exact_solve(solves):
    # the rank screen proves every slice of full column rank
    cubic = parse_poly("2*k^3+3*k^2+k+4")
    assert find_telescoper("W", "W", cubic, (0, 0), (-2, 0), deg_bound=12) is None
    assert solves[0] == 0


def test_degree_search_small_and_negative_bounds(solves):
    assert find_telescoper("W", "W", P_W, (0, 0), (-2, 0), deg_bound=0) is None
    assert solves[0] == 0
    assert find_telescoper("W", "W", P_W, (0, 0), (-2, 0), deg_bound=-1) is None
    assert solves[0] == 0
    assert find_telescoper("one", "one", ONE, (0, 0), (0, 0), deg_bound=0) is None
    assert find_telescoper("one", "one", parse_poly("k"), (0, 0), (0, 0), deg_bound=-3) is None


# the golden certificate of each reference search, in table order
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
GOLDEN_CERTS = (
    "cert_W_8k9_win-2..0.json",
    "cert_T_k_k1_8k9_win-1..0.json",
    "cert_T_k_k1_8k9_win0..1.json",
    "cert_T_k1_16k21_win-1..0.json",
)


def _cert_bytes(cert) -> bytes:
    return (json.dumps(cert_to_json(cert), indent=2) + "\n").encode()


def test_reference_searches_solve_once(solves):
    for search, name in zip(REFERENCE_SEARCHES, GOLDEN_CERTS, strict=True):
        solves[0] = 0
        assert _cert_bytes(search.find()) == (GOLDEN / name).read_bytes()
        assert solves[0] == 1


@pytest.mark.parametrize("prime", [2, 3])
def test_a_small_screen_prime_falls_back_to_exact_solves(monkeypatch, solves, prime):
    # modulo 2 or 3 the screen clears fewer slices, so more of them are solved
    # exactly (at the default prime, one per reference search and none for the
    # cubic); the results are the same
    monkeypatch.setattr(rc.exactmath, "SCREEN_PRIME", prime)
    for search, name in zip(REFERENCE_SEARCHES, GOLDEN_CERTS, strict=True):
        assert _cert_bytes(search.find()) == (GOLDEN / name).read_bytes()
    cubic = parse_poly("2*k^3+3*k^2+k+4")
    assert find_telescoper("W", "W", cubic, (0, 0), (-2, 0), deg_bound=12) is None
    assert solves[0] > len(REFERENCE_SEARCHES)


def test_a_screen_that_clears_nothing_bisects_to_the_same_certificate(monkeypatch, solves):
    # the exact solves then start at degree 0 and go on at 1, 2 and 4, where
    # the certificate is found; bisection finds it again at 3
    monkeypatch.setattr(rc.telescoper, "independent_prefix", lambda *args: 0)
    cert = find_telescoper("T", "T", P_T2, (0, 1), (-1, 0), deg_bound=MAX_DEGREE)
    assert _cert_bytes(cert) == (GOLDEN / GOLDEN_CERTS[3]).read_bytes()
    assert solves[0] == 5


def test_a_loose_degree_bound_costs_one_exact_solve(solves):
    cert = find_telescoper("T", "T", P_T2, (0, 1), (-1, 0), deg_bound=MAX_DEGREE)
    assert _cert_bytes(cert) == (GOLDEN / GOLDEN_CERTS[3]).read_bytes()
    assert solves[0] == 1


def _deepening_reference(a, b, p, target, wa, wb, bound, symmetric):
    """What linear deepening returned: at the smallest degree 0..bound whose
    freshly built system has a solution with p, the solution of least total
    degree of g (then the lexicographically smallest vector)."""
    for deg in range(bound + 1):
        system = _Equations(a, b, wa, wb, target, symmetric).system([p], deg)
        candidates = []
        for vec in nullspace(system.matrix, ncols=len(system.columns)):
            if vec[-1] == 0:
                continue
            scaled = tuple(F(x, vec[-1]) for x in vec)
            coeffs = {}
            for col, x in zip(system.columns, scaled):
                if col[0] == "g":
                    coeffs.setdefault(col[1:3], [F(0)] * (deg + 1))[col[3]] = x
            g = {ij: Poly(cs) for ij, cs in coeffs.items() if any(cs)}
            candidates.append((sum(q.degree for q in g.values()), scaled, g))
        if candidates:
            g = min(candidates, key=lambda c: c[:2])[2]
            return TelescoperCertificate(a, b, wa, wb, target, p, g, symmetric)
    return None


# (sequence a, sequence b, weight, target shifts, window a, window b, bound)
SLICED_SEARCHES = [
    *((seq, seq, p, target, window, None, d_min + 2) for seq, p, target, window, d_min in SEARCH_DEGREES),
    ("W", "W", P_W, (0, 0), (-2, 0), (-2, 0), 3),
    ("T", "T", P_T1, (0, 1), (-1, 0), (-1, 0), 4),
    ("T", "T", parse_poly("k+1"), (0, 1), (-1, 0), None, 3),
    ("T", "T", parse_poly("k^2+k"), (0, 1), (-1, 0), None, 3),
    ("W", "W", parse_poly("k^3+1"), (0, 0), (-2, 0), None, 5),
    ("W", "W", parse_poly("3/2*k^2"), (1, 0), (-2, 0), None, 4),
    ("T", "W", parse_poly("k"), (0, -1), (-1, 0), (-2, 0), 3),
    ("one", "one", parse_poly("k^3"), (0, 0), (0, 0), None, 5),
    ("T", "T", P_T2, (0, 1), (-1, 0), (-1, 0), 4),
    ("one", "one", parse_poly("k^2-1/3"), (1, 0), (0, 0), None, 3),
    ("T", "W", parse_poly("32*k^2+28*k-45"), (0, 0), (-1, 0), (-2, 0), 5),
]


@pytest.mark.parametrize("seq_a, seq_b, p, target, window_a, window_b, bound", SLICED_SEARCHES)
def test_sliced_degree_search_matches_fresh_builds(seq_a, seq_b, p, target, window_a, window_b, bound):
    # the search over the degrees 0..bound finds what linear deepening over
    # fresh builds finds
    a, b, target, wa, wb, symmetric = _search_setup(seq_a, seq_b, target, window_a, window_b)
    cert = find_telescoper(seq_a, seq_b, p, target, window_a, window_b, deg_bound=bound)
    expected = _deepening_reference(a, b, p, target, wa, wb, bound, symmetric)
    assert (cert and cert_to_json(cert)) == (expected and cert_to_json(expected))

    for deg in range(bound + 1):
        system = _Equations(a, b, wa, wb, target, symmetric).system([p], deg)
        basis = nullspace(system.matrix, ncols=len(system.columns))
        # at most one kernel vector has p != 0, and it is the last one
        assert [n for n, vec in enumerate(basis) if vec[-1]] in ([], [len(basis) - 1])


@pytest.mark.parametrize("prime", [None, 2])
@pytest.mark.parametrize("seq_a, seq_b, p, target, window_a, window_b, bound", SLICED_SEARCHES)
def test_each_exact_solve_takes_the_system_built_at_its_degree(
    monkeypatch, prime, seq_a, seq_b, p, target, window_a, window_b, bound
):
    # modulo 2 the screen clears fewer degrees, so more of them are solved
    if prime:
        monkeypatch.setattr(rc.exactmath, "SCREEN_PRIME", prime)
    solved = []
    inner = rc.telescoper.nullspace

    def recording(matrix, ncols):
        solved.append((matrix, ncols))
        return inner(matrix, ncols=ncols)

    setups = []
    pair_setup = rc.telescoper._pair_setup
    monkeypatch.setattr(rc.telescoper, "nullspace", recording)
    monkeypatch.setattr(rc.telescoper, "_pair_setup", lambda *args: setups.append(args) or pair_setup(*args))
    cert = find_telescoper(seq_a, seq_b, p, target, window_a, window_b, deg_bound=bound)
    assert solved or cert is None
    assert len(setups) == 1
    a, b, target, wa, wb, symmetric = _search_setup(seq_a, seq_b, target, window_a, window_b)
    n_pairs = len(_pair_setup(a, b, wa, wb, target, symmetric)[0])
    for matrix, ncols in solved:
        # the columns are n_pairs (deg + 1) g's and one p
        degrees, rest = divmod(ncols - 1, n_pairs)
        deg = degrees - 1
        assert not rest and 0 <= deg <= bound
        assert matrix == _Equations(a, b, wa, wb, target, symmetric).system([p], deg).matrix


def test_degrees_above_the_cap_are_rejected_before_any_system_is_built(solves):
    for degree in (MAX_DEGREE + 1, 10**11):
        with pytest.raises(ValueError, match="largest supported degree"):
            find_telescoper("W", "W", P_W, (0, 0), (-2, 0), deg_bound=degree)
        with pytest.raises(ValueError, match="largest supported degree"):
            discover_weights("T", "T", parse_poly("k+1"), 1, (0, 1), (-1, 0), deg_bound=degree)
        with pytest.raises(ValueError, match="largest supported degree"):
            discover_weights("T", "T", parse_poly("k+1"), degree, (0, 1), (-1, 0), deg_bound=3)
    assert solves[0] == 0


def test_target_shifts_past_the_cap_are_rejected_before_any_reduction(solves, w_cert, monkeypatch):
    def no_reduction(*args):
        raise AssertionError("a reduction ran")

    monkeypatch.setattr(rc.telescoper, "_reduction_table", no_reduction)
    far = MAX_SHIFT_DISTANCE + 1
    for target in ((0, far), (-2 - far, 0), (10**9, 0)):
        with pytest.raises(ValueError, match="outside the window"):
            find_telescoper("W", "W", P_W, target, (-2, 0), deg_bound=2)
        with pytest.raises(ValueError, match="outside the window"):
            discover_weights("W", "W", ONE, 1, target, (-2, 0), deg_bound=2)
        shifted = TelescoperCertificate(**{**vars(w_cert), "target_shifts": target})
        with pytest.raises(ValueError, match="outside the window"):
            certify(shifted)
        with pytest.raises(ValueError, match="outside the window"):
            reductions_defined_from(shifted)
    assert solves[0] == 0


def test_systems_past_the_size_cap_are_rejected_before_any_row_is_built(solves, monkeypatch):
    cubic = parse_poly("k^3+1")
    # the benchmark's search without a certificate, at the sweep's largest
    # degree, and T at the degree cap stay under the cap
    a, b, target, wa, wb, symmetric = _search_setup("W", "W", (0, 0), (-2, 0), None)
    assert _Equations(a, b, wa, wb, target, symmetric).system([cubic], 30).matrix
    a, b, target, wa, wb, symmetric = _search_setup("T", "T", (0, 1), (-1, 0), None)
    assert _Equations(a, b, wa, wb, target, symmetric).system([cubic], MAX_DEGREE).matrix

    def no_rows(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr(rc.telescoper, "clear_denominators", no_rows)
    too_large = f"more than {MAX_SYSTEM_ENTRIES}"
    for target in ((0, 0), (8, 0)):
        with pytest.raises(ValueError, match=too_large):
            find_telescoper("W", "W", cubic, target, (-2, 0), deg_bound=MAX_DEGREE)
    with pytest.raises(ValueError, match=too_large):
        discover_weights("T", "T", ONE, MAX_DEGREE, (0, 1), (-1, 0), deg_bound=MAX_DEGREE)
    assert solves[0] == 0


# the Franel numbers, sum_k binom(n, k)^3: their recurrence's lead
# coefficients are the squares (k+c)^2, not products of linear factors
FRANEL = SequenceDef(
    "F",
    recurrence([parse_poly("-8*(k+1)^2"), parse_poly("-(7*k^2+21*k+16)"), parse_poly("(k+2)^2")]),
    {-1: 0, 0: 1, 1: 2},
)

# sha256 digests of repr(rows) and repr(matrix) of systems built when the
# reductions were normalized rational functions: the four reference searches
# at their bounds, the benchmark's W search that finds no certificate (its
# seed-1 cubic, degree 12) and T at the degree cap, near the size cap; and a
# Franel system, built when each equation was cleared of its linear factors
# without a gcd and of its quadratic ones by a gcd
PINNED_SYSTEMS = [
    ("W", "8*k+9", (0, 0), (-2, 0), 2, (31, 19),
     "6d1e1703f08ddfb3dc02476983197c4f6b98a4b4b7aa542842376e6d3ab6ba18",
     "577518405445610f3b7a9097f13c158bee02a9c73d3821427fc7c87070ef498b"),
    ("T", "k*(k+1)*(8*k+9)", (0, 1), (-1, 0), 4, (21, 16),
     "2dc9118bc98fbaa8abb9717082e6701eb4c93e635eb700eb958a0b6f8efd22ae",
     "0ba0e1c539e9ace9323cbe8709873b91ee4cb01084a35236ba70f05f5130f9f4"),
    ("T", "k*(k+1)*(8*k+9)", (0, 1), (0, 1), 4, (21, 16),
     "5fc446272e40c97e00f810600576b7fc2c7d4aebe40c4fcba1d40e5b5f4457c3",
     "c4383488d25dec6d15c5f12ac74e32876936f93da06a97ea0eda658066071ee9"),
    ("T", "(k+1)*(16*k+21)", (0, 1), (-1, 0), 6, (27, 22),
     "ea5a9c0fa283c662ea8224de459ca2db941bd0b1e7e7bdd48199d6c05b159524",
     "de678814b3d186b920a0ce3298ef2e18b35462342ebda9bd0531cd7720430e3a"),
    ("W", "2*k^3+k^2+4*k+4", (0, 0), (-2, 0), 12, (91, 79),
     "cd323f5f3310a25f098d9278a95ba68e92807b4bc3a59aec983faa7a0f800b25",
     "a8da2041268e98d5beda39f039b4fc83d5512cc41f6d0e5e7b6723f83591435e"),
    ("T", "k^3+1", (0, 1), (-1, 0), MAX_DEGREE, (309, 304),
     "89fa3a1f6ed7bd8feccfbdc94cee7bad8a03c4807e2612f8c5836edd7c9380fc",
     "63632a1702aa4b8f040805cb38e82a36d751e7625279c4e48a8343c20bfbc051"),
    (FRANEL, "k^2+1", (2, 1), (-1, 0), 5, (36, 19),
     "6fcb95865af800aa2a89d5d4892f16033206aeaf22aafc57893db570f1efa46e",
     "4133a82f0c6eed39a9b1788803cb831be7a89e1b3244d4838c4b6cb832d9e023"),
]


@pytest.mark.parametrize("seq, p, target, window, deg, shape, rows_sha, matrix_sha", PINNED_SYSTEMS)
def test_systems_match_their_pinned_digests(seq, p, target, window, deg, shape, rows_sha, matrix_sha):
    a, b, target, wa, wb, symmetric = _search_setup(seq, seq, target, window, None)
    system = _Equations(a, b, wa, wb, target, symmetric).system([parse_poly(p)], deg)
    assert (len(system.rows), len(system.columns)) == shape
    assert hashlib.sha256(repr(system.rows).encode()).hexdigest() == rows_sha
    assert hashlib.sha256(repr(system.matrix).encode()).hexdigest() == matrix_sha


def test_windows_past_the_offset_cap_are_rejected_before_any_term_is_read(monkeypatch, w_cert):
    def no_terms(*args):
        raise AssertionError("a term was read")

    monkeypatch.setattr(SequenceDef, "term", no_terms)
    far = MAX_WINDOW_OFFSET + 1
    beyond = f"lies more than {MAX_WINDOW_OFFSET} from 0"
    for lo in (far, -far - 2, 10**9):
        with pytest.raises(ValueError, match=beyond):
            ShiftWindow(lo, lo + 2)
        with pytest.raises(ValueError, match=beyond):
            find_telescoper("W", "W", P_W, (lo, lo), (lo, lo + 2), deg_bound=2)
        doc = {**cert_to_json(w_cert), "windows": {"a": [-2, 0], "b": [lo, lo + 2]}}
        with pytest.raises(ValueError, match=beyond):
            cert_from_json(doc)
    edge = MAX_WINDOW_OFFSET
    assert ShiftWindow(-edge, 2 - edge).length == ShiftWindow(edge - 2, edge).length == 3


def test_target_shifts_at_the_cap_are_accepted():
    # k^2 summed is (k^3)/3 - k^2/2 + k/6 up to a constant, from any shift
    target = (MAX_SHIFT_DISTANCE, 0)
    cert = find_telescoper("one", "one", parse_poly("k^2"), target, (0, 0), deg_bound=3)
    assert cert is not None and certify(cert, 30).ok


def test_symmetric_mode_rejects_a_second_window_in_both_solvers():
    with pytest.raises(ValueError, match="single window"):
        find_telescoper("T", "T", P_T2, (0, 1), (-1, 0), window_b=(0, 1), deg_bound=3)
    with pytest.raises(ValueError, match="single window"):
        discover_weights("T", "T", parse_poly("k+1"), 1, (0, 1), (-1, 0), window_b=(0, 1), deg_bound=3)
    # a search derives its mode, so only a certificate can be symmetric over two sequences
    mixed = TelescoperCertificate(T, W, ShiftWindow(-1, 0), ShiftWindow(-2, 0), (0, 0), ONE, {}, True)
    with pytest.raises(ValueError, match="same sequence"):
        certify(mixed)


# -- certify ---------------------------------------------------------------------


def test_reference_certificates_certify():
    assert certify(reference_w_certificate(), 200).ok
    assert certify(reference_t_certificate_hi(), 200).ok


@pytest.mark.parametrize("index, memo_len", [(0, 203), (1, 202), (2, 203), (3, 202)])
def test_certify_fills_each_memo_once(monkeypatch, index, memo_len):
    # the numeric half reads the highest term of each sequence first, so each
    # memo is filled by one generator, and to the highest index the loop
    # reads: n_max plus the closed form's largest shift
    stepping = SequenceDef._terms_from
    fills = []

    def counted(seq, last, i):
        fills.append(seq.name)
        return stepping(seq, last, i)

    fresh = {s.name: SequenceDef(s.name, s.recurrence, s.initial) for s in (W, T)}
    cert = cert_from_json(cert_to_json(_reference_cert(index)), fresh)
    monkeypatch.setattr(SequenceDef, "_terms_from", counted)
    assert certify(cert).ok
    seq = cert.seq_a
    assert fills == [seq.name]
    assert len(seq._memo) == memo_len
    other = fresh["T" if seq.name == "W" else "W"]
    assert len(other._memo) == len(other.initial)


def test_a_failing_certificate_reads_only_up_to_its_mismatch():
    # the symbolic half fails, so the numeric half reads no term ahead: it
    # stops at n = 1, and W's memo keeps its initial terms
    fresh = {s.name: SequenceDef(s.name, s.recurrence, s.initial) for s in (W, T)}
    cert = cert_from_json(cert_to_json(_reference_cert(0)), fresh)
    g = dict(cert.g)
    g[(-2, 0)] += ONE
    report = certify(dataclasses.replace(cert, g=g), 5000)
    assert not report.symbolic_ok and not report.numeric_ok
    assert report.mismatch[0] == 1
    assert len(fresh["W"]._memo) == len(W.initial) == 4


def test_a_term_that_cannot_be_read_leaves_certify_to_read_term_by_term():
    # T(1) = 2 breaks the instance at n = -1 and makes T(2) = 9/2: the
    # symbolic half passes, reading the terms up to n_max raises, and the
    # numeric half reads term by term, so it reports the mismatch at n = 1
    # before any read of T(2)
    bad = SequenceDef("T", T.recurrence, {-1: 0, 0: 1, 1: 2})
    cert = cert_from_json(cert_to_json(_reference_cert(1)), {"W": W, "T": bad})
    report = certify(cert, 300)
    assert report.symbolic_ok and not report.numeric_ok
    assert report.mismatch == (1, F(0), F(-3, 8))
    assert len(bad._memo) == 3
    # the window 0..1 reads T(2) at n = 1: the read raises there
    cert = cert_from_json(cert_to_json(_reference_cert(2)), {"W": W, "T": bad})
    with pytest.raises(NonIntegerTerm, match="n=2"):
        certify(cert, 300)


def test_certify_detects_corruption(w_cert):
    bad_g = dict(w_cert.g)
    pair = (-1, 0)
    bad_g[pair] = bad_g[pair] + ONE
    bad = TelescoperCertificate(
        seq_a=w_cert.seq_a,
        seq_b=w_cert.seq_b,
        window_a=w_cert.window_a,
        window_b=w_cert.window_b,
        target_shifts=w_cert.target_shifts,
        p=w_cert.p,
        g=bad_g,
        symmetric=True,
    )
    report = certify(bad, 20)
    assert not report.ok
    assert not report.symbolic_ok
    assert report.residuals == (
        ((-2, 0), "(-3*k + 3)/(k + 1)"),
        ((-1, 0), "(-8)/(k + 1)"),
        ((0, 0), "(3*k + 1)/(k + 1)"),
    )


def test_certify_rejects_out_of_window_entries(w_cert):
    bad = TelescoperCertificate(
        seq_a=W,
        seq_b=W,
        window_a=ShiftWindow(-2, 0),
        window_b=ShiftWindow(-2, 0),
        target_shifts=(0, 0),
        p=P_W,
        g={(3, 4): ONE},
        symmetric=True,
    )
    with pytest.raises(ValueError):
        certify(bad)


def test_certificate_of_a_sequence_that_is_not_built_in(t_cert_lo):
    t2 = SequenceDef("T2", T.recurrence, T.initial)
    cert = find_telescoper(t2, t2, P_T1, (0, 1), (-1, 0), deg_bound=4)
    assert cert.seq_a is t2 and cert.seq_b is t2
    assert certify(cert).ok
    doc = cert_to_json(cert)
    t_doc = cert_to_json(t_cert_lo)
    assert doc == {**t_doc, "seqA": "T2", "seqB": "T2"}
    back = cert_from_json(doc, {"T2": t2})
    assert back.seq_a is t2 and certify(back, 50).ok
    with pytest.raises(UnknownSequence):
        cert_from_json(doc)


def test_reduction_denominators_are_checked_for_integer_roots(w_cert, t_cert_lo, d2_cert):
    for cert in (w_cert, t_cert_lo, d2_cert):
        assert reductions_defined_from(cert)
    # (n+1) a(n) + (300-n) a(n+1) = 0: reducing a(k+1) divides by k - 300
    q = SequenceDef("Q", recurrence([Poly([1, 1]), Poly([300, -1])]), {0: 1})
    cert = TelescoperCertificate(q, ONE_SEQ, ShiftWindow(0, 0), ShiftWindow(0, 0), (0, 0), ONE, {}, False)
    assert not reductions_defined_from(cert)
    assert not reductions_defined_from(cert, 300)
    assert reductions_defined_from(cert, 301)


def test_a_cancelled_factor_is_no_pole():
    # (k-300) a(k) - (k-300)(k+1) a(k+1) = 0: a(k+1) = a(k)/(k+1) in lowest terms
    q = SequenceDef("Q", recurrence([Poly([-300, 1]), Poly([300, 299, -1])]), {0: 1})
    cert = TelescoperCertificate(q, ONE_SEQ, ShiftWindow(0, 0), ShiftWindow(0, 0), (1, 0), ONE, {}, False)
    assert reductions_defined_from(cert, 0)
    assert not reductions_defined_from(cert, -1)


def test_integer_root_search_does_not_follow_the_product_bound():
    # the reductions' denominator at target shifts (0, 12) is a product of
    # 12 shifted lead coefficients, whose Cauchy bound is about 1.9e9
    cert = TelescoperCertificate(**{**vars(reference_w_certificate()), "target_shifts": (0, 12)})
    start = time.process_time()
    assert reductions_defined_from(cert)
    assert time.process_time() - start < 2


# -- discovery ----------------------------------------------------------------------


def _span_contains(coords, direction):
    sympy = pytest.importorskip("sympy")
    m = sympy.Matrix([[sympy.Rational(x) for x in c] for c in coords])
    aug = m.col_join(sympy.Matrix([list(direction)]))
    return m.rank() == aug.rank()


def test_discovery_trinomial_direction():
    disc = discover_weights("T", "T", parse_poly("k+1"), 1, (0, 1), (-1, 0), deg_bound=3)
    assert disc.solutions
    # coords are (c0, c1) for p = (k+1)(c0 + c1 k); the known weight is (21, 16)
    assert _span_contains(disc.solution_coords, (21, 16))
    for cert in disc.solutions:
        assert certify(cert, 60).ok


def test_discovery_w_direction():
    disc = discover_weights("W", "W", ONE, 1, (0, 0), (-2, 0), deg_bound=2)
    assert disc.solutions
    assert _span_contains(disc.solution_coords, (9, 8))
    for cert in disc.solutions:
        assert certify(cert, 60).ok


def test_discovery_constant_sequence_kernel_split():
    disc = discover_weights("one", "one", ONE, 0, (0, 0), (0, 0), deg_bound=1)
    assert [c.g for c in disc.solutions] == [{(0, 0): Poly([0, 1])}]
    assert disc.solutions[0].p == ONE
    assert disc.kernels == [{(0, 0): ONE}]


# -- strict mode and reduction ---------------------------------------------------------


def test_hl_mode_on_reference_certificate():
    cert = reference_w_certificate()
    n = Poly([0, 1])
    assert check_hl_mode(cert, n) is True
    assert check_hl_mode(cert, 2 * n) is False  # content 2 does not divide 1/2
    assert check_hl_mode(cert, 4 * n) is False  # nor does the prime power 4
    # rational contents: 3/2 divides 9/2 and 3/2 but not 1/2, and 1/2 has
    # no prime in its numerator to check
    assert check_hl_mode(cert, Poly([0, F(3, 2)])) is False
    assert check_hl_mode(cert, Poly([0, F(1, 2)])) is True
    assert check_hl_mode(cert, n * n) is False  # only one polynomial factor of n
    zero_cert = TelescoperCertificate(
        W, W, ShiftWindow(-2, 0), ShiftWindow(-2, 0), (0, 0), P_W, {}, True
    )
    assert check_hl_mode(zero_cert, 17 * n * n) is True
    with pytest.raises(ValueError):
        check_hl_mode(cert, ZERO)


def test_hl_mode_on_t_certificate(t_cert_lo):
    # every entry of the downward-window certificate carries k^2
    assert check_hl_mode(t_cert_lo, Poly([0, 0, 1])) is True
    assert check_hl_mode(t_cert_lo, Poly([0, 0, 0, 1])) is False


# -- the split D S = q H ------------------------------------------------------------------


@pytest.mark.parametrize(
    "index, q",
    [(0, (0, 1)), (1, (0, 0, 1)), (2, (1, 1)), (3, (0, 1))],  # k, k^2, k + 1 for 0..1, k
)
def test_reference_closed_forms_split_off_q(index, q):
    closed = _reference_cert(index).closed_form()
    got_q, h, q_at, cofactor = closed.split()
    assert got_q == q
    assert [(i, j) for i, j, _ in h] == [(i, j) for i, j, _ in closed.terms]
    for n in range(301):
        values = [seq.term(n + s) for seq, s in closed.reads]
        want = _d_s(closed, n)
        assert q_at(n) * cofactor(n, values) == want
        assert closed.scaled(n) == want


def _d_s(closed, n: int) -> int:
    """D S(n) as the sum of D g_ij(n) a(n+i) b(n+j) over `closed.terms`, term
    by term: the closed form as it reads before the split."""
    return sum(
        rc.exactmath.horner(coeffs, n) * closed.seq_a.term(n + i) * closed.seq_b.term(n + j)
        for i, j, coeffs in closed.terms
    )


def _int_polys(max_degree: int):
    return st.lists(st.integers(-20, 20), min_size=1, max_size=max_degree + 1).filter(any)


def _cert_of(g: dict) -> TelescoperCertificate:
    return TelescoperCertificate(W, W, ShiftWindow(-2, 0), ShiftWindow(-2, 0), (0, 0), P_W, g, True)


_W_PAIRS = [(i, j) for i in range(-2, 1) for j in range(i, 1)]


@settings(max_examples=60, deadline=None)
@given(
    planted=_int_polys(3),
    pairs=st.sets(st.sampled_from(_W_PAIRS), min_size=1),
    cofactors=st.lists(_int_polys(3), min_size=len(_W_PAIRS), max_size=len(_W_PAIRS)),
    dens=st.lists(st.integers(1, 12), min_size=len(_W_PAIRS), max_size=len(_W_PAIRS)),
)
# H grouped by first read as (2, 2), as for W's certificate, and as (2, 1)
@example(planted=[0, 1], pairs={(-2, -1), (-2, 0), (-1, -1), (-1, 0)}, cofactors=[[1]] * 6, dens=[2] * 6)
@example(planted=[1, 1], pairs={(-2, -2), (-2, -1), (-1, -1)}, cofactors=[[3, -1]] * 6, dens=[1, 2, 3, 4, 5, 6])
def test_split_agrees_with_sympy_gcd(planted, pairs, cofactors, dens):
    # random g's with a planted common factor: q is the gcd over Z[k] of the
    # D g, content included, and D g = q h
    sympy = pytest.importorskip("sympy")
    k = sympy.Symbol("k")
    g = {
        pair: Poly(rc.exactmath.imul(planted, c)) * F(1, d)
        for pair, c, d in zip(sorted(pairs), cofactors, dens)
    }
    closed = _cert_of(g).closed_form()
    q, h, q_at, cofactor = closed.split()
    polys = [sympy.Poly(list(reversed(coeffs)), k, domain="ZZ") for _, _, coeffs in closed.terms]
    want = polys[0]
    for p in polys[1:]:
        want = sympy.gcd(want, p)
    if want.LC() < 0:
        want = -want
    assert q == tuple(int(c) for c in reversed(want.all_coeffs()))
    for (_, _, dg), (_, _, hs) in zip(closed.terms, h):
        assert rc.exactmath.imul(q, hs) == list(dg)
    # H from 1 to 6 products, in every grouped shape: straight-line for
    # (2, 2) and (2, 1), the loop for any other
    for n in range(4):
        values = [seq.term(n + s) for seq, s in closed.reads]
        want = _d_s(closed, n)
        assert q_at(n) * cofactor(n, values) == want
        assert closed.scaled(n) == want


def _check_hl_mode_by_g(cert: TelescoperCertificate, q: Poly) -> bool:
    """`check_hl_mode` as it read before the split: one division and one
    content test per g."""
    q_prim = q.primitive()
    a = q.content().numerator
    for g in cert.g.values():
        if g.is_zero:
            continue
        _, rem = rc.exactmath.poly_divmod(g, q_prim)
        if not rem.is_zero or math.gcd((g.content() / a).denominator, a) != 1:
            return False
    return True


_SMALL_RATIONALS = st.builds(F, st.integers(-12, 12), st.integers(1, 12))


@settings(max_examples=150, deadline=None)
@given(
    planted=_int_polys(2),
    g_parts=st.lists(st.tuples(_int_polys(2), _SMALL_RATIONALS), max_size=len(_W_PAIRS)),
    q_poly=_int_polys(2),
    q_scale=_SMALL_RATIONALS.filter(bool),
)
def test_hl_mode_agrees_with_the_check_by_g(planted, g_parts, q_poly, q_scale):
    g = {pair: Poly(rc.exactmath.imul(planted, c)) * s for pair, (c, s) in zip(_W_PAIRS, g_parts)}
    cert = _cert_of(g)
    for q in (Poly(q_poly) * q_scale, Poly(planted) * q_scale):
        assert check_hl_mode(cert, q) == _check_hl_mode_by_g(cert, q)


# -- serialization ----------------------------------------------------------------------


def test_certificate_json_round_trip(w_cert):
    blob = json.dumps(cert_to_json(w_cert), indent=2)
    back = cert_from_json(json.loads(blob))
    assert back.g == w_cert.g
    assert back.p == w_cert.p
    assert back.window_a == w_cert.window_a
    assert certify(back, 50).ok
    assert json.dumps(cert_to_json(back), indent=2) == blob


def test_solver_output_is_deterministic():
    a, b = REFERENCE_SEARCHES[3].find(), REFERENCE_SEARCHES[3].find()
    assert json.dumps(cert_to_json(a)) == json.dumps(cert_to_json(b))


def test_pretty_rendering(w_cert):
    text = pretty(w_cert)
    assert "W(k)^2" in text
    assert "S(k)" in text
    assert "8*k + 9" in text
