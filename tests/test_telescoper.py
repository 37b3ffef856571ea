import json
import math
from fractions import Fraction as F

import pytest

import rc.telescoper
from rc.exactmath import ONE, Poly, RatFunc, ZERO, parse_poly
from rc.sequences import T, W, recurrence
from rc.telescoper import (
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
    reduce_mod,
    reduce_shift,
)

P_W = parse_poly("8*k+9")
P_T1 = parse_poly("k*(k+1)*(8*k+9)")
P_T2 = parse_poly("(k+1)*(16*k+21)")

CENTRAL_BINOM_REC = recurrence([Poly([-2, -4]), Poly([1, 1])])


@pytest.fixture(scope="module")
def w_cert():
    cert = find_telescoper("W", "W", P_W, (0, 0), (-2, 0), deg_bound=2)
    assert cert is not None
    return cert


@pytest.fixture(scope="module")
def t_cert_lo():
    cert = find_telescoper("T", "T", P_T1, (0, 1), (-1, 0), deg_bound=4)
    assert cert is not None
    return cert


@pytest.fixture(scope="module")
def t_cert_hi():
    cert = find_telescoper("T", "T", P_T1, (0, 1), (0, 1), deg_bound=4)
    assert cert is not None
    return cert


@pytest.fixture(scope="module")
def d2_cert():
    cert = find_telescoper("T", "T", P_T2, (0, 1), (-1, 0), deg_bound=6)
    assert cert is not None
    return cert


def reference_w_certificate():
    """The known antidifference for (8k+9) W(k)^2, entered by hand."""
    half = F(1, 2)
    k = Poly([0, 1])
    return TelescoperCertificate(
        seq_a="W",
        seq_b="W",
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
        seq_a="T",
        seq_b="T",
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


def test_reduce_shift_within_window_is_unit():
    vec = reduce_shift(T.recurrence, 1, (0, 1))
    assert vec == (RatFunc(ZERO), RatFunc(ONE))


def test_reduce_shift_central_binomial():
    (r,) = reduce_shift(CENTRAL_BINOM_REC, 1, (0, 0))
    assert r == RatFunc(Poly([2, 4]), Poly([1, 1]))


def test_reduce_shift_trinomial_step():
    vec = reduce_shift(T.recurrence, 2, (0, 1))
    assert vec[0] == RatFunc(Poly([3, 3]), Poly([2, 1]))
    assert vec[1] == RatFunc(Poly([3, 2]), Poly([2, 1]))


def test_reduce_shift_numeric_identity():
    for m in (-3, -1, 2, 4):
        vec = reduce_shift(T.recurrence, m, (0, 1))
        checked = 0
        for k in range(2, 30):
            try:
                got = sum(vec[s](k) * T.term(k + s) for s in (0, 1))
            except ZeroDivisionError:
                continue  # pole of the rational identity, not a failure
            assert got == F(T.term(k + m)), (m, k)
            checked += 1
        assert checked >= 25


def test_reduce_shift_round_trip():
    # reduce into one window, then re-express through a second window
    w1, w2 = ShiftWindow(0, 1), ShiftWindow(1, 2)
    for m in (-2, 3, 5):
        direct = reduce_shift(T.recurrence, m, w2)
        via_w1 = reduce_shift(T.recurrence, m, w1)
        basis_maps = [reduce_shift(T.recurrence, s, w2) for s in w1.shifts()]
        composed = [RatFunc(ZERO), RatFunc(ZERO)]
        for coef, bmap in zip(via_w1, basis_maps):
            composed = [acc + coef * x for acc, x in zip(composed, bmap)]
        assert tuple(composed) == direct, m


def test_reduce_shift_backward_needs_trailing_coefficient():
    rec = recurrence([ZERO, Poly([-1]), Poly([1])])  # a(n+2) = a(n+1)
    with pytest.raises(ValueError):
        reduce_shift(rec, -1, (0, 1))


def test_reduce_shift_window_must_match_order():
    with pytest.raises(ValueError):
        reduce_shift(T.recurrence, 2, (0, 2))


# -- find_telescoper ----------------------------------------------------------------


def test_trivial_constant_sequence():
    cert = find_telescoper("one", None, ONE, (0, 0), (0, 0), deg_bound=1)
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
    ordered = find_telescoper(
        "W", "W", P_W, (0, 0), (-2, 0), window_b=(-2, 0), deg_bound=2, symmetric=False
    )
    assert ordered is not None
    assert certify(ordered, 100).ok
    for n in (1, 2, 3, 10, 60, 100):
        assert partial_sum(ordered, n) == partial_sum(w_cert, n)


def test_not_found_below_required_degree():
    assert find_telescoper("W", "W", P_W, (0, 0), (-2, 0), deg_bound=1) is None


def test_zero_weight_rejected():
    with pytest.raises(ValueError):
        find_telescoper("W", "W", ZERO, (0, 0), (-2, 0))


# (sequence, weight, target shifts, window, smallest feasible degree)
REFERENCE_SEARCHES = [
    ("W", P_W, (0, 0), (-2, 0), 2),
    ("T", P_T1, (0, 1), (-1, 0), 4),
    ("T", P_T1, (0, 1), (0, 1), 4),
    ("T", P_T2, (0, 1), (-1, 0), 3),
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


@pytest.mark.parametrize("seq, p, target, window, d_min", REFERENCE_SEARCHES)
def test_degree_search_result_does_not_depend_on_the_bound(seq, p, target, window, d_min):
    assert find_telescoper(seq, seq, p, target, window, deg_bound=d_min - 1) is None
    at_min = find_telescoper(seq, seq, p, target, window, deg_bound=d_min)
    assert at_min is not None
    assert max(g.degree for g in at_min.g.values()) == d_min
    for bound in range(d_min + 1, d_min + 4):
        cert = find_telescoper(seq, seq, p, target, window, deg_bound=bound)
        assert cert_to_json(cert) == cert_to_json(at_min)


@pytest.mark.parametrize("seq, p, target, window, d_min", REFERENCE_SEARCHES)
def test_degree_search_solves_logarithmically_many_systems(solves, seq, p, target, window, d_min):
    bound = 12
    assert find_telescoper(seq, seq, p, target, window, deg_bound=bound) is not None
    assert solves[0] <= 1 + math.ceil(math.log2(bound + 1))


def test_degree_search_without_certificate_solves_once(solves):
    cubic = parse_poly("2*k^3+3*k^2+k+4")
    assert find_telescoper("W", "W", cubic, (0, 0), (-2, 0), deg_bound=12) is None
    assert solves[0] == 1


def test_degree_search_small_and_negative_bounds(solves):
    assert find_telescoper("W", "W", P_W, (0, 0), (-2, 0), deg_bound=0) is None
    assert solves[0] == 1
    assert find_telescoper("W", "W", P_W, (0, 0), (-2, 0), deg_bound=-1) is None
    assert solves[0] == 1
    assert find_telescoper("one", None, ONE, (0, 0), (0, 0), deg_bound=0) is None
    assert find_telescoper("one", None, parse_poly("k"), (0, 0), (0, 0), deg_bound=-3) is None


def test_symmetric_mode_rejects_a_second_window_in_both_solvers():
    with pytest.raises(ValueError, match="single window"):
        find_telescoper("T", "T", P_T2, (0, 1), (-1, 0), window_b=(0, 1), deg_bound=3)
    with pytest.raises(ValueError, match="single window"):
        discover_weights("T", "T", parse_poly("k+1"), 1, (0, 1), (-1, 0), window_b=(0, 1), deg_bound=3)
    with pytest.raises(ValueError, match="same sequence"):
        discover_weights("T", "W", ONE, 1, (0, 0), (-1, 0), deg_bound=1, symmetric=True)


# -- certify ---------------------------------------------------------------------


def test_reference_certificates_certify():
    assert certify(reference_w_certificate(), 200).ok
    assert certify(reference_t_certificate_hi(), 200).ok


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


def test_certify_rejects_out_of_window_entries(w_cert):
    bad = TelescoperCertificate(
        seq_a="W",
        seq_b="W",
        window_a=ShiftWindow(-2, 0),
        window_b=ShiftWindow(-2, 0),
        target_shifts=(0, 0),
        p=P_W,
        g={(3, 4): ONE},
        symmetric=True,
    )
    with pytest.raises(ValueError):
        certify(bad)


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
    disc = discover_weights("one", None, ONE, 0, (0, 0), (0, 0), deg_bound=1)
    assert [c.g for c in disc.solutions] == [{(0, 0): Poly([0, 1])}]
    assert disc.solutions[0].p == ONE
    assert disc.kernels == [{(0, 0): ONE}]


# -- strict mode and reduction ---------------------------------------------------------


def test_hl_mode_on_reference_certificate():
    cert = reference_w_certificate()
    n = Poly([0, 1])
    assert check_hl_mode(cert, n) is True
    assert check_hl_mode(cert, 2 * n) is False  # content 2 does not divide 1/2
    assert check_hl_mode(cert, n * n) is False  # only one polynomial factor of n
    zero_cert = TelescoperCertificate(
        "W", "W", ShiftWindow(-2, 0), ShiftWindow(-2, 0), (0, 0), P_W, {}, True
    )
    assert check_hl_mode(zero_cert, 17 * n * n) is True
    with pytest.raises(ValueError):
        check_hl_mode(cert, ZERO)


def test_hl_mode_on_t_certificate(t_cert_lo):
    # every entry of the downward-window certificate carries k^2
    assert check_hl_mode(t_cert_lo, Poly([0, 0, 1])) is True
    assert check_hl_mode(t_cert_lo, Poly([0, 0, 0, 1])) is False


def _single_entry_cert(g):
    return TelescoperCertificate(
        "W", "W", ShiftWindow(-2, 0), ShiftWindow(-2, 0), (0, 0), P_W, {(-1, -1): g}, True
    )


def test_reduce_mod_examples():
    k = Poly([0, 1])
    res = reduce_mod(_single_entry_cert(F(-3, 2) * k * (k - 7)), 2 * k)
    quot, rem = res.entries[(-1, -1)]
    assert quot == Poly([F(21, 4), F(-3, 4)]) and rem.is_zero
    assert res.flagged_denominators == (4,)  # 4 shares a factor with content 2

    res = reduce_mod(_single_entry_cert(2 * k), 2 * k)
    assert res.entries[(-1, -1)] == (ONE, ZERO)
    assert res.flagged_denominators == ()

    res = reduce_mod(_single_entry_cert(9 * k), k * k)
    assert res.entries[(-1, -1)] == (ZERO, 9 * k)
    assert res.flagged_denominators == ()


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
    a = find_telescoper("T", "T", P_T2, (0, 1), (-1, 0), deg_bound=6)
    b = find_telescoper("T", "T", P_T2, (0, 1), (-1, 0), deg_bound=6)
    assert json.dumps(cert_to_json(a)) == json.dumps(cert_to_json(b))


def test_pretty_rendering(w_cert):
    text = pretty(w_cert)
    assert "W(k)^2" in text
    assert "S(k)" in text
    assert "8*k + 9" in text
