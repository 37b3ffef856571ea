"""Telescoping certificates for products of P-recursive sequences.

Given sequences a, b with known recurrences, a polynomial weight p(k), shift
windows, and target shifts (sa, sb), the solver looks for polynomials
g_{i,j}(k) with

    p(k) a(k+sa) b(k+sb) = Delta_k ( sum_{i,j} g_{i,j}(k) a(k+i) b(k+j) ),

Delta_k F(k) = F(k+1) - F(k), where i and j run over the windows. Shifts
outside a window are rewritten into it through the recurrence, the defining
equation is cleared of denominators and read off coefficient-by-coefficient
in powers of k, and the resulting exact linear system is solved by
fraction-free integer elimination (`exactmath.nullspace`).

Rewriting through a recurrence is only a rational-function identity, so for
the handful of summation boundary points whose recurrence instances are not
guaranteed by forward evaluation, the solver adds the exact numeric identity
at those points as extra linear constraints. Every certificate returned
therefore telescopes exactly from k = 0 on, which is what `certify` checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .exactmath import (
    K,
    ONE,
    Poly,
    RatFunc,
    ZERO,
    nullspace,
    poly_divmod,
    poly_lcm,
)
from .sequences import ONE_SEQ, Recurrence, SequenceDef, get_sequence

__all__ = [
    "ShiftWindow",
    "TelescoperCertificate",
    "CertifyReport",
    "DiscoveryResult",
    "ReduceModResult",
    "reduce_shift",
    "find_telescoper",
    "discover_weights",
    "certify",
    "partial_sum",
    "check_hl_mode",
    "reduce_mod",
    "pretty",
    "cert_to_json",
    "cert_from_json",
]

_RF_ZERO = RatFunc(ZERO)


@dataclass(frozen=True)
class ShiftWindow:
    """Contiguous shifts [lo, hi]; the length must equal the recurrence order."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValueError("empty shift window")

    @property
    def length(self) -> int:
        return self.hi - self.lo + 1

    def shifts(self) -> range:
        return range(self.lo, self.hi + 1)

    def __contains__(self, m: int) -> bool:
        return self.lo <= m <= self.hi


def _as_window(w) -> ShiftWindow:
    if isinstance(w, ShiftWindow):
        return w
    lo, hi = w
    return ShiftWindow(int(lo), int(hi))


def _resolve(seq) -> SequenceDef:
    if isinstance(seq, SequenceDef):
        return seq
    return get_sequence(str(seq))


def _search_setup(
    seq_a, seq_b, target_shifts, window_a, window_b, symmetric: bool | None
) -> tuple[SequenceDef, SequenceDef, tuple[int, int], ShiftWindow, ShiftWindow, bool]:
    """Resolve the factors, target shifts, windows and symmetric mode of a
    search. A missing window defaults to the `order` shifts ending at 0;
    symmetric mode (the default for a square) needs one sequence and one
    window for both factors."""
    a = _resolve(seq_a)
    b = ONE_SEQ if seq_b is None else _resolve(seq_b)
    if isinstance(target_shifts, int):
        target_shifts = (target_shifts, 0)
    target = (int(target_shifts[0]), int(target_shifts[1]))
    wa = _as_window(window_a) if window_a is not None else ShiftWindow(1 - a.recurrence.order, 0)
    if symmetric is None:
        symmetric = a.name == b.name
    if symmetric:
        if a.name != b.name:
            raise ValueError("symmetric mode needs both factors to be the same sequence")
        if window_b is not None and _as_window(window_b) != wa:
            raise ValueError("symmetric mode uses a single window for both factors")
        wb = wa
    elif window_b is not None:
        wb = _as_window(window_b)
    elif b is ONE_SEQ:
        wb = ShiftWindow(0, 0)
    else:
        wb = ShiftWindow(1 - b.recurrence.order, 0)
    return a, b, target, wa, wb, symmetric


# -- shift reduction -----------------------------------------------------------


def _reduction_table(
    rec: Recurrence, window: ShiftWindow, shifts: Iterable[int]
) -> dict[int, tuple[RatFunc, ...]]:
    """Vectors r with a(k+m) = sum_s r_s(k) a(k+s) over the window, for every
    m in `shifts`, valid as rational-function identities."""
    if window.length != rec.order:
        raise ValueError(
            f"window {window.lo}..{window.hi} does not match recurrence order {rec.order}"
        )
    d = rec.order
    cs = rec.coeffs
    vecs: dict[int, list[RatFunc]] = {}
    for s in window.shifts():
        unit = [_RF_ZERO] * d
        unit[s - window.lo] = RatFunc(ONE)
        vecs[s] = unit

    need = list(shifts)
    top = window.hi
    hi_m = max(need, default=window.hi)
    while top < hi_m:
        m = top + 1
        den = cs[d].shift(m - d)
        vec = [_RF_ZERO] * d
        for i in range(d):
            coef = RatFunc(-cs[i].shift(m - d), den)
            prev = vecs[m - d + i]
            vec = [acc + coef * x for acc, x in zip(vec, prev)]
        vecs[m] = vec
        top = m

    bottom = window.lo
    lo_m = min(need, default=window.lo)
    while bottom > lo_m:
        m = bottom - 1
        if cs[0].is_zero:
            raise ValueError(
                "backward reduction is impossible: the trailing recurrence "
                "coefficient is the zero polynomial"
            )
        den = cs[0].shift(m)
        vec = [_RF_ZERO] * d
        for i in range(1, d + 1):
            coef = RatFunc(-cs[i].shift(m), den)
            prev = vecs[m + i]
            vec = [acc + coef * x for acc, x in zip(vec, prev)]
        vecs[m] = vec
        bottom = m

    return {m: tuple(v) for m, v in vecs.items()}


def reduce_shift(rec: Recurrence, m: int, window) -> tuple[RatFunc, ...]:
    """Coefficients r_s(k) with a(k+m) = sum_s r_s(k) a(k+s), s in the window."""
    window = _as_window(window)
    return _reduction_table(rec, window, [m])[m]


def _pair_reduction(
    vec_a: Sequence[RatFunc],
    vec_b: Sequence[RatFunc],
    wa: ShiftWindow,
    wb: ShiftWindow,
    symmetric: bool,
) -> dict[tuple[int, int], RatFunc]:
    out: dict[tuple[int, int], RatFunc] = {}
    for s, ca in zip(wa.shifts(), vec_a):
        if ca.is_zero:
            continue
        for t, cb in zip(wb.shifts(), vec_b):
            if cb.is_zero:
                continue
            key = (min(s, t), max(s, t)) if symmetric else (s, t)
            prod = ca * cb
            out[key] = out[key] + prod if key in out else prod
    return {k: v for k, v in out.items() if not v.is_zero}


# -- certificates ----------------------------------------------------------------


@dataclass
class TelescoperCertificate:
    """The data (p, g) of a telescoping identity, independently checkable."""

    seq_a: str
    seq_b: str
    window_a: ShiftWindow
    window_b: ShiftWindow
    target_shifts: tuple[int, int]
    p: Poly
    g: dict[tuple[int, int], Poly]
    symmetric: bool

    def pairs(self) -> list[tuple[int, int]]:
        if self.symmetric:
            return [(i, j) for i in self.window_a.shifts() for j in self.window_a.shifts() if i <= j]
        return [(i, j) for i in self.window_a.shifts() for j in self.window_b.shifts()]

    def g_at(self, i: int, j: int) -> Poly:
        return self.g.get((i, j), ZERO)

    def s_value(self, n: int) -> Fraction:
        """S(n) = sum of g_{i,j}(n) a(n+i) b(n+j), exactly."""
        a = get_sequence(self.seq_a)
        b = get_sequence(self.seq_b)
        total = Fraction(0)
        for (i, j), g in self.g.items():
            if g.is_zero:
                continue
            total += g(n) * a.term(n + i) * b.term(n + j)
        return total

    def summand(self, k: int) -> Fraction:
        a = get_sequence(self.seq_a)
        b = get_sequence(self.seq_b)
        sa, sb = self.target_shifts
        return self.p(k) * a.term(k + sa) * b.term(k + sb)


def partial_sum(cert: TelescoperCertificate, n: int) -> Fraction:
    """S(n) - S(0); equals sum_{k=0}^{n-1} p(k) a(k+sa) b(k+sb) for a valid
    certificate. S itself is only pinned up to an additive constant, so all
    reporting goes through this difference."""
    return cert.s_value(n) - cert.s_value(0)


# -- the linear system --------------------------------------------------------------


@dataclass
class ReducedSystem:
    """Exact linear system; rows are labelled by their provenance."""

    columns: list[tuple]
    rows: list[tuple]
    matrix: list[list[Fraction]]


def _instance_offsets(window: ShiftWindow, order: int, shifts: Iterable[int]) -> set[int]:
    # reducing a(k+m) into the window touches recurrence instances at k+off
    offs: set[int] = set()
    for m in shifts:
        if m > window.hi:
            offs.update(j - order for j in range(window.hi + 1, m + 1))
        elif m < window.lo:
            offs.update(range(m, window.lo))
    return offs


def _boundary_points(
    seq_a: SequenceDef,
    seq_b: SequenceDef,
    wa: ShiftWindow,
    wb: ShiftWindow,
    shifted_a: Iterable[int],
    shifted_b: Iterable[int],
) -> list[int]:
    points: set[int] = set()
    for seq, window, shifts in (
        (seq_a, wa, shifted_a),
        (seq_b, wb, shifted_b),
    ):
        for off in _instance_offsets(window, seq.recurrence.order, shifts):
            k0 = 0
            while k0 + off < seq.forward_start:
                if not seq.instance_holds(k0 + off):
                    points.add(k0)
                k0 += 1
    return sorted(points)


def _build_system(
    seq_a: SequenceDef,
    seq_b: SequenceDef,
    wa: ShiftWindow,
    wb: ShiftWindow,
    target: tuple[int, int],
    p_basis: Sequence[Poly],
    deg: int,
    symmetric: bool,
) -> ReducedSystem:
    sa, sb = target
    shifted_a = sorted({i + 1 for i in wa.shifts()} | {sa})
    shifted_b = sorted({j + 1 for j in wb.shifts()} | {sb})
    vecs_a = _reduction_table(seq_a.recurrence, wa, shifted_a)
    vecs_b = _reduction_table(seq_b.recurrence, wb, shifted_b)

    if symmetric:
        pairs = [(i, j) for i in wa.shifts() for j in wa.shifts() if i <= j]
    else:
        pairs = [(i, j) for i in wa.shifts() for j in wb.shifts()]

    shifted = {
        (i, j): _pair_reduction(vecs_a[i + 1], vecs_b[j + 1], wa, wb, symmetric)
        for (i, j) in pairs
    }
    target_red = _pair_reduction(vecs_a[sa], vecs_b[sb], wa, wb, symmetric)

    columns: list[tuple] = [("g", i, j, m) for (i, j) in pairs for m in range(deg + 1)]
    columns += [("p", u) for u in range(len(p_basis))]
    col_index = {c: idx for idx, c in enumerate(columns)}

    k_pows = [K**m for m in range(deg + 1)]
    k1_pows = [Poly([1, 1]) ** m for m in range(deg + 1)]

    rows: list[tuple] = []
    matrix: list[list[Fraction]] = []

    for st in pairs:
        den = ONE
        for (i, j) in pairs:
            u = shifted[(i, j)].get(st)
            if u is not None:
                den = poly_lcm(den, u.den)
        t_rf = target_red.get(st)
        if t_rf is not None:
            den = poly_lcm(den, t_rf.den)

        col_polys: dict[int, Poly] = {}
        for (i, j) in pairs:
            u = shifted[(i, j)].get(st)
            cleared = None
            if u is not None:
                scale, rem = poly_divmod(den, u.den)
                assert rem.is_zero
                cleared = u.num * scale
            for m in range(deg + 1):
                contrib = ZERO
                if cleared is not None:
                    contrib = contrib + k1_pows[m] * cleared
                if (i, j) == st:
                    contrib = contrib - k_pows[m] * den
                if not contrib.is_zero:
                    col_polys[col_index[("g", i, j, m)]] = contrib
        if t_rf is not None:
            scale, rem = poly_divmod(den, t_rf.den)
            assert rem.is_zero
            cleared_t = t_rf.num * scale
            for u, pc in enumerate(p_basis):
                contrib = -(pc * cleared_t)
                if not contrib.is_zero:
                    col_polys[col_index[("p", u)]] = contrib

        max_deg = max((p.degree for p in col_polys.values()), default=-1)
        for e in range(max_deg + 1):
            row = [Fraction(0)] * len(columns)
            nonzero = False
            for ci, p in col_polys.items():
                if e <= p.degree and p.coeffs[e]:
                    row[ci] = p.coeffs[e]
                    nonzero = True
            if nonzero:
                rows.append(("coeff", st[0], st[1], e))
                matrix.append(row)

    for k0 in _boundary_points(seq_a, seq_b, wa, wb, shifted_a, shifted_b):
        row = [Fraction(0)] * len(columns)
        for (i, j) in pairs:
            m0 = seq_a.term(k0 + i) * seq_b.term(k0 + j)
            m1 = seq_a.term(k0 + 1 + i) * seq_b.term(k0 + 1 + j)
            for m in range(deg + 1):
                row[col_index[("g", i, j, m)]] = Fraction(
                    m1 * (k0 + 1) ** m - m0 * k0**m
                )
        tval = seq_a.term(k0 + sa) * seq_b.term(k0 + sb)
        for u, pc in enumerate(p_basis):
            row[col_index[("p", u)]] = -pc(k0) * tval
        rows.append(("boundary", k0))
        matrix.append(row)

    return ReducedSystem(columns, rows, matrix)


def _split_vector(
    vec: Sequence[Fraction], system: ReducedSystem, deg: int
) -> tuple[dict[tuple[int, int], Poly], list[Fraction]]:
    by_pair: dict[tuple[int, int], list[Fraction]] = {}
    p_coords: list[Fraction] = []
    for col, val in zip(system.columns, vec):
        if col[0] == "g":
            _, i, j, m = col
            by_pair.setdefault((i, j), [Fraction(0)] * (deg + 1))[m] = Fraction(val)
        else:
            p_coords.append(Fraction(val))
    g = {pair: Poly(cs) for pair, cs in by_pair.items()}
    g = {pair: poly for pair, poly in g.items() if not poly.is_zero}
    return g, p_coords


# -- solving ----------------------------------------------------------------------


def find_telescoper(
    seq_a,
    seq_b=None,
    p: Poly = ONE,
    target_shifts=(0, 0),
    window_a=None,
    window_b=None,
    deg_bound: int = 6,
    symmetric: bool | None = None,
) -> TelescoperCertificate | None:
    """Search for a certificate with deg g <= deg_bound.

    A certificate of degree d padded with zeros is one of degree d + 1, so
    feasibility only grows with the degree. The system is solved once at
    deg_bound; if it has no certificate the result is None (also for a
    negative bound). Otherwise the smallest feasible degree is found by
    bisection, O(log deg_bound) solves in all. Among the solutions at that
    degree, the one with minimal total degree of g (then lexicographically
    smallest coefficient vector) is returned, so the output is deterministic.
    """
    a, b, target, wa, wb, symmetric = _search_setup(
        seq_a, seq_b, target_shifts, window_a, window_b, symmetric
    )
    if p.is_zero:
        raise ValueError("the weight p must be nonzero; use discover_weights for a free p")
    if deg_bound < 0:
        return None

    def solve(deg: int) -> tuple[ReducedSystem, list[list[int]]]:
        system = _build_system(a, b, wa, wb, target, [p], deg, symmetric)
        basis = nullspace(system.matrix, ncols=len(system.columns))
        return system, [vec for vec in basis if vec[-1] != 0]

    system, solutions = solve(deg_bound)
    if not solutions:
        return None
    lo, deg = 0, deg_bound  # no certificate below degree lo, one at deg
    while lo < deg:
        mid = (lo + deg) // 2
        attempt = solve(mid)
        if attempt[1]:
            deg, (system, solutions) = mid, attempt
        else:
            lo = mid + 1

    candidates = []
    for vec in solutions:
        scale = Fraction(1, vec[-1])
        scaled = [Fraction(x) * scale for x in vec]
        g, _ = _split_vector(scaled, system, deg)
        total_degree = sum(poly.degree for poly in g.values())
        candidates.append((total_degree, tuple(scaled), g))
    candidates.sort(key=lambda c: (c[0], c[1]))
    return TelescoperCertificate(
        seq_a=a.name,
        seq_b=b.name,
        window_a=wa,
        window_b=wb,
        target_shifts=target,
        p=p,
        g=candidates[0][2],
        symmetric=symmetric,
    )


@dataclass
class DiscoveryResult:
    """Joint nullspace over (p, g): certificates with p != 0, and pure-kernel
    tables whose difference telescopes to zero."""

    p_basis: list[Poly]
    solutions: list[TelescoperCertificate]
    solution_coords: list[tuple[Fraction, ...]]
    kernels: list[dict[tuple[int, int], Poly]]


def discover_weights(
    seq_a,
    seq_b=None,
    p_fixed: Poly = ONE,
    p_degree: int = 1,
    target_shifts=(0, 0),
    window_a=None,
    window_b=None,
    deg_bound: int = 6,
    symmetric: bool | None = None,
) -> DiscoveryResult:
    """Solve with the weight free: p(k) = p_fixed(k) * (x_0 + x_1 k + ... +
    x_D k^D). Returns a basis of the joint solution space, with pure-kernel
    vectors (p identically zero) reported separately."""
    a, b, target, wa, wb, symmetric = _search_setup(
        seq_a, seq_b, target_shifts, window_a, window_b, symmetric
    )

    p_basis = [p_fixed * (K**u) for u in range(p_degree + 1)]
    system = _build_system(a, b, wa, wb, target, p_basis, deg_bound, symmetric)
    basis = nullspace(system.matrix, ncols=len(system.columns))

    solutions: list[TelescoperCertificate] = []
    coords: list[tuple[Fraction, ...]] = []
    kernels: list[dict[tuple[int, int], Poly]] = []
    for vec in basis:
        g, p_coords = _split_vector([Fraction(x) for x in vec], system, deg_bound)
        p = sum((c * pc for c, pc in zip(p_coords, p_basis)), ZERO)
        if p.is_zero:
            if g:
                kernels.append(g)
            continue
        solutions.append(
            TelescoperCertificate(
                seq_a=a.name,
                seq_b=b.name,
                window_a=wa,
                window_b=wb,
                target_shifts=target,
                p=p,
                g=g,
                symmetric=symmetric,
            )
        )
        coords.append(tuple(p_coords))
    return DiscoveryResult(list(p_basis), solutions, coords, kernels)


# -- certification -------------------------------------------------------------------


@dataclass
class CertifyReport:
    symbolic_ok: bool
    numeric_ok: bool
    residuals: tuple[tuple[tuple[int, int], str], ...]
    mismatch: tuple | None
    checked_to: int

    @property
    def ok(self) -> bool:
        return self.symbolic_ok and self.numeric_ok


def certify(cert: TelescoperCertificate, n_max: int = 200) -> CertifyReport:
    """Recheck a certificate from scratch.

    Symbolic half: re-expand p(k) a(k+sa) b(k+sb) - Delta_k S(k) in the window
    basis and require every coefficient to be the zero rational function.
    Numeric half: compare S(n) - S(0) with the directly accumulated sum of
    p(k) a(k+sa) b(k+sb) for 1 <= n <= n_max, exactly.
    """
    a = _resolve(cert.seq_a)
    b = _resolve(cert.seq_b)
    wa, wb = cert.window_a, cert.window_b
    sa, sb = cert.target_shifts

    shifted_a = sorted({i + 1 for i in wa.shifts()} | {sa})
    shifted_b = sorted({j + 1 for j in wb.shifts()} | {sb})
    vecs_a = _reduction_table(a.recurrence, wa, shifted_a)
    vecs_b = _reduction_table(b.recurrence, wb, shifted_b)

    if cert.symmetric:
        pairs = [(i, j) for i in wa.shifts() for j in wa.shifts() if i <= j]
    else:
        pairs = [(i, j) for i in wa.shifts() for j in wb.shifts()]
    stray = set(cert.g) - set(pairs)
    if stray:
        raise ValueError(f"certificate has g entries outside its windows: {sorted(stray)}")

    balance: dict[tuple[int, int], RatFunc] = {st: _RF_ZERO for st in pairs}
    for (i, j) in pairs:
        g = cert.g_at(i, j)
        if g.is_zero:
            continue
        g_shift = RatFunc(g.shift(1))
        for st, coef in _pair_reduction(
            vecs_a[i + 1], vecs_b[j + 1], wa, wb, cert.symmetric
        ).items():
            balance[st] = balance[st] + g_shift * coef
        balance[(i, j)] = balance[(i, j)] - RatFunc(g)
    for st, coef in _pair_reduction(vecs_a[sa], vecs_b[sb], wa, wb, cert.symmetric).items():
        balance[st] = balance[st] - RatFunc(cert.p) * coef

    residuals = tuple(
        (st, str(rf)) for st, rf in sorted(balance.items()) if not rf.is_zero
    )
    symbolic_ok = not residuals

    numeric_ok = True
    mismatch = None
    s0 = cert.s_value(0)
    running = Fraction(0)
    for n in range(1, n_max + 1):
        running += cert.summand(n - 1)
        got = cert.s_value(n) - s0
        if got != running:
            numeric_ok = False
            mismatch = (n, running, got)
            break

    return CertifyReport(symbolic_ok, numeric_ok, residuals, mismatch, n_max)


# -- strict-mode check and modular reduction ---------------------------------------


def _prime_factors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _padic(x: Fraction, p: int) -> int:
    v = 0
    num = x.numerator
    while num % p == 0:
        num //= p
        v += 1
    den = x.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


def check_hl_mode(cert: TelescoperCertificate, q: Poly) -> bool:
    """Whether q(k) splits off every g_{i,j}: the primitive part of q must
    divide each g as a polynomial and the content of q must divide each g's
    content (checked p-adically at the primes of the content)."""
    if q.is_zero:
        raise ValueError("q must be nonzero")
    q_prim = q.primitive()
    q_content = q.content()
    content_primes = _prime_factors(q_content.numerator)
    for g in cert.g.values():
        if g.is_zero:
            continue
        _, rem = poly_divmod(g, q_prim)
        if not rem.is_zero:
            return False
        gc = g.content()
        for prime in content_primes:
            if _padic(gc, prime) < _padic(q_content, prime):
                return False
    return True


@dataclass
class ReduceModResult:
    q: Poly
    entries: dict[tuple[int, int], tuple[Poly, Poly]]
    flagged_denominators: tuple[int, ...]


def reduce_mod(cert: TelescoperCertificate, q: Poly) -> ReduceModResult:
    """Per-entry division of g by q: g = quot * q + rem. Coefficients may stay
    rational; denominators sharing a factor with the content of q are flagged
    because a purely polynomial reduction cannot justify them (that takes
    parity or divisibility input about the sequence itself)."""
    if q.is_zero:
        raise ValueError("q must be nonzero")
    qc_num = q.content().numerator
    entries: dict[tuple[int, int], tuple[Poly, Poly]] = {}
    flagged: set[int] = set()
    for pair in sorted(cert.g):
        g = cert.g[pair]
        quot, rem = poly_divmod(g, q)
        entries[pair] = (quot, rem)
        for poly in (quot, rem):
            for c in poly.coeffs:
                if c.denominator > 1 and math.gcd(c.denominator, qc_num) > 1:
                    flagged.add(c.denominator)
    return ReduceModResult(q, entries, tuple(sorted(flagged)))


# -- rendering and serialization -----------------------------------------------------


def _term_str(name: str, shift: int, var: str = "k") -> str:
    if shift == 0:
        return f"{name}({var})"
    return f"{name}({var}{shift:+d})"


def _monomial_str(cert: TelescoperCertificate, i: int, j: int, var: str = "k") -> str:
    a = _term_str(cert.seq_a, i, var)
    if cert.seq_b == ONE_SEQ.name:
        return a
    b = _term_str(cert.seq_b, j, var)
    if cert.seq_a == cert.seq_b and i == j:
        return f"{a}^2"
    return f"{a}*{b}"


def pretty(cert: TelescoperCertificate) -> str:
    sa, sb = cert.target_shifts
    target = _monomial_str(cert, sa, sb)
    p_str = "" if cert.p == ONE else f"({cert.p})*"
    terms = []
    for pair in sorted(cert.g):
        g = cert.g[pair]
        if g.is_zero:
            continue
        terms.append(f"({g})*{_monomial_str(cert, *pair)}")
    body = " + ".join(terms) if terms else "0"
    return f"{p_str}{target} = Δ_k S(k)\nS(k) = {body}"


def cert_to_json(cert: TelescoperCertificate) -> dict:
    return {
        "seqA": cert.seq_a,
        "seqB": cert.seq_b,
        "windows": {
            "a": [cert.window_a.lo, cert.window_a.hi],
            "b": [cert.window_b.lo, cert.window_b.hi],
        },
        "target_shifts": list(cert.target_shifts),
        "symmetric": cert.symmetric,
        "p": cert.p.to_json(),
        "g": [
            {"i": i, "j": j, "poly": cert.g[(i, j)].to_json()}
            for (i, j) in sorted(cert.g)
            if not cert.g[(i, j)].is_zero
        ],
    }


def cert_from_json(data: Mapping) -> TelescoperCertificate:
    wa = ShiftWindow(*data["windows"]["a"])
    wb = ShiftWindow(*data["windows"]["b"])
    g = {
        (int(e["i"]), int(e["j"])): Poly.from_json(e["poly"])
        for e in data["g"]
    }
    return TelescoperCertificate(
        seq_a=data["seqA"],
        seq_b=data["seqB"],
        window_a=wa,
        window_b=wb,
        target_shifts=tuple(int(x) for x in data["target_shifts"]),
        p=Poly.from_json(data["p"]),
        g=g,
        symmetric=bool(data.get("symmetric", data["seqA"] == data["seqB"])),
    )
