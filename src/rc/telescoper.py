"""Telescoping certificates for products of P-recursive sequences.

Given sequences a, b with known recurrences, a polynomial weight p(k), shift
windows, and target shifts (sa, sb), the solver looks for polynomials
g_{i,j}(k) with

    p(k) a(k+sa) b(k+sb) = Delta_k ( sum_{i,j} g_{i,j}(k) a(k+i) b(k+j) ),

Delta_k F(k) = F(k+1) - F(k), where i and j run over the windows. Shifts
outside a window are rewritten into it through the recurrence, the defining
equation is cleared of denominators and read off coefficient-by-coefficient
in powers of k, and the resulting exact linear system, built in integers, is
solved by fraction-free integer elimination (`exactmath.nullspace`). A search
builds its system once, at its degree bound, and solves each smaller degree
of its bisection on a column slice of it. The pair list and the reductions of
the shifted and target pairs are computed by one helper, `_pair_setup`, for
both the solver's system and `certify`'s recheck; it rejects a target shift
more than `MAX_SHIFT_DISTANCE` outside its window. A window reaching more than
`MAX_WINDOW_OFFSET` from 0, and a system of more than `MAX_SYSTEM_ENTRIES`
entries, are rejected too, before any term is read or any row is built.

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
    RF_ONE,
    RF_ZERO,
    Poly,
    RatFunc,
    ZERO,
    horner,
    nullspace,
    poly_divmod,
    poly_lcm,
    prime_factors,
)
from .sequences import ONE_SEQ, Recurrence, SequenceDef, get_sequence

__all__ = [
    "MAX_DEGREE",
    "MAX_SHIFT_DISTANCE",
    "MAX_SYSTEM_ENTRIES",
    "MAX_WINDOW_OFFSET",
    "ShiftWindow",
    "TelescoperCertificate",
    "ClosedForm",
    "CertifyReport",
    "DiscoveryResult",
    "ReduceModResult",
    "reduce_shift",
    "find_telescoper",
    "discover_weights",
    "certify",
    "partial_sum",
    "reductions_defined_from",
    "check_hl_mode",
    "reduce_mod",
    "pretty",
    "cert_to_json",
    "cert_from_json",
]

# the largest degree bound of g and of a free weight that a search accepts: a
# bound is rejected before any system is built, since the system grows with it
MAX_DEGREE = 100

# the farthest a target shift may lie outside its window: reducing it takes one
# rational-function recurrence step per unit of distance, and the degrees (so
# the cost) of the reductions grow with each step; checked before any runs
MAX_SHIFT_DISTANCE = 16

# the farthest a window's shifts may lie from 0: the solver and `certify` read
# every term from the window's offset on through the memo, which keeps all
# terms below the highest one read; checked when a window is made, so before
# any term is read
MAX_WINDOW_OFFSET = 64

# the most entries (rows times columns) of a solver's linear system: the
# degree cap and the shift cap bound each dimension, not their product, and
# the solve time grows with both (on a 2-vCPU VM, W at degree 100 took 15 s
# at target shift 0 and 110 s at 16, and T at degree 100 3.5 s); a system is
# counted, and refused, before any row is built
MAX_SYSTEM_ENTRIES = 100_000

# certify's default numeric range: S(n) - S(0) is compared with the sum for n <= this
CERTIFY_N_MAX = 200


@dataclass(frozen=True)
class ShiftWindow:
    """Contiguous shifts [lo, hi]; the length must equal the recurrence order."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValueError("empty shift window")
        if max(-self.lo, self.hi) > MAX_WINDOW_OFFSET:
            raise ValueError(
                f"the window {self.lo}..{self.hi} lies more than {MAX_WINDOW_OFFSET} from 0"
            )

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
    search. A missing window defaults to the `order` shifts ending at 0, or
    in symmetric mode (the default for a square) to the first window."""
    a = _resolve(seq_a)
    b = ONE_SEQ if seq_b is None else _resolve(seq_b)
    if isinstance(target_shifts, int):
        target_shifts = (target_shifts, 0)
    target = (int(target_shifts[0]), int(target_shifts[1]))
    wa = _as_window(window_a) if window_a is not None else ShiftWindow(1 - a.recurrence.order, 0)
    if symmetric is None:
        symmetric = a is b
    if window_b is not None:
        wb = _as_window(window_b)
    elif symmetric:
        wb = wa
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
        unit = [RF_ZERO] * d
        unit[s - window.lo] = RF_ONE
        vecs[s] = unit

    # a(k+m) is solved from the recurrence instance at k + base, whose lead
    # index is d going forward (base = m - d) and 0 going backward (base = m)
    need = list(shifts)
    forward = range(window.hi + 1, max(need, default=window.hi) + 1)
    backward = range(window.lo - 1, min(need, default=window.lo) - 1, -1)
    for m, lead in [(m, d) for m in forward] + [(m, 0) for m in backward]:
        if lead == 0 and cs[0].is_zero:
            raise ValueError(
                "backward reduction is impossible: the trailing recurrence "
                "coefficient is the zero polynomial"
            )
        base = m - lead
        den = cs[lead].shift(base)
        vec = [RF_ZERO] * d
        for i in range(d + 1):
            if i != lead:
                coef = RatFunc(-cs[i].shift(base), den)
                vec = [acc + coef * x for acc, x in zip(vec, vecs[base + i])]
        vecs[m] = vec

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


def _pair_setup(
    seq_a: SequenceDef,
    seq_b: SequenceDef,
    wa: ShiftWindow,
    wb: ShiftWindow,
    target: tuple[int, int],
    symmetric: bool,
) -> tuple[list, dict, dict, tuple[list[int], list[int]]]:
    """The setup shared by `_build_system` and `certify`: the pairs (i, j) of
    the window basis; the reductions into that basis of each shifted pair
    a(k+1+i) b(k+1+j), keyed by (i, j), and of the target pair
    a(k+sa) b(k+sb); and the shifts of a and of b that were reduced.

    Symmetric mode, which reads a(k+i) a(k+j) and a(k+j) a(k+i) as one pair,
    needs the same sequence and a single window for both factors. A target
    shift more than `MAX_SHIFT_DISTANCE` outside its window raises
    ValueError before any reduction runs."""
    for shift, w in zip(target, (wa, wb)):
        if max(w.lo - shift, shift - w.hi) > MAX_SHIFT_DISTANCE:
            raise ValueError(
                f"target shift {shift} lies more than {MAX_SHIFT_DISTANCE} "
                f"outside the window {w.lo}..{w.hi}"
            )
    if symmetric and (seq_a is not seq_b or wa != wb):
        raise ValueError(
            "symmetric mode needs the same sequence and a single window for both factors"
        )
    sa, sb = target
    shifts_a = sorted({i + 1 for i in wa.shifts()} | {sa})
    shifts_b = sorted({j + 1 for j in wb.shifts()} | {sb})
    vecs_a, vecs_b = (
        _reduction_table(seq.recurrence, w, ms)
        for seq, w, ms in ((seq_a, wa, shifts_a), (seq_b, wb, shifts_b))
    )
    if symmetric:
        pairs = [(i, j) for i in wa.shifts() for j in wa.shifts() if i <= j]
    else:
        pairs = [(i, j) for i in wa.shifts() for j in wb.shifts()]
    shifted = {
        (i, j): _pair_reduction(vecs_a[i + 1], vecs_b[j + 1], wa, wb, symmetric)
        for (i, j) in pairs
    }
    target_red = _pair_reduction(vecs_a[sa], vecs_b[sb], wa, wb, symmetric)
    return pairs, shifted, target_red, (shifts_a, shifts_b)


# -- certificates ----------------------------------------------------------------


@dataclass
class TelescoperCertificate:
    """The data (p, g) of a telescoping identity, independently checkable.

    The factors are `SequenceDef` objects, so a certificate for a sequence
    that is not built in rechecks as well; a name given instead is looked up
    in the built-ins."""

    seq_a: SequenceDef
    seq_b: SequenceDef
    window_a: ShiftWindow
    window_b: ShiftWindow
    target_shifts: tuple[int, int]
    p: Poly
    g: dict[tuple[int, int], Poly]
    symmetric: bool

    def __post_init__(self):
        self.seq_a = _resolve(self.seq_a)
        self.seq_b = _resolve(self.seq_b)

    def g_at(self, i: int, j: int) -> Poly:
        return self.g.get((i, j), ZERO)

    def closed_form(self) -> "ClosedForm":
        """S in integer arithmetic; see `ClosedForm`."""
        scale = math.lcm(*(c.denominator for g in self.g.values() for c in g.coeffs))
        terms = tuple(
            (i, j, tuple((c * scale).numerator for c in reversed(g.coeffs)))
            for (i, j), g in sorted(self.g.items())
            if not g.is_zero
        )
        return ClosedForm(self.seq_a, self.seq_b, scale, terms)


class ClosedForm:
    """S(n) of a certificate in integers: `scale` is the lcm D of the
    denominators of the g coefficients, and `terms` holds (i, j, D g_{i,j})
    with the integer coefficients highest degree first. `reads` holds the
    (sequence, shift) pairs S reads at n + shift, each once, in the order
    the terms first need them."""

    __slots__ = ("seq_a", "seq_b", "scale", "terms", "reads", "_products")

    def __init__(self, seq_a: SequenceDef, seq_b: SequenceDef, scale: int, terms: tuple):
        self.seq_a, self.seq_b, self.scale, self.terms = seq_a, seq_b, scale, terms
        index: dict[tuple[SequenceDef, int], int] = {}
        products = []
        for i, j, coeffs in terms:
            for read in ((seq_a, i), (seq_b, j)):
                index.setdefault(read, len(index))
            products.append((index[seq_a, i], index[seq_b, j], coeffs))
        self.reads = tuple(index)
        self._products = tuple(products)

    def scaled(self, n: int, modulus: int | None = None, stores: Mapping | None = None) -> int:
        """D S(n) exactly, or modulo `modulus` from the residues of the window
        terms: one linear-time reduction per term read. `stores` maps each
        sequence to what its terms are read from, the sequence itself (its
        memo, the default) or a `sequences.TermWindow`."""
        values = [(stores[seq] if stores else seq).term(n + s) for seq, s in self.reads]
        if modulus is not None:
            values = [v % modulus for v in values]
        total = sum(horner(coeffs, n) * values[x] * values[y] for x, y, coeffs in self._products)
        return total if modulus is None else total % modulus


def partial_sum(cert: TelescoperCertificate, n: int) -> Fraction:
    """S(n) - S(0); equals sum_{k=0}^{n-1} p(k) a(k+sa) b(k+sb) for a valid
    certificate. S itself is only pinned up to an additive constant, so all
    reporting goes through this difference."""
    cf = cert.closed_form()
    return Fraction(cf.scaled(n) - cf.scaled(0), cf.scale)


# -- the linear system --------------------------------------------------------------


@dataclass
class ReducedSystem:
    """Exact integer linear system; rows are labelled by their provenance."""

    columns: list[tuple]
    rows: list[tuple]
    matrix: list[list[int]]


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


def _ints(poly: Poly, scale: int) -> list[int]:
    # scale * poly as integer coefficients, lowest degree first
    return [c.numerator * (scale // c.denominator) for c in poly.coeffs]


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
    """The system in integers: for each basis pair st, the defining equation's
    st-coefficient is cleared to the common denominator `den`, scaled by the
    lcm of the coefficient denominators that leaves, and read off power by
    power of k. Column ("g", i, j, m) holds (k+1)^m cleared_ij - [ij = st]
    k^m den, each (k+1)^m cleared one shift-and-add from the m - 1 one.

    A system whose coefficient rows (counted before the zero ones are
    dropped) times its columns exceed `MAX_SYSTEM_ENTRIES` raises ValueError
    before any row is built."""
    pairs, shifted, target_red, shifts = _pair_setup(seq_a, seq_b, wa, wb, target, symmetric)

    columns: list[tuple] = [("g", i, j, m) for (i, j) in pairs for m in range(deg + 1)]
    columns += [("p", u) for u in range(len(p_basis))]
    n_g = len(columns) - len(p_basis)

    equations = []
    n_rows = 0
    for st in pairs:
        reds = {pi: shifted[ij][st] for pi, ij in enumerate(pairs) if st in shifted[ij]}
        t_rf = target_red.get(st)
        den = ONE
        for rf in (*reds.values(), t_rf):
            if rf is not None:
                den = poly_lcm(den, rf.den)
        cleared = {pi: u.num * poly_divmod(den, u.den)[0] for pi, u in reds.items()}
        p_polys = []
        if t_rf is not None:
            cleared_t = t_rf.num * poly_divmod(den, t_rf.den)[0]
            p_polys = [-(pc * cleared_t) for pc in p_basis]
        equations.append((st, den, cleared, p_polys))
        heights = [deg + len(q.coeffs) for q in (den, *cleared.values())]
        n_rows += max(heights + [len(q.coeffs) for q in p_polys])
    if n_rows * len(columns) > MAX_SYSTEM_ENTRIES:
        raise ValueError(
            f"the linear system would have {n_rows} x {len(columns)} entries, "
            f"more than {MAX_SYSTEM_ENTRIES}; lower the degree bound or the target shifts"
        )

    rows: list[tuple] = []
    matrix: list[list[int]] = []

    for st, den, cleared, p_polys in equations:
        scale = math.lcm(
            *(c.denominator for q in (den, *cleared.values(), *p_polys) for c in q.coeffs)
        )

        col_coeffs: dict[int, list[int]] = {}
        den_int = _ints(den, scale)
        for pi, ij in enumerate(pairs):
            acc = _ints(cleared[pi], scale) if pi in cleared else []
            for m in range(deg + 1):
                if m and acc:
                    acc = [x + y for x, y in zip(acc + [0], [0] + acc)]
                contrib = acc + [0] * (m + len(den_int) - len(acc))
                if ij == st:
                    for e, x in enumerate(den_int):
                        contrib[m + e] -= x
                col_coeffs[pi * (deg + 1) + m] = contrib
        for u, q in enumerate(p_polys):
            col_coeffs[n_g + u] = _ints(q, scale)

        for e in range(max(map(len, col_coeffs.values()), default=0)):
            row = [0] * len(columns)
            for ci, cs in col_coeffs.items():
                if e < len(cs):
                    row[ci] = cs[e]
            if any(row):
                rows.append(("coeff", st[0], st[1], e))
                matrix.append(row)

    sa, sb = target
    for k0 in _boundary_points(seq_a, seq_b, wa, wb, *shifts):
        tval = seq_a.term(k0 + sa) * seq_b.term(k0 + sb)
        p_vals = [-pc(k0) * tval for pc in p_basis]
        scale = math.lcm(*(v.denominator for v in p_vals))
        row = []
        for (i, j) in pairs:
            m0 = seq_a.term(k0 + i) * seq_b.term(k0 + j)
            m1 = seq_a.term(k0 + 1 + i) * seq_b.term(k0 + 1 + j)
            row += [scale * (m1 * (k0 + 1) ** m - m0 * k0**m) for m in range(deg + 1)]
        row += [v.numerator * (scale // v.denominator) for v in p_vals]
        rows.append(("boundary", k0))
        matrix.append(row)

    return ReducedSystem(columns, rows, matrix)


def _slice(system: ReducedSystem, deg: int) -> ReducedSystem:
    """The system at degree bound deg, read off one built at a larger bound:
    its ("g", i, j, m) columns with m <= deg and every ("p", u) column,
    without the rows that are zero there. Those rows are the nonzero rows of
    a build at deg, in the same order."""
    keep = [ci for ci, col in enumerate(system.columns) if col[0] == "p" or col[3] <= deg]
    rows: list[tuple] = []
    matrix: list[list[int]] = []
    for label, full in zip(system.rows, system.matrix):
        row = [full[ci] for ci in keep]
        if any(row):
            rows.append(label)
            matrix.append(row)
    return ReducedSystem([system.columns[ci] for ci in keep], rows, matrix)


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


def _check_degree(what: str, value: int) -> None:
    if value > MAX_DEGREE:
        raise ValueError(f"{what} {value} exceeds the largest supported degree {MAX_DEGREE}")


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

    A bound above `MAX_DEGREE` raises ValueError before anything is built. A
    certificate of degree d padded with zeros is one of degree d + 1, so
    feasibility only grows with the degree. The system is built and solved
    once at deg_bound; if it has no certificate the result is None (also for
    a negative bound). Otherwise the smallest feasible degree is found by
    bisection, O(log deg_bound) solves in all, each on a slice of that one
    system (`_slice`), whose nonzero rows are those of a system built at the
    smaller degree, so no pair reduction or row is computed twice. Among the
    solutions at that degree, the one with minimal total degree of g (then
    lexicographically smallest coefficient vector) is returned, so the output
    is deterministic.
    """
    _check_degree("deg_bound", deg_bound)
    a, b, target, wa, wb, symmetric = _search_setup(
        seq_a, seq_b, target_shifts, window_a, window_b, symmetric
    )
    if p.is_zero:
        raise ValueError("the weight p must be nonzero; use discover_weights for a free p")
    if deg_bound < 0:
        return None

    full = _build_system(a, b, wa, wb, target, [p], deg_bound, symmetric)

    def solve(deg: int) -> tuple[ReducedSystem, list[list[int]]]:
        system = full if deg == deg_bound else _slice(full, deg)
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
        seq_a=a,
        seq_b=b,
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
    vectors (p identically zero) reported separately. A degree above
    `MAX_DEGREE` raises ValueError before anything is built."""
    _check_degree("p_degree", p_degree)
    _check_degree("deg_bound", deg_bound)
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
                seq_a=a,
                seq_b=b,
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


def certify(cert: TelescoperCertificate, n_max: int = CERTIFY_N_MAX) -> CertifyReport:
    """Recheck a certificate from scratch.

    Symbolic half: re-expand p(k) a(k+sa) b(k+sb) - Delta_k S(k) in the window
    basis and require every coefficient to be the zero rational function.
    Numeric half: compare S(n) - S(0) with the directly accumulated sum of
    p(k) a(k+sa) b(k+sb) for 1 <= n <= n_max, exactly.
    """
    pairs, shifted, target_red, _ = _pair_setup(
        cert.seq_a,
        cert.seq_b,
        cert.window_a,
        cert.window_b,
        cert.target_shifts,
        cert.symmetric,
    )
    stray = set(cert.g) - set(pairs)
    if stray:
        raise ValueError(f"certificate has g entries outside its windows: {sorted(stray)}")

    balance: dict[tuple[int, int], RatFunc] = {st: RF_ZERO for st in pairs}
    for (i, j) in pairs:
        g = cert.g_at(i, j)
        if g.is_zero:
            continue
        g_shift = RatFunc(g.shift(1))
        for st, coef in shifted[(i, j)].items():
            balance[st] = balance[st] + g_shift * coef
        balance[(i, j)] = balance[(i, j)] - RatFunc(g)
    for st, coef in target_red.items():
        balance[st] = balance[st] - RatFunc(cert.p) * coef

    residuals = tuple(
        (st, str(rf)) for st, rf in sorted(balance.items()) if not rf.is_zero
    )
    symbolic_ok = not residuals

    numeric_ok = True
    mismatch = None
    closed = cert.closed_form()
    p_scale = math.lcm(*(c.denominator for c in cert.p.coeffs))
    p_int = tuple((c * p_scale).numerator for c in reversed(cert.p.coeffs))
    a, b = cert.seq_a, cert.seq_b
    sa, sb = cert.target_shifts
    s0 = closed.scaled(0)
    running = 0  # p_scale times the sum of the summands below n
    for n in range(1, n_max + 1):
        k = n - 1
        running += horner(p_int, k) * a.term(k + sa) * b.term(k + sb)
        got = closed.scaled(n) - s0  # D (S(n) - S(0))
        if got * p_scale != running * closed.scale:
            numeric_ok = False
            mismatch = (n, Fraction(running, p_scale), Fraction(got, closed.scale))
            break

    return CertifyReport(symbolic_ok, numeric_ok, residuals, mismatch, n_max)


def _has_integer_root_from(q: Poly, lo: int) -> bool:
    """Whether q vanishes at an integer x >= lo. Every root of a nonzero q
    lies within the Cauchy bound 1 + max |c_i / lead|, so only the integers
    from lo up to that bound are tried."""
    if q.degree < 1:
        return q.is_zero
    bound = 1 + max(abs(c) for c in q.coeffs[:-1]) / abs(q.lead)
    return any(q(x) == 0 for x in range(lo, math.floor(bound) + 1))


def reductions_defined_from(cert: TelescoperCertificate, k_min: int = CERTIFY_N_MAX) -> bool:
    """Whether no denominator of the certificate's pair reductions vanishes at
    an integer k >= k_min.

    `certify`'s symbolic half proves the identity as rational functions, and
    its numeric half at k < n_max. At a larger k the identity holds wherever
    those denominators do not vanish, so a certificate that passes both
    halves and this check with k_min = n_max telescopes at every k >= 0."""
    _, shifted, target_red, _ = _pair_setup(
        cert.seq_a, cert.seq_b, cert.window_a, cert.window_b, cert.target_shifts, cert.symmetric
    )
    dens = {rf.den for red in (*shifted.values(), target_red) for rf in red.values()}
    return not any(_has_integer_root_from(d, k_min) for d in dens)


# -- strict-mode check and modular reduction ---------------------------------------


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
    content_primes = prime_factors(q_content.numerator)
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
    a = _term_str(cert.seq_a.name, i, var)
    if cert.seq_b is ONE_SEQ:
        return a
    b = _term_str(cert.seq_b.name, j, var)
    if cert.seq_a is cert.seq_b and i == j:
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
        "seqA": cert.seq_a.name,
        "seqB": cert.seq_b.name,
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


def cert_from_json(
    data: Mapping, sequences: Mapping[str, SequenceDef] | None = None
) -> TelescoperCertificate:
    """Decode a certificate; seqA and seqB name sequences of `sequences`
    (default: the built-ins), and an unknown name raises `UnknownSequence`."""
    wa = ShiftWindow(*data["windows"]["a"])
    wb = ShiftWindow(*data["windows"]["b"])
    g = {
        (int(e["i"]), int(e["j"])): Poly.from_json(e["poly"])
        for e in data["g"]
    }
    target = tuple(int(x) for x in data["target_shifts"])
    if len(target) != 2:
        raise ValueError(f"target_shifts must hold two shifts, got {len(target)}")
    return TelescoperCertificate(
        seq_a=get_sequence(data["seqA"], sequences),
        seq_b=get_sequence(data["seqB"], sequences),
        window_a=wa,
        window_b=wb,
        target_shifts=target,
        p=Poly.from_json(data["p"]),
        g=g,
        symmetric=bool(data.get("symmetric", data["seqA"] == data["seqB"])),
    )
