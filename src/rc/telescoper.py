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
reads a(k+i) a(k+j) and a(k+j) a(k+i) as one pair (symmetric mode) exactly
when it is a square. It clears its equations once and assembles the system
at each degree it tries from them; a solve has at most one kernel vector with
p != 0. Before any exact solve, a rank screen modulo a prime
(`exactmath.independent_prefix`) of the system at the degree bound proves the
degrees whose systems are of full column rank, which have no certificate, and
the exact solves start at the first degree it does not clear; a search with no
certificate up to its bound usually makes no exact solve at all. The pair
list and the reductions of the shifted and target pairs are computed by one
helper, `_pair_setup`, for the solver's system, `certify`'s recheck and
`reductions_defined_from`; it rejects a target shift more than
`MAX_SHIFT_DISTANCE` outside its window. A window reaching more
than `MAX_WINDOW_OFFSET` from 0, and a system of more than
`MAX_SYSTEM_ENTRIES` entries, are rejected too, before any term is read or
any row is built.

A reduction is a set of integer polynomials (`exactmath`'s kernel) over a
denominator kept as its known factors: the shifted lead coefficients of the
recurrence steps it took forward, the trailing ones of those it took
backward. No gcd runs while reducing. Entries are put over a common
denominator by the product of those factors, each as often as the most any
of them has it (`_over_common`). The solver clears each equation once, by
dividing that denominator and the entries over it by their gcd in Z[k]
(`exactmath.igcd`), so each equation is cleared to the denominator a
normalized rational function would give, up to a constant. `certify` checks
each balance as one integer polynomial over the common denominator, and
`reductions_defined_from` looks for poles among the factors' own integer
roots. Only the text of a nonzero residual is brought to lowest terms.

A certificate's closed form is read as D S(n) = q(n) H(n) (`ClosedForm`):
q is the gcd over Z[k] of the D g_{i,j}, and H, the bilinear form of the
cofactors, is the one evaluator of S, exact or modulo m.

Rewriting through a recurrence is only a rational-function identity, so for
the handful of summation boundary points whose recurrence instances are not
guaranteed by forward evaluation, the solver adds the exact numeric identity
at those points as extra linear constraints. Every certificate returned
therefore telescopes exactly from k = 0 on, which is what `certify` checks.

The paper's certificates are not stored: `REFERENCE_SEARCHES` holds the four
searches that find them, and every user of those certificates runs them.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .exactmath import (
    MAX_DEGREE,
    K,
    ONE,
    Poly,
    ZERO,
    clear_denominators,
    echo,
    evaluator,
    horner,
    iadd,
    igcd,
    imul,
    independent_prefix,
    iprod,
    iquo,
    ishift,
    json_field,
    lowest_terms,
    nullspace,
    parse_poly,
    primitive,
)
from .sequences import ONE_SEQ, Recurrence, SequenceDef, SequenceError, T, W, _json_int, get_sequence

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
    "ReferenceSearch",
    "REFERENCE_SEARCHES",
    "find_telescoper",
    "discover_weights",
    "certify",
    "partial_sum",
    "reductions_defined_from",
    "check_hl_mode",
    "pretty",
    "cert_to_json",
    "cert_from_json",
]

# the farthest a target shift may lie outside its window: reducing it takes one
# recurrence step per unit of distance, and the degrees (so the cost) of the
# reductions grow with each step; checked before any runs
MAX_SHIFT_DISTANCE = 16

# the farthest a window's shifts may lie from 0: the solver and `certify` read
# every term from the window's offset on through the memo, which keeps all
# terms below the highest one read; checked when a window is made, so before
# any term is read
MAX_WINDOW_OFFSET = 64

# the most entries (rows times columns) of a solver's linear system: the
# degree cap and the shift cap bound each dimension, not their product, and
# an exact solve's time grows with both (on a 2-vCPU VM, W at degree 100 took
# 15 s at target shift 0 and 110 s at 16, and T at degree 100 3.5 s); a system is
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
    seq_a, seq_b, target_shifts, window_a, window_b
) -> tuple[SequenceDef, SequenceDef, tuple[int, int], ShiftWindow, ShiftWindow, bool]:
    """Resolve the factors, target shifts and windows of a search, and its
    mode: symmetric exactly for a square (a is b). A missing window_b is
    window_a for a square, else the `order` shifts of b ending at 0."""
    a, b = _resolve(seq_a), _resolve(seq_b)
    wa = _as_window(window_a)
    if window_b is not None:
        wb = _as_window(window_b)
    else:
        wb = wa if a is b else ShiftWindow(1 - b.recurrence.order, 0)
    return a, b, (int(target_shifts[0]), int(target_shifts[1])), wa, wb, a is b


# -- shift reduction -----------------------------------------------------------


def _reduction_table(
    rec: Recurrence, window: ShiftWindow, shifts: Iterable[int]
) -> dict[int, tuple[list[list[int]], tuple[tuple[int, ...], ...]]]:
    """For every m in `shifts`, integer polynomials r_s and denominator
    factors f_1, ..., f_t with a(k+m) = sum_s r_s(k) a(k+s) / prod f_i(k) over
    the window, valid as rational-function identities. The factors are the
    lead coefficients of the recurrence instances stepped through, shifted:
    going forward the leading one, going backward the trailing one, in the
    order of the steps from the window out to m. No gcd is taken."""
    if window.length != rec.order:
        raise ValueError(
            f"window {window.lo}..{window.hi} does not match recurrence order {rec.order}"
        )
    d = rec.order
    cs = rec.int_coeffs
    table: dict[int, tuple[list[list[int]], tuple]] = {}
    for s in window.shifts():
        unit: list[list[int]] = [[] for _ in range(d)]
        unit[s - window.lo] = [1]
        table[s] = (unit, ())

    # a(k+m) is solved from the recurrence instance at k + base, whose lead
    # index is d going forward (base = m - d) and 0 going backward (base = m)
    need = list(shifts)
    forward = range(window.hi + 1, max(need, default=window.hi) + 1)
    backward = range(window.lo - 1, min(need, default=window.lo) - 1, -1)
    for m, lead in [(m, d) for m in forward] + [(m, 0) for m in backward]:
        if lead == 0 and not cs[0]:
            raise ValueError(
                "backward reduction is impossible: the trailing recurrence "
                "coefficient is the zero polynomial"
            )
        base = m - lead
        # sum over the other d terms, farthest from m first, over the common
        # denominator by Horner's rule: before each term is added, the sum so
        # far is multiplied by that term's own last factor
        nums: list[list[int]] = [[] for _ in range(d)]
        for i in range(d) if lead == d else range(d, 0, -1):
            src, den = table[base + i]
            if den:
                nums = [imul(x, den[-1]) for x in nums]
            coef = ishift([-c for c in cs[i]], base)
            nums = [iadd(x, imul(coef, y)) for x, y in zip(nums, src)]
        table[m] = (nums, den + (tuple(ishift(cs[lead], base)),))
    return table


# a pair reduction: integer numerators by basis pair, over one denominator
# given as its factors
PairReduction = tuple[dict[tuple[int, int], list[int]], tuple[tuple[int, ...], ...]]


def _pair_reduction(red_a, red_b, wa: ShiftWindow, wb: ShiftWindow, symmetric: bool) -> PairReduction:
    (nums_a, den_a), (nums_b, den_b) = red_a, red_b
    out: dict[tuple[int, int], list[int]] = {}
    for s, x in zip(wa.shifts(), nums_a):
        if not x:
            continue
        for t, y in zip(wb.shifts(), nums_b):
            if not y:
                continue
            key = (min(s, t), max(s, t)) if symmetric else (s, t)
            prod = imul(x, y)
            out[key] = iadd(out[key], prod) if key in out else prod
    return {k: v for k, v in out.items() if v}, den_a + den_b


def _pair_setup(
    seq_a: SequenceDef,
    seq_b: SequenceDef,
    wa: ShiftWindow,
    wb: ShiftWindow,
    target: tuple[int, int],
    symmetric: bool,
) -> tuple[list, dict[tuple[int, int], PairReduction], PairReduction, tuple[list[int], list[int]]]:
    """The setup shared by `_Equations`, `certify` and
    `reductions_defined_from`: the pairs (i, j) of the window basis; the
    reductions into that basis of each shifted pair a(k+1+i) b(k+1+j), keyed
    by (i, j), and of the target pair a(k+sa) b(k+sb), each as integer
    numerators over the product of the factors of a's and b's reductions; and
    the shifts of a and of b that were reduced.

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


def _over_common(dens: Iterable[tuple[tuple[int, ...], ...]]) -> tuple[list[int], Callable]:
    """A common denominator of reductions, given their denominators' factors:
    the product of each factor as often as the most any of them has it, and
    the cofactor of each denominator in it."""
    common: Counter = Counter()
    for den in dens:
        common |= Counter(den)
    return iprod(common.elements()), lambda den: iprod((common - Counter(den)).elements())


def _cleared(entries: Mapping) -> tuple[list[int], dict]:
    """For entries key -> (num, factors) of one equation: den, the lcm of the
    entries' denominators in lowest terms, and each entry times den, in
    integers, all up to one common constant factor. The entries are taken
    over their common denominator (`_over_common`), and that and their
    numerators are divided by their `igcd`."""
    full, cofactor = _over_common(den for _, den in entries.values())
    over = {key: imul(num, cofactor(den)) for key, (num, den) in entries.items()}
    g = functools.reduce(igcd, over.values(), full)
    return iquo(full, g), {key: iquo(num, g) for key, num in over.items()}


# -- certificates ----------------------------------------------------------------


@dataclass
class TelescoperCertificate:
    """The data (p, g) of a telescoping identity, independently checkable.

    The factors are `SequenceDef` objects, so a certificate for a sequence
    that is not built in rechecks as well."""

    seq_a: SequenceDef
    seq_b: SequenceDef
    window_a: ShiftWindow
    window_b: ShiftWindow
    target_shifts: tuple[int, int]
    p: Poly
    g: dict[tuple[int, int], Poly]
    symmetric: bool

    def closed_form(self) -> "ClosedForm":
        """S in integer arithmetic; see `ClosedForm`."""
        gs = sorted((ij, g.coeffs) for ij, g in self.g.items() if not g.is_zero)
        scale, ints = clear_denominators(*(cs for _, cs in gs))
        terms = tuple((i, j, tuple(cs)) for ((i, j), _), cs in zip(gs, ints))
        return ClosedForm(self.seq_a, self.seq_b, scale, terms)


class ClosedForm:
    """S(n) of a certificate in integers, split as D S(n) = q(n) H(n).
    `scale` is the lcm D of the denominators of the g coefficients, and
    `terms` holds (i, j, D g_{i,j}) with the integer coefficients ascending.
    q is the gcd over Z[k] of the D g_{i,j}, content included and its lead
    positive, and H(n) = sum h_{i,j}(n) a(n+i) b(n+j), where each h_{i,j} is
    D g_{i,j} / q, an integer polynomial. `reads` holds the (sequence, shift)
    pairs S reads at n + shift, each once, in the order the terms first need
    them. q and the h_{i,j} are built once into `exactmath.evaluator`s, and H
    into one `_bilinear` form, which every reader of the closed form goes
    through: `scaled`, `partial`, `certify`'s numeric half and, given
    residues, the residue screen. Modulo M, D S(n) needs its terms only
    modulo M / gcd(q(n), M) (see `congruence._Compiler`)."""

    __slots__ = ("seq_a", "seq_b", "scale", "terms", "reads", "_split")

    def __init__(self, seq_a: SequenceDef, seq_b: SequenceDef, scale: int, terms: tuple):
        self.seq_a, self.seq_b, self.scale, self.terms = seq_a, seq_b, scale, terms
        index: dict[tuple[SequenceDef, int], int] = {}
        for i, j, _ in terms:
            for read in ((seq_a, i), (seq_b, j)):
                index.setdefault(read, len(index))
        self.reads = tuple(index)
        q = functools.reduce(igcd, (coeffs for _, _, coeffs in terms), ())
        h = tuple((i, j, tuple(iquo(f, q))) for i, j, f in terms)
        products = tuple((index[seq_a, i], index[seq_b, j], evaluator(hs)) for i, j, hs in h)
        self._split = (q, h, evaluator(q), _bilinear(products))

    def split(self) -> tuple[tuple[int, ...], tuple, Callable[[int], int], Callable]:
        """(q, h, q(n), H(n, values)): q as ascending integer coefficients (the
        zero polynomial () when every g is zero), h the terms (i, j, h_{i,j})
        in the order of `terms`, q's `exactmath.evaluator`, and H at n from
        `values`, whose first entries are the terms S reads at n, one per
        entry of `reads`. Given residues modulo a multiple of M, H is
        congruent to H(n) modulo M."""
        return self._split

    def scaled(self, n: int, stores: Mapping | None = None) -> int:
        """D S(n) = q(n) H(n) exactly. `stores` maps each sequence to what its
        terms are read from, the sequence itself (its memo, the default) or a
        `sequences.TermWindow`."""
        _, _, q, cofactor = self._split
        return q(n) * cofactor(n, [(stores[seq] if stores else seq).term(n + s) for seq, s in self.reads])

    def partial(self, n: int) -> Fraction:
        """S(n) - S(0), as `partial_sum`."""
        return Fraction(self.scaled(n) - self.scaled(0), self.scale)


def _bilinear(products: tuple) -> Callable:
    """(n, values) -> the sum of h(n) values[x] values[y] over the products
    (x, y, h) of H, as the sum over each distinct x of values[x] times the
    sum of h(n) values[y]: one product of two terms per distinct x.
    Straight-line for the two grouped shapes of the reference certificates,
    two x with two products each (W) and with two and one (T), one loop for
    any other."""
    by_x: dict[int, list] = {}
    for x, y, h in products:
        by_x.setdefault(x, []).append((y, h))
    rows = tuple(by_x.items())
    shape = tuple(len(row) for _, row in rows)
    if shape == (2, 2):
        (x0, ((y0, h0), (y1, h1))), (x1, ((y2, h2), (y3, h3))) = rows
        return lambda n, v: v[x0] * (h0(n) * v[y0] + h1(n) * v[y1]) + v[x1] * (h2(n) * v[y2] + h3(n) * v[y3])
    if shape == (2, 1):
        (x0, ((y0, h0), (y1, h1))), (x1, ((y2, h2),)) = rows
        return lambda n, v: v[x0] * (h0(n) * v[y0] + h1(n) * v[y1]) + v[x1] * (h2(n) * v[y2])

    def combine(n: int, values: Sequence[int]) -> int:
        total = 0
        for x, row in rows:
            inner = 0
            for y, h in row:
                inner += h(n) * values[y]
            total += values[x] * inner
        return total

    return combine


def partial_sum(cert: TelescoperCertificate, n: int) -> Fraction:
    """S(n) - S(0); equals sum_{k=0}^{n-1} p(k) a(k+sa) b(k+sb) for a valid
    certificate. S itself is only pinned up to an additive constant, so all
    reporting goes through this difference."""
    return cert.closed_form().partial(n)


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


class _Equations:
    """The part of a search's system that its degree bound does not change,
    computed once: the basis pairs, each pair's defining equation cleared of
    denominators, and the boundary points. `system` assembles the integer
    system at one degree bound."""

    def __init__(self, seq_a: SequenceDef, seq_b: SequenceDef, wa, wb, target, symmetric: bool):
        self.pairs, shifted, target_red, shifts = _pair_setup(seq_a, seq_b, wa, wb, target, symmetric)
        self.cleared = []
        for st in self.pairs:
            entries = {pi: (red[st], den) for pi, (red, den) in enumerate(shifted.values()) if st in red}
            if st in target_red[0]:
                entries["t"] = (target_red[0][st], target_red[1])
            den, cleared = _cleared(entries)
            cleared_t = cleared.pop("t", None)
            self.cleared.append((st, den, cleared, cleared_t))
        self.boundary = _boundary_points(seq_a, seq_b, wa, wb, *shifts)
        self.seq_a, self.seq_b, self.target = seq_a, seq_b, target

    def system(self, p_basis: Sequence[Poly], deg: int) -> ReducedSystem:
        """The system in integers at degree bound deg: for each basis pair st,
        the defining equation's st-coefficient, cleared to `den`, a constant
        times the lcm of its entries' denominators in lowest terms
        (`_cleared`), is scaled to its primitive integer multiple
        and read off power by power of k. Column ("g", i, j, m) holds
        (k+1)^m cleared_ij - [ij = st] k^m den, each (k+1)^m cleared one
        shift-and-add from the m - 1 one.

        A system whose coefficient rows (counted before the zero ones are
        dropped) times its columns exceed `MAX_SYSTEM_ENTRIES` raises
        ValueError before any row is built."""
        pairs = self.pairs
        columns: list[tuple] = [("g", i, j, m) for (i, j) in pairs for m in range(deg + 1)]
        columns += [("p", u) for u in range(len(p_basis))]
        n_g = len(columns) - len(p_basis)

        n_rows = 0
        for _, den, cleared, cleared_t in self.cleared:
            heights = [deg + len(q) for q in (den, *cleared.values())]
            if cleared_t:
                heights += [len(pc.coeffs) + len(cleared_t) - 1 for pc in p_basis if pc]
            n_rows += max(heights)
        if n_rows * len(columns) > MAX_SYSTEM_ENTRIES:
            raise ValueError(
                f"the linear system would have {n_rows} x {len(columns)} entries, "
                f"more than {MAX_SYSTEM_ENTRIES}; lower the degree bound or the target shifts"
            )

        rows: list[tuple] = []
        matrix: list[list[int]] = []
        p_scale, p_ints = clear_denominators(*(pc.coeffs for pc in p_basis))

        for st, den, cleared, cleared_t in self.cleared:
            # these polynomials are a constant multiple of the ones over the monic
            # den; scaled by the lcm of their coefficient denominators, those have
            # content 1 (den's lead becomes that lcm), so the rows are the
            # primitive part of these, signed so that den's lead is positive
            p_polys = [[-x for x in imul(pc, cleared_t)] for pc in p_ints] if cleared_t else []
            den = [p_scale * x for x in den]
            cleared = {pi: [p_scale * x for x in q] for pi, q in cleared.items()}
            content = math.gcd(*den, *(x for q in (*cleared.values(), *p_polys) for x in q))
            if den[-1] < 0:
                content = -content
            den_int = [x // content for x in den]
            col_coeffs: dict[int, list[int]] = {}
            for pi, ij in enumerate(pairs):
                acc = [x // content for x in cleared[pi]] if pi in cleared else []
                for m in range(deg + 1):
                    if m and acc:
                        acc = [x + y for x, y in zip(acc + [0], [0] + acc)]
                    contrib = acc + [0] * (m + len(den_int) - len(acc))
                    if ij == st:
                        for e, x in enumerate(den_int):
                            contrib[m + e] -= x
                    col_coeffs[pi * (deg + 1) + m] = contrib
            for u, q in enumerate(p_polys):
                col_coeffs[n_g + u] = [x // content for x in q]

            for e in range(max(map(len, col_coeffs.values()), default=0)):
                row = [0] * len(columns)
                for ci, cs in col_coeffs.items():
                    if e < len(cs):
                        row[ci] = cs[e]
                if any(row):
                    rows.append(("coeff", st[0], st[1], e))
                    matrix.append(row)

        seq_a, seq_b, (sa, sb) = self.seq_a, self.seq_b, self.target
        for k0 in self.boundary:
            tval = seq_a.term(k0 + sa) * seq_b.term(k0 + sb)
            scale, (p_vals,) = clear_denominators([-pc(k0) * tval for pc in p_basis])
            row = []
            for (i, j) in pairs:
                m0 = seq_a.term(k0 + i) * seq_b.term(k0 + j)
                m1 = seq_a.term(k0 + 1 + i) * seq_b.term(k0 + 1 + j)
                row += [scale * (m1 * (k0 + 1) ** m - m0 * k0**m) for m in range(deg + 1)]
            row += p_vals
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


def _check_degree(what: str, value: int) -> None:
    if value > MAX_DEGREE:
        raise ValueError(f"{what} {value} exceeds the largest supported degree {MAX_DEGREE}")


def find_telescoper(
    seq_a, seq_b, p: Poly, target_shifts, window_a, window_b=None, deg_bound: int = 6
) -> TelescoperCertificate | None:
    """Search for a certificate with deg g <= deg_bound; see `_search_setup`
    for the windows and the mode.

    A bound above `MAX_DEGREE` raises ValueError before anything is built; a
    negative bound gives None. The work no degree changes is done once
    (`_Equations`), and each degree d tried is solved on the system
    `_Equations.system` assembles at d. A certificate of degree d padded
    with zeros is one of degree d + 1, so feasibility only grows with the
    degree.

    Before any exact solve, a rank screen modulo a prime
    (`exactmath.independent_prefix`) takes the columns of the system at
    deg_bound degree-major: the p column, then the g columns of degree 0, 1,
    2, .... The system at degree d is that system's prefix of this order,
    without the rows that are zero there, and a prefix independent modulo
    the prime is independent over Q: that degree has no certificate. If
    every degree is cleared so, the result is None with no exact solve.
    Otherwise the exact solves start at the first degree not cleared, d0,
    go on at d0 + 1, d0 + 2, d0 + 4, ... up to deg_bound, and bisect between
    the last degree without a certificate and the first with one. The prime
    only picks where the exact solves start, so every result is exact.

    A solve has at most one answer. The p column is the last one: if it is
    free, only its own basis vector, the last of the kernel basis, has
    p != 0; if it is a pivot, its reduced row reads pv * p = 0. So the
    certificate is the last basis vector, scaled to p's coefficient 1, when
    its last entry is nonzero, and there is none otherwise.
    """
    _check_degree("deg_bound", deg_bound)
    a, b, target, wa, wb, symmetric = _search_setup(seq_a, seq_b, target_shifts, window_a, window_b)
    if p.is_zero:
        raise ValueError("the weight p must be nonzero; use discover_weights for a free p")
    if deg_bound < 0:
        return None

    equations = _Equations(a, b, wa, wb, target, symmetric)
    full = equations.system([p], deg_bound)

    def solve(deg: int) -> tuple[ReducedSystem, list[int]] | None:
        system = full if deg == deg_bound else equations.system([p], deg)
        basis = nullspace(system.matrix, ncols=len(system.columns))
        return (system, basis[-1]) if basis and basis[-1][-1] else None

    # the p column, then the ("g", i, j, m) columns by m: the system at degree
    # d has the first 1 + n_pairs (d + 1) columns of this order
    cols = full.columns
    order = sorted(range(len(cols)), key=lambda ci: -1 if cols[ci][0] == "p" else cols[ci][3])
    n_pairs = (len(cols) - 1) // (deg_bound + 1)
    d0 = max(0, (independent_prefix(full.matrix, order) - 1) // n_pairs)
    if d0 > deg_bound:
        return None  # every degree's system is of full column rank

    lo, deg, step = d0, d0, 1  # no certificate below degree lo; deg is tried next
    while (found := solve(deg)) is None:
        if deg == deg_bound:
            return None
        lo, deg, step = deg + 1, min(d0 + step, deg_bound), 2 * step
    while lo < deg:  # no certificate below degree lo, one at deg
        mid = (lo + deg) // 2
        attempt = solve(mid)
        if attempt:
            deg, found = mid, attempt
        else:
            lo = mid + 1

    system, vec = found
    g, _ = _split_vector([Fraction(x, vec[-1]) for x in vec], system, deg)
    return TelescoperCertificate(a, b, wa, wb, target, p, g, symmetric)


@dataclass(frozen=True)
class ReferenceSearch:
    """A search for p(k) seq(k+sa) seq(k+sb) over one window of seq, with
    deg g <= deg_bound."""

    seq: SequenceDef
    p: Poly
    target_shifts: tuple[int, int]
    window: tuple[int, int]
    deg_bound: int

    def find(self) -> TelescoperCertificate | None:
        return find_telescoper(
            self.seq, self.seq, self.p, self.target_shifts, self.window, deg_bound=self.deg_bound
        )


# the searches of the paper's certificates, in the order the default
# `congruence.SumEvaluator` tries them, so the T k(k+1)(8k+9) sum gets -1..0
REFERENCE_SEARCHES = (
    ReferenceSearch(W, parse_poly("8*k+9"), (0, 0), (-2, 0), 2),
    ReferenceSearch(T, parse_poly("k*(k+1)*(8*k+9)"), (0, 1), (-1, 0), 4),
    ReferenceSearch(T, parse_poly("k*(k+1)*(8*k+9)"), (0, 1), (0, 1), 4),
    ReferenceSearch(T, parse_poly("(k+1)*(16*k+21)"), (0, 1), (-1, 0), 6),
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
    seq_b,
    p_fixed: Poly,
    p_degree: int,
    target_shifts,
    window_a,
    window_b=None,
    deg_bound: int = 6,
) -> DiscoveryResult:
    """Solve with the weight free: p(k) = p_fixed(k) * (x_0 + x_1 k + ... +
    x_D k^D), with the windows and the mode of `_search_setup`. Returns a
    basis of the joint solution space, with pure-kernel vectors (p
    identically zero) reported separately. A zero `p_fixed`, which makes
    every weight zero, and a degree above `MAX_DEGREE` raise ValueError
    before anything is built."""
    if p_fixed.is_zero:
        raise ValueError("the fixed weight factor must be nonzero")
    _check_degree("p_degree", p_degree)
    _check_degree("deg_bound", deg_bound)
    a, b, target, wa, wb, symmetric = _search_setup(seq_a, seq_b, target_shifts, window_a, window_b)

    p_basis = [p_fixed * (K**u) for u in range(p_degree + 1)]
    system = _Equations(a, b, wa, wb, target, symmetric).system(p_basis, deg_bound)
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
        solutions.append(TelescoperCertificate(a, b, wa, wb, target, p, g, symmetric))
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
    basis and require every coefficient to be zero. Each is one integer
    polynomial over the product of the reductions' denominator factors, and
    only a nonzero one is brought to lowest terms, for its residual text.
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
        raise ValueError(f"certificate has g entries outside its windows: {echo(sorted(stray))}")

    scale, (p_int, *g_ints) = clear_denominators(cert.p.coeffs, *(g.coeffs for g in cert.g.values()))
    # every balance over one common denominator, scale times `full`
    full, cofactor = _over_common(den for _, den in (*shifted.values(), target_red))
    balance: dict[tuple[int, int], list[int]] = {st: [] for st in pairs}
    for (i, j), g_int in zip(cert.g, g_ints):
        if not g_int:
            continue
        red, den = shifted[(i, j)]
        g_shift = imul(ishift(g_int, 1), cofactor(den))
        for st, num in red.items():
            balance[st] = iadd(balance[st], imul(g_shift, num))
        balance[(i, j)] = iadd(balance[(i, j)], imul([-x for x in g_int], full))
    red, den = target_red
    p_part = imul([-x for x in p_int], cofactor(den))
    for st, num in red.items():
        balance[st] = iadd(balance[st], imul(p_part, num))

    # only a nonzero balance is brought to lowest terms, for its text
    residuals = []
    for st, num in sorted(balance.items()):
        if num:
            num, den = lowest_terms(Poly(num), Poly([scale * x for x in full]))
            residuals.append((st, str(num) if den == ONE else f"({num})/({den})"))
    symbolic_ok = not residuals

    numeric_ok = True
    mismatch = None
    closed = cert.closed_form()
    sa, sb = cert.target_shifts
    # the terms the loop reads: the summand's at k + sa and k + sb, and S's
    # at n + s, each term i of a list at its lo + i
    spans = [(cert.seq_a, sa, sa + n_max - 1), (cert.seq_b, sb, sb + n_max - 1)]
    spans += [(seq, s, s + n_max) for seq, s in closed.reads]
    reads = None
    if symbolic_ok:
        # the loop is expected to run to n_max: each list is one memo slice,
        # and the highest read of each sequence comes first, so that its memo
        # fills in one generator
        try:
            for seq, _, hi in sorted(spans, key=lambda span: -span[2]):
                seq.term(hi)
            reads = [seq.terms(lo, hi).__getitem__ for seq, lo, hi in spans]
        except (SequenceError, ValueError):  # the loop raises again at the same n, or fails first
            pass
    if reads is None:  # term by term, so a failing certificate reads up to its first mismatch
        reads = [lambda i, seq=seq, lo=lo: seq.term(lo + i) for seq, lo, _ in spans]
    read_a, read_b, *read_s = reads
    _, _, q, big_h = closed.split()
    s0 = q(0) * big_h(0, [read(0) for read in read_s])
    weight = evaluator(p_int)
    running = 0  # scale times the sum of the summands below n
    for n in range(1, n_max + 1):
        k = n - 1
        running += weight(k) * read_a(k) * read_b(k)
        got = q(n) * big_h(n, [read(n) for read in read_s]) - s0  # D (S(n) - S(0))
        if got * scale != running * closed.scale:
            numeric_ok = False
            mismatch = (n, Fraction(running, scale), Fraction(got, closed.scale))
            break

    return CertifyReport(symbolic_ok, numeric_ok, tuple(residuals), mismatch, n_max)


def _integer_roots(f: Sequence[int], lo: int) -> list[int]:
    """The integer roots r >= lo of a nonzero integer polynomial f: read off
    a linear f, else tried from lo up to f's own Cauchy bound
    1 + max |c_i / lead|."""
    if len(f) == 2:
        r, rem = divmod(-f[0], f[1])
        return [r] if not rem and r >= lo else []
    bound = 1 + max(map(abs, f[:-1]), default=0) // abs(f[-1])
    return [r for r in range(max(lo, -bound), bound + 1) if horner(f, r) == 0]


def _root_order(f: Sequence[int], r: int, cap: int) -> int:
    # how often k - r divides f, counted up to cap
    e = 0
    while e < cap and (q := iquo(f, (-r, 1))) is not None:
        f, e = q, e + 1
    return e


def reductions_defined_from(cert: TelescoperCertificate, k_min: int = CERTIFY_N_MAX) -> bool:
    """Whether no pair reduction of the certificate, in lowest terms, has a
    pole at an integer k >= k_min.

    `certify`'s symbolic half proves the identity as rational functions, and
    its numeric half at k < n_max. At a larger k the identity holds wherever
    those reductions are defined, so a certificate that passes both halves
    and this check with k_min = n_max telescopes at every k >= 0. A pole can
    only be a root of one of the factors of a reduction's denominator, so
    the candidates are those factors' integer roots, each kept where its
    order in the denominator exceeds its order in an entry's numerator."""
    _, shifted, target_red, _ = _pair_setup(
        cert.seq_a, cert.seq_b, cert.window_a, cert.window_b, cert.target_shifts, cert.symmetric
    )
    roots: dict[tuple[int, ...], list[int]] = {}
    for red, den in (*shifted.values(), target_red):
        for f in den:
            if f not in roots:
                roots[f] = _integer_roots(f, k_min)
        for r in {r for f in den for r in roots[f]}:
            pole = sum(_root_order(f, r, len(f)) for f in den)
            if any(_root_order(num, r, pole) < pole for num in red.values()):
                return False
    return True


# -- strict-mode check -------------------------------------------------------------


def check_hl_mode(cert: TelescoperCertificate, q: Poly) -> bool:
    """Whether q(k) splits off every g_{i,j}: the primitive part of q must
    divide each g as a polynomial and the content of q must divide each g's
    content at each prime of a, the numerator of q's content: content(g) / a
    has no such prime in its denominator.

    Read off the closed form's split (`ClosedForm.split`), D g = Q h with Q
    the gcd of the D g over Z[k] and c its content: q's primitive part must
    divide Q's, and a D / gcd(a D, c) must be prime to a."""
    if q.is_zero:
        raise ValueError("q must be nonzero")
    closed = cert.closed_form()
    big_q, *_ = closed.split()
    if not big_q:
        return True  # every g is zero
    _, (q_ints,) = clear_denominators(q.coeffs)
    a = q.content().numerator
    ad = a * closed.scale
    return (
        iquo(primitive(big_q), primitive(q_ints)) is not None
        and math.gcd(ad // math.gcd(ad, math.gcd(*big_q)), a) == 1
    )


# -- rendering and serialization -----------------------------------------------------


def _term_str(name: str, shift: int) -> str:
    if shift == 0:
        return f"{name}(k)"
    return f"{name}(k{shift:+d})"


def _monomial_str(cert: TelescoperCertificate, i: int, j: int) -> str:
    a = _term_str(cert.seq_a.name, i)
    if cert.seq_b is ONE_SEQ:
        return a
    b = _term_str(cert.seq_b.name, j)
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

    def window(bounds) -> ShiftWindow:
        return ShiftWindow(*(_json_int("a window bound", x) for x in bounds))

    wa, wb = window(data["windows"]["a"]), window(data["windows"]["b"])
    g = {}
    for n, e in enumerate(data["g"]):
        with json_field(f"g[{n}]"):
            g[_json_int("a g index", e["i"]), _json_int("a g index", e["j"])] = Poly.from_json(e["poly"])
    target = tuple(_json_int("a target shift", x) for x in data["target_shifts"])
    if len(target) != 2:
        raise ValueError(f"target_shifts must hold two shifts, got {len(target)}")
    symmetric = data.get("symmetric", data["seqA"] == data["seqB"])
    if type(symmetric) is not bool:
        raise ValueError(f"symmetric must be true or false, got {echo(symmetric)}")
    seqs = []
    for key in ("seqA", "seqB"):
        with json_field(key):
            seqs.append(get_sequence(data[key], sequences))
    p = data["p"]
    with json_field("p"):
        p = Poly.from_json(p)
    return TelescoperCertificate(
        seq_a=seqs[0],
        seq_b=seqs[1],
        window_a=wa,
        window_b=wb,
        target_shifts=target,
        p=p,
        g=g,
        symmetric=symmetric,
    )
