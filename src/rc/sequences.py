"""P-recursive sequences evaluated exactly.

A sequence is a linear recurrence with polynomial coefficients plus enough
initial values (negative indices allowed), optionally cross-checked against a
direct formula. Terms are integers, stepped forward in integer arithmetic:
the recurrence coefficients are integer polynomials, each built once into an
`exactmath.evaluator`, and each new term is one exact division of an integer
combination of the previous terms by the leading coefficient, with a nonzero
remainder reported as `NonIntegerTerm`. `SequenceDef._terms_from` is the one
stepping kernel: a generator of the terms from an index on, holding the last
`order` terms in locals; for orders 2 and 3 with coefficients of degree at
most 1 (T's and W's) it is straight-line and steps each coefficient's value
by its slope, and any other recurrence takes one loop over the evaluators.

Terms live in two stores. The memo (`SequenceDef.term`) is for random
access: it keeps every term from the initial data up to the highest one
read, so for W, whose n-th term has about 1.58 n bits, it holds about
0.8 N^2 bits after a read at N. A window (`SequenceDef.window`, a
`TermWindow`) is for streaming reads in ascending order: it steps past the
memo and keeps only the last few terms, so reading every term up to N keeps
O(N) bits. Both give the same values and raise the same errors.

`SumSpec` is the one finite sum over k: a coefficient in k, the quotient of
two polynomials in lowest terms, times binomial, geometric and sequence-term
factors. It serves as a sequence's direct formula (which takes no
sequence-term factors) and as the sum node of a congruence claim, with one
JSON codec and one accumulation loop (`_running_sums`) for both.

Terms are stepped, not recomputed. The product of a summand's binomial
and geometric factors with affine arguments, its block, is hypergeometric
in k: once per spec, its value at k over its value at k - 1 is written as
P(k)/Q(k), each a product of linear forms cn*n + ck*k + c (`_block_ratio`),
and at each n, P and Q step by forward differences, so a term costs one
product and one exact division by small integers (`_Summand`). The block
is nonzero on an interval of k, and is computed directly (`math.comb`,
powers) at the first k read there. `_binom_parts` describes a binomial's
step once, for the block's forms and for `binom_step`, which the claims'
binomial nodes call; past `_MAX_STEP_FACTORS` factors a block is not
stepped. A read over which a geometric exponent turns negative is summed
by `SumSpec.term`, which stays the reference.

A `SeqFactor` holds its `SequenceDef`. Names are resolved once, when a sum
is decoded, against a name-to-sequence mapping; the default is `BUILTINS`,
the fixed table of W, T and one.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from collections import Counter, deque
from itertools import accumulate, islice, repeat
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .exactmath import ONE, FieldError, Poly, _check_digits, _json_text, clear_denominators, echo, evaluator, frac_to_str, json_field, lowest_terms, poly

__all__ = [
    "Affine",
    "Bound",
    "BinomFactor",
    "GeomFactor",
    "SeqFactor",
    "SumSpec",
    "Recurrence",
    "SequenceDef",
    "TermWindow",
    "DerivedSequence",
    "SequenceError",
    "UnknownSequence",
    "LeadingCoefficientVanishes",
    "NonIntegerTerm",
    "Mismatch",
    "ConsistencyReport",
    "binom",
    "binom_step",
    "recurrence",
    "eval_direct",
    "check_recurrence_consistency",
    "check_parity_odd",
    "check_derived_recurrence",
    "trinomial_middle",
    "BUILTINS",
    "get_sequence",
    "builtin_names",
    "sequence_to_json",
    "sequence_from_json",
    "W",
    "T",
    "ONE_SEQ",
]


def binom(x: int, y: int) -> int:
    """Binomial coefficient with the summation convention: 0 when y < 0 or y > x."""
    if y < 0 or y > x:
        return 0
    return math.comb(x, y)


# a step multiplies at most this many small factors: past that, math.comb
# costs as much at tops of a few hundred, and a step's work must not grow
# with the coefficients of a claims file
_MAX_STEP_FACTORS = 128


def binom_step(value: int, x0: int, y0: int, x1: int, y1: int) -> int:
    """binom(x1, y1) from value = binom(x0, y0), by the ratio `_binom_ratio`
    fixes for the increments (x1 - x0, y1 - y0). `binom` itself when value
    is 0, which covers an (x0, y0) outside 0 <= y0 <= x0, when (x1, y1) lies
    outside 0 <= y1 <= x1, and when the step would multiply more than
    `_MAX_STEP_FACTORS` factors."""
    ratio = _binom_ratio(x1 - x0, y1 - y0)
    if not value or y1 < 0 or y1 > x1 or ratio is None:
        return binom(x1, y1)
    return ratio(value, x1, y1)


# cached: a ratio depends on the increments alone and costs more to build than
# a step, and the reads of a sum or a claim step by a few increments
@functools.lru_cache(maxsize=128)
def _binom_ratio(dx: int, dy: int):
    """ratio(value, x, y): binom(x, y) from value = binom(x - dx, y - dy),
    both inside 0 <= bottom <= top, or None when the step would multiply more
    than `_MAX_STEP_FACTORS` factors (see `_binom_parts`). A step is one
    product of value and one exact division."""
    parts = _binom_parts(dx, dy)
    if parts is None:
        return None
    up, down = parts
    pad = [(0, 0, 0)] * 2  # perm(x, 0) = 1
    (i1, o1, n1), (i2, o2, n2) = (up + pad)[:2]
    (i3, o3, n3), (i4, o4, n4) = (down + pad)[:2]
    perm = math.perm

    def ratio(value, x, y):
        u = x, y, x - y
        return (
            value
            * (perm(u[i1] + o1, n1) * perm(u[i2] + o2, n2))
            // (perm(u[i3] + o3, n3) * perm(u[i4] + o4, n4))
        )

    return ratio


def _binom_parts(dx: int, dy: int) -> tuple[list, list] | None:
    """(up, down): binom(x, y) / binom(x - dx, y - dy) as the product of the
    parts in up over that of the parts in down, or None when the step would
    multiply more than `_MAX_STEP_FACTORS` factors. With z = x - y and
    dz = dx - dy the ratio is x!/(x-dx)! * (y-dy)!/y! * (z-dz)!/z!, and each
    of its parts, (index into (x, y, z), offset, count), is a product of
    count consecutive integers, perm(u + offset, count). The three never fall
    on one side (dx = dy + dz), so each side is at most two parts."""
    if abs(dx) + abs(dy) + abs(dx - dy) > _MAX_STEP_FACTORS:
        return None
    up, down = [], []
    for i, e, sign in ((0, dx, 1), (1, dy, -1), (2, dx - dy, -1)):
        if e:
            (up if e * sign > 0 else down).append((i, max(-e, 0), abs(e)))
    return up, down


class SequenceError(Exception):
    pass


class UnknownSequence(SequenceError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown sequence {echo(name)}")


class LeadingCoefficientVanishes(SequenceError):
    def __init__(self, name: str, n: int):
        self.n = n
        super().__init__(f"{name}: leading recurrence coefficient vanishes at n={n}")


class NonIntegerTerm(SequenceError):
    def __init__(self, name: str, n: int, value: Fraction):
        self.n = n
        self.value = value
        super().__init__(f"{name}: term at n={n} is not an integer ({frac_to_str(value)})")


# -- affine index arithmetic ---------------------------------------------------


@dataclass(frozen=True)
class Affine:
    """cn*n + ck*k + c with integer coefficients."""

    cn: int = 0
    ck: int = 0
    c: int = 0

    def at(self, n: int, k: int) -> int:
        return self.cn * n + self.ck * k + self.c

    def to_json(self) -> list[int]:
        return [self.cn, self.ck, self.c]

    @classmethod
    def from_json(cls, what: str, data) -> "Affine":
        """The affine value of the field `what`: a JSON list of exactly three
        integers."""
        if type(data) is not list or len(data) != 3:
            raise FieldError(f"{what} must be a list of three integers, got {echo(data)}")
        return cls(*(_json_int("an affine coefficient", x) for x in data))


@dataclass(frozen=True)
class Bound:
    """floor((cn*n + c) / den) with den in {1, 2}; summation limits and halved
    exponents both use this."""

    cn: int = 0
    c: int = 0
    den: int = 1

    def at(self, n: int) -> int:
        return (self.cn * n + self.c) // self.den

    def exact_at(self, n: int) -> int:
        v = self.cn * n + self.c
        if v % self.den:
            raise ValueError(f"{self.to_str()} is not an integer at n={n}")
        return v // self.den

    def to_str(self) -> str:
        inner = {(0, 0): "0", (1, 0): "n"}.get((self.cn, self.c))
        if inner is None:
            head = "" if self.cn == 1 else f"{self.cn}*"
            inner = f"{head}n{self.c:+d}" if self.cn else str(self.c)
        if self.den == 1:
            return inner
        return f"floor(({inner})/{self.den})" if self.c or self.cn != 1 else f"floor(n/{self.den})"

    @classmethod
    def from_str(cls, s: str) -> "Bound":
        s = _check_digits("a bound", s.replace(" ", ""))
        den = 1
        m = re.fullmatch(r"floor\(\(?(.*?)\)?/(\d+)\)", s)
        if m:
            s, den = m.group(1), int(m.group(2))
            if den not in (1, 2):
                raise ValueError(f"unsupported bound denominator {echo(den)}")
        m = re.fullmatch(r"(?:(-?\d*)\*?n)?([+-]?\d+)?", s)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise ValueError(f"cannot parse bound {echo(s)}")
        cn = 0
        if m.group(1) is not None:
            cn = int(m.group(1)) if m.group(1) not in ("", "-") else (-1 if m.group(1) == "-" else 1)
        c = int(m.group(2)) if m.group(2) else 0
        return cls(cn, c, den)


# -- finite sums ---------------------------------------------------------------


@dataclass(frozen=True)
class BinomFactor:
    top: Affine
    bottom: Affine

    def value(self, n: int, k: int) -> int:
        return binom(self.top.at(n, k), self.bottom.at(n, k))

    def to_json(self) -> dict:
        return {"binom": {"top": self.top.to_json(), "bottom": self.bottom.to_json()}}


@dataclass(frozen=True)
class GeomFactor:
    base: int
    exp: Affine

    def value(self, n: int, k: int) -> int | Fraction:
        e = self.exp.at(n, k)
        if e >= 0:
            return self.base**e
        if self.base == 0:
            raise ZeroDivisionError("0 raised to a negative power")
        return Fraction(1, self.base**-e)

    def to_json(self) -> dict:
        return {"geom": {"base": self.base, "exp": self.exp.to_json()}}


@dataclass(frozen=True)
class SeqFactor:
    """The sequence term seq(k + shift); a summand of a claim may hold it,
    the direct formula of a sequence may not."""

    seq: "SequenceDef"
    shift: int = 0

    @property
    def name(self) -> str:
        return self.seq.name

    def to_json(self) -> dict:
        return {"seq": {"name": self.name, "shift": self.shift}}


def _factor_of(d: dict, sequences: Mapping[str, "SequenceDef"] | None = None):
    if "seq" in d:
        s = d["seq"]
        return SeqFactor(get_sequence(s["name"], sequences), _json_int("a seq shift", s.get("shift", 0)))
    if "binom" in d:
        b = d["binom"]
        top, bottom = (Affine.from_json(f"a binomial's {key}", b[key]) for key in ("top", "bottom"))
        return BinomFactor(top, bottom)
    if "geom" in d:
        g = d["geom"]
        return GeomFactor(_json_int("a geom base", g["base"]), Affine.from_json("a geometric exp", g["exp"]))
    raise ValueError(f"unknown sum factor {echo(d)}")


@dataclass(frozen=True)
class SumSpec:
    """sum over k from lo to upper(n) of coeff(k) / den(k) * product(factors).

    The coefficient is the quotient of two polynomials, brought to lowest
    terms at construction (`exactmath.lowest_terms`), so two specs of one sum
    are equal. A spec is hashed once, at construction: it keys the running
    sums of `congruence.SumEvaluator`, and a fresh hash would reach every
    `Fraction` coefficient. `n_free`, true when no factor mentions n, is
    also found once: every running-sum read asks it. The coefficient is
    also kept as two integer polynomials (numerator and denominator with
    their denominators cleared together, `exactmath.clear_denominators`),
    and each built into an `exactmath.evaluator`, for `term` and
    `_running_sums`.
    """

    coeff: Poly = ONE
    factors: tuple = ()
    lo: int = 0
    upper: Bound = Bound(1, -1, 1)  # k = lo .. n-1
    den: Poly = ONE
    _hash: int = field(init=False, repr=False, compare=False)
    n_free: bool = field(init=False, repr=False, compare=False)  # no factor mentions n
    _int_coeff: tuple = field(init=False, repr=False, compare=False)
    _coeff_at: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        num, den = lowest_terms(self.coeff, self.den)
        object.__setattr__(self, "coeff", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", hash(((num, den), self.factors, self.lo, self.upper)))
        n_free = not any(
            (f.top.cn or f.bottom.cn) if isinstance(f, BinomFactor) else isinstance(f, GeomFactor) and f.exp.cn
            for f in self.factors
        )
        object.__setattr__(self, "n_free", n_free)
        _, ints = clear_denominators(num.coeffs, den.coeffs)
        object.__setattr__(self, "_int_coeff", tuple(map(tuple, ints)))
        object.__setattr__(self, "_coeff_at", tuple(map(evaluator, ints)))

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _ratio(self) -> tuple | None:
        """The k-step ratio of the product of the binomial and geometric
        factors (`_block_ratio`), found at the first stepped read."""
        return _block_ratio(self.factors)

    def term(self, n: int, k: int) -> Fraction:
        """The summand at (n, k) as a `Fraction`, the reference for
        `_running_sums`. It stops at the first zero factor, so later factors
        are not evaluated."""
        num_at, den_at = self._coeff_at
        b = den_at(k)
        if b == 0:
            raise ZeroDivisionError(f"denominator vanishes at {k}")
        v = num_at(k)  # an int until a negative power
        for f in self.factors:
            if v == 0:
                break
            v *= f.seq.term(k + f.shift) if isinstance(f, SeqFactor) else f.value(n, k)
        return Fraction(v, b)

    def to_json(self) -> dict:
        return {
            "coeff": {"num": self.coeff.to_json(), "den": self.den.to_json()},
            "factors": [f.to_json() for f in self.factors],
            "lo": self.lo,
            "upper": self.upper.to_str(),
        }

    @classmethod
    def from_json(cls, d: dict, sequences: Mapping[str, "SequenceDef"] | None = None) -> "SumSpec":
        """Decode a sum; `seq` factors name sequences of `sequences` (default:
        the built-ins)."""
        return cls(
            coeff=Poly.from_json(d["coeff"]["num"]),
            factors=tuple(_factor_of(f, sequences) for f in d.get("factors", [])),
            lo=_json_int("a sum's lo", d.get("lo", 0)),
            upper=Bound.from_str(d["upper"]),
            den=Poly.from_json(d["coeff"]["den"]),
        )


def _block_ratio(factors) -> tuple | None:
    """The k-step ratio of the block, the product of the binomial and
    geometric factors, as (up, down, c_up, c_down): the block at (n, k) is
    that at (n, k - 1) times c_up * prod(up) / (c_down * prod(down)) where
    both are nonzero and no exponent is negative. A form (cn, ck, c) of up
    or down is cn*n + ck*k + c, reduced by its content and sign; a binomial
    gives the forms of its `_binom_parts`, a geometric factor base^|exp.ck|
    to c_up or c_down (base 0 nothing: it steps only where its exponent stays
    0), and a form on both sides cancels. None past `_MAX_STEP_FACTORS`."""
    sides, consts = (Counter(), Counter()), [1, 1]
    for f in factors:
        if isinstance(f, BinomFactor):
            parts = _binom_parts(f.top.ck, f.bottom.ck)
            if parts is None:
                return None
            t, b = f.top, f.bottom
            u = (t.cn, t.ck, t.c), (b.cn, b.ck, b.c), (t.cn - b.cn, t.ck - b.ck, t.c - b.c)
            for side, side_parts in enumerate(parts):
                for i, offset, count in side_parts:
                    cn, ck, c0 = u[i]
                    for c in range(c0 + offset, c0 + offset - count, -1):  # perm's factors
                        g = math.gcd(cn, ck, c) if ck > 0 else -math.gcd(cn, ck, c)  # ck != 0
                        sides[side][cn // g, ck // g, c // g] += 1
                        consts[side] *= g
        elif isinstance(f, GeomFactor) and f.base:
            if abs(f.base) > 1 and abs(f.exp.ck) > _MAX_STEP_FACTORS:
                return None
            consts[f.exp.ck < 0] *= f.base ** abs(f.exp.ck)
    common = sides[0] & sides[1]
    g = math.gcd(*consts) if consts[1] > 0 else -math.gcd(*consts)
    return tuple((sides[0] - common).elements()), tuple((sides[1] - common).elements()), consts[0] // g, consts[1] // g


def _interval(conds, lo: int, hi: int) -> tuple[int, int]:
    """(lo, hi) cut down to the k at which c0 + c1*k >= 0 for every (c0, c1)
    in conds; empty when lo > hi."""
    for c0, c1 in conds:
        if c1 > 0:
            lo = max(lo, -(c0 // c1))
        elif c1 < 0:
            hi = min(hi, c0 // -c1)
        elif c0 < 0:
            return lo, lo - 1
    return lo, hi


def _values(forms, const: int, n: int, k: int) -> Iterator[int]:
    """const * prod(forms) at n and k, k + 1, ..., without end, by forward
    differences: d = len(forms) nested running sums of the constant d-th
    difference. The differences at k are the coefficients of the product
    at k + j in the basis binom(j, i), multiplied in one form at a time by
    (a + s*j) binom(j, i) = (a + s*i) binom(j, i) + s*(i + 1) binom(j, i + 1)."""
    diffs = [const]
    for cn, ck, c in forms:
        a, carry = cn * n + ck * k + c, 0
        for i, x in enumerate(diffs):
            diffs[i] = x * (a + ck * i) + carry
            carry = x * ck * (i + 1)
        diffs.append(carry)
    values = repeat(diffs.pop())
    for x in reversed(diffs):
        values = accumulate(values, initial=x)
    return values


class _Summand:
    """A spec's summand at one n, for `_running_sums`.

    The block, the product of the binomial and geometric factors, is nonzero
    on an interval of k, its support. There it is computed directly
    (`math.comb`, powers) at the first k read and then stepped by the spec's
    `_ratio`, whose two sides step by forward differences (`_values`): a
    term costs one product by a small integer and one exact division by
    another. Reads that go on where the last one ended step on, so a cursor
    that holds the summand steps across reads.

    As in `SumSpec.term`, the first zero, of the coefficient and then of the
    factors in declared order, ends the term: a sequence factor is read at k
    only where the coefficient, the sequence factors before it and the
    block's factors before it (their own interval) are nonzero, from its
    store in `stores` (a `SequenceDef` or a `TermWindow`; default its memo)."""

    __slots__ = ("spec", "n", "support", "binoms", "powers", "seqs", "next_k", "h", "steps")

    def __init__(self, spec: SumSpec, n: int, stores: Mapping | None = None):
        conds: list[tuple[int, int]] = []  # the support: c0 + c1*k >= 0 for each
        self.binoms, self.powers, self.seqs = [], [], []
        for f in spec.factors:
            if isinstance(f, SeqFactor):
                store = f.seq if stores is None else stores[f.seq]
                self.seqs.append((tuple(conds), store.term, f.shift))
            elif isinstance(f, BinomFactor):
                t0, tk = f.top.cn * n + f.top.c, f.top.ck
                b0, bk = f.bottom.cn * n + f.bottom.c, f.bottom.ck
                conds += [(b0, bk), (t0 - b0, tk - bk)]
                self.binoms.append((t0, tk, b0, bk))
            else:
                e0, ek = f.exp.cn * n + f.exp.c, f.exp.ck
                if not f.base:
                    conds.append((-e0, -ek))
                self.powers.append((f.base, e0, ek))
        self.spec, self.n, self.support = spec, n, tuple(conds)
        # the last block read, h at next_k - 1, and steps, the ratio's
        # (numerator, denominator) at next_k, next_k + 1, ... (None without one)
        self.next_k, self.h, self.steps = None, 0, None

    def block(self, k: int) -> int:
        """The block at k, computed directly."""
        comb, v = math.comb, 1
        for t0, tk, b0, bk in self.binoms:
            v *= comb(t0 + tk * k, b0 + bk * k)
        for base, e0, ek in self.powers:
            v *= base ** (e0 + ek * k)
        return v

    def _at(self, k: int) -> int:
        """The block at k, inside the support: stepped from k - 1 when that is
        the last k read, else computed directly, and then `steps` starts at
        k + 1."""
        if self.next_k == k and self.steps is not None:
            p, q = next(self.steps)
            h = self.h * p // q
        else:
            h = self.block(k)
            if self.spec._ratio is not None:
                up, down, c_up, c_down = self.spec._ratio
                self.steps = zip(_values(up, c_up, self.n, k + 1), _values(down, c_down, self.n, k + 1))
        self.next_k, self.h = k + 1, h
        return h

    def sum(self, lo: int, hi: int) -> tuple[int, int]:
        """The terms at k = lo..hi, added as in `_running_sums`."""
        ka, kb = _interval(self.support, lo, hi)
        cnum, cden = self.spec._int_coeff
        if not self.seqs and len(cnum) == len(cden) == 1:
            if ka > kb:
                return 0, 1
            h = s = self._at(ka)
            if self.steps is None:
                s += sum(map(self._at, range(ka + 1, kb + 1)))
            else:  # `_at` inlined
                self.next_k = None  # until the run is done
                for p, q in islice(self.steps, kb - ka):
                    h = h * p // q
                    s += h
                self.next_k, self.h = kb + 1, h
            return _plus(0, 1, cnum[0] * s, cden[0]) if s else (0, 1)
        bnum, bden = 0, 1
        num_at, den_at = self.spec._coeff_at
        seqs = [(*_interval(conds, lo, hi), term, shift) for conds, term, shift in self.seqs]
        for k in range(lo, hi + 1):
            b = den_at(k)
            if b == 0:
                raise ZeroDivisionError(f"denominator vanishes at {k}")
            h = self._at(k) if ka <= k <= kb else 0
            a = num_at(k)
            for s_lo, s_hi, term, shift in seqs:
                if not a:
                    break
                a = a * term(k + shift) if s_lo <= k <= s_hi else 0
            if not a or not h:
                continue
            a *= h
            if b == bden == 1:
                bnum += a
            else:
                bnum, bden = _plus(bnum, bden, a, b)
        return bnum, bden


def _running_sums(
    spec: SumSpec, n: int, k_lo: int, k_hi: int, num: int, den: int, summand: _Summand | None = None
) -> tuple[int, int, _Summand]:
    """(num, den, summand) after adding the terms k = k_lo..k_hi to num/den.

    summand is the spec's `_Summand` at n, made here when None, and carries
    the block's steps from one read to the next; a read over which a
    geometric exponent is negative somewhere is summed by `SumSpec.term`.

    The terms of a read are added over their own denominator, starting from
    0/1, and that block is then added to num/den once (`_plus`), so a read
    pays one product with den, however many terms it adds. den is the lcm
    (up to sign) of the term denominators so far and num is not reduced
    against it, so an integer summand keeps den = 1 and runs no gcd."""
    if summand is None:
        summand = _Summand(spec, n)
    if all(e0 + ek * k_lo >= 0 and e0 + ek * k_hi >= 0 for _, e0, ek in summand.powers):
        return (*_plus(num, den, *summand.sum(k_lo, k_hi)), summand)
    bnum, bden = 0, 1
    for k in range(k_lo, k_hi + 1):
        t = spec.term(n, k)
        if t:
            bnum, bden = _plus(bnum, bden, t.numerator, t.denominator)
    return (*_plus(num, den, bnum, bden), summand)


def _plus(num: int, den: int, a: int, b: int) -> tuple[int, int]:
    """num/den + a/b as an integer numerator over the lcm (up to sign) of
    den and b, not reduced."""
    if b != 1:
        if den % b:
            scale = b // math.gcd(den, b)
            num *= scale
            den *= scale
        a *= den // b
    elif den != 1:
        a *= den
    return num + a, den


def eval_direct(spec: SumSpec, n: int) -> Fraction:
    """Exact value of the sum at integer n >= 0."""
    if n < 0:
        raise ValueError("direct formulas are defined for n >= 0")
    num, den, _ = _running_sums(spec, n, spec.lo, spec.upper.at(n), 0, 1)
    return Fraction(num, den)


# -- recurrences ------------------------------------------------------------------


@dataclass(frozen=True)
class Recurrence:
    """sum_{i=0}^{d} coeffs[i](n) * a(n+i) = 0 with coeffs[d] nonzero.

    Coefficients are normalized to integer polynomials with overall content 1;
    `int_coeffs` holds them as integer tuples, ascending as `Poly.coeffs`,
    for `exactmath`'s integer-polynomial kernel, and `evaluators` each built
    into an `exactmath.evaluator`, the one way they are evaluated
    (`coeffs_at`, `SequenceDef._terms_from`). When every coefficient has
    degree at most 1, `slopes` holds their slopes (else it is None), by
    which `SequenceDef._terms_from` steps their values.
    """

    coeffs: tuple[Poly, ...]
    int_coeffs: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    evaluators: tuple = field(init=False, repr=False, compare=False)
    slopes: tuple[int, ...] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        den, ints = clear_denominators(*(p.coeffs for p in self.coeffs))
        if den != 1:
            raise ValueError("recurrence coefficients must be integer polynomials")
        object.__setattr__(self, "int_coeffs", tuple(map(tuple, ints)))
        object.__setattr__(self, "evaluators", tuple(map(evaluator, ints)))
        linear = all(len(c) <= 2 for c in ints)
        object.__setattr__(self, "slopes", tuple(sum(c[1:]) for c in ints) if linear else None)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeffs_at(self, n: int) -> list[int]:
        """The coefficient values c_0(n), ..., c_d(n)."""
        return [c(n) for c in self.evaluators]

    def to_json(self) -> dict:
        return {"coeffs": [c.to_json() for c in self.coeffs]}

    @classmethod
    def from_json(cls, data) -> "Recurrence":
        return recurrence([Poly.from_json(c) for c in data["coeffs"]])


def recurrence(coeffs: Iterable[Poly]) -> Recurrence:
    cs = list(coeffs)
    if len(cs) < 2:
        raise ValueError("a recurrence needs order >= 1")
    if cs[-1].is_zero:
        raise ValueError("leading recurrence coefficient is the zero polynomial")
    _, ints = clear_denominators(*(p.coeffs for p in cs))
    g = math.gcd(*(x for q in ints for x in q))
    return Recurrence(tuple(Poly(x // g for x in q) for q in ints))


# -- sequence definitions ------------------------------------------------------------


class SequenceDef:
    """A named P-recursive sequence with initial data and a memoized prefix."""

    def __init__(
        self,
        name: str,
        rec: Recurrence,
        initial: dict[int, int],
        direct: SumSpec | None = None,
    ):
        if not initial:
            raise ValueError("initial data must not be empty")
        lo, hi = min(initial), max(initial)
        if set(initial) != set(range(lo, hi + 1)):
            raise ValueError("initial indices must be contiguous")
        if hi - lo + 1 < rec.order:
            raise ValueError("need at least `order` consecutive initial values")
        for v in initial.values():
            if not isinstance(v, int):
                raise ValueError("initial values must be integers")
        if direct is not None and any(isinstance(f, SeqFactor) for f in direct.factors):
            raise ValueError("a direct formula takes no seq factors")
        self.name = name
        self.recurrence = rec
        self.initial = dict(initial)
        self.direct = direct
        self.min_index = lo
        self._memo: list[int] = [initial[i] for i in range(lo, hi + 1)]

    @property
    def max_initial(self) -> int:
        return self.min_index + len(self.initial) - 1

    @property
    def forward_start(self) -> int:
        """Index n of the first recurrence instance used by forward evaluation."""
        return self.max_initial - self.recurrence.order + 1

    def _terms_from(self, last: list[int], i: int) -> Iterator[int]:
        """The terms at i, i + 1, ... stepped from last, the `order` terms
        before i: the one stepping kernel of the memo and of every
        `TermWindow`. Each term is one exact division of an integer
        combination of the terms before it by the leading coefficient, with
        the last `order` terms in locals. A recurrence of order 2 or 3 whose
        coefficients all have degree at most 1 (T's and W's) is stepped by
        straight-line code that holds each coefficient's value in a local
        and adds its slope once per step; any other recurrence takes one
        loop that calls the coefficients' evaluators. A vanishing leading
        coefficient raises `LeadingCoefficientVanishes`, a remainder
        `NonIntegerTerm`, and either ends the generator."""
        rec, failed = self.recurrence, self._failed_step
        d = rec.order
        n = i - d  # the recurrence instance whose term is at n + d
        # each loop below runs until the generator is dropped or a step raises;
        # `den or 1` divides by 1 where den is 0, which then fails the step
        if d in (2, 3) and rec.slopes is not None:
            values, slopes = [c(n) for c in rec.evaluators], rec.slopes
            if d == 2:
                (c0, c1, den), (s0, s1, sd) = values, slopes
                a, b = last
                while True:
                    num = -(c0 * a + c1 * b)
                    val, rem = divmod(num, den or 1)
                    if rem or not den:
                        raise failed(n, num, den)
                    yield val
                    a, b, n = b, val, n + 1
                    c0, c1, den = c0 + s0, c1 + s1, den + sd
            (c0, c1, c2, den), (s0, s1, s2, sd) = values, slopes
            a, b, c = last
            while True:
                num = -(c0 * a + c1 * b + c2 * c)
                val, rem = divmod(num, den or 1)
                if rem or not den:
                    raise failed(n, num, den)
                yield val
                a, b, c, n = b, c, val, n + 1
                c0, c1, c2, den = c0 + s0, c1 + s1, c2 + s2, den + sd
        *lower, lead = rec.evaluators
        held = deque(last, maxlen=d)
        while True:
            num, den = -sum(cf(n) * t for cf, t in zip(lower, held)), lead(n)
            val, rem = divmod(num, den or 1)
            if rem or not den:
                raise failed(n, num, den)
            yield val
            held.append(val)
            n += 1

    def _failed_step(self, n: int, num: int, den: int) -> SequenceError:
        """The error of the step by the instance at n, num / den."""
        if not den:
            return LeadingCoefficientVanishes(self.name, n)
        return NonIntegerTerm(self.name, n + self.recurrence.order, Fraction(num, den))

    def term(self, i: int) -> int:
        """The term at i, from the memo; a read past its end fills it up to i
        by one generator, keeping the terms before a failing step."""
        if i < self.min_index:
            raise ValueError(
                f"{self.name} is only defined from index {self.min_index} (asked for {i})"
            )
        memo = self._memo
        top = self.min_index + len(memo)
        if i >= top:
            memo.extend(islice(self._terms_from(memo[-self.recurrence.order :], top), i + 1 - top))
        return memo[i - self.min_index]

    def window(self) -> "TermWindow":
        """A fresh forward window over this sequence's terms (see `TermWindow`)."""
        return TermWindow(self)

    def terms(self, lo: int, hi: int) -> list[int]:
        if hi < lo:
            return []
        self.term(hi)
        self.term(lo)
        return self._memo[lo - self.min_index : hi - self.min_index + 1]

    def residual(self, n: int) -> int:
        """Exact value of sum_i c_i(n) a(n+i); zero iff the instance at n holds."""
        return sum(map(operator.mul, self.recurrence.coeffs_at(n), self.terms(n, n + self.recurrence.order)))

    def instance_holds(self, n: int) -> bool:
        """Whether the recurrence instance at n holds numerically; instances that
        reference indices below the initial data count as not holding."""
        if n >= self.forward_start:
            return True
        try:
            return self.residual(n) == 0
        except ValueError:
            return False

    def __repr__(self) -> str:
        return f"SequenceDef({self.name!r}, order={self.recurrence.order})"


class TermWindow:
    """Streaming reads of a sequence: `term(i)` equals `seq.term(i)` (the same
    value, or the same exception), but what the memo does not hold is stepped
    here and only the last `width` terms are kept.

    An index held here or in the memo is read from there. An index ahead of
    the window is stepped to from whichever of the memo and the window
    reaches further, so ascending reads step each term once; an index behind
    the window starts again from the memo, which holds at least the initial
    data. Steps come from one generator (`SequenceDef._terms_from`), made
    from the window's last terms when there is none, and dropped when the
    window starts again or a step raises. The width starts at the recurrence
    order, and `keep(span)` widens it to the order plus span, so reads that
    go back up to span indices from the furthest one read never start again.
    `steps` counts the recurrence steps taken here."""

    __slots__ = ("seq", "steps", "_terms", "_hi", "_next")

    def __init__(self, seq: SequenceDef):
        self.seq = seq
        self.steps = 0
        self._terms: deque[int] = deque(maxlen=seq.recurrence.order)
        self._hi = seq.min_index  # one past the index of the last term held
        self._next = None  # the generator's __next__, yielding the term at _hi

    @property
    def width(self) -> int:
        return self._terms.maxlen

    def keep(self, span: int) -> None:
        """Hold at least the recurrence order plus span terms from now on."""
        width = self.seq.recurrence.order + span
        if width > self._terms.maxlen:
            self._terms = deque(self._terms, maxlen=width)

    def term(self, i: int) -> int:
        terms = self._terms
        hi = self._hi
        back = hi - i
        if 0 < back <= len(terms):  # held here (and the memo holds the same value)
            return terms[-back]
        seq = self.seq
        memo = seq._memo
        j = i - seq.min_index
        if j < len(memo):
            return memo[j] if j >= 0 else seq.term(i)  # below the initial data: raises
        top = seq.min_index + len(memo)
        d = seq.recurrence.order
        if back > 0 or top > hi:  # behind the window, or the memo reaches further
            terms.clear()
            terms.extend(memo[-d:])
            hi = self._hi = top
            self._next = None
        step = self._next
        if step is None:
            step = self._next = seq._terms_from(list(terms)[-d:], hi).__next__
        try:
            while hi <= i:
                terms.append(step())
                hi += 1
        except BaseException:
            self._next = None
            raise
        finally:
            self.steps += hi - self._hi
            self._hi = hi
        return terms[-1]


# -- consistency checking ---------------------------------------------------------


@dataclass(frozen=True)
class Mismatch:
    n: int
    expected: Fraction
    got: Fraction
    kind: str  # "direct" or "residual"


@dataclass(frozen=True)
class ConsistencyReport:
    name: str
    checked_to: int
    mismatches: tuple[Mismatch, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def check_recurrence_consistency(seq: SequenceDef, n_max: int) -> ConsistencyReport:
    """Cross-check recurrence evaluation against the direct formula on [0, n_max]
    and assert zero recurrence residuals from the first forward instance on.

    Instances lying entirely inside the initial data are intentionally not
    checked: initial values may overdetermine the window (that is why they are
    data), and forward evaluation never uses those instances.
    """
    if seq.direct is None:
        raise ValueError(f"{seq.name} has no direct formula to check against")
    bad: list[Mismatch] = []
    for n, term in enumerate(seq.terms(0, n_max)):
        want, got = eval_direct(seq.direct, n), Fraction(term)
        if want != got:
            bad.append(Mismatch(n, want, got, "direct"))
    for n in range(seq.forward_start, n_max - seq.recurrence.order + 1):
        r = seq.residual(n)
        if r != 0:
            bad.append(Mismatch(n, Fraction(0), r, "residual"))
    return ConsistencyReport(seq.name, n_max, tuple(bad))


def check_parity_odd(seq: SequenceDef, n_max: int) -> bool:
    return all(v % 2 == 1 for v in seq.terms(0, n_max))


# -- derived sequences -------------------------------------------------------------


@dataclass(frozen=True)
class DerivedSequence:
    """Integer linear combination sum_j weight_j * base(n + shift_j)."""

    name: str
    base: SequenceDef
    combo: tuple[tuple[int, Fraction], ...]

    def value(self, n: int) -> Fraction:
        return sum((w * self.base.term(n + s) for s, w in self.combo), Fraction(0))


def check_derived_recurrence(ds: DerivedSequence, rec: Recurrence, n_max: int) -> ConsistencyReport:
    """Residuals of sum_i c_i(n) t(n+i) over 0 <= n <= n_max, exactly."""
    bad = []
    for n in range(0, n_max + 1):
        r = sum((rec.coeffs[i](n) * ds.value(n + i) for i in range(len(rec.coeffs))), Fraction(0))
        if r != 0:
            bad.append(Mismatch(n, Fraction(0), r, "residual"))
    return ConsistencyReport(ds.name, n_max, tuple(bad))


# -- generating-function oracle ------------------------------------------------------


def trinomial_middle(n: int) -> int:
    """[x^n] (1+x+x^2)^n by plain polynomial powering. Independent of any
    recurrence or binomial identity; used as an oracle."""
    coeffs = [1]
    for _ in range(n):
        nxt = [0] * (len(coeffs) + 2)
        for i, c in enumerate(coeffs):
            nxt[i] += c
            nxt[i + 1] += c
            nxt[i + 2] += c
        coeffs = nxt
    return coeffs[n]


# -- builtins -------------------------------------------------------------


W = SequenceDef(
    "W",
    # (n+3) a(n+3) = -3(n+1) a(n) + (n-5) a(n+1) + (3n+7) a(n+2)
    recurrence([poly(3, 3), poly(5, -1), poly(-7, -3), poly(3, 1)]),
    {-2: 0, -1: -1, 0: -1, 1: -1},
    SumSpec(
        factors=(
            BinomFactor(Affine(1, 0, 0), Affine(0, 2, 0)),
            BinomFactor(Affine(0, 2, 0), Affine(0, 1, 0)),
        ),
        upper=Bound(1, 0, 2),
        den=poly(-1, 2),
    ),
)

T = SequenceDef(
    "T",
    # (n+2) a(n+2) = (2n+3) a(n+1) + 3(n+1) a(n)
    recurrence([poly(3, 3), poly(3, 2), poly(-2, -1)]),
    # a(-1) is a free choice: its recurrence coefficient 3(n+1) vanishes at
    # n=-1; zero keeps window values defined at the summation boundary.
    {-1: 0, 0: 1, 1: 1},
    SumSpec(
        factors=(
            BinomFactor(Affine(1, 0, 0), Affine(0, 2, 0)),
            BinomFactor(Affine(0, 2, 0), Affine(0, 1, 0)),
        ),
        upper=Bound(1, 0, 2),
    ),
)

T_PAIR_FORMULA = SumSpec(
    factors=(
        BinomFactor(Affine(1, 0, 0), Affine(0, 1, 0)),
        BinomFactor(Affine(1, -1, 0), Affine(0, 1, 0)),
    ),
    upper=Bound(1, 0, 1),
)

ONE_SEQ = SequenceDef(
    "one",
    recurrence([poly(-1), poly(1)]),
    {0: 1},
    SumSpec(factors=(), upper=Bound(0, 0, 1)),
)

# the fixed table of built-in sequences; a claims file adds its own sequences
# to a copy of it (`congruence.load_claims_document`)
BUILTINS: Mapping[str, SequenceDef] = MappingProxyType({s.name: s for s in (W, T, ONE_SEQ)})


def get_sequence(name, sequences: Mapping[str, SequenceDef] | None = None) -> SequenceDef:
    """The sequence called name in `sequences` (default: the built-ins)."""
    if not isinstance(name, str):
        raise ValueError(f"a sequence name must be a string, got {echo(name)}")
    try:
        return (BUILTINS if sequences is None else sequences)[name]
    except KeyError:
        raise UnknownSequence(name) from None


def builtin_names() -> list[str]:
    return sorted(BUILTINS)


# -- JSON ------------------------------------------------------------------------------


def _list_of(what: str, kind: type, items: str, value) -> list:
    # a JSON list whose items all have exactly the type `kind`, so no bool for int
    if not isinstance(value, list) or any(type(x) is not kind for x in value):
        raise FieldError(f"{what} must be a list of {items}, got {echo(value)}")
    return value


def _json_int(what: str, value) -> int:
    # a JSON integer: a float, bool or string is not read as one
    if type(value) is not int:
        raise FieldError(f"{what} must be an integer, got {echo(value)}")
    return value


def sequence_to_json(seq: SequenceDef) -> dict:
    out = {
        "name": seq.name,
        "recurrence": seq.recurrence.to_json(),
        "initial": {str(i): str(v) for i, v in sorted(seq.initial.items())},
    }
    if seq.direct is not None:
        out["direct"] = seq.direct.to_json()
    return out


def sequence_from_json(d: dict) -> SequenceDef:
    name = d["name"]
    with json_field(".recurrence"):
        rec = Recurrence.from_json(d["recurrence"])
    with json_field(".initial"):
        initial = {
            _json_text("an initial index", i, int): _json_text("an initial value", v, int)
            for i, v in d["initial"].items()
        }
    with json_field(".direct"):
        direct = SumSpec.from_json(d["direct"]) if d.get("direct") else None
    return SequenceDef(name=name, rec=rec, initial=initial, direct=direct)
