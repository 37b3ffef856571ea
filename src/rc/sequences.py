"""P-recursive sequences evaluated exactly.

A sequence is a linear recurrence with polynomial coefficients plus enough
initial values (negative indices allowed), optionally cross-checked against a
direct binomial-sum formula. Terms are memoized integers. The memo is filled
by a single forward pass in integer arithmetic: the recurrence coefficients
are integer polynomials evaluated by Horner's rule, and each new term is one
exact division of an integer combination of the previous terms by the leading
coefficient, with a nonzero remainder reported as `NonIntegerTerm`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Union

from .exactmath import ONE, Poly, RatFunc, frac_to_str, horner

__all__ = [
    "Affine",
    "Bound",
    "BinomFactor",
    "GeomFactor",
    "SumFormula",
    "Recurrence",
    "SequenceDef",
    "DerivedSequence",
    "SequenceError",
    "UnknownSequence",
    "LeadingCoefficientVanishes",
    "NonIntegerTerm",
    "Mismatch",
    "ConsistencyReport",
    "binom",
    "recurrence",
    "eval_direct",
    "check_recurrence_consistency",
    "check_parity_odd",
    "derived_terms",
    "check_derived_recurrence",
    "trinomial_middle",
    "get_sequence",
    "register_sequence",
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


class SequenceError(Exception):
    pass


class UnknownSequence(SequenceError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown sequence {name!r}")


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
    def from_json(cls, data) -> "Affine":
        cn, ck, c = (int(x) for x in data)
        return cls(cn, ck, c)


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
        s = s.replace(" ", "")
        den = 1
        m = re.fullmatch(r"floor\(\(?(.*?)\)?/(\d+)\)", s)
        if m:
            s, den = m.group(1), int(m.group(2))
            if den not in (1, 2):
                raise ValueError(f"unsupported bound denominator {den}")
        m = re.fullmatch(r"(?:(-?\d*)\*?n)?([+-]?\d+)?", s)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise ValueError(f"cannot parse bound {s!r}")
        cn = 0
        if m.group(1) is not None:
            cn = int(m.group(1)) if m.group(1) not in ("", "-") else (-1 if m.group(1) == "-" else 1)
        c = int(m.group(2)) if m.group(2) else 0
        return cls(cn, c, den)


# -- direct binomial-sum formulas ----------------------------------------------


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

    def value(self, n: int, k: int) -> Fraction:
        e = self.exp.at(n, k)
        if e >= 0:
            return Fraction(self.base**e)
        if self.base == 0:
            raise ZeroDivisionError("0 raised to a negative power")
        return Fraction(1, self.base**-e)

    def to_json(self) -> dict:
        return {"geom": {"base": self.base, "exp": self.exp.to_json()}}


Factor = Union[BinomFactor, GeomFactor]


@dataclass(frozen=True)
class SumFormula:
    """sum over k of coeff(k) * product(factors) with k from lo to upper(n)."""

    factors: tuple[Factor, ...]
    coeff: RatFunc = RatFunc(ONE)
    lo: int = 0
    upper: Bound = Bound(1, 0, 1)

    def term(self, n: int, k: int) -> Fraction:
        v = self.coeff(k)
        for f in self.factors:
            if v == 0:
                return v
            v = v * f.value(n, k)
        return v


def eval_direct(formula: SumFormula, n: int) -> Fraction:
    """Exact value of the sum at integer n >= 0."""
    if n < 0:
        raise ValueError("direct formulas are defined for n >= 0")
    total = Fraction(0)
    for k in range(formula.lo, formula.upper.at(n) + 1):
        total += formula.term(n, k)
    return total


# -- recurrences ------------------------------------------------------------------


@dataclass(frozen=True)
class Recurrence:
    """sum_{i=0}^{d} coeffs[i](n) * a(n+i) = 0 with coeffs[d] nonzero.

    Coefficients are normalized to integer polynomials with overall content 1;
    `int_coeffs` holds them as integer tuples, highest degree first, for
    evaluation by Horner's rule.
    """

    coeffs: tuple[Poly, ...]
    int_coeffs: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if any(c.denominator != 1 for p in self.coeffs for c in p.coeffs):
            raise ValueError("recurrence coefficients must be integer polynomials")
        ints = tuple(tuple(c.numerator for c in reversed(p.coeffs)) for p in self.coeffs)
        object.__setattr__(self, "int_coeffs", ints)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeffs_at(self, n: int) -> list[int]:
        """The coefficient values c_0(n), ..., c_d(n)."""
        return [horner(cs, n) for cs in self.int_coeffs]

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
    den = 1
    for p in cs:
        for x in p.coeffs:
            den = den * x.denominator // math.gcd(den, x.denominator)
    cs = [p * den for p in cs]
    g = 0
    for p in cs:
        for x in p.coeffs:
            g = math.gcd(g, x.numerator)
    if g > 1:
        cs = [p * Fraction(1, g) for p in cs]
    return Recurrence(tuple(cs))


# -- sequence definitions ------------------------------------------------------------


class SequenceDef:
    """A named P-recursive sequence with initial data and a memoized prefix."""

    def __init__(
        self,
        name: str,
        rec: Recurrence,
        initial: dict[int, int],
        direct: SumFormula | None = None,
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

    def _fill_to(self, hi: int) -> None:
        rec = self.recurrence
        d = rec.order
        memo = self._memo
        while self.min_index + len(memo) <= hi:
            idx = self.min_index + len(memo)
            n = idx - d
            cs = rec.coeffs_at(n)
            den = cs[d]
            if den == 0:
                raise LeadingCoefficientVanishes(self.name, n)
            base = n - self.min_index
            num = 0
            for i in range(d):
                num -= cs[i] * memo[base + i]
            val, rem = divmod(num, den)
            if rem:
                raise NonIntegerTerm(self.name, idx, Fraction(num, den))
            memo.append(val)

    def term(self, i: int) -> int:
        if i < self.min_index:
            raise ValueError(
                f"{self.name} is only defined from index {self.min_index} (asked for {i})"
            )
        if i >= self.min_index + len(self._memo):
            self._fill_to(i)
        return self._memo[i - self.min_index]

    def terms(self, lo: int, hi: int) -> list[int]:
        if hi < lo:
            return []
        self.term(hi)
        self.term(lo)
        return self._memo[lo - self.min_index : hi - self.min_index + 1]

    def residual(self, n: int) -> int:
        """Exact value of sum_i c_i(n) a(n+i); zero iff the instance at n holds."""
        cs = self.recurrence.coeffs_at(n)
        return sum(c * self.term(n + i) for i, c in enumerate(cs))

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
    for n in range(0, n_max + 1):
        want = eval_direct(seq.direct, n)
        got = Fraction(seq.term(n))
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


def derived_terms(ds: DerivedSequence, lo: int, hi: int) -> list[int]:
    out = []
    for n in range(lo, hi + 1):
        v = ds.value(n)
        if v.denominator != 1:
            raise NonIntegerTerm(ds.name, n, v)
        out.append(int(v))
    return out


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


# -- registry and builtins -------------------------------------------------------------


def _poly(*coeffs) -> Poly:
    return Poly(coeffs)


W = SequenceDef(
    "W",
    # (n+3) a(n+3) = -3(n+1) a(n) + (n-5) a(n+1) + (3n+7) a(n+2)
    recurrence([_poly(3, 3), _poly(5, -1), _poly(-7, -3), _poly(3, 1)]),
    {-2: 0, -1: -1, 0: -1, 1: -1},
    SumFormula(
        factors=(
            BinomFactor(Affine(1, 0, 0), Affine(0, 2, 0)),
            BinomFactor(Affine(0, 2, 0), Affine(0, 1, 0)),
        ),
        coeff=RatFunc(ONE, _poly(-1, 2)),
        upper=Bound(1, 0, 2),
    ),
)

T = SequenceDef(
    "T",
    # (n+2) a(n+2) = (2n+3) a(n+1) + 3(n+1) a(n)
    recurrence([_poly(3, 3), _poly(3, 2), _poly(-2, -1)]),
    # a(-1) is a free choice: its recurrence coefficient 3(n+1) vanishes at
    # n=-1; zero keeps window values defined at the summation boundary.
    {-1: 0, 0: 1, 1: 1},
    SumFormula(
        factors=(
            BinomFactor(Affine(1, 0, 0), Affine(0, 2, 0)),
            BinomFactor(Affine(0, 2, 0), Affine(0, 1, 0)),
        ),
        upper=Bound(1, 0, 2),
    ),
)

T_PAIR_FORMULA = SumFormula(
    factors=(
        BinomFactor(Affine(1, 0, 0), Affine(0, 1, 0)),
        BinomFactor(Affine(1, -1, 0), Affine(0, 1, 0)),
    ),
    upper=Bound(1, 0, 1),
)

ONE_SEQ = SequenceDef(
    "one",
    recurrence([_poly(-1), _poly(1)]),
    {0: 1},
    SumFormula(factors=(), upper=Bound(0, 0, 1)),
)

_REGISTRY: dict[str, SequenceDef] = {}


def register_sequence(seq: SequenceDef, replace: bool = False) -> SequenceDef:
    if seq.name in _REGISTRY and not replace:
        raise ValueError(f"sequence {seq.name!r} is already registered")
    _REGISTRY[seq.name] = seq
    return seq


def get_sequence(name: str) -> SequenceDef:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownSequence(name) from None


def builtin_names() -> list[str]:
    return sorted(_REGISTRY)


for _seq in (W, T, ONE_SEQ):
    register_sequence(_seq)


# -- JSON ------------------------------------------------------------------------------


def _factor_to_json(f: Factor) -> dict:
    return f.to_json()


def _factor_from_json(d: dict) -> Factor:
    if "binom" in d:
        b = d["binom"]
        return BinomFactor(Affine.from_json(b["top"]), Affine.from_json(b["bottom"]))
    if "geom" in d:
        g = d["geom"]
        return GeomFactor(int(g["base"]), Affine.from_json(g["exp"]))
    raise ValueError(f"unknown factor {d!r}")


def formula_to_json(f: SumFormula) -> dict:
    return {
        "factors": [_factor_to_json(x) for x in f.factors],
        "coeff": {"num": f.coeff.num.to_json(), "den": f.coeff.den.to_json()},
        "lo": f.lo,
        "upper": f.upper.to_str(),
    }


def formula_from_json(d: dict) -> SumFormula:
    return SumFormula(
        factors=tuple(_factor_from_json(x) for x in d.get("factors", [])),
        coeff=RatFunc(Poly.from_json(d["coeff"]["num"]), Poly.from_json(d["coeff"]["den"])),
        lo=int(d.get("lo", 0)),
        upper=Bound.from_str(d["upper"]),
    )


def sequence_to_json(seq: SequenceDef) -> dict:
    out = {
        "name": seq.name,
        "recurrence": seq.recurrence.to_json(),
        "initial": {str(i): str(v) for i, v in sorted(seq.initial.items())},
    }
    if seq.direct is not None:
        out["direct"] = formula_to_json(seq.direct)
    return out


def sequence_from_json(d: dict) -> SequenceDef:
    return SequenceDef(
        name=d["name"],
        rec=Recurrence.from_json(d["recurrence"]),
        initial={int(i): int(v) for i, v in d["initial"].items()},
        direct=formula_from_json(d["direct"]) if d.get("direct") else None,
    )
