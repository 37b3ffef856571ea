"""Congruence and divisibility claims about partial sums, verified exactly.

A claim says `lhs == rhs (mod modulus)` on a domain of integers or primes.
Both sides are exact closed-form expressions in n (rationals, Legendre
symbols, sequence references, integer powers, binomials, finite sums); the
congruence is read p-adically: lhs - rhs must have denominator coprime to
the modulus and numerator divisible by it. A zero modulus means exact
equality, which also covers degenerate domain points such as a modulus
expression vanishing at n = 1.

Everything is verified by exact big-integer evaluation of the sums via the
memoized sequence terms; no modular shortcuts, no rounding. A sum whose
summand does not mention n is kept as one running sum per summand, a cursor
at the furthest k read so far: points are checked in ascending order, so each
point adds only its new terms, and a read below the cursor starts again from
the sum's lower limit. A range check keeps only the points that do not pass,
so the live state does not grow with the range beyond the sequence memo.
Values are `int` wherever they are integral by construction (sequence terms,
binomials, integer constants, and sums, products and differences of these)
and `Fraction` only where a value is really rational, such as a quotient that
is not an integer or a prefix of a sum of 1/k terms.

An evaluation error at one point (a vanishing divisor, a non-integral
exponent or Legendre argument, a sequence index below its initial data)
fails that point and leaves the rest of the range to be checked.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Union

from .exactmath import ONE, Poly, RatFunc, frac_to_str, horner, legendre
from .sequences import (
    Affine,
    BinomFactor,
    Bound,
    GeomFactor,
    LeadingCoefficientVanishes,
    NonIntegerTerm,
    binom,
    get_sequence,
    register_sequence,
    sequence_from_json,
)

__all__ = [
    "Const",
    "VarN",
    "SeqRef",
    "Legendre",
    "PowInt",
    "BinomExpr",
    "Add",
    "Mul",
    "Sub",
    "Div",
    "SumNode",
    "SeqFactor",
    "SumSpec",
    "SumEvaluator",
    "Domain",
    "CongruenceClaim",
    "CheckResult",
    "VerificationReport",
    "eval_expr",
    "eval_sum",
    "check_claim_at",
    "verify_claim_range",
    "primes_in",
    "builtin_claims",
    "get_claim",
    "suite_range",
    "expr_to_json",
    "expr_from_json",
    "claim_to_json",
    "claim_from_json",
    "load_claims_document",
    "report_to_json",
    "format_report_table",
]


# -- expression AST -------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class VarN:
    pass


@dataclass(frozen=True)
class SeqRef:
    name: str
    shift: int = 0


@dataclass(frozen=True)
class Legendre:
    top: "Expr"
    bottom: "Expr"


@dataclass(frozen=True)
class PowInt:
    base: int
    exp: Bound  # exponent (cn*n + c)/den, must be an exact integer


@dataclass(frozen=True)
class BinomExpr:
    top: Bound
    bottom: Bound


@dataclass(frozen=True)
class Add:
    terms: tuple


@dataclass(frozen=True)
class Mul:
    factors: tuple


@dataclass(frozen=True)
class Sub:
    a: "Expr"
    b: "Expr"


@dataclass(frozen=True)
class Div:
    a: "Expr"
    b: "Expr"


# -- finite sums ----------------------------------------------------------------


@dataclass(frozen=True)
class SeqFactor:
    name: str
    shift: int = 0


@dataclass(frozen=True)
class SumSpec:
    """sum over k from lo to upper(n) of coeff(k) * product(factors).

    A spec is hashed once, at construction: it keys the running sums of
    `SumEvaluator`, and a fresh hash would reach every `Fraction` coefficient
    of `coeff`. The coefficient is also kept as two integer polynomials
    (numerator and denominator scaled by the lcm of their coefficient
    denominators, highest degree first) for `term_parts`.
    """

    coeff: RatFunc = RatFunc(ONE)
    factors: tuple = ()
    lo: int = 0
    upper: Bound = Bound(1, -1, 1)  # k = lo .. n-1
    _hash: int = field(init=False, repr=False, compare=False)
    _int_coeff: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.coeff, self.factors, self.lo, self.upper)))
        num, den = self.coeff.num.coeffs, self.coeff.den.coeffs
        scale = math.lcm(*(c.denominator for c in num + den))
        ints = tuple(tuple((c * scale).numerator for c in reversed(p)) for p in (num, den))
        object.__setattr__(self, "_int_coeff", ints)

    def __hash__(self) -> int:
        return self._hash

    @property
    def n_free(self) -> bool:
        for f in self.factors:
            if isinstance(f, BinomFactor) and (f.top.cn or f.bottom.cn):
                return False
            if isinstance(f, GeomFactor) and f.exp.cn:
                return False
        return True

    def term(self, n: int, k: int) -> Fraction:
        """The summand at (n, k) as a `Fraction`; the reference for `term_parts`."""
        v = self.coeff(k)
        for f in self.factors:
            if v == 0:
                return v
            if isinstance(f, SeqFactor):
                v = v * get_sequence(f.name).term(k + f.shift)
            else:
                v = v * f.value(n, k)
        return v

    def term_parts(self, n: int, k: int) -> tuple[int, int]:
        """The summand at (n, k) as an integer numerator and a nonzero integer
        denominator of either sign, not necessarily coprime. Like `term`, it
        stops at the first zero factor, so later factors are not evaluated."""
        cnum, cden = self._int_coeff
        num, den = horner(cnum, k), horner(cden, k)
        if den == 0:
            raise ZeroDivisionError(f"denominator vanishes at {k}")
        if num == 0:
            return 0, 1
        for f in self.factors:
            if isinstance(f, SeqFactor):
                v = get_sequence(f.name).term(k + f.shift)
            elif isinstance(f, GeomFactor):
                e = f.exp.at(n, k)
                if e < 0:
                    if f.base == 0:
                        raise ZeroDivisionError("0 raised to a negative power")
                    den *= f.base**-e
                    continue
                v = f.base**e
            else:
                v = f.value(n, k)
            if v == 0:
                return 0, 1
            num *= v
        return num, den


@dataclass(frozen=True)
class SumNode:
    spec: SumSpec


Expr = Union[Const, VarN, SeqRef, Legendre, PowInt, BinomExpr, Add, Mul, Sub, Div, SumNode]


# construction helpers, used heavily by the built-in catalogue

N = VarN()


def C(x) -> Const:
    return Const(Fraction(x))


def add(*xs: Expr) -> Add:
    return Add(tuple(xs))


def mul(*xs: Expr) -> Mul:
    return Mul(tuple(xs))


def sub(a: Expr, b: Expr) -> Sub:
    return Sub(a, b)


def div(a: Expr, b: Expr) -> Div:
    return Div(a, b)


def leg(top: Expr, bottom: Expr) -> Legendre:
    return Legendre(top, bottom)


def seq(name: str, shift: int = 0) -> SeqRef:
    return SeqRef(name, shift)


def _running_sums(spec: SumSpec, n: int, k_lo: int, k_hi: int, num: int, den: int):
    """Yield (num, den) after adding each term k = k_lo..k_hi to num/den.

    den is the lcm (up to sign) of the term denominators so far and num is
    not reduced against it, so an integer summand keeps den = 1 and runs no
    gcd."""
    for k in range(k_lo, k_hi + 1):
        a, b = spec.term_parts(n, k)
        if b != 1:
            if den % b:
                scale = b // math.gcd(den, b)
                num *= scale
                den *= scale
            a *= den // b
        elif den != 1:
            a *= den
        num += a
        yield num, den


def _reduced(num: int, den: int) -> int | Fraction:
    return num if den == 1 else Fraction(num, den)


class SumEvaluator:
    """Exact sum evaluation with one running sum per n-free summand.

    When the summand does not mention n (all theorem sums are like that), the
    evaluator keeps a cursor (k, num, den) per spec: the sum over lo..k as an
    integer numerator num over den, the lcm (up to sign) of the denominators
    of its terms. For an integer summand den stays 1 and the sum is read as an
    int; otherwise it is reduced to a `Fraction` only when read.

    Cost model: a read at or above the cursor adds only the terms between the
    cursor and the read and moves the cursor there, so ascending reads add
    each term once, O(1) per point when n steps by one. A read below the
    cursor starts again from the spec's lower limit and leaves the cursor at
    the read. A summand that mentions n is summed from the lower limit at
    every read, and nothing is kept.
    """

    def __init__(self):
        self._cursors: dict[SumSpec, tuple[int, int, int]] = {}

    def eval_sum(self, spec: SumSpec, n: int) -> int | Fraction:
        hi = spec.upper.at(n)
        if hi < spec.lo:
            return 0
        n_free = spec.n_free
        k, num, den = spec.lo - 1, 0, 1
        if n_free:
            cursor = self._cursors.get(spec)
            if cursor is not None and cursor[0] <= hi:
                k, num, den = cursor
        for num, den in _running_sums(spec, n, k + 1, hi, num, den):
            pass
        if n_free:
            self._cursors[spec] = (hi, num, den)
        return _reduced(num, den)


_SHARED_EVALUATOR = SumEvaluator()


def eval_sum(spec: SumSpec, n: int, evaluator: SumEvaluator | None = None) -> int | Fraction:
    return (evaluator or _SHARED_EVALUATOR).eval_sum(spec, n)


def eval_expr(e: Expr, n: int, evaluator: SumEvaluator | None = None) -> int | Fraction:
    """Exact value of e at n: an int when the value is integral by
    construction, else a Fraction (see the module docstring)."""
    ev = evaluator or _SHARED_EVALUATOR
    if isinstance(e, Const):
        v = e.value
        return v.numerator if v.denominator == 1 else v
    if isinstance(e, VarN):
        return n
    if isinstance(e, SeqRef):
        return get_sequence(e.name).term(n + e.shift)
    if isinstance(e, Legendre):
        top = eval_expr(e.top, n, ev)
        bottom = eval_expr(e.bottom, n, ev)
        if top.denominator != 1 or bottom.denominator != 1:
            raise ValueError("Legendre symbol arguments must be integers")
        return legendre(int(top), int(bottom))
    if isinstance(e, PowInt):
        exp = e.exp.exact_at(n)
        if exp >= 0:
            return e.base**exp
        if e.base == 0:
            raise ZeroDivisionError("0 raised to a negative power")
        return Fraction(1, e.base**-exp)
    if isinstance(e, BinomExpr):
        return binom(e.top.exact_at(n), e.bottom.exact_at(n))
    if isinstance(e, Add):
        return sum(eval_expr(t, n, ev) for t in e.terms)
    if isinstance(e, Mul):
        out = 1
        for f in e.factors:
            out *= eval_expr(f, n, ev)
        return out
    if isinstance(e, Sub):
        return eval_expr(e.a, n, ev) - eval_expr(e.b, n, ev)
    if isinstance(e, Div):
        d = eval_expr(e.b, n, ev)
        if d == 0:
            raise ZeroDivisionError("division by zero in expression")
        q = Fraction(eval_expr(e.a, n, ev), d)
        return q.numerator if q.denominator == 1 else q
    if isinstance(e, SumNode):
        return ev.eval_sum(e.spec, n)
    raise TypeError(f"not an expression: {e!r}")


def expr_str(e: Expr) -> str:
    if isinstance(e, Const):
        return frac_to_str(e.value)
    if isinstance(e, VarN):
        return "n"
    if isinstance(e, SeqRef):
        return f"{e.name}(n{e.shift:+d})" if e.shift else f"{e.name}(n)"
    if isinstance(e, Legendre):
        return f"({expr_str(e.top)}|{expr_str(e.bottom)})"
    if isinstance(e, PowInt):
        return f"{e.base}^({e.exp.to_str()})"
    if isinstance(e, BinomExpr):
        return f"binom({e.top.to_str()},{e.bottom.to_str()})"
    if isinstance(e, Add):
        return "(" + " + ".join(expr_str(t) for t in e.terms) + ")"
    if isinstance(e, Mul):
        return "*".join(expr_str(f) for f in e.factors)
    if isinstance(e, Sub):
        return f"({expr_str(e.a)} - {expr_str(e.b)})"
    if isinstance(e, Div):
        return f"({expr_str(e.a)})/({expr_str(e.b)})"
    if isinstance(e, SumNode):
        s = e.spec
        return f"sum(k={s.lo}..{s.upper.to_str()})"
    return repr(e)


# -- primes ------------------------------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def primes_in(
    lo: int, hi: int, exclude: Iterable[int] = (), parity: str | None = None
) -> list[int]:
    """Primes in [lo, hi] minus exclusions; parity "odd" drops 2. hi <= 10^6."""
    if hi > 10**6:
        raise ValueError("prime enumeration is capped at 10^6")
    if hi < lo:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[: min(2, hi + 1)] = b"\x00" * min(2, hi + 1)
    i = 2
    while i * i <= hi:
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        i += 1
    excluded = set(exclude)
    out = []
    for p in range(max(lo, 2), hi + 1):
        if not sieve[p] or p in excluded:
            continue
        if parity == "odd" and p % 2 == 0:
            continue
        out.append(p)
    return out


# -- claims --------------------------------------------------------------------------


@dataclass(frozen=True)
class Domain:
    kind: str = "integers"  # "integers" | "primes"
    start: int = 1
    parity: str | None = None
    exclude: frozenset = frozenset()

    def contains(self, n: int) -> bool:
        if n < self.start or n in self.exclude:
            return False
        if self.parity == "odd" and n % 2 == 0:
            return False
        if self.kind == "primes" and not _is_prime(n):
            return False
        return True

    def points(self, lo: int, hi: int) -> list[int]:
        lo = max(lo, self.start)
        if self.kind == "primes":
            return [p for p in primes_in(lo, hi, self.exclude, self.parity)]
        return [n for n in range(lo, hi + 1) if self.contains(n)]

    def describe(self) -> str:
        head = "primes" if self.kind == "primes" else "integers"
        bits = [f"{head} >= {self.start}"]
        if self.parity:
            bits.append(self.parity)
        if self.exclude:
            bits.append("excluding " + ",".join(str(x) for x in sorted(self.exclude)))
        return ", ".join(bits)


@dataclass(frozen=True)
class CongruenceClaim:
    claim_id: str
    description: str
    lhs: Expr
    rhs: Expr
    modulus: Expr
    domain: Domain
    notes: tuple[str, ...] = ()
    flag_points: tuple[int, ...] = ()


@dataclass(frozen=True)
class CheckResult:
    claim_id: str
    n: int
    status: str  # "pass" | "fail" | "out_of_domain"
    lhs: int | Fraction | None = None
    rhs: int | Fraction | None = None
    modulus: int | Fraction | None = None
    reason: str = ""


# what evaluating a claim at one point may raise on a well-formed claim: a
# vanishing divisor, a non-integral exponent, binomial or Legendre argument, an
# index below a sequence's initial data, or a recurrence step that fails
_POINT_ERRORS = (ArithmeticError, ValueError, LeadingCoefficientVanishes, NonIntegerTerm)


def _check_raw(claim: CongruenceClaim, n: int, ev: SumEvaluator) -> CheckResult:
    try:
        lhs = eval_expr(claim.lhs, n, ev)
        rhs = eval_expr(claim.rhs, n, ev)
        modulus = eval_expr(claim.modulus, n, ev)
    except _POINT_ERRORS as e:
        return CheckResult(claim.claim_id, n, "fail", reason=f"{type(e).__name__}: {e}")
    if modulus.denominator != 1:
        return CheckResult(
            claim.claim_id, n, "fail", lhs, rhs, modulus, "modulus is not an integer"
        )
    m = abs(int(modulus))
    d = lhs - rhs
    if m == 0:
        if d == 0:
            return CheckResult(claim.claim_id, n, "pass", lhs, rhs, modulus)
        return CheckResult(
            claim.claim_id, n, "fail", lhs, rhs, modulus, "sides differ (exact equality required)"
        )
    if math.gcd(d.denominator, m) != 1:
        return CheckResult(
            claim.claim_id,
            n,
            "fail",
            lhs,
            rhs,
            modulus,
            f"denominator {d.denominator} of lhs-rhs is not invertible mod {m}",
        )
    if d.numerator % m == 0:
        return CheckResult(claim.claim_id, n, "pass", lhs, rhs, modulus)
    return CheckResult(
        claim.claim_id, n, "fail", lhs, rhs, modulus, f"difference {frac_to_str(d)} != 0 mod {m}"
    )


def check_claim_at(
    claim: CongruenceClaim, n: int, evaluator: SumEvaluator | None = None
) -> CheckResult:
    """pass / fail / out_of_domain for a single point, exactly."""
    if not claim.domain.contains(n):
        return CheckResult(claim.claim_id, n, "out_of_domain")
    return _check_raw(claim, n, evaluator or _SHARED_EVALUATOR)


@dataclass(frozen=True)
class VerificationReport:
    claim_id: str
    description: str
    lo: int
    hi: int
    points_checked: int
    failures: tuple[CheckResult, ...]
    flagged: tuple[CheckResult, ...]
    wall_time: float
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_claim_range(
    claim: CongruenceClaim,
    lo: int,
    hi: int,
    evaluator: SumEvaluator | None = None,
    jobs: int = 1,
) -> VerificationReport:
    """Check every in-domain point of [lo, hi] in ascending order; failures
    are collected, not raised. Only the results that do not pass are kept, so
    the values of passing points are freed as soon as they are checked.
    `jobs` is accepted for compatibility and ignored: points are checked one
    after another, in order, because the running sums are read in order."""
    ev = evaluator or _SHARED_EVALUATOR
    t0 = time.perf_counter()
    points = claim.domain.points(lo, hi)
    checked = (_check_raw(claim, n, ev) for n in points)
    failures = tuple(r for r in checked if r.status != "pass")
    flagged = tuple(_check_raw(claim, n, ev) for n in claim.flag_points)
    return VerificationReport(
        claim_id=claim.claim_id,
        description=claim.description,
        lo=lo,
        hi=hi,
        points_checked=len(points),
        failures=failures,
        flagged=flagged,
        wall_time=time.perf_counter() - t0,
        notes=claim.notes,
    )


# -- the built-in catalogue ------------------------------------------------------------


def _rf(num: Poly, den: Poly = ONE) -> RatFunc:
    return RatFunc(num, den)


_K = Poly([0, 1])

# summands shared by several claims
SUM_W_SQUARES = SumSpec(
    coeff=_rf(Poly([9, 8])),
    factors=(SeqFactor("W", 0), SeqFactor("W", 0)),
)
SUM_T_PRODUCTS_8K9 = SumSpec(
    coeff=_rf(Poly([0, 9, 17, 8])),  # k(k+1)(8k+9)
    factors=(SeqFactor("T", 0), SeqFactor("T", 1)),
)
SUM_T_PRODUCTS_16K21 = SumSpec(
    coeff=_rf(Poly([21, 37, 16])),  # (k+1)(16k+21)
    factors=(SeqFactor("T", 0), SeqFactor("T", 1)),
)

_CENTRAL_BINOM = BinomFactor(Affine(0, 2, 0), Affine(0, 1, 0))

_LEG_P3 = leg(N, C(3))
_LEG_M3P = leg(C(-3), N)
_LEG_M1P = leg(C(-1), N)


def _trinomial_transform_claim(m: int) -> CongruenceClaim:
    lhs = SumNode(
        SumSpec(
            factors=(
                BinomFactor(Affine(1, 0, -1), Affine(0, 1, 0)),  # binom(n-1, k)
                _CENTRAL_BINOM,
                GeomFactor(-1, Affine(0, 1, 0)),  # (-1)^k
                GeomFactor(m, Affine(1, -1, -1)),  # m^(n-1-k)
            ),
            upper=Bound(1, -1, 1),
        )
    )
    rhs = SumNode(
        SumSpec(
            factors=(
                BinomFactor(Affine(1, 0, -1), Affine(0, 1, 0)),  # binom(n-1, k)
                BinomFactor(Affine(1, -1, -1), Affine(0, 1, 0)),  # binom(n-1-k, k)
                GeomFactor(m - 2, Affine(1, -2, -1)),  # (m-2)^(n-1-2k)
            ),
            upper=Bound(1, -1, 2),
        )
    )
    return CongruenceClaim(
        claim_id=f"trinomial-transform-m{m}",
        description=f"alternating central-binomial transform equals the trinomial-style sum at m={m}",
        lhs=lhs,
        rhs=rhs,
        modulus=C(0),
        domain=Domain("integers", 1),
    )


def _build_claims() -> dict[str, CongruenceClaim]:
    n2 = mul(N, N)
    n3 = mul(N, N, N)
    claims = [
        CongruenceClaim(
            claim_id="theorem-1.1i",
            description="sum (8k+9) W(k)^2 for k<n is congruent to n mod 2n",
            lhs=SumNode(SUM_W_SQUARES),
            rhs=N,
            modulus=mul(C(2), N),
            domain=Domain("integers", 1),
        ),
        CongruenceClaim(
            claim_id="theorem-1.1ii",
            description="(1/p) sum (8k+9) W(k)^2 is 24+10(-1|p)-9(p|3)-18(3|p) mod p",
            lhs=div(SumNode(SUM_W_SQUARES), N),
            rhs=add(
                C(24),
                mul(C(10), _LEG_M1P),
                mul(C(-9), _LEG_P3),
                mul(C(-18), leg(C(3), N)),
            ),
            modulus=N,
            domain=Domain("primes", 3, parity="odd"),
        ),
        CongruenceClaim(
            claim_id="sun-divisibility",
            description="n^2(n^2-1)/6 divides sum k(k+1)(8k+9) T(k) T(k+1)",
            lhs=SumNode(SUM_T_PRODUCTS_8K9),
            rhs=C(0),
            modulus=div(mul(n2, sub(n2, C(1))), C(6)),
            domain=Domain("integers", 1),
        ),
        CongruenceClaim(
            claim_id="theorem-1.2",
            description="sum k(k+1)(8k+9) T(k) T(k+1) is -p^2 (53/12 + 21/4 (p|3)) mod p^3",
            lhs=SumNode(SUM_T_PRODUCTS_8K9),
            rhs=mul(C(-1), n2, add(C(Fraction(53, 12)), mul(C(Fraction(21, 4)), _LEG_P3))),
            modulus=n3,
            domain=Domain("primes", 5),
        ),
        CongruenceClaim(
            claim_id="theorem-1.3i",
            description="2 sum (k+1)(16k+21) T(k) T(k+1) is 9n T(n-1) T(n) mod n^2",
            lhs=mul(C(2), SumNode(SUM_T_PRODUCTS_16K21)),
            rhs=mul(C(9), N, seq("T", -1), seq("T", 0)),
            modulus=n2,
            domain=Domain("integers", 1),
        ),
        CongruenceClaim(
            claim_id="theorem-1.3ii",
            description="sum (k+1)(16k+21) T(k) T(k+1) is p 3^(p+1)/2 (p|3) + p^2(17/4 + 57/4 (p|3)) mod p^3",
            lhs=SumNode(SUM_T_PRODUCTS_16K21),
            rhs=add(
                mul(N, div(PowInt(3, Bound(1, 1, 1)), C(2)), _LEG_P3),
                mul(n2, add(C(Fraction(17, 4)), mul(C(Fraction(57, 4)), _LEG_P3))),
            ),
            modulus=n3,
            domain=Domain("primes", 5, parity="odd"),
            notes=(
                "p = 2 does not satisfy this congruence (lhs 3 vs rhs 5 mod 8); "
                "the domain is odd primes >= 5 and p = 2 is reported separately",
            ),
            flag_points=(2,),
        ),
        CongruenceClaim(
            claim_id="lemma-2.1-wp",
            description="W(p) is -1 - p(1 + 3(-3|p) - 4(-1|p)) mod p^2",
            lhs=seq("W", 0),
            rhs=sub(
                C(-1),
                mul(N, add(C(1), mul(C(3), _LEG_M3P), mul(C(-4), _LEG_M1P))),
            ),
            modulus=n2,
            domain=Domain("primes", 5),
        ),
        CongruenceClaim(
            claim_id="lemma-2.1-wp1",
            description="W(p-1) is 3(-3|p) - 4(-1|p) mod p",
            lhs=seq("W", -1),
            rhs=add(mul(C(3), _LEG_M3P), mul(C(-4), _LEG_M1P)),
            modulus=N,
            domain=Domain("primes", 5),
        ),
        CongruenceClaim(
            claim_id="lemma-2.1-wp2",
            description="W(p-2) is 7(-3|p) - 8(-1|p) mod p",
            lhs=seq("W", -2),
            rhs=add(mul(C(7), _LEG_M3P), mul(C(-8), _LEG_M1P)),
            modulus=N,
            domain=Domain("primes", 5),
        ),
        CongruenceClaim(
            claim_id="central-binom-over-k-half",
            description="sum binom(2k,k)/k for 1<=k<=(p-1)/2 vanishes mod p",
            lhs=SumNode(
                SumSpec(coeff=_rf(ONE, _K), factors=(_CENTRAL_BINOM,), lo=1, upper=Bound(1, -1, 2))
            ),
            rhs=C(0),
            modulus=N,
            domain=Domain("primes", 5),
        ),
        CongruenceClaim(
            claim_id="central-binom-over-k-full",
            description="sum binom(2k,k)/k for 1<=k<=p-1 vanishes mod p",
            lhs=SumNode(
                SumSpec(coeff=_rf(ONE, _K), factors=(_CENTRAL_BINOM,), lo=1, upper=Bound(1, -1, 1))
            ),
            rhs=C(0),
            modulus=N,
            domain=Domain("primes", 5),
        ),
        CongruenceClaim(
            claim_id="central-binom-sum-half",
            description="sum binom(2k,k) for 0<=k<=(p-1)/2 is (p|3) mod p",
            lhs=SumNode(SumSpec(factors=(_CENTRAL_BINOM,), upper=Bound(1, -1, 2))),
            rhs=_LEG_P3,
            modulus=N,
            domain=Domain("primes", 5),
        ),
        CongruenceClaim(
            claim_id="central-binom-middle",
            description="binom(p-1, (p-1)/2) is (-1)^((p-1)/2) mod p",
            lhs=BinomExpr(Bound(1, -1, 1), Bound(1, -1, 2)),
            rhs=PowInt(-1, Bound(1, -1, 2)),
            modulus=N,
            domain=Domain("primes", 5),
        ),
        CongruenceClaim(
            claim_id="central-binom-2k-1",
            description="sum binom(2k,k)/(2k-1) for 0<=k<=(p-1)/2 is 3(-3|p) - 4(-1|p) mod p",
            lhs=SumNode(
                SumSpec(
                    coeff=_rf(ONE, Poly([-1, 2])),
                    factors=(_CENTRAL_BINOM,),
                    upper=Bound(1, -1, 2),
                )
            ),
            rhs=add(mul(C(3), _LEG_M3P), mul(C(-4), _LEG_M1P)),
            modulus=N,
            domain=Domain("primes", 5),
        ),
        CongruenceClaim(
            claim_id="t-prime",
            description="T(p) is 1 mod p^2",
            lhs=seq("T", 0),
            rhs=C(1),
            modulus=n2,
            domain=Domain("primes", 5),
        ),
        CongruenceClaim(
            claim_id="t-prime-prev",
            description="T(p-1) is 3^(p-1) (p|3) mod p^2",
            lhs=seq("T", -1),
            rhs=mul(PowInt(3, Bound(1, -1, 1)), _LEG_P3),
            modulus=n2,
            domain=Domain("primes", 5),
        ),
        CongruenceClaim(
            claim_id="t-difference",
            description="T(n+1) - 3T(n) vanishes mod n-1",
            lhs=sub(seq("T", 1), mul(C(3), seq("T", 0))),
            rhs=C(0),
            modulus=sub(N, C(1)),
            domain=Domain("integers", 2),
        ),
        CongruenceClaim(
            claim_id="w-adjacent-products",
            description="(W(n-1)+W(n)) (W(n-2)+W(n-1)) vanishes mod 4",
            lhs=mul(
                add(seq("W", -1), seq("W", 0)),
                add(seq("W", -2), seq("W", -1)),
            ),
            rhs=C(0),
            modulus=C(4),
            domain=Domain("integers", 2),
        ),
        CongruenceClaim(
            claim_id="central-binom-telescope",
            description="3 binom(2n,n) - binom(2n,n)/(2n-1) telescopes (2n/(2n-1)) binom(2n,n)",
            lhs=sub(
                mul(C(3), BinomExpr(Bound(2, 0, 1), Bound(1, 0, 1))),
                div(BinomExpr(Bound(2, 0, 1), Bound(1, 0, 1)), sub(mul(C(2), N), C(1))),
            ),
            rhs=sub(
                div(
                    mul(C(2), add(N, C(1)), BinomExpr(Bound(2, 2, 1), Bound(1, 1, 1))),
                    add(mul(C(2), N), C(1)),
                ),
                div(
                    mul(C(2), N, BinomExpr(Bound(2, 0, 1), Bound(1, 0, 1))),
                    sub(mul(C(2), N), C(1)),
                ),
            ),
            modulus=C(0),
            domain=Domain("integers", 0),
        ),
    ]
    claims.extend(_trinomial_transform_claim(m) for m in range(-5, 6))
    return {c.claim_id: c for c in claims}


_BUILTIN: dict[str, CongruenceClaim] | None = None


def builtin_claims() -> list[CongruenceClaim]:
    global _BUILTIN
    if _BUILTIN is None:
        _BUILTIN = _build_claims()
    return list(_BUILTIN.values())


def get_claim(claim_id: str) -> CongruenceClaim:
    builtin_claims()
    assert _BUILTIN is not None
    try:
        return _BUILTIN[claim_id]
    except KeyError:
        raise KeyError(f"unknown claim {claim_id!r}") from None


# verification ranges used by the bundled suite; chosen to finish in seconds
# while still covering every stated domain generously
_SUITE_RANGES: dict[str, tuple[int, int]] = {
    "theorem-1.1i": (1, 500),
    "theorem-1.1ii": (3, 997),
    "sun-divisibility": (1, 300),
    "theorem-1.2": (5, 300),
    "theorem-1.3i": (1, 500),
    "theorem-1.3ii": (2, 300),
    "lemma-2.1-wp": (5, 997),
    "lemma-2.1-wp1": (5, 997),
    "lemma-2.1-wp2": (5, 997),
    "central-binom-over-k-half": (5, 500),
    "central-binom-over-k-full": (5, 500),
    "central-binom-sum-half": (5, 500),
    "central-binom-middle": (5, 500),
    "central-binom-2k-1": (5, 500),
    "t-prime": (5, 500),
    "t-prime-prev": (5, 300),
    "t-difference": (2, 500),
    "w-adjacent-products": (2, 500),
    "central-binom-telescope": (0, 200),
}


def suite_range(claim_id: str) -> tuple[int, int]:
    if claim_id.startswith("trinomial-transform-"):
        return (1, 40)
    return _SUITE_RANGES[claim_id]


# -- JSON -------------------------------------------------------------------------------


def expr_to_json(e: Expr) -> dict:
    if isinstance(e, Const):
        return {"const": frac_to_str(e.value)}
    if isinstance(e, VarN):
        return {"var": "n"}
    if isinstance(e, SeqRef):
        return {"seq": e.name, "shift": e.shift}
    if isinstance(e, Legendre):
        return {"legendre": [expr_to_json(e.top), expr_to_json(e.bottom)]}
    if isinstance(e, PowInt):
        return {"pow": {"base": e.base, "exp": e.exp.to_str()}}
    if isinstance(e, BinomExpr):
        return {"binom": [e.top.to_str(), e.bottom.to_str()]}
    if isinstance(e, Add):
        return {"add": [expr_to_json(t) for t in e.terms]}
    if isinstance(e, Mul):
        return {"mul": [expr_to_json(f) for f in e.factors]}
    if isinstance(e, Sub):
        return {"sub": [expr_to_json(e.a), expr_to_json(e.b)]}
    if isinstance(e, Div):
        return {"div": [expr_to_json(e.a), expr_to_json(e.b)]}
    if isinstance(e, SumNode):
        return {"sum": _sumspec_to_json(e.spec)}
    raise TypeError(f"not an expression: {e!r}")


def _sum_factor_to_json(f) -> dict:
    if isinstance(f, SeqFactor):
        return {"seq": {"name": f.name, "shift": f.shift}}
    return f.to_json()


def _sumspec_to_json(s: SumSpec) -> dict:
    return {
        "coeff": {"num": s.coeff.num.to_json(), "den": s.coeff.den.to_json()},
        "factors": [_sum_factor_to_json(f) for f in s.factors],
        "lo": s.lo,
        "upper": s.upper.to_str(),
    }


def _sum_factor_from_json(d: dict):
    if "seq" in d:
        return SeqFactor(d["seq"]["name"], int(d["seq"].get("shift", 0)))
    if "binom" in d:
        b = d["binom"]
        return BinomFactor(Affine.from_json(b["top"]), Affine.from_json(b["bottom"]))
    if "geom" in d:
        g = d["geom"]
        return GeomFactor(int(g["base"]), Affine.from_json(g["exp"]))
    raise ValueError(f"unknown sum factor {d!r}")


def _sumspec_from_json(d: dict) -> SumSpec:
    return SumSpec(
        coeff=RatFunc(Poly.from_json(d["coeff"]["num"]), Poly.from_json(d["coeff"]["den"])),
        factors=tuple(_sum_factor_from_json(f) for f in d.get("factors", [])),
        lo=int(d.get("lo", 0)),
        upper=Bound.from_str(d["upper"]),
    )


def expr_from_json(d: dict) -> Expr:
    if "const" in d:
        return Const(Fraction(d["const"]))
    if "var" in d:
        return N
    if "seq" in d:
        return SeqRef(d["seq"], int(d.get("shift", 0)))
    if "legendre" in d:
        t, b = d["legendre"]
        return Legendre(expr_from_json(t), expr_from_json(b))
    if "pow" in d:
        return PowInt(int(d["pow"]["base"]), Bound.from_str(d["pow"]["exp"]))
    if "binom" in d:
        t, b = d["binom"]
        return BinomExpr(Bound.from_str(t), Bound.from_str(b))
    if "add" in d:
        return Add(tuple(expr_from_json(t) for t in d["add"]))
    if "mul" in d:
        return Mul(tuple(expr_from_json(f) for f in d["mul"]))
    if "sub" in d:
        a, b = d["sub"]
        return Sub(expr_from_json(a), expr_from_json(b))
    if "div" in d:
        a, b = d["div"]
        return Div(expr_from_json(a), expr_from_json(b))
    if "sum" in d:
        return SumNode(_sumspec_from_json(d["sum"]))
    raise ValueError(f"unknown expression node {d!r}")


def claim_to_json(c: CongruenceClaim) -> dict:
    return {
        "id": c.claim_id,
        "description": c.description,
        "lhs": expr_to_json(c.lhs),
        "rhs": expr_to_json(c.rhs),
        "modulus": expr_to_json(c.modulus),
        "domain": {
            "kind": c.domain.kind,
            "start": c.domain.start,
            "parity": c.domain.parity,
            "exclude": sorted(c.domain.exclude),
        },
        "notes": list(c.notes),
        "flag_points": list(c.flag_points),
    }


def claim_from_json(d: dict) -> CongruenceClaim:
    dom = d.get("domain", {})
    return CongruenceClaim(
        claim_id=d["id"],
        description=d.get("description", d["id"]),
        lhs=expr_from_json(d["lhs"]),
        rhs=expr_from_json(d["rhs"]),
        modulus=expr_from_json(d["modulus"]),
        domain=Domain(
            kind=dom.get("kind", "integers"),
            start=int(dom.get("start", 1)),
            parity=dom.get("parity"),
            exclude=frozenset(int(x) for x in dom.get("exclude", [])),
        ),
        notes=tuple(d.get("notes", [])),
        flag_points=tuple(int(x) for x in d.get("flag_points", [])),
    )


def load_claims_document(doc: dict) -> list[CongruenceClaim]:
    """Claims file: {"sequences": [...], "claims": [...]}; sequences are
    registered so the claims can reference them."""
    for seq_doc in doc.get("sequences", []):
        register_sequence(sequence_from_json(seq_doc), replace=True)
    return [claim_from_json(c) for c in doc.get("claims", [])]


# -- reports ---------------------------------------------------------------------------


def _result_to_json(r: CheckResult) -> dict:
    out = {"n": r.n, "status": r.status}
    if r.lhs is not None:
        out["lhs"] = frac_to_str(r.lhs)
        out["rhs"] = frac_to_str(r.rhs)
        out["modulus"] = frac_to_str(r.modulus)
    if r.reason:
        out["reason"] = r.reason
    return out


def report_to_json(rep: VerificationReport) -> dict:
    return {
        "claim": rep.claim_id,
        "description": rep.description,
        "range": [rep.lo, rep.hi],
        "points_checked": rep.points_checked,
        "verdict": "pass" if rep.ok else "fail",
        "failures": [_result_to_json(r) for r in rep.failures],
        "flagged": [_result_to_json(r) for r in rep.flagged],
        "notes": list(rep.notes),
    }


def format_report_table(reports: list[VerificationReport]) -> str:
    width = max((len(r.claim_id) for r in reports), default=10)
    lines = [f"{'claim':<{width}}  {'verdict':<7}  {'points':>6}  {'time':>8}"]
    lines.append("-" * (width + 29))
    for rep in reports:
        verdict = "pass" if rep.ok else "FAIL"
        lines.append(
            f"{rep.claim_id:<{width}}  {verdict:<7}  {rep.points_checked:>6}  {rep.wall_time:>7.2f}s"
        )
        for r in rep.failures[:5]:
            lines.append(f"  failed at n={r.n}: {r.reason}")
        for r in rep.flagged:
            lines.append(
                f"  note: n={r.n} is outside the domain and indeed {r.status}s"
                + (f" ({r.reason})" if r.reason else "")
            )
    return "\n".join(lines)
