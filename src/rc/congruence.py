"""Congruence and divisibility claims about partial sums, verified exactly.

A claim says `lhs == rhs (mod modulus)` on a domain of integers or primes.
Both sides are exact closed-form expressions in n (rationals, Legendre
symbols, sequence references, integer powers, binomials, finite sums); the
congruence is read p-adically: lhs - rhs must have denominator coprime to
the modulus and numerator divisible by it. A zero modulus means exact
equality, which also covers degenerate domain points such as a modulus
expression vanishing at n = 1.

Sums are `sequences.SumSpec` values (re-exported here with `SeqFactor`),
evaluated by their compiled nodes over a `SumEvaluator`, which holds what
the claims that share it share. A sum whose summand has a certified
telescoping certificate (by default the one the reference searches of
`telescoper.REFERENCE_SEARCHES` find for the W and T theorem sums, searched
and rechecked once per evaluator) is read from the certificate's closed form,
(D S(u+1) - D S(lo)) / D. Any other sum whose summand does not mention n is
kept as one running sum per summand, a cursor at the furthest k read so far:
points are checked in ascending order, so each point adds only its new
terms, and a read below the cursor starts again from the sum's lower limit.
Binomial and geometric factors, in sums and as expression nodes, are
stepped from their previous values rather than recomputed.
Values are `int` wherever they are integral by construction (sequence terms,
binomials, integer constants, and sums, products and differences of these)
and `Fraction` only where a value is really rational, such as a quotient that
is not an integer or a prefix of a sum of 1/k terms.

How a point is decided. Each claim is compiled once, node by node, into
closures f(n, m) (`_Compiler`): f(n, None) is the exact value and f(n, m)
the value modulo m, so both modes share one dispatch over the nodes. A
subtree built from constants, n, +, -, x and division by a nonzero constant
alone, such as the modulus n^2 (n^2 - 1) / 6, is folded into one integer
polynomial over a positive denominator, evaluated by one Horner pass. The
modulus m is evaluated exactly first. When m is a nonzero integer, lhs - rhs
is evaluated modulo m alone. Each term the claim reads at n + shift, for its
sequence references and for the closed forms of its sums, is read once from
its window and reduced once, modulo the frame modulus M, the lcm of what its
readers need: m for a sequence reference, and for a certified sum less than
D m. Its closed form splits as D S = q H, q the gcd of the D g_ij (see
`telescoper.ClosedForm`), so D S modulo D m is q times H modulo
D m / gcd(q, D m), and its terms are needed modulo that alone: for
`theorem-1.1i` (m = 2n, q = k, D = 2) M is 4 at every n. A running sum is
taken from its cursor's numerator and denominator before they are reduced,
num den^-1 modulo m: the reduced denominator divides den, so where den is a
unit this is the residue of the sum. A quotient by d is taken from its
numerator modulo m |d|, and a rational only through the inverse of a unit.
A zero residue passes the point and keeps nothing. Every other point (a
nonzero residue, a non-unit, an evaluation error), every flagged point and
every `check_claim_at` is computed exactly by the same closures, so every
report reads as the exact path alone would write it. A range check keeps
only the points that do not pass. It reads its terms where
`SumEvaluator.stores` sends them, the evaluator's windows for the reads at
n + c, in both modes, the terms of its running sums too, so it keeps a few
terms per sequence, not every term below its top, whether its points pass
or fail.

An evaluation error at one point (a vanishing divisor, a non-integral
exponent or Legendre argument, a sequence index below its initial data)
fails that point and leaves the rest of the range to be checked.

Sequence references hold their `SequenceDef`: the built-in catalogue is
built from `W` and `T`, and a claims file is decoded against the built-ins
plus its own sequences, so loading one changes nothing else.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Union

from .exactmath import (
    ONE,
    ZERO,
    K,
    FieldError,
    Poly,
    _json_text,
    clear_denominators,
    echo,
    evaluator,
    frac_to_str,
    json_field,
    legendre,
    prime_factors,
)
from .sequences import (
    BUILTINS,
    Affine,
    BinomFactor,
    Bound,
    GeomFactor,
    LeadingCoefficientVanishes,
    NonIntegerTerm,
    SeqFactor,
    SequenceDef,
    SequenceError,
    SumSpec,
    T,
    TermWindow,
    W,
    _json_int,
    _Summand,
    _list_of,
    _running_sums,
    binom,
    binom_step,
    eval_direct,
    get_sequence,
    sequence_from_json,
    sequence_to_json,
)
from .telescoper import (
    REFERENCE_SEARCHES,
    ClosedForm,
    TelescoperCertificate,
    certify,
    reductions_defined_from,
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
    "MAX_EXPR_DEPTH",
    "MAX_RANGE_TOP",
    "DIRECT_CHECK_TOP",
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
    seq: SequenceDef
    shift: int = 0

    @property
    def name(self) -> str:
        return self.seq.name


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


# -- finite sums ----------------------------------------------------------------


def _reduced(num: int, den: int) -> int | Fraction:
    return num if den == 1 else Fraction(num, den)


class SumEvaluator:
    """What the sums of several claims share: certified closed forms, one
    running-sum cursor per n-free summand and one window per sequence. A sum
    is evaluated by its compiled node alone (`_Compiler`, and `eval_sum`).

    `certificates` holds `TelescoperCertificate`s; by default (None) they
    are found by the reference searches (`telescoper.REFERENCE_SEARCHES`),
    and `()` means running sums only. A certificate or search applies to an
    n-free spec with lo >= 0 whose two factors are seq_a(k + sa) and
    seq_b(k + sb) of the same `SequenceDef` objects, target shifts and
    weight p. The first that applies is searched (by default) at the first
    spec that asks, and used only if it passes both halves of `certify` and
    `reductions_defined_from`; one that fails, or a search that finds none,
    leaves its specs to the next that applies, else to the running sums. The
    verdict is kept per certificate in this evaluator, and the closed form
    (or None) per spec.

    Cost model. A certified sum over lo..u is (D S(u+1) - D S(lo)) / D (see
    `telescoper.ClosedForm`): a few products of window terms, whatever u is,
    and modulo an integer M only linear-time reductions of those terms
    (the residue mode of `_Compiler`). Where a term is read from is one
    rule, `stores`: a sequence all of whose reads in a compiled claim or sum
    are at n + c is read through this evaluator's `TermWindow` over it
    (`window`), and any other from its memo. Ascending reads step each
    window term once past the memo and keep only the recurrence order plus
    the span of shifts read at one point, so the memory of a range check
    does not grow with its top term. `verify_claim_range` and `eval_sum`
    route their nodes so; `eval_expr`, `check_claim_at` and `certify` read
    the memo. A read behind a window steps again from the memo, which
    happens once when two claims read one sequence in turn; a certified sum
    read exactly below its node's last exact read (`eval_sum` in descending
    order) reads the memo instead. Otherwise, when the summand does not
    mention n (all theorem sums are like that), the evaluator keeps a cursor
    (k, num, den, summand) per spec (`running_sum`): the sum over lo..k as an
    integer numerator num over den, the lcm (up to sign) of the denominators
    of its terms, and its `sequences._Summand`. For an integer summand den
    stays 1 and the sum is read as an int; otherwise the exact mode reduces
    it to a `Fraction`, and the residue mode takes num den^-1 modulo m
    without reducing it. A read at or above the cursor adds only the terms
    between the cursor and the read, over their own denominator and then to
    num/den once (`_running_sums`), and moves the cursor there, so ascending
    reads add each term once, O(1) terms per point when n steps by one. A
    read below the cursor starts again from the spec's lower limit and
    leaves the cursor at the read. A summand that mentions n is summed from
    the lower limit at every read, and nothing is kept.

    The product of each term's binomial and geometric factors is stepped
    from its value at k - 1 (see `rc.sequences`): one product and one exact
    division by small integers instead of a `math.comb` of the full size.
    The cursor keeps its summand, made when it starts, with the stores the
    reading node was routed to, so a resumed read steps on from the cursor;
    a summand that mentions n steps within one read.
    """

    def __init__(self, certificates: Iterable[TelescoperCertificate] | None = None):
        self._cursors: dict[SumSpec, tuple[int, int, int, list]] = {}
        # (seq_a, seq_b, target shifts, weight) of each certificate, and how to get it
        if certificates is None:
            self._sources = [
                ((s.seq, s.seq, s.target_shifts, s.p), s.find) for s in REFERENCE_SEARCHES
            ]
        else:
            self._sources = [
                ((c.seq_a, c.seq_b, c.target_shifts, c.p), lambda c=c: c) for c in certificates
            ]
        self._verdicts: dict[int, ClosedForm | None] = {}
        self._closed: dict[SumSpec, tuple[ClosedForm, int] | None] = {}
        self._windows: dict[SequenceDef, TermWindow] = {}
        self._readers: dict[SumSpec, _Compiled] = {}  # eval_sum's compiled node per spec

    def window(self, seq: SequenceDef, span: int = 0) -> TermWindow:
        """This evaluator's window over seq, widened to hold at least its
        recurrence order plus span terms."""
        w = self._windows.get(seq)
        if w is None:
            w = self._windows[seq] = seq.window()
        w.keep(span)
        return w

    def stores(self, reads: Iterable[tuple[SequenceDef, int | None, int]]) -> dict:
        """Where each sequence's terms are read from. reads holds (sequence,
        slope, offset) for each read of a sequence at index slope * n +
        offset, the slope None where the index is not affine in n. A
        sequence all of whose reads move with n alone (slope 1) is read
        through this evaluator's window, widened to the span of its offsets,
        so that it holds them all at one point; any other through its memo."""
        by_seq: dict[SequenceDef, list] = {}
        for seq, slope, offset in reads:
            by_seq.setdefault(seq, []).append((slope, offset))
        return {
            seq: self.window(seq, max(o for _, o in rs) - min(o for _, o in rs))
            if all(slope == 1 for slope, _ in rs)
            else seq
            for seq, rs in by_seq.items()
        }

    def closed_sum(self, spec: SumSpec) -> tuple[ClosedForm, int] | None:
        """(the certified closed form of spec's summand, D S(lo)), or None."""
        try:
            return self._closed[spec]
        except KeyError:
            pass
        found = None
        factors = spec.factors
        if (
            spec.n_free
            and spec.lo >= 0
            and spec.den == ONE
            and len(factors) == 2
            and all(isinstance(f, SeqFactor) for f in factors)
        ):
            fa, fb = factors
            key = (fa.seq, fb.seq, (fa.shift, fb.shift), spec.coeff)
            for idx, (source_key, get) in enumerate(self._sources):
                if source_key != key:
                    continue
                if idx not in self._verdicts:
                    self._verdicts[idx] = _checked_closed_form(get())
                closed = self._verdicts[idx]
                if closed is not None:
                    stores = self.stores((seq, 1, s) for seq, s in closed.reads)
                    found = (closed, closed.scaled(spec.lo, stores))
                    break
        self._closed[spec] = found
        return found

    def running_sum(self, spec: SumSpec, n: int, stores: Mapping) -> tuple[int, int]:
        """The sum at n summed term by term, as (num, den): an integer
        numerator over den, the lcm (up to sign) of the denominators of its
        terms, not reduced (see `_running_sums`). An n-free spec reads and
        moves its cursor. A fresh cursor, and every read of a spec that
        mentions n, reads each sequence factor from where its node's `stores`
        send it."""
        hi = spec.upper.at(n)
        if hi < spec.lo:
            return 0, 1
        cursor = self._cursors.get(spec) if spec.n_free else None
        if cursor is None or cursor[0] > hi:
            cursor = (spec.lo - 1, 0, 1, _Summand(spec, n, stores))
        k, num, den, summand = cursor
        num, den, summand = _running_sums(spec, n, k + 1, hi, num, den, summand)
        if spec.n_free:
            self._cursors[spec] = (hi, num, den, summand)
        return num, den

    def eval_sum(self, spec: SumSpec, n: int) -> int | Fraction:
        """The sum at n, exactly, through `SumNode(spec)` compiled and routed
        once per spec (`_Compiler`)."""
        read = self._readers.get(spec)
        if read is None:
            compiler = _Compiler(self)
            read = self._readers[spec] = compiler(SumNode(spec))
            compiler.route()
        return read(n, None)


def _checked_closed_form(cert: TelescoperCertificate | None) -> ClosedForm | None:
    """The closed form of a certificate that passes both halves of `certify`
    and `reductions_defined_from`, else None (also for no certificate)."""
    try:
        if cert is not None and certify(cert).ok and reductions_defined_from(cert):
            return cert.closed_form()
    except (ValueError, ArithmeticError, SequenceError):  # windows or terms that do not exist
        pass
    return None


def eval_sum(spec: SumSpec, n: int, evaluator: SumEvaluator | None = None) -> int | Fraction:
    """The sum at n, through `evaluator`, or summed term by term without one:
    certifying a certificate costs more than summing a few hundred terms."""
    return (evaluator or SumEvaluator(certificates=())).eval_sum(spec, n)


def eval_expr(e: Expr, n: int, evaluator: SumEvaluator | None = None) -> int | Fraction:
    """Exact value of e at n: an int when the value is integral by
    construction, else a Fraction (see the module docstring). Without an
    evaluator, the sums are summed term by term."""
    return _Compiler(evaluator or SumEvaluator(certificates=()))(e)(n, None)


def _quotient(x: int | Fraction, d: int | Fraction, m: int | None) -> int | Fraction:
    """x / d for a nonzero d. With m None, exactly: an int where d divides x,
    else a Fraction. With an integer m >= 1, x / d modulo m for an integer d,
    from x taken modulo m|d|: an exact division when d divides it, else the
    quotient of both by their gcd times the inverse of what is left of d,
    which raises ValueError when that is not a unit modulo m (then x / d has
    no residue modulo m)."""
    if m is None:
        if isinstance(x, int) and isinstance(d, int):
            q, r = divmod(x, d)
            if not r:
                return q
        q = Fraction(x, d)
        return q.numerator if q.denominator == 1 else q
    q, r = divmod(x % (m * abs(d)), abs(d))
    if r:
        g = math.gcd(x, d)
        return x // g * pow(d // g, -1, m) % m
    return (q if d > 0 else -q) % m


# f(n, m): the value of an expression at n, exactly when m is None, else modulo m
_Compiled = Callable[[int, "int | None"], "int | Fraction"]


def _polynomial(e: Expr) -> Poly | None:
    """e as a polynomial in n, when it is built from constants, n, +, -, x and
    division by a nonzero constant alone; else None."""
    if isinstance(e, Const):
        return Poly([e.value])
    if isinstance(e, VarN):
        return K
    if isinstance(e, (Add, Mul)):
        parts = [_polynomial(x) for x in (e.terms if isinstance(e, Add) else e.factors)]
        if any(p is None for p in parts):
            return None
        return sum(parts, ZERO) if isinstance(e, Add) else math.prod(parts, start=ONE)
    if isinstance(e, (Sub, Div)):
        a, b = _polynomial(e.a), _polynomial(e.b)
        if a is None or b is None:
            return None
        if isinstance(e, Sub):
            return a - b
        if b.degree == 0:
            return a * (1 / b.lead)
    return None


def _folded(p: Poly) -> _Compiled:
    """The closure of a folded node: its integer numerator at n by its
    `exactmath.evaluator`, over its positive denominator by `_quotient`."""
    den, (num,) = clear_denominators(p.coeffs)
    value = evaluator(num)
    if den == 1:
        return lambda n, m: value(n) if m is None else value(n) % m
    return lambda n, m: _quotient(value(n), den, m)


class _Compiler:
    """Turns expression nodes, once each, into closures f(n, m) over one
    evaluator. f(n, None) is the exact value at n (see the module docstring);
    a compiled sum node is the one evaluator of its sum, in both modes, and
    `SumEvaluator.eval_sum` reads one too. For an integer m >= 1, f(n, m) is
    that value modulo m: a certified sum read at u + 1 as q(u + 1) H(u + 1)
    modulo D m (`ClosedForm.split`), from its terms modulo its need
    D m / gcd(q(u + 1), D m) (1 where q(u + 1) = 0), a running sum from its
    cursor's num den^-1 modulo m, and divisors, Legendre arguments and
    binomials exactly. Only units are inverted; anything else raises, as
    does whatever f(n, None) raises, so a point that passes modulo m passes
    exactly. A subtree built from constants, n, +, -, x and division by a
    nonzero constant alone is folded into one polynomial (`_polynomial`,
    `_folded`), and so are those terms of a sum and those factors of a
    product.

    Sequence terms are read through `stores`: each sequence's memo, until
    `route` puts there what `SumEvaluator.stores` sends its reads to.
    Compiling records each (sequence, slope, offset) read in `reads`, each
    read at n + offset once in `held`, whether a sequence reference reads
    them in `refs_held`, each closed form read at n + c + 1 (q's evaluator,
    D, c + 1) in `closed`, and the closures of the polynomial divisors of
    divisions in `divisors`. The sequence factors of a sum without a closed
    form go into `reads` alone, not into `held`: its cursor reads them
    itself, from `stores` (`streamed` lists those whose upper limit is
    n + c).

    `read_point(n, m)` reduces each held term once modulo M
    (`frame_modulus`), by a mask where M is a power of two, into `frame`.
    With m' = m times the numerators of those divisors at n, M is the lcm of
    m' where a sequence reference reads the frame and of each closed form's
    need modulo D m', so that M covers the moduli of the calls under a
    division too. A closure called at n with a modulus (a sequence
    reference) or a need (a closed form) that divides M takes its held terms
    from the frame, and any other call reads and reduces its own.

    A binomial node keeps its own last read (n, top, bottom, value) and
    steps from it by `binom_step` when n is not below that read; a first
    read and a read below it call `binom`."""

    def __init__(self, ev: SumEvaluator):
        self.ev = ev
        self.reads: list = []
        self.stores: dict = {}
        self.streamed: list[SumSpec] = []
        self.held: dict[tuple[SequenceDef, int], int] = {}
        self.held_reads: list = []  # (the store's term, offset) per held read, set by `route`
        self.refs_held = False  # whether a sequence reference reads the frame
        self.closed: list = []  # (q's evaluator, D, c + 1) per closed form read at n + c + 1
        self.divisors: list[_Compiled] = []
        self.frame: list = [None, 1, []]  # n, the modulus M, the held terms modulo M

    def route(self) -> None:
        """Read each sequence where `SumEvaluator.stores` sends its reads;
        bind each held read to its store's `term` for `read_point`."""
        self.stores.update(self.ev.stores(self.reads))
        self.held_reads = [(self.stores[seq].term, offset) for seq, offset in self.held]

    def frame_modulus(self, n: int, m: int) -> int:
        """The modulus M of the frame at n modulo m (see above)."""
        for divisor in self.divisors:
            m *= abs(divisor(n, None).numerator)
        big = m if self.refs_held else 1
        for q, scale, c in self.closed:
            mod = m * scale
            big = math.lcm(big, mod // math.gcd(q(n + c), mod))
        return big

    def read_point(self, n: int, m: int) -> None:
        """Fill `frame` for the residue mode at n modulo m (see above); after
        `route`."""
        big = self.frame_modulus(n, m)
        if big > 0 and not big & (big - 1):  # a power of two: x & (big - 1) == x % big for every int x
            mask = big - 1
            held = [term(n + offset) & mask for term, offset in self.held_reads]
        else:  # big is 0 where a divisor vanishes at n: % raises, and the point is checked exactly
            held = [term(n + offset) % big for term, offset in self.held_reads]
        self.frame[:] = n, big, held

    def hold(self, seq: SequenceDef, slope: int | None, offset: int) -> int | None:
        """Record a read of seq at slope * n + offset; the index of a held
        read (slope 1) in the frame, else None."""
        self.reads.append((seq, slope, offset))
        self.stores.setdefault(seq, seq)
        return self.held.setdefault((seq, offset), len(self.held)) if slope == 1 else None

    def sides(self, claim: CongruenceClaim) -> tuple[_Compiled, ...]:
        return self(claim.lhs), self(claim.rhs), self(claim.modulus)

    def __call__(self, e: Expr) -> _Compiled:
        ev, stores, frame = self.ev, self.stores, self.frame
        p = _polynomial(e)
        if p is not None:
            return _folded(p)
        if isinstance(e, SeqRef):
            seq, shift = e.seq, e.shift
            i = self.hold(seq, 1, shift)
            self.refs_held = True

            def f(n, m):
                if m is None:
                    return stores[seq].term(n + shift)
                at, big, held = frame
                if at == n and not big % m:
                    return held[i] % m
                return stores[seq].term(n + shift) % m

            return f
        if isinstance(e, Legendre):
            top, bottom = self(e.top), self(e.bottom)

            def f(n, m):
                a, b = top(n, None), bottom(n, None)
                if a.denominator != 1 or b.denominator != 1:
                    raise ValueError("Legendre symbol arguments must be integers")
                s = legendre(int(a), int(b))
                return s if m is None else s % m

            return f
        if isinstance(e, PowInt):
            base, exp = e.base, e.exp

            def f(n, m):
                x = exp.exact_at(n)
                if x < 0 and base == 0:
                    raise ZeroDivisionError("0 raised to a negative power")
                if m is not None:
                    return pow(base, x, m)
                return base**x if x >= 0 else Fraction(1, base**-x)

            return f
        if isinstance(e, BinomExpr):
            top, bottom = e.top, e.bottom
            n0, x0, y0, value = None, 0, 0, 0  # the last read: n, top, bottom and the value

            def f(n, m):
                nonlocal n0, x0, y0, value
                x, y = top.exact_at(n), bottom.exact_at(n)
                value = binom(x, y) if n0 is None or n < n0 else binom_step(value, x0, y0, x, y)
                n0, x0, y0 = n, x, y
                return value if m is None else value % m

            return f
        if isinstance(e, (Add, Mul)):
            kids = e.terms if isinstance(e, Add) else e.factors
            fixed = tuple(x for x in kids if _polynomial(x) is not None)
            parts = [self(type(e)(fixed))] if fixed else []
            parts += [self(x) for x in kids if _polynomial(x) is None]
            add = isinstance(e, Add)

            def pair(a, b):  # a left fold: reduced at each step, the same residue
                if add:
                    return lambda n, m: a(n, m) + b(n, m) if m is None else (a(n, m) + b(n, m)) % m
                return lambda n, m: a(n, m) * b(n, m) if m is None else a(n, m) * b(n, m) % m

            return functools.reduce(pair, parts)
        if isinstance(e, Sub):
            a, b = self(e.a), self(e.b)
            return lambda n, m: a(n, m) - b(n, m) if m is None else (a(n, m) - b(n, m)) % m
        if isinstance(e, Div):
            a, b = self(e.a), self(e.b)
            if _polynomial(e.b) is not None:
                self.divisors.append(b)

            def f(n, m):
                d = b(n, None)
                if d == 0:
                    raise ZeroDivisionError("division by zero in expression")
                if m is None:
                    return _quotient(a(n, None), d, None)
                num = d.numerator
                return _quotient(a(n, m * abs(num)), num, m) * d.denominator % m

            return f
        if isinstance(e, SumNode):
            spec = e.spec
            found = ev.closed_sum(spec)
            if found is None:
                upper = spec.upper
                slope = upper.cn if upper.den == 1 and spec.n_free else None
                reads = [(x.seq, slope, upper.c + x.shift) for x in spec.factors if isinstance(x, SeqFactor)]
                self.reads += reads
                for seq, _, _ in reads:
                    stores.setdefault(seq, seq)
                if reads and slope == 1:
                    self.streamed.append(spec)

                def f(n, m):
                    if m is None:
                        return _reduced(*ev.running_sum(spec, n, stores))
                    # num / den modulo m from the cursor: the reduced
                    # denominator divides den, so a unit den gives the residue
                    num, den = ev.running_sum(spec, n, stores)
                    return num % m if den == 1 else num % m * pow(den % m, -1, m) % m

                return f
            closed, base = found
            scale, lo, upper, reads = closed.scale, spec.lo, spec.upper, closed.reads
            _, _, q, cofactor = closed.split()
            slope = upper.cn if upper.den == 1 else None
            at_n = [self.hold(seq, slope, upper.c + 1 + s) for seq, s in reads]
            if slope == 1:
                self.closed.append((q, scale, upper.c + 1))
            in_order = at_n == list(range(len(reads)))
            last = None  # the last u read exactly

            def f(n, m):
                nonlocal last
                hi = upper.at(n)
                if hi < lo:
                    return 0
                if m is None:
                    # ascending reads stream through the stores; a read below
                    # the last one is random access, which the memo serves
                    ascending = last is None or hi >= last
                    last = hi
                    num = closed.scaled(hi + 1, stores if ascending else None) - base
                    return _quotient(num, scale, None)
                # D S = q H modulo m D needs H, so the terms, modulo m D / gcd(q, m D)
                mod = m * scale
                qv = q(hi + 1)
                need = mod // math.gcd(qv, mod)
                at, big, held = frame
                if at == n and slope == 1 and not big % need:
                    values = held if in_order else [held[i] for i in at_n]
                else:
                    values = [stores[seq].term(hi + 1 + s) % need for seq, s in reads]
                return _quotient(qv * cofactor(hi + 1, values) % mod - base, scale, m)

            return f
        raise TypeError(f"not an expression: {e!r}")


# -- primes ------------------------------------------------------------------------


# the highest top of a range: primes are enumerated up to it, and the command
# line rejects a higher one, as a range check takes time and memory about
# quadratic in its top
MAX_RANGE_TOP = 10**6


def primes_in(
    lo: int, hi: int, exclude: Iterable[int] = (), parity: str | None = None
) -> list[int]:
    """Primes in [lo, hi] minus exclusions; parity "odd" drops 2. hi <= 10^6."""
    if hi > MAX_RANGE_TOP:
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
        if self.kind == "primes" and prime_factors(n) != [n]:
            return False
        return True

    def each_point(self, lo: int, hi: int) -> Iterable[int]:
        """The points of [lo, hi] in the domain, ascending: the primes as a
        list, the integers one at a time."""
        lo = max(lo, self.start)
        if self.kind == "primes":
            return primes_in(lo, hi, self.exclude, self.parity)
        return filter(self.contains, range(lo, hi + 1))

    def points(self, lo: int, hi: int) -> list[int]:
        return list(self.each_point(lo, hi))


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


def _check_raw(claim: CongruenceClaim, n: int, sides: tuple[_Compiled, ...]) -> CheckResult:
    """The claim at n, exactly, from its compiled lhs, rhs and modulus."""
    try:
        lhs, rhs, modulus = (side(n, None) for side in sides)
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
    """pass / fail / out_of_domain for a single point, exactly; without an
    evaluator, the sums are summed term by term."""
    if not claim.domain.contains(n):
        return CheckResult(claim.claim_id, n, "out_of_domain")
    return _check_raw(claim, n, _Compiler(evaluator or SumEvaluator(certificates=())).sides(claim))


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
) -> VerificationReport:
    """Check every in-domain point of [lo, hi] in ascending order; failures
    are collected, not raised. Only the results that do not pass are kept, so
    the values of passing points are freed as soon as they are checked.

    The claim is compiled once (see `_Compiler`). A point with a nonzero
    integer modulus m passes on a zero residue of lhs - rhs modulo m, with
    each term read once where `SumEvaluator.stores` sends it and reduced once
    (`_Compiler.read_point`), and each running sum taken from its cursor
    without a `Fraction`; every other point, and every flagged point, is
    computed exactly by `_check_raw` from the same closures, reading the same
    stores, so a report reads the same either way. At each point the
    running sums whose upper limit is n + c read their new terms first. The
    points of an integer domain are taken one at a time, not listed."""
    ev = evaluator or SumEvaluator()
    t0 = time.perf_counter()
    points = claim.domain.each_point(lo, hi)
    compiler = _Compiler(ev)
    sides = compiler.sides(claim)
    lhs, rhs, modulus = sides
    compiler.route()

    def passes(n: int) -> bool:
        try:
            # the streamed running sums read their new terms first, before
            # another read at n can move a window they share past them
            for spec in compiler.streamed:
                ev.running_sum(spec, n, compiler.stores)
            m = modulus(n, None)
            if m == 0 or m.denominator != 1:
                return False
            m = abs(int(m))
            compiler.read_point(n, m)
            return (lhs(n, m) - rhs(n, m)) % m == 0
        except _POINT_ERRORS:  # a non-unit raises ValueError or ArithmeticError
            return False

    checked, failures = 0, []
    for n in points:
        checked += 1
        if not passes(n):
            result = _check_raw(claim, n, sides)
            if result.status != "pass":
                failures.append(result)
    flagged = tuple(_check_raw(claim, n, sides) for n in claim.flag_points)
    return VerificationReport(
        claim_id=claim.claim_id,
        description=claim.description,
        lo=lo,
        hi=hi,
        points_checked=checked,
        failures=tuple(failures),
        flagged=flagged,
        wall_time=time.perf_counter() - t0,
        notes=claim.notes,
    )


# -- the built-in catalogue ------------------------------------------------------------


# summands shared by several claims
SUM_W_SQUARES = SumSpec(
    coeff=Poly([9, 8]),
    factors=(SeqFactor(W, 0), SeqFactor(W, 0)),
)
SUM_T_PRODUCTS_8K9 = SumSpec(
    coeff=Poly([0, 9, 17, 8]),  # k(k+1)(8k+9)
    factors=(SeqFactor(T, 0), SeqFactor(T, 1)),
)
SUM_T_PRODUCTS_16K21 = SumSpec(
    coeff=Poly([21, 37, 16]),  # (k+1)(16k+21)
    factors=(SeqFactor(T, 0), SeqFactor(T, 1)),
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
            rhs=mul(C(9), N, SeqRef(T, -1), SeqRef(T, 0)),
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
            lhs=SeqRef(W, 0),
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
            lhs=SeqRef(W, -1),
            rhs=add(mul(C(3), _LEG_M3P), mul(C(-4), _LEG_M1P)),
            modulus=N,
            domain=Domain("primes", 5),
        ),
        CongruenceClaim(
            claim_id="lemma-2.1-wp2",
            description="W(p-2) is 7(-3|p) - 8(-1|p) mod p",
            lhs=SeqRef(W, -2),
            rhs=add(mul(C(7), _LEG_M3P), mul(C(-8), _LEG_M1P)),
            modulus=N,
            domain=Domain("primes", 5),
        ),
        CongruenceClaim(
            claim_id="central-binom-over-k-half",
            description="sum binom(2k,k)/k for 1<=k<=(p-1)/2 vanishes mod p",
            lhs=SumNode(
                SumSpec(factors=(_CENTRAL_BINOM,), lo=1, upper=Bound(1, -1, 2), den=K)
            ),
            rhs=C(0),
            modulus=N,
            domain=Domain("primes", 5),
        ),
        CongruenceClaim(
            claim_id="central-binom-over-k-full",
            description="sum binom(2k,k)/k for 1<=k<=p-1 vanishes mod p",
            lhs=SumNode(
                SumSpec(factors=(_CENTRAL_BINOM,), lo=1, upper=Bound(1, -1, 1), den=K)
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
                    factors=(_CENTRAL_BINOM,),
                    upper=Bound(1, -1, 2),
                    den=Poly([-1, 2]),
                )
            ),
            rhs=add(mul(C(3), _LEG_M3P), mul(C(-4), _LEG_M1P)),
            modulus=N,
            domain=Domain("primes", 5),
        ),
        CongruenceClaim(
            claim_id="t-prime",
            description="T(p) is 1 mod p^2",
            lhs=SeqRef(T, 0),
            rhs=C(1),
            modulus=n2,
            domain=Domain("primes", 5),
        ),
        CongruenceClaim(
            claim_id="t-prime-prev",
            description="T(p-1) is 3^(p-1) (p|3) mod p^2",
            lhs=SeqRef(T, -1),
            rhs=mul(PowInt(3, Bound(1, -1, 1)), _LEG_P3),
            modulus=n2,
            domain=Domain("primes", 5),
        ),
        CongruenceClaim(
            claim_id="t-difference",
            description="T(n+1) - 3T(n) vanishes mod n-1",
            lhs=sub(SeqRef(T, 1), mul(C(3), SeqRef(T, 0))),
            rhs=C(0),
            modulus=sub(N, C(1)),
            domain=Domain("integers", 2),
        ),
        CongruenceClaim(
            claim_id="w-adjacent-products",
            description="(W(n-1)+W(n)) (W(n-2)+W(n-1)) vanishes mod 4",
            lhs=mul(
                add(SeqRef(W, -1), SeqRef(W, 0)),
                add(SeqRef(W, -2), SeqRef(W, -1)),
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


_BUILTIN_CLAIMS = _build_claims()


def builtin_claims() -> list[CongruenceClaim]:
    return list(_BUILTIN_CLAIMS.values())


def get_claim(claim_id: str) -> CongruenceClaim:
    try:
        return _BUILTIN_CLAIMS[claim_id]
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
        return {"sum": e.spec.to_json()}
    raise TypeError(f"not an expression: {e!r}")


# the deepest expression a decoded claim may hold (the built-ins nest 6 levels):
# compiling and checking a claim recurse once per level
MAX_EXPR_DEPTH = 32


def expr_from_json(d: dict, sequences: Mapping[str, SequenceDef] | None = None) -> Expr:
    """Decode an expression. Every node is a JSON object with exactly one key,
    its kind (a `seq` node may add its `shift`); the one variable is
    `{"var": "n"}`, and the operands of `legendre`, `binom`, `sub` and `div`
    are a list of two, of `add` and `mul` a list.
    Its `seq` nodes and factors name sequences of `sequences` (default: the
    built-ins); an unknown name raises `UnknownSequence` here, not when the
    expression is evaluated. Nodes nested deeper than `MAX_EXPR_DEPTH` raise
    ValueError."""

    def operands(kind: str, value, pair: bool = False) -> list:
        if not isinstance(value, list) or (pair and len(value) != 2):
            what = "a list of two" if pair else "a list"
            raise ValueError(f"the operands of {kind} must be {what}, got {echo(value)}")
        return value

    def node(d: dict, depth: int) -> Expr:
        if depth > MAX_EXPR_DEPTH:
            raise ValueError(f"expression nested deeper than {MAX_EXPR_DEPTH} levels")
        depth += 1  # the depth of d's children
        if not isinstance(d, dict):
            raise ValueError(f"an expression node must be a JSON object, got {echo(d)}")
        keys = [k for k in d if k != "shift"] if "seq" in d else list(d)
        if len(keys) != 1:
            raise ValueError(f"an expression node must have exactly one key, got {echo(d)}")
        kind, value = keys[0], d[keys[0]]
        if kind == "const":
            return Const(_json_text("a const", value))
        if kind == "var":
            if value != "n":
                raise ValueError(f"the only variable is 'n', got {echo(value)}")
            return N
        if kind == "seq":
            return SeqRef(get_sequence(value, sequences), _json_int("a seq shift", d.get("shift", 0)))
        if kind == "legendre":
            t, b = operands(kind, value, pair=True)
            return Legendre(node(t, depth), node(b, depth))
        if kind == "pow":
            return PowInt(_json_int("a pow base", value["base"]), Bound.from_str(value["exp"]))
        if kind == "binom":
            t, b = operands(kind, value, pair=True)
            return BinomExpr(Bound.from_str(t), Bound.from_str(b))
        if kind in ("add", "mul"):
            kids = tuple(node(x, depth) for x in operands(kind, value))
            return Add(kids) if kind == "add" else Mul(kids)
        if kind in ("sub", "div"):
            a, b = operands(kind, value, pair=True)
            return (Sub if kind == "sub" else Div)(node(a, depth), node(b, depth))
        if kind == "sum":
            return SumNode(SumSpec.from_json(value, sequences))
        raise ValueError(f"unknown expression node {echo(d)}")

    return node(d, 1)


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


def claim_from_json(d: dict, sequences: Mapping[str, SequenceDef] | None = None) -> CongruenceClaim:
    """Decode a claim; an error in one of its expressions or its domain gets
    that field's path (`exactmath.json_field`)."""
    if not isinstance(d["id"], str):
        raise ValueError(f"a claim id must be a string, got {echo(d['id'])}")
    with json_field(".domain"):
        dom = d.get("domain", {})
        kind, parity = dom.get("kind", "integers"), dom.get("parity")
        if kind not in ("integers", "primes"):
            raise FieldError(f"a domain kind must be 'integers' or 'primes', got {echo(kind)}")
        if parity not in (None, "odd"):
            raise FieldError(f"a domain parity must be 'odd' or absent, got {echo(parity)}")
        domain = Domain(
            kind=kind,
            start=_json_int("a domain start", dom.get("start", 1)),
            parity=parity,
            exclude=frozenset(_list_of("a domain exclude", int, "integers", dom.get("exclude", []))),
        )
    sides = []
    for side in ("lhs", "rhs", "modulus"):
        with json_field(f".{side}"):
            sides.append(expr_from_json(d[side], sequences))
    return CongruenceClaim(
        claim_id=d["id"],
        description=d.get("description", d["id"]),
        lhs=sides[0],
        rhs=sides[1],
        modulus=sides[2],
        domain=domain,
        notes=tuple(_list_of("notes", str, "strings", d.get("notes", []))),
        flag_points=tuple(_list_of("flag_points", int, "integers", d.get("flag_points", []))),
    )


# the highest index at which loading a claims file checks a sequence's direct
# formula: the sum at n has about n terms, so initial data placed far out
# would otherwise make loading slow without bound
DIRECT_CHECK_TOP = 1000


def _check_direct(seq: SequenceDef) -> None:
    """Refuse a sequence whose direct formula disagrees with its recurrence
    at an index from max(0, min_index) to max_initial + order (at most
    `DIRECT_CHECK_TOP`): the initial data and the first terms stepped past
    it. The terms are read through a fresh `TermWindow`, so the memo keeps
    only the initial data. A recurrence step that raises ends the check;
    a claim that reads that term fails there."""
    window = TermWindow(seq)
    for n in range(max(0, seq.min_index), min(seq.max_initial + seq.recurrence.order, DIRECT_CHECK_TOP) + 1):
        try:
            term = window.term(n)
        except SequenceError:
            return
        try:
            agree = eval_direct(seq.direct, n) == term
        except (ArithmeticError, ValueError) as e:
            raise ValueError(f"the direct formula of the sequence {echo(seq.name)} fails at n = {n}: {e}") from None
        if not agree:
            raise ValueError(
                f"the direct formula of the sequence {echo(seq.name)} disagrees with its recurrence at n = {n}"
            )


def load_claims_document(doc: dict) -> list[CongruenceClaim]:
    """Claims file: {"sequences": [...], "claims": [...]}. The claims are
    decoded against the built-in sequences plus the file's own, so loading
    a file changes nothing outside its claims. A file may repeat the
    definition of a built-in sequence (an exported catalogue does), and its
    claims then use the built-in itself; changing a built-in's definition,
    defining one name twice, giving two claims one id or a direct formula
    that contradicts its sequence's recurrence (`_check_direct`) is an
    error."""
    sequences = dict(BUILTINS)
    defined = set()
    for i, seq_doc in enumerate(doc.get("sequences", [])):
        with json_field(f"sequences[{i}]"):
            seq = sequence_from_json(seq_doc)
        # these two name the sequence, so they take no path
        if seq.name in defined:
            raise ValueError(f"the sequence {echo(seq.name)} is defined twice")
        defined.add(seq.name)
        if seq.name not in BUILTINS:
            if seq.direct is not None:
                _check_direct(seq)
            sequences[seq.name] = seq
        elif sequence_to_json(seq) != sequence_to_json(BUILTINS[seq.name]):
            raise ValueError(f"the built-in sequence {echo(seq.name)} may not be redefined")
    claims: dict[str, CongruenceClaim] = {}
    for i, claim_doc in enumerate(doc.get("claims", [])):
        with json_field(f"claims[{i}]"):
            claim = claim_from_json(claim_doc, sequences)
        if claim.claim_id in claims:  # the id names the claim, so it takes no path
            raise ValueError(f"the claim {echo(claim.claim_id)} is defined twice")
        claims[claim.claim_id] = claim
    return list(claims.values())


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
    width = max(width, len("claim"))  # a shorter id would shift the rows against the header
    lines = [f"{'claim':<{width}}  {'verdict':<7}  {'points':>6}  {'time':>8}"]
    lines.append("-" * (width + 27))
    for rep in reports:
        verdict = "pass" if rep.ok else "FAIL"
        lines.append(
            f"{rep.claim_id:<{width}}  {verdict:<7}  {rep.points_checked:>6}  {rep.wall_time:>7.2f}s"
        )
        for r in rep.failures[:5]:
            lines.append(f"  failed at n={r.n}: {r.reason}")
        for r in rep.flagged:
            lines.append(
                f"  note: n={r.n} is outside the domain and {'passes' if r.status == 'pass' else 'fails'}"
                + (f" ({r.reason})" if r.reason else "")
            )
    return "\n".join(lines)
