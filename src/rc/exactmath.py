"""Exact arithmetic kernel: dense rational polynomials, rational functions,
nullspaces of rational matrices, and modular / quadratic-residue helpers.

Rationals are plain ``fractions.Fraction`` (always normalized, denominator
positive, which is exactly the invariant we need). The nullspace is the
exception: it clears each row to integers and eliminates fraction-free, so
no ``Fraction`` arithmetic runs in its inner loop. Every object in this
module is immutable after construction and every operation is a pure
function, so values can be shared freely between threads.

No floating point anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "Poly",
    "RatFunc",
    "PolyParseError",
    "DenominatorNotInvertible",
    "ZERO",
    "ONE",
    "K",
    "poly",
    "horner",
    "parse_poly",
    "poly_divmod",
    "poly_gcd",
    "poly_lcm",
    "nullspace",
    "legendre",
    "rat_mod",
    "frac_to_str",
]


def frac_to_str(x: Fraction | int) -> str:
    """Render a rational as ``"num"`` or ``"num/den"`` (den omitted when 1)."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class Poly:
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients are stored ascending by degree; the zero polynomial is the
    empty tuple. The formal variable is anonymous (rendered as ``k`` by
    default).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly([other])
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return Poly(x + y for x, y in zip(a, b))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other) -> "Poly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other) - self

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly(c * other for c in self.coeffs)
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ZERO
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        out = ONE
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __call__(self, x: Fraction | int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, j: int = 1) -> "Poly":
        """Substitute k -> k + j, as a coefficient transform."""
        acc = ZERO
        step = Poly([j, 1])
        for c in reversed(self.coeffs):
            acc = acc * step + Poly([c])
        return acc

    # -- content ------------------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c with self = c * (primitive integer poly)."""
        if not self.coeffs:
            return Fraction(0)
        num = 0
        den = 1
        for c in self.coeffs:
            num = math.gcd(num, c.numerator)
            den = math.lcm(den, c.denominator)
        return Fraction(num, den)

    def primitive(self) -> "Poly":
        c = self.content()
        if c == 0:
            return ZERO
        return self * (1 / c)

    def monic(self) -> "Poly":
        if self.is_zero:
            return ZERO
        return self * (1 / self.lead)

    # -- io -------------------------------------------------------------------

    def to_json(self) -> list[str]:
        return [frac_to_str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data: Sequence[str]) -> "Poly":
        return cls(Fraction(s) for s in data)

    def to_str(self, var: str = "k") -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = frac_to_str(mag)
            else:
                head = "" if mag == 1 else frac_to_str(mag) + "*"
                body = f"{head}{var}" if e == 1 else f"{head}{var}^{e}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"Poly({[frac_to_str(c) for c in self.coeffs]})"


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly([x])
    raise TypeError(f"cannot interpret {x!r} as a polynomial")


ZERO = Poly()
ONE = Poly([1])
K = Poly([0, 1])


def poly(*coeffs) -> Poly:
    """Poly from ascending coefficients: poly(9, 8) is 8k+9."""
    return Poly(coeffs)


def horner(desc: Sequence[int], x: int) -> int:
    """Value at x of the polynomial whose coefficients, highest degree first,
    are `desc`, by Horner's rule; integer in, integer out."""
    acc = 0
    for c in desc:
        acc = acc * x + c
    return acc


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Exact division with remainder over the rationals: a = q*b + r, deg r < deg b."""
    if b.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    q = [Fraction(0)] * max(len(a.coeffs) - len(b.coeffs) + 1, 0)
    rem = list(a.coeffs)
    db = b.degree
    lb = b.lead
    while len(rem) - 1 >= db and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < db:
            break
        shift = len(rem) - 1 - db
        f = rem[-1] / lb
        q[shift] = f
        for i, c in enumerate(b.coeffs):
            rem[shift + i] -= f * c
    return Poly(q), Poly(rem)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd. Raises on gcd(0, 0)."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials")
    while not b.is_zero:
        _, r = poly_divmod(a, b)
        a, b = b, r
    return a.monic()


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero or b.is_zero:
        return ZERO
    g = poly_gcd(a, b)
    q, _ = poly_divmod(a * b, g)
    return q.monic()


class RatFunc:
    """Quotient of two polynomials, kept normalized: gcd(num, den) = 1 and the
    denominator monic (so its leading coefficient is positive)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            num, den = ZERO, ONE
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, _ = poly_divmod(num, g)
                den, _ = poly_divmod(den, g)
            lc = den.lead
            num = num * (1 / lc)
            den = den * (1 / lc)
        self.num = num
        self.den = den

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Poly)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        return self + (-_as_ratfunc(other))

    def __rsub__(self, other) -> "RatFunc":
        return _as_ratfunc(other) - self

    def __mul__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __call__(self, x: Fraction | int) -> Fraction:
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {x}")
        return self.num(x) / d

    def to_str(self, var: str = "k") -> str:
        if self.den == ONE:
            return self.num.to_str(var)
        return f"({self.num.to_str(var)})/({self.den.to_str(var)})"

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r}, {self.den!r})"


def _as_ratfunc(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    return RatFunc(_as_poly(x))


RF_ZERO = RatFunc(ZERO)
RF_ONE = RatFunc(ONE)


# -- exact linear algebra ----------------------------------------------------


def _normalize_int_vector(ints: list[int]) -> list[int]:
    g = math.gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return ints


def nullspace(rows: Sequence[Sequence[Fraction | int]], ncols: int | None = None) -> list[list[int]]:
    """Basis of the right nullspace of an exact rational matrix.

    Uses fraction-free Gauss-Jordan elimination over the integers: each row
    is first scaled by the lcm of its denominators, a row is cleared against
    a pivot row as (pv/g)*row - (f/g)*pivot_row with g = gcd(pv, f), and
    every new row is divided by its content. The basis has one vector per
    free column of the reduced row echelon form, which is unique, each
    scaled to coprime integer entries with a positive leading nonzero entry,
    so the returned basis is deterministic. Empty list when the nullspace is
    trivial.
    """
    if ncols is None:
        if not rows:
            raise ValueError("ncols is required for a matrix with no rows")
        ncols = len(rows[0])
    mat: list[list[int]] = []
    for row in rows:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
        fracs = [Fraction(x) for x in row]
        den = math.lcm(*(x.denominator for x in fracs))
        ints = [x.numerator * (den // x.denominator) for x in fracs]
        g = math.gcd(*ints)
        if g:
            mat.append([x // g for x in ints] if g > 1 else ints)

    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(mat):
            break
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pivot_row = mat[r]
        pv = pivot_row[c]
        for i, row in enumerate(mat):
            f = row[c]
            if i == r or not f:
                continue
            g = math.gcd(pv, f)
            a, b = pv // g, f // g
            row = [a * x - b * y for x, y in zip(row, pivot_row)]
            g = math.gcd(*row)
            mat[i] = [x // g for x in row] if g > 1 else row
        pivot_cols.append(c)
        r += 1

    # row i reads pv_i * x[pivot_cols[i]] + sum over free f of mat[i][f] * x[f] = 0
    in_pivot = set(pivot_cols)
    basis: list[list[int]] = []
    for f in range(ncols):
        if f in in_pivot:
            continue
        used = [(row[c], row[f], c) for row, c in zip(mat, pivot_cols) if row[f]]
        scale = math.lcm(*(pv for pv, _, _ in used))
        v = [0] * ncols
        v[f] = scale
        for pv, x, c in used:
            v[c] = -x * (scale // pv)
        basis.append(_normalize_int_vector(v))
    return basis


# -- number theory -----------------------------------------------------------


def legendre(a: int, m: int) -> int:
    """Jacobi symbol (a/m) for odd m >= 3; equals the Legendre symbol when m is
    prime. Computed by quadratic reciprocity."""
    if m < 3 or m % 2 == 0:
        raise ValueError(f"Jacobi symbol needs an odd modulus >= 3, got {m}")
    a %= m
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                sign = -sign
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            sign = -sign
        a %= m
    return sign if m == 1 else 0


class DenominatorNotInvertible(ArithmeticError):
    """A rational was reduced modulo M but its denominator shares a factor with M."""

    def __init__(self, x: Fraction, modulus: int):
        self.value = x
        self.modulus = modulus
        super().__init__(
            f"denominator {x.denominator} of {frac_to_str(x)} is not invertible mod {modulus}"
        )


def rat_mod(x: Fraction | int, modulus: int) -> int:
    """Residue of a rational modulo a positive integer: num * den^(-1) mod M."""
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    x = Fraction(x)
    try:
        inv = pow(x.denominator, -1, modulus)
    except ValueError:
        raise DenominatorNotInvertible(x, modulus) from None
    return (x.numerator % modulus) * inv % modulus


# -- polynomial parsing --------------------------------------------------------


class PolyParseError(ValueError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, text: str, pos: int):
        self.text = text
        self.pos = pos
        marker = " " * pos + "^"
        super().__init__(f"{message} at position {pos}:\n  {text}\n  {marker}")


class _PolyParser:
    # grammar:  expr := ['+'|'-'] term (('+'|'-') term)*
    #           term := factor (('*'|'/') factor)*
    #           factor := atom ['^' uint]
    #           atom := uint | var | '(' expr ')' | '-' factor
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.var: str | None = None

    def error(self, message: str) -> PolyParseError:
        return PolyParseError(message, self.text, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, s: str) -> bool:
        self.skip_ws()
        if self.text.startswith(s, self.pos):
            self.pos += len(s)
            return True
        return False

    def parse(self) -> Poly:
        p = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("unexpected trailing input")
        return p

    def expr(self) -> Poly:
        neg = False
        if self.take("+"):
            pass
        elif self.take("-"):
            neg = True
        p = self.term()
        if neg:
            p = -p
        while True:
            if self.take("+"):
                p = p + self.term()
            elif self.take("-"):
                p = p - self.term()
            else:
                return p

    def term(self) -> Poly:
        p = self.factor()
        while True:
            if self.take("*"):
                p = p * self.factor()
            elif self.take("/"):
                d = self.factor()
                if d.degree > 0:
                    raise self.error("'/' only supports constant divisors")
                if d.is_zero:
                    raise self.error("division by zero")
                p = p * (1 / d.coeffs[0])
            else:
                return p

    def factor(self) -> Poly:
        p = self.atom()
        self.skip_ws()
        if self.text.startswith("**", self.pos):
            self.pos += 2
            return p ** self.uint()
        if self.take("^"):
            return p ** self.uint()
        return p

    def atom(self) -> Poly:
        self.skip_ws()
        if self.pos >= len(self.text):
            raise self.error("unexpected end of input")
        ch = self.text[self.pos]
        if ch == "(":
            self.pos += 1
            p = self.expr()
            if not self.take(")"):
                raise self.error("expected ')'")
            return p
        if ch == "-":
            self.pos += 1
            return -self.factor()
        if ch.isdigit():
            return Poly([self.uint()])
        if ch.isalpha():
            start = self.pos
            while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
                self.pos += 1
            name = self.text[start : self.pos]
            if self.var is None:
                self.var = name
            elif self.var != name:
                self.pos = start
                raise self.error(f"mixed variable names ({self.var!r} and {name!r})")
            return K
        raise self.error(f"unexpected character {ch!r}")

    def uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise self.error("expected an integer")
        return int(self.text[start : self.pos])


def parse_poly(text: str) -> Poly:
    """Parse polynomial text like "8*k+9" or "(k+1)*(16*k+21)" or "9/2*k^2"."""
    return _PolyParser(text).parse()
