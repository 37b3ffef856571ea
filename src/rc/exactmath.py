"""Exact arithmetic kernel: dense rational polynomials, a quotient of two of
them in lowest terms (`lowest_terms`), integer polynomials, nullspaces of
rational matrices, a rank screen of integer matrices modulo a prime
(`independent_prefix`), and modular / quadratic-residue helpers.

Rationals are plain ``fractions.Fraction`` (always normalized, denominator
positive, which is exactly the invariant we need). The nullspace is the
exception: it clears each row to integers and eliminates fraction-free, so
no ``Fraction`` arithmetic runs in its inner loop. Every object in this
module is immutable after construction and every operation is a pure
function, so values can be shared freely between threads.

Every polynomial here, a `Poly` or an integer polynomial, lists its
coefficients in one order, ascending by degree, the zero polynomial empty.
The integer-polynomial kernel (`horner`, `imul`, `iadd`, `ishift`, `iquo`,
`iprod`, `primitive`, and `igcd`, the one polynomial gcd, which
`lowest_terms` applies to rationals) works on such lists of ints, and
`clear_denominators` is the one way from rational coefficients to them. A
fixed polynomial that a hot loop evaluates again and again is built once
into a closure by `evaluator`: the same value as `horner`, without its loop
set-up per call (straight-line code up to degree 2).

Values read from a JSON document are quoted in error messages by `echo`, a
repr cut to `MAX_ECHO` characters, so a malformed value of any length gives
a short message. A value of the wrong type or form for its field raises
`FieldError`, whose message names the field; any other error of a decoder
is given the path of the field it arose in (`json_field`), such as
`claims[0].lhs`, in its `field_path` attribute.

No floating point anywhere.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "MAX_DEGREE",
    "MAX_LITERAL_DIGITS",
    "MAX_POLY_BITS",
    "MAX_POLY_NESTING",
    "Poly",
    "PolyParseError",
    "DenominatorNotInvertible",
    "ZERO",
    "ONE",
    "K",
    "poly",
    "horner",
    "evaluator",
    "imul",
    "iadd",
    "ishift",
    "iquo",
    "iprod",
    "primitive",
    "igcd",
    "clear_denominators",
    "parse_poly",
    "poly_divmod",
    "lowest_terms",
    "nullspace",
    "SCREEN_PRIME",
    "independent_prefix",
    "legendre",
    "prime_factors",
    "rat_mod",
    "frac_to_str",
    "MAX_ECHO",
    "echo",
    "FieldError",
    "json_field",
]


# the largest degree of a polynomial read from text, and of g and of a free
# weight in a search (`telescoper`): a power or product of higher degree is
# refused before it is computed
MAX_DEGREE = 100

# the most digits of an integer read from input, CPython's default limit on
# converting a string to an int; the command line lifts that limit so that
# exact results print in full, and reading a longer literal takes time
# quadratic in its length
MAX_LITERAL_DIGITS = 4300

# the most bits of the integer coefficients of a product or power read from
# polynomial text, over their common denominator, and of that denominator,
# estimated from the factors before the product is computed
MAX_POLY_BITS = 1 << 16

# the deepest nesting of parentheses and unary minus signs in polynomial text
MAX_POLY_NESTING = 32


# the most characters of a value's repr that an error message quotes
MAX_ECHO = 40


def echo(value) -> str:
    """value as an error message quotes it: its repr, cut to `MAX_ECHO`
    characters and marked by "..." when longer."""
    r = repr(value)
    return r if len(r) <= MAX_ECHO else r[:MAX_ECHO] + "..."


class FieldError(ValueError):
    """A value read from a JSON document is not of its field's type or form;
    the message names the field, so no path is added to it."""


@contextmanager
def json_field(path: str) -> Iterator[None]:
    """Decode one field of a JSON document: an error other than a
    `FieldError` raised inside gets `path` put in front of its `field_path`
    (a nested field's path starts with "."), and goes on."""
    try:
        yield
    except FieldError:
        raise
    except Exception as e:
        e.field_path = path + getattr(e, "field_path", "")
        raise


def _check_digits(what: str, text: str) -> str:
    # text read as numbers, refused without being echoed when it holds more
    # than MAX_LITERAL_DIGITS digits in a row
    if any(len(run) > MAX_LITERAL_DIGITS for run in re.findall(r"\d+", text)):
        raise FieldError(f"{what} has more than {MAX_LITERAL_DIGITS} digits")
    return text


def frac_to_str(x: Fraction | int) -> str:
    """Render a rational as ``"num"`` or ``"num/den"`` (den omitted when 1)."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _json_text(what: str, value, parse=Fraction):
    # a JSON string read by `parse`, which `frac_to_str` and `str` write: a
    # number or bool is refused, so no float is read as a rational, and so are
    # a literal too long to read (`_check_digits`) and an exponent, with which
    # a short literal stands for a number of any length; a string `parse`
    # refuses is quoted by `echo`
    if type(value) is not str:
        raise FieldError(f"{what} must be a string, got {echo(value)}")
    if "e" in value or "E" in value:
        raise FieldError(f"{what} must not have an exponent")
    text = _check_digits(what, value)
    try:
        return parse(text)
    except ValueError:
        raise FieldError(f"{what} is not a number: {echo(value)}") from None


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
            e >>= 1
            if e:
                base = base * base
        return out

    def __call__(self, x: Fraction | int) -> Fraction | int:
        return horner(self.coeffs, x)

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
        den, (ints,) = clear_denominators(self.coeffs)
        return Fraction(math.gcd(*ints), den)

    def primitive(self) -> "Poly":
        c = self.content()
        if c == 0:
            return ZERO
        return self * (1 / c)

    # -- io -------------------------------------------------------------------

    def to_json(self) -> list[str]:
        return [frac_to_str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data: Sequence[str]) -> "Poly":
        # a JSON list: a string would otherwise be read digit by digit
        if not isinstance(data, list):
            raise FieldError(f"a polynomial must be a list of coefficient strings, got {echo(data)}")
        # polynomial text's degree cap, before any coefficient is read: no
        # FieldError, so `json_field` adds the path that says which polynomial
        if len(data) > MAX_DEGREE + 1:
            raise ValueError(f"a polynomial has more than {MAX_DEGREE + 1} coefficients")
        return cls(_json_text("a polynomial coefficient", s) for s in data)

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


# -- integer polynomials --------------------------------------------------------
# ascending lists of ints, as `Poly.coeffs`, the zero polynomial the empty list;
# a tuple serves as well, and keys a dict


def horner(coeffs: Sequence[int], x: int) -> int:
    """Value at x of the polynomial with ascending coefficients `coeffs`, by
    Horner's rule: exact, an int for int coefficients and an int x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def evaluator(coeffs: Sequence[int]) -> Callable[[int], int]:
    """x -> horner(coeffs, x), built once for a polynomial evaluated at many
    points: straight-line code up to degree 2, above it one loop over the
    coefficients stored highest first."""
    if len(coeffs) <= 1:
        c0 = coeffs[0] if coeffs else 0
        return lambda x: c0
    if len(coeffs) == 2:
        c0, c1 = coeffs
        return lambda x: c1 * x + c0
    if len(coeffs) == 3:
        c0, c1, c2 = coeffs
        return lambda x: (c2 * x + c1) * x + c0
    lead, *rest = reversed(coeffs)
    rest = tuple(rest)

    def value(x: int) -> int:
        acc = lead
        for c in rest:
            acc = acc * x + c
        return acc

    return value


def imul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def iadd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    while out and not out[-1]:
        out.pop()
    return out


def ishift(a: Sequence[int], j: int) -> list[int]:
    """a(k + j), by Horner's rule in k + j."""
    out: list[int] = []
    for c in reversed(a):
        out = [0] + out
        for i in range(len(out) - 1):
            out[i] += j * out[i + 1]
        out[0] += c
    return out


def iquo(a: Sequence[int], b: Sequence[int]) -> list[int] | None:
    """a / b if it is a polynomial with integer coefficients, else None. For a
    primitive b that is exactly when b divides a over the rationals (Gauss)."""
    db = len(b) - 1
    if len(a) <= db:
        return None if a else []
    rem = list(a)
    quo = [0] * (len(a) - db)
    for i in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[i + db], b[-1])
        if r:
            return None
        quo[i] = c
        if c:
            for t, y in enumerate(b):
                rem[i + t] -= c * y
    return None if any(rem[:db]) else quo


def iprod(factors: Iterable[Sequence[int]]) -> list[int]:
    out = [1]
    for f in factors:
        out = imul(out, f)
    return out


def primitive(a: Sequence[int]) -> tuple[int, ...]:
    """A nonzero a divided by its content, with a positive lead coefficient."""
    g = math.gcd(*a) if a[-1] > 0 else -math.gcd(*a)
    return tuple(x // g for x in a)


def igcd(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """The gcd in Z[k] of two integer polynomials, not both zero, with a
    positive lead: the gcd of all their coefficients times the last nonzero
    entry of their primitive pseudo-remainder sequence (Knuth, TAOCP vol. 2,
    4.6.1), which divides each remainder by its content to keep it small."""
    g = math.gcd(*a, *b)
    if not g:
        raise ValueError("gcd of two zero polynomials")
    a, b = (primitive(p) if p else () for p in sorted((a, b), key=len, reverse=True))
    while len(b) > 1:
        r, lead = list(a), b[-1]
        while len(r) >= len(b):  # r <- lead r - c k^s b, so deg r falls
            c = r.pop()
            r = [lead * x for x in r]
            for i, y in enumerate(b[:-1], len(r) - len(b) + 1):
                r[i] -= c * y
            while r and not r[-1]:
                r.pop()
        a, b = b, primitive(r) if r else ()
    return tuple(g * x for x in b or a)


def clear_denominators(*coeff_lists: Sequence[Fraction | int]) -> tuple[int, list[list[int]]]:
    """den, the lcm of the denominators of all the coefficients of all the
    lists (1 for none), and each list times den, as ints."""
    den = math.lcm(*(c.denominator for cs in coeff_lists for c in cs))
    return den, [[c.numerator * (den // c.denominator) for c in cs] for cs in coeff_lists]


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


def _coprime_modulo(a: Sequence[int], b: Sequence[int], prime: int) -> bool:
    """Whether two nonzero integer polynomials are shown coprime over Q by
    their gcd modulo the prime: when the prime divides neither lead, a common
    factor of positive degree keeps its degree modulo the prime, so a
    constant gcd there rules it out. False when the screen does not apply
    or does not settle it."""
    if not a[-1] % prime or not b[-1] % prime:
        return False
    a, b = [x % prime for x in a], [x % prime for x in b]
    while len(b) > 1:
        inv = pow(b[-1], -1, prime)
        while len(a) >= len(b):  # a <- a - c k^s b, so deg a falls
            c = a.pop() * inv % prime
            for i, y in enumerate(b[:-1], len(a) - len(b) + 1):
                a[i] = (a[i] - c * y) % prime
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(b) == 1


def lowest_terms(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """num / den in lowest terms: gcd(num, den) = 1 and the denominator monic
    (so its leading coefficient is positive); the zero numerator gives
    (ZERO, ONE). Both are cleared to integers; unless a screen modulo
    `SCREEN_PRIME` shows them coprime (`_coprime_modulo`), they are divided
    by their `igcd`."""
    if den.is_zero:
        raise ZeroDivisionError("rational function with zero denominator")
    _, (a, b) = clear_denominators(num.coeffs, den.coeffs)
    if not (a and _coprime_modulo(a, b, SCREEN_PRIME)):
        g = igcd(a, b)
        a, b = iquo(a, g), iquo(b, g)
    return Poly(Fraction(x, b[-1]) for x in a), Poly(Fraction(x, b[-1]) for x in b)


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

    Uses fraction-free Gauss-Jordan elimination over the integers: a row of
    `int` entries is used as it is, with no `Fraction` pass, and any other row
    is first scaled by the lcm of its denominators; a row is cleared against a
    pivot row as (pv/g)*row - (f/g)*pivot_row with g = gcd(pv, f), and every
    row is divided by its content. The basis has one vector per
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
        if all(type(x) is int for x in row):
            ints = list(row)
        else:
            _, (ints,) = clear_denominators(row)
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


# the prime of `independent_prefix` and of `lowest_terms`'s coprimality
# screen: below 2^30, so a residue is one digit of a Python int and a product
# of two residues fits in two
SCREEN_PRIME = 2**30 - 35


def independent_prefix(rows: Sequence[Sequence[int]], order: Sequence[int]) -> int:
    """How many leading columns of an integer matrix, taken in `order`, are
    linearly independent modulo `SCREEN_PRIME`.

    Each column is reduced modulo the prime and eliminated sparsely against
    the pivots found so far, each pivot scaled to 1 at its own row and zero at
    the rows of the pivots before it; the count stops at the first column
    that reduces to zero. Columns independent modulo a prime are independent
    over Q, since a minor that is nonzero modulo the prime is nonzero over Z.
    The converse can fail (the prime may divide every maximal minor), so the
    count is at most the exact one, never more."""
    prime = SCREEN_PRIME
    pivots: list[tuple[int, list[tuple[int, int]]]] = []
    for n, c in enumerate(order):
        col = {r: x for r, row in enumerate(rows) if (x := row[c] % prime)}
        for pr, vec in pivots:
            f = col.pop(pr, 0)
            if f:
                for r, y in vec:
                    z = (col.get(r, 0) - f * y) % prime
                    if z:
                        col[r] = z
                    else:
                        del col[r]
        if not col:
            return n
        pr = min(col)
        inv = pow(col.pop(pr), -1, prime)
        pivots.append((pr, [(r, x * inv % prime) for r, x in col.items()]))
    return len(order)


# -- number theory -----------------------------------------------------------


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division; [] for
    0 and +-1, and [n] exactly when n is prime."""
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
    """Malformed polynomial text; carries the offending position and, in
    `reason`, what was wrong there."""

    def __init__(self, message: str, text: str, pos: int):
        self.text = text
        self.pos = pos
        self.reason = message
        marker = " " * pos + "^"
        super().__init__(f"{message} at position {pos}:\n  {text}\n  {marker}")


def _height(p: Poly) -> int:
    """The bits of the lcm a of p's denominators plus those of the largest
    integer coefficient of a p, which bound the bits of every numerator and
    denominator of p. The height of p q is at most the sum of those of p and
    q plus the bits of the shorter one's length."""
    a, (ints,) = clear_denominators(p.coeffs)
    return a.bit_length() + max(map(abs, ints), default=0).bit_length()


class _PolyParser:
    # grammar:  expr := ['+'|'-'] term (('+'|'-') term)*
    #           term := factor (('*'|'/') factor)*
    #           factor := atom ['^' uint]
    #           atom := uint | var | '(' expr ')' | '-' factor
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.var: str | None = None
        self.depth = 0  # the parentheses and unary minus signs open at pos

    def error(self, message: str, pos: int | None = None) -> PolyParseError:
        return PolyParseError(message, self.text, self.pos if pos is None else pos)

    def product(self, p: Poly, q: Poly, at: int, e: int = 1) -> Poly:
        """p q^e for the operator at `at`, refused before it is computed when
        its degree would exceed `MAX_DEGREE` or its height `MAX_POLY_BITS`."""
        if e > MAX_DEGREE:
            raise self.error(f"exponent {e} above {MAX_DEGREE}", at)
        if p.degree + e * q.degree > MAX_DEGREE:
            raise self.error(f"degree {p.degree + e * q.degree} above {MAX_DEGREE}", at)
        if _height(p) + e * _height(q) + e * len(q.coeffs).bit_length() > MAX_POLY_BITS:
            raise self.error(f"coefficients of more than {MAX_POLY_BITS} bits", at)
        return p * q**e

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

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
            self.skip_ws()
            at = self.pos
            if self.take("*"):
                p = self.product(p, self.factor(), at)
            elif self.take("/"):
                d = self.factor()
                if d.degree > 0:
                    raise self.error("'/' only supports constant divisors")
                if d.is_zero:
                    raise self.error("division by zero")
                p = self.product(p, Poly([1 / d.coeffs[0]]), at)
            else:
                return p

    def factor(self) -> Poly:
        p = self.atom()
        self.skip_ws()
        at = self.pos
        if self.take("**") or self.take("^"):
            return self.product(ONE, p, at, self.uint())
        return p

    def atom(self) -> Poly:
        self.skip_ws()
        if self.pos >= len(self.text):
            raise self.error("unexpected end of input")
        ch = self.text[self.pos]
        if ch in "(-":
            if self.depth == MAX_POLY_NESTING:
                raise self.error(f"nested more than {MAX_POLY_NESTING} deep")
            self.pos += 1
            self.depth += 1
            if ch == "-":
                p = -self.factor()
            else:
                p = self.expr()
                if not self.take(")"):
                    raise self.error("expected ')'")
            self.depth -= 1
            return p
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
        if self.pos - start > MAX_LITERAL_DIGITS:
            raise self.error(f"an integer of more than {MAX_LITERAL_DIGITS} digits", start)
        return int(self.text[start : self.pos])


def parse_poly(text: str) -> Poly:
    """Parse polynomial text like "8*k+9" or "(k+1)*(16*k+21)" or "9/2*k^2"."""
    return _PolyParser(text).parse()
