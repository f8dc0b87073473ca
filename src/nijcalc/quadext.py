"""Exact arithmetic in a real quadratic extension Q(sqrt(d)).

Used where eigenvalues of exact rational maps are irrational but live in a
degree-2 extension (the invariant-line computation of the 4D frame).  Every
element is a + b*sqrt(d) with a, b rational and d a fixed positive rational
that is not a perfect square.  Sign tests are exact, so ordering decisions
never touch floating point.

An element is stored in the integral form (p + q*sqrt(d))/n of
computational number theory: integers p, q, n with gcd(p, q, n) = 1 and
n > 0, next to its radicand d and d's integer ratio.  a = p/n and b = q/n
are Fractions in lowest terms, built when read.  Each of +, -, * and / is
integer arithmetic on the numerators followed by one three-way gcd, so no
Fraction is built inside the arithmetic.  An int or Fraction operand
enters as its numerator over its denominator: adding r moves only p,
multiplying by r scales p and q, with no field element built for r.
Operands are told apart by their exact type, and only an operand that is
neither a QuadExt, an int nor a Fraction is read through Fraction.

The representation changes no result.  Elements with b = 0 are
rationals: two compare by a whatever their radicands, hash like that
Fraction, and one met in the arithmetic of an element over another
radicand, as either operand, enters as its a.  Arithmetic between two
b != 0 elements over different radicands raises ValueError.  Every
arithmetic result is a QuadExt, over the radicand of its irrational
operand, else of its left QuadExt operand, as given (d is not
normalized).  The constructor validates d; arithmetic results reuse the
radicand of an operand, already validated, and are built without
repeating the check.  A float is refused everywhere with ValueError: it
would be read as the binary fraction it stores, not the decimal it was
written as.  So is a string, which Fraction would parse as a number.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple, Union

Rationalish = Union[int, Fraction]
# a radicand: d with its numerator and denominator, shared by the elements
# over it
_Radicand = Tuple[Fraction, int, int]
_Parts = Tuple[int, int, int, _Radicand]


def _is_square(f: Fraction) -> bool:
    if f < 0:
        return False
    rn = math.isqrt(f.numerator)
    rd = math.isqrt(f.denominator)
    return rn * rn == f.numerator and rd * rd == f.denominator


def _rational(x, what: str) -> Fraction:
    """x as a Fraction; a float or a string raises ValueError."""
    if isinstance(x, (float, str)):
        raise ValueError(f"{type(x).__name__} {what} {x!r}: Q(sqrt(d)) needs exact rationals")
    return Fraction(x)


def sqrt_exact(f: Rationalish) -> Union[Fraction, "QuadExt"]:
    """Exact square root of a nonnegative rational.

    Returns a Fraction when f is a perfect square, else a QuadExt over d = f.
    """
    f = _rational(f, "radicand")
    if f < 0:
        raise ValueError("negative radicand")
    if _is_square(f):
        return Fraction(math.isqrt(f.numerator), math.isqrt(f.denominator))
    return QuadExt(0, 1, f)


def _make(p: int, q: int, n: int, r: _Radicand) -> "QuadExt":
    """(p + q*sqrt(d))/n over the validated radicand r, n != 0, reduced by
    one three-way gcd to n > 0."""
    g = math.gcd(p, q, n)
    if n < 0:
        g = -g
    out = object.__new__(QuadExt)
    out._p = p // g
    out._q = q // g
    out._n = n // g
    out._r = r
    return out


def _div(p1: int, q1: int, n1: int, p2: int, q2: int, n2: int, r: _Radicand) -> "QuadExt":
    """(p1 + q1 sqrt d)/n1 over (p2 + q2 sqrt d)/n2: the numerator times
    the divisor's conjugate, over its norm, all times dd for d = dn/dd."""
    if not q2:
        if not p2:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        return _make(p1 * n2, q1 * n2, n1 * p2, r)
    _, dn, dd = r
    norm = p2 * p2 * dd - q2 * q2 * dn
    if norm == 0:
        raise ZeroDivisionError("division by zero in Q(sqrt(d))")
    return _make((p1 * p2 * dd - q1 * q2 * dn) * n2, (q1 * p2 - p1 * q2) * dd * n2,
                 n1 * norm, r)


class QuadExt:
    """a + b*sqrt(d), immutable, with exact field arithmetic."""

    __slots__ = ("_p", "_q", "_n", "_r")

    def __init__(self, a: Rationalish, b: Rationalish, d: Rationalish):
        a = _rational(a, "coefficient")
        b = _rational(b, "coefficient")
        d = _rational(d, "radicand")
        if d <= 0 or _is_square(d):
            raise ValueError(f"d = {d} must be positive and not a perfect square")
        # a and b are in lowest terms, so gcd(p, q, n) = 1 already
        n = math.lcm(a.denominator, b.denominator)
        self._p = a.numerator * (n // a.denominator)
        self._q = b.numerator * (n // b.denominator)
        self._n = n
        self._r = (d, d.numerator, d.denominator)

    @property
    def a(self) -> Fraction:
        return Fraction(self._p, self._n)

    @property
    def b(self) -> Fraction:
        return Fraction(self._q, self._n)

    @property
    def d(self) -> Fraction:
        return self._r[0]

    # -- helpers ------------------------------------------------------------

    def _parts(self, other) -> _Parts:
        """(p, q, n, r) of other as the operand of self: a rational, or a
        QuadExt over the same radicand or with b = 0, which is its rational
        a, all over self's radicand.  Next to a rational self, an
        irrational QuadExt over another radicand keeps its radicand; the
        result takes its radicand from r, so self enters as its rational
        a."""
        t = type(other)
        if t is QuadExt:
            r = other._r
            if r is self._r or r[0] == self._r[0]:
                return other._p, other._q, other._n, r
            if other._q:
                if not self._q:
                    return other._p, other._q, other._n, r
                raise ValueError(f"mixed extensions sqrt({self.d}) vs sqrt({other.d})")
            return other._p, 0, other._n, self._r
        if t is int:
            return other, 0, 1, self._r
        if t is not Fraction:
            other = _rational(other, "operand")
        return other.numerator, 0, other.denominator, self._r

    def conjugate(self) -> "QuadExt":
        return _make(self._p, -self._q, self._n, self._r)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        p, q, n, r = self._parts(other)
        m = self._n
        return _make(self._p * n + p * m, self._q * n + q * m, m * n, r)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._p, -self._q, self._n, self._r)

    def __sub__(self, other):
        p, q, n, r = self._parts(other)
        m = self._n
        return _make(self._p * n - p * m, self._q * n - q * m, m * n, r)

    def __rsub__(self, other):
        p, q, n, r = self._parts(other)
        m = self._n
        return _make(p * m - self._p * n, q * m - self._q * n, m * n, r)

    def __mul__(self, other):
        p, q, n, r = self._parts(other)
        p1, q1 = self._p, self._q
        if not (q and q1):
            return _make(p1 * p, p1 * q + q1 * p, self._n * n, r)
        _, dn, dd = r
        # (p1 + q1 sqrt d)(p + q sqrt d) = p1 p + q1 q d + (p1 q + q1 p) sqrt d
        return _make(p1 * p * dd + q1 * q * dn, (p1 * q + q1 * p) * dd, self._n * n * dd, r)

    __rmul__ = __mul__

    def __truediv__(self, other):
        p, q, n, r = self._parts(other)
        return _div(self._p, self._q, self._n, p, q, n, r)

    def __rtruediv__(self, other):
        p, q, n, r = self._parts(other)
        return _div(p, q, n, self._p, self._q, self._n, r)

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other):
        t = type(other)
        if t is QuadExt:
            # two rationals are equal whatever their radicands
            return (self._p == other._p and self._q == other._q and self._n == other._n
                    and (not self._q or self._r[0] == other._r[0]))
        if isinstance(other, float):
            _rational(other, "operand")  # raises: no silent False
        if isinstance(other, int):
            return not self._q and self._n == 1 and self._p == other
        if isinstance(other, Fraction):
            return (not self._q and self._p == other.numerator
                    and self._n == other.denominator)
        return NotImplemented

    def __hash__(self):
        if not self._q:
            return hash(Fraction(self._p, self._n))
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return bool(self._p or self._q)

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d) with d > 0: that of p + q*sqrt(d)."""
        p, q = self._p, self._q
        if not q:
            return -1 if p < 0 else (1 if p > 0 else 0)
        if not p:
            return 1 if q > 0 else -1
        if (p > 0) == (q > 0):
            return 1 if p > 0 else -1
        # opposite signs: compare p^2 against q^2 d, both times dd
        _, dn, dd = self._r
        lhs = p * p * dd
        rhs = q * q * dn
        if p > 0:  # q < 0
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return 1 if lhs < rhs else (-1 if lhs > rhs else 0)

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __repr__(self):
        return f"QuadExt({self.a}, {self.b}, sqrt({self.d}))"

    def __str__(self):
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        if a == 0:
            return f"{b}*sqrt({self.d})"
        op = "+" if b > 0 else "-"
        return f"{a} {op} {abs(b)}*sqrt({self.d})"
