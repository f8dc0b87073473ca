"""Exact arithmetic in a real quadratic extension Q(sqrt(d)).

Used where eigenvalues of exact rational maps are irrational but live in a
degree-2 extension (the invariant-line computation of the 4D frame).  Every
element is a + b*sqrt(d) with a, b rational and d a fixed positive rational
that is not a perfect square.  Sign tests are exact, so ordering decisions
never touch floating point.

Elements with b = 0 are rationals: two compare by a whatever their
radicands, and one met in the arithmetic of an element over another
radicand, as either operand, enters as its a.  Arithmetic between two
b != 0 elements over different radicands raises ValueError.

The constructor validates d.  Arithmetic results reuse the d of an
operand, already validated, and are built without repeating the check.
An int or Fraction operand enters the arithmetic as it is: adding r moves
only a, multiplying by r scales a and b, with no field element built for
r.  Between two field elements, +, -, * and / read a, b and d as
integer ratios (_ints) and build each part of the result as one Fraction
of an integer numerator over an integer denominator, reduced once.  A
float is refused everywhere with ValueError: it would be read as
the binary fraction it stores, not the decimal it was written as.  So is
a string, which Fraction would parse as a number.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple, Union

Rationalish = Union[int, Fraction]


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


def _ints(x: "QuadExt") -> Tuple[int, int, int, int]:
    """The numerators and denominators of x.a and x.b."""
    return (*x.a.as_integer_ratio(), *x.b.as_integer_ratio())


def _make(a: Fraction, b: Fraction, d: Fraction) -> "QuadExt":
    """a + b*sqrt(d) from Fractions and a radicand that has been validated."""
    out = object.__new__(QuadExt)
    out.a = a
    out.b = b
    out.d = d
    return out


class QuadExt:
    """a + b*sqrt(d), immutable, with exact field arithmetic."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Rationalish, b: Rationalish, d: Rationalish):
        self.a = _rational(a, "coefficient")
        self.b = _rational(b, "coefficient")
        self.d = _rational(d, "radicand")
        if self.d <= 0 or _is_square(self.d):
            raise ValueError(f"d = {self.d} must be positive and not a perfect square")

    # -- helpers ------------------------------------------------------------

    def _coerce(self, other) -> "QuadExt":
        """other as the operand of self: a rational, or a QuadExt over the
        same radicand or with b = 0, which is its rational a, all over
        self's radicand.  Next to a rational self, an irrational QuadExt
        over another radicand is returned as it is; the operators take the
        radicand of their result from the operand, so self enters as its
        rational a."""
        if isinstance(other, QuadExt):
            if other.d == self.d:
                return other
            if other.b:
                if not self.b:
                    return other
                raise ValueError(f"mixed extensions sqrt({self.d}) vs sqrt({other.d})")
            other = other.a
        return _make(_rational(other, "operand"), Fraction(0), self.d)

    def conjugate(self) -> "QuadExt":
        return _make(self.a, -self.b, self.d)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return _make(self.a + other, self.b, self.d)
        o = self._coerce(other)
        (p, q, r, s), (u, v, w, x) = _ints(self), _ints(o)
        return _make(Fraction(p * v + u * q, q * v), Fraction(r * x + w * s, s * x), o.d)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.a, -self.b, self.d)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return _make(self.a - other, self.b, self.d)
        o = self._coerce(other)
        (p, q, r, s), (u, v, w, x) = _ints(self), _ints(o)
        return _make(Fraction(p * v - u * q, q * v), Fraction(r * x - w * s, s * x), o.d)

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return _make(other - self.a, -self.b, self.d)
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _make(self.a * other, self.b * other, self.d)
        o = self._coerce(other)
        (p, q, r, s), (u, v, w, x), (dn, dd) = _ints(self), _ints(o), o.d.as_integer_ratio()
        # a a' + b b' d = (p/q)(u/v) + (r/s)(w/x)(dn/dd), a b' + b a' likewise
        qv, sx = q * v, s * x
        return _make(Fraction(p * u * sx * dd + r * w * dn * qv, qv * sx * dd),
                     Fraction(p * w * s * v + r * u * q * x, qv * sx), o.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        (p, q, r, s), (u, v, w, x), (dn, dd) = _ints(self), _ints(o), o.d.as_integer_ratio()
        # (a + b sqrt d)(a' - b' sqrt d) / (a'^2 - b'^2 d) with a' = u/v and
        # b' = w/x written over v x: a' = u x / v x, b' = w v / v x
        u, w, v = u * x, w * v, v * x
        norm = u * u * dd - w * w * dn
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        qs = q * s * norm
        return _make(Fraction((p * u * s * dd - r * w * dn * q) * v, qs),
                     Fraction((r * u * q - p * w * s) * v * dd, qs), o.d)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, float):
            _rational(other, "operand")  # raises: no silent False
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadExt):
            # two rationals are equal whatever their radicands
            return self.a == other.a and self.b == other.b and (not self.b or self.d == other.d)
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d) with d > 0."""
        a, b = self.a, self.b
        if b == 0:
            return -1 if a < 0 else (1 if a > 0 else 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 against b^2 d
        lhs = a * a
        rhs = b * b * self.d
        if a > 0:  # b < 0
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return 1 if lhs < rhs else (-1 if lhs > rhs else 0)

    def __lt__(self, other):
        return (self - self._coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - self._coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - self._coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - self._coerce(other)).sign() >= 0

    def __repr__(self):
        return f"QuadExt({self.a}, {self.b}, sqrt({self.d}))"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt({self.d})"
        op = "+" if self.b > 0 else "-"
        return f"{self.a} {op} {abs(self.b)}*sqrt({self.d})"
