"""Exact Gaussian-rational scalars.

A GaussRat is a + b*i with a, b Python Fractions, so all arithmetic is
exact and equality is structural (Fraction already normalizes to lowest
terms with positive denominator).  The string form used everywhere in
configs and reports is "p/q" for real values and "p/q+r/s i" (or
"p/q-r/s i") when the imaginary part is nonzero.
"""

from __future__ import annotations

import re
from fractions import Fraction


class GaussRat:
    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError("GaussRat parts must be exact, not float")
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    @classmethod
    def _new(cls, re: Fraction, im: Fraction) -> "GaussRat":
        # fast internal constructor for parts that are already Fractions
        out = object.__new__(cls)
        object.__setattr__(out, "re", re)
        object.__setattr__(out, "im", im)
        return out

    # -- coercion -----------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, GaussRat):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussRat(x)
        return NotImplemented

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussRat._new(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRat._new(-self.re, -self.im)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussRat._new(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.im and not other.im:
            return GaussRat._new(self.re * other.re, self.im)
        return GaussRat._new(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussRat":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussRat")
        return GaussRat._new(self.re / n, -self.im / n)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def conj(self) -> "GaussRat":
        return GaussRat(self.re, -self.im)

    # -- comparison / hashing -----------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real value hashes like the equal int or Fraction
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_zero(self) -> bool:
        return not self

    # -- formatting ---------------------------------------------------

    def __str__(self):
        re_s = f"{self.re.numerator}/{self.re.denominator}"
        if self.im == 0:
            return re_s
        sign = "+" if self.im >= 0 else "-"
        a = abs(self.im)
        return f"{re_s}{sign}{a.numerator}/{a.denominator} i"

    def __repr__(self):
        return f"GaussRat({self})"


ZERO = GaussRat(0)
ONE = GaussRat(1)
I = GaussRat(0, 1)

_NUM = re.compile(r"^[+-]?\d+(?:/0*[1-9]\d*)?$")  # nonzero denominator


def _frac(s: str) -> Fraction:
    s = s.strip()
    if not _NUM.match(s):
        raise ValueError(f"cannot parse rational: {s!r}")
    return Fraction(s)


def parse_gauss(s: str) -> GaussRat:
    """Parse "p/q", "p/q+r/s i", "-3", "i", "2i", "1/2-3/4 i" forms."""
    body = s.strip()
    if not body:
        raise ValueError("empty Gaussian rational")
    if not body.endswith("i"):
        return GaussRat(_frac(body))
    body = body[:-1].strip()
    # locate the sign separating real and imaginary parts (not a leading
    # sign and not part of a fraction)
    split = -1
    for k in range(1, len(body)):
        if body[k] in "+-" and body[k - 1] not in "+-/":
            split = k
    if split < 0:
        if body in ("", "+"):
            return GaussRat(0, 1)
        if body == "-":
            return GaussRat(0, -1)
        return GaussRat(0, _frac(body))
    re_part = _frac(body[:split])
    im_body = body[split:].strip()
    if im_body in ("+", "-"):
        im_part = Fraction(1 if im_body == "+" else -1)
    else:
        im_part = Fraction(im_body[0] + "1") * _frac(im_body[1:])
    return GaussRat(re_part, im_part)
