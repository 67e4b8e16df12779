"""Exact Gaussian-rational scalars.

A GaussRat is (a + b*i)/q for Python ints a, b and q, always kept in one
canonical form: q > 0, gcd(a, b, q) = 1, and zero is (0, 0, 1).  So all
arithmetic is exact integer arithmetic and equality is structural.
Every result passes through ``_norm``, which skips the gcd when q = 1;
sums over a common denominator and products with a real factor or an
int take shorter paths, and x * ONE and ONE * x are x itself.  ``re``
and ``im`` read the parts back as Fractions; ``parts`` gives the ints
(a, b, q) and ``from_parts`` makes (a + b*i)/q from any ints, for the
Gaussian-integer elimination in ``linalg``.  Configs and reports write
"p/q" for real values and "p/q+r/s i" (or "p/q-r/s i") otherwise, each
part in lowest terms.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd


def _coerce(x):
    cls = x.__class__
    if cls is GaussRat:
        return x
    if cls is int:
        return _norm(x, 0, 1)
    if isinstance(x, (int, Fraction)):
        return _norm(x.numerator, 0, x.denominator)
    return NotImplemented


class GaussRat:
    __slots__ = ("_a", "_b", "_q")

    def __new__(cls, re=0, im=0):
        if re.__class__ is int and im.__class__ is int:
            return _norm(re, im, 1)
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError("GaussRat parts must be exact, not float")
        re, im = Fraction(re), Fraction(im)
        return _norm(re.numerator * im.denominator,
                     im.numerator * re.denominator,
                     re.denominator * im.denominator)

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the normaliser
        return _norm, (self._a, self._b, self._q)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._q)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._q)

    def parts(self):
        """(a, b, q), the ints with self = (a + b i)/q in canonical form."""
        return self._a, self._b, self._q

    @staticmethod
    def from_parts(a: int, b: int, q: int) -> "GaussRat":
        """(a + b i)/q for ints a, b and q > 0."""
        return _norm(a, b, q)

    _coerce = staticmethod(_coerce)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not GaussRat:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        q, r = self._q, other._q
        if q == r:
            return _norm(self._a + other._a, self._b + other._b, q)
        return _norm(self._a * r + other._a * q, self._b * r + other._b * q,
                     q * r)

    __radd__ = __add__

    def __neg__(self):
        return _norm(-self._a, -self._b, self._q)

    def __sub__(self, other):
        if other.__class__ is not GaussRat:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        q, r = self._q, other._q
        if q == r:
            return _norm(self._a - other._a, self._b - other._b, q)
        return _norm(self._a * r - other._a * q, self._b * r - other._b * q,
                     q * r)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        cls = other.__class__
        if cls is not GaussRat:
            if cls is int:
                return _norm(self._a * other, self._b * other, self._q)
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if other is ONE:
            return self
        if self is ONE:
            return other
        a, b, c, d = self._a, self._b, other._a, other._b
        if not d:
            return _norm(a * c, b * c, self._q * other._q)
        if not b:
            return _norm(a * c, a * d, self._q * other._q)
        return _norm(a * c - b * d, a * d + b * c, self._q * other._q)

    __rmul__ = __mul__

    def inverse(self) -> "GaussRat":
        # q / (a + b i) = q (a - b i) / (a^2 + b^2)
        a, b, q = self._a, self._b, self._q
        if not b:
            if not a:
                raise ZeroDivisionError("division by zero GaussRat")
            return _norm(q, 0, a) if a > 0 else _norm(-q, 0, -a)
        return _norm(q * a, -q * b, a * a + b * b)

    # -- comparison / hashing -----------------------------------------

    def __eq__(self, other):
        if other.__class__ is not GaussRat:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return (self._a == other._a and self._b == other._b
                and self._q == other._q)

    def __hash__(self):
        # a real value hashes like the equal int or Fraction
        return hash((self.re, self.im)) if self._b else hash(self.re)

    def __bool__(self):
        return self._a != 0 or self._b != 0

    # -- formatting ---------------------------------------------------

    def __str__(self):
        a, b, q = self._a, self._b, self._q
        g = gcd(a, q)
        re_s = f"{a // g}/{q // g}"
        if not b:
            return re_s
        g = gcd(b, q)
        sign = "+" if b > 0 else "-"
        return f"{re_s}{sign}{abs(b) // g}/{q // g} i"

    def __repr__(self):
        return f"GaussRat({self})"


_new = object.__new__
_set_a = GaussRat._a.__set__
_set_b = GaussRat._b.__set__
_set_q = GaussRat._q.__set__


def _norm(a: int, b: int, q: int) -> GaussRat:
    """GaussRat (a + b i)/q for q > 0, reduced to canonical form; every
    GaussRat is made here."""
    if q != 1:
        g = gcd(a, b, q)
        if g != 1:
            a //= g
            b //= g
            q //= g
    out = _new(GaussRat)
    _set_a(out, a)
    _set_b(out, b)
    _set_q(out, q)
    return out


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
