"""The commutative coefficient algebra B and its evaluation map.

Every supported B is a quotient of F[x, x^-1], and every element is held
the same way: (re + im i)/den for one denominator den > 0 and the
Gaussian-integer numerators, re and im each a sparse map from exponent
to nonzero int, in lowest terms.

* trivial  -- B = F, exponent 0 only; evaluation is the identity;
* polyquot -- B = F[x]/(m(x)) for a monic m with m(a) = 0, exponents
  below deg m (products are reduced modulo m); evaluation at a;
* laurent  -- B = F[x, x^-1], any exponent; evaluation at a nonzero a.

The form is canonical, so equality is structural.  GaussRat comes in
through from_poly and out through rep and psi.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Dict, List, Optional, Tuple

from .linalg import add_into, add_times, gauss_entries, int_vec
from .scalars import GaussRat, ONE, ZERO

Poly = List[GaussRat]  # coefficients, low to high, no trailing zeros
Part = Dict[int, int]  # exponent -> int: the real or imaginary parts


class BPresentation:
    """A fixed presentation of B and its evaluation point, with the
    modulus cleared to Gaussian integers and the point's powers cached."""

    def __init__(self, kind: str, modulus: Optional[Poly] = None,
                 eval_point: Optional[GaussRat] = None):
        if kind not in ("trivial", "polyquot", "laurent"):
            raise ValueError(f"unknown presentation kind: {kind!r}")
        self.kind = kind
        self.modulus = None
        self.eval_point = eval_point if eval_point is not None else ZERO
        # e -> a^e as the parts (re, im, q) of its GaussRat
        self._powers = {0: (1, 0, 1)}
        if kind == "polyquot":
            modulus = list(modulus or [])
            while modulus and not modulus[-1]:
                modulus.pop()
            if len(modulus) < 2:
                raise ValueError("polyquot needs a modulus of degree >= 1")
            if modulus[-1] != ONE:
                raise ValueError("modulus must be monic")
            self.modulus = modulus
            # D m in Gaussian integers, D the least common denominator;
            # psi evaluates it unreduced, so D m(a) comes out
            (re, im), den = int_vec(dict(enumerate(modulus)))
            if BElem(self, den, re, im).psi():
                raise ValueError("eval_point must be a root of the modulus")
            self._cleared = den, re, im
        elif kind == "laurent":
            if not self.eval_point:
                raise ValueError("laurent eval_point must be nonzero")

    def __eq__(self, other):
        return other is self or (isinstance(other, BPresentation)
                                 and self.kind == other.kind
                                 and self.modulus == other.modulus
                                 and self.eval_point == other.eval_point)

    def __repr__(self):
        return f"BPresentation({self.kind!r})"

    def reduce(self, den: int, re: Part, im: Part) -> Tuple[int, Part, Part]:
        """(re + im i)/den modulo the modulus, one degree at a time from
        the top, each step multiplying den by D; zero parts may stay."""
        if self.modulus is None:
            return den, re, im
        d = len(self.modulus) - 1
        D, m_re, m_im = self._cleared
        for top in range(max([0, *re, *im]), d - 1, -1):
            cr, ci = re.get(top, 0), im.get(top, 0)
            if cr or ci:
                if D != 1:
                    den *= D
                    re, im = ({e: D * x for e, x in p.items()} for p in [re, im])
                # D c x^top - c x^(top - d) D m leaves 0 at x^top
                add_times(re, im, top - d, -cr, -ci, m_re, m_im)
        return den, re, im

    def element(self, den: int, re: Part, im: Part) -> "BElem":
        """The element (re + im i)/den, its exponents in range, with zero
        parts dropped and divided by the gcd of den and the parts."""
        if 0 in re.values():
            re = {e: x for e, x in re.items() if x}
        if 0 in im.values():
            im = {e: x for e, x in im.items() if x}
        g = gcd(den, *re.values(), *im.values()) if den != 1 else 1
        if g != 1:
            den //= g
            re = {e: x // g for e, x in re.items()}
            im = {e: x // g for e, x in im.items()}
        return BElem(self, den, re, im)

    def eval_power(self, e: int) -> Tuple[int, int, int]:
        """a^e as its GaussRat's parts (re, im, q), cached."""
        if e not in self._powers:
            x, p = self.eval_point, ONE
            for bit in bin(abs(e))[2:]:
                p = p * p * x if bit == "1" else p * p
            self._powers[e] = (p if e > 0 else p.inverse()).parts()
        return self._powers[e]

    # -- element constructors -----------------------------------------

    def zero(self) -> "BElem":
        return BElem(self, 1, {}, {})

    def one(self) -> "BElem":
        return BElem(self, 1, {0: 1}, {})

    def from_scalar(self, c) -> "BElem":
        return self.from_poly({0: c})

    def generator(self) -> "BElem":
        """The distinguished generator x (undefined for trivial B)."""
        if self.kind == "trivial":
            raise ValueError("trivial presentation has no generator")
        return self.from_poly({1: ONE})

    def from_poly(self, coeffs: Dict[int, GaussRat]) -> "BElem":
        """Element from an exponent -> coefficient map (laurent allows < 0)."""
        low, out = {}, self.zero()
        for e, c in coeffs.items():
            if e and self.kind == "trivial":
                raise ValueError("trivial B has only scalars")
            if e < 0 and self.kind != "laurent":
                raise ValueError("negative exponents need the laurent presentation")
            c = c if isinstance(c, GaussRat) else GaussRat(c)
            if self.modulus and e >= 2 * len(self.modulus) - 2:
                # square-and-multiply: c x^e = (x^(e // 2))^2 c x^(e % 2)
                half = self.from_poly({e // 2: ONE})
                out = out + half * half * self.from_poly({e % 2: c})
            else:
                low[e] = c
        (re, im), den = int_vec(low)
        return out + self.element(*self.reduce(den, re, im))


class BElem:
    """Canonical element (re + im i)/den of a B presentation: den > 0,
    re and im map exponent to nonzero int, gcd(den, parts) = 1.  The
    constructor takes that form as it is (BPresentation.element)."""

    __slots__ = ("pres", "den", "re", "im", "_psi")

    def __init__(self, pres: BPresentation, den: int, re: Part, im: Part):
        self.pres = pres
        self.den = den
        self.re = re
        self.im = im
        self._psi = None

    @property
    def rep(self) -> Dict[int, GaussRat]:
        """exponent -> nonzero GaussRat coefficient, for printing."""
        return gauss_entries(self.re, self.im, self.den)

    def _check(self, other: "BElem"):
        if self.pres != other.pres:
            raise ValueError("mixed B presentations")

    def __add__(self, other: "BElem") -> "BElem":
        self._check(other)
        den = lcm(self.den, other.den)
        f, g = den // self.den, den // other.den
        re = {e: f * x for e, x in self.re.items()}
        im = {e: f * x for e, x in self.im.items()}
        add_into(re, other.re, g)
        add_into(im, other.im, g)
        return self.pres.element(den, re, im)

    def __neg__(self) -> "BElem":
        return BElem(self.pres, self.den, {e: -x for e, x in self.re.items()},
                     {e: -x for e, x in self.im.items()})

    def __sub__(self, other: "BElem") -> "BElem":
        return self + (-other)

    def __mul__(self, other) -> "BElem":
        if not isinstance(other, BElem):
            c = GaussRat._coerce(other)
            return NotImplemented if c is NotImplemented else self.scale(c)
        self._check(other)
        return self.pres.element(*self.pres.reduce(*product(self, other)))

    __rmul__ = __mul__

    def scale(self, c: GaussRat) -> "BElem":
        """c b, carrying c psi(b) when psi(b) is cached and c b is not
        zero: psi is linear.  Products evaluate psi afresh."""
        a, b, q = c.parts()
        if not b and q == 1 and a in (0, 1):
            return self if a else self.pres.zero()
        re, im = {}, {}
        add_times(re, im, 0, a, b, self.re, self.im)
        out = self.pres.element(self.den * q, re, im)
        if self._psi is not None and not out.is_zero():
            out._psi = self._psi * c
        return out

    def __eq__(self, other):
        return (isinstance(other, BElem) and self.pres == other.pres
                and self.den == other.den and self.re == other.re
                and self.im == other.im)

    def is_zero(self) -> bool:
        return not (self.re or self.im)

    def psi(self) -> GaussRat:
        """Evaluation homomorphism into the scalar field: the sum of
        c * a^e at the evaluation point a, over one denominator (cached)."""
        if self._psi is None:
            re, im, q, sr, si = self.re, self.im, 1, 0, 0
            for e in re.keys() | im.keys():
                pr, pi, pq = self.pres.eval_power(e)
                m = lcm(q, pq)  # the sum so far is (sr + si i)/q
                f, g = m // q, m // pq
                cr, ci = re.get(e, 0) * g, im.get(e, 0) * g
                sr = sr * f + cr * pr - ci * pi
                si, q = si * f + cr * pi + ci * pr, m
            self._psi = GaussRat.from_parts(sr, si, q * self.den)
        return self._psi

    def __str__(self):
        """The form printed in bracket output and report witnesses: a bare
        real scalar, or a parenthesised sum of c*x^e terms, from x^0 up
        (polyquot) or from the top exponent down (laurent)."""
        items = sorted(self.rep.items(), reverse=self.pres.kind == "laurent")
        if not items:
            return "0"
        if len(items) == 1 and items[0][0] == 0:
            return _format_scalar(items[0][1])
        out = ""
        for e, c in items:
            cs = _format_scalar(c)
            if e:
                mono = "x" if e == 1 else f"x^{e}"
                cs = {"1": mono, "-1": f"-{mono}"}.get(cs, f"{cs}*{mono}")
            out += cs if not out or cs.startswith("-") else f"+{cs}"
        return f"({out})"

    def __repr__(self):
        return f"BElem({self})"


def product(x: BElem, y: BElem) -> Tuple[int, Part, Part]:
    """x y before reduction, as (den, re, im); zero parts may stay."""
    re, im = {}, {}
    for e in x.re.keys() | x.im.keys():
        add_times(re, im, e, x.re.get(e, 0), x.im.get(e, 0), y.re, y.im)
    return x.den * y.den, re, im


def _format_scalar(c: GaussRat) -> str:
    """Short scalar form for printing: omit unit denominators."""
    if c.im == 0:
        f = c.re
        return str(f.numerator) if f.denominator == 1 else f"{f}"
    return f"({c})"
