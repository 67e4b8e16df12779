"""The commutative coefficient algebra B and its evaluation map.

Every supported B is a quotient of F[x, x^-1], and every element is held
the same way: a sparse map from exponent to nonzero coefficient.

* trivial  -- B = F, exponent 0 only; evaluation is the identity;
* polyquot -- B = F[x]/(m(x)) for a monic m with m(a) = 0, exponents
  below deg m (products are reduced modulo m); evaluation at a;
* laurent  -- B = F[x, x^-1], any exponent; evaluation at a nonzero a.

The map is canonical, so equality is structural.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .scalars import GaussRat, ONE, ZERO

Poly = List[GaussRat]  # coefficients, low to high, no trailing zeros


def poly_eval(p: Poly, x: GaussRat) -> GaussRat:
    acc = ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


class BPresentation:
    """A fixed presentation of B together with its evaluation point."""

    def __init__(self, kind: str, modulus: Optional[Poly] = None,
                 eval_point: Optional[GaussRat] = None):
        if kind not in ("trivial", "polyquot", "laurent"):
            raise ValueError(f"unknown presentation kind: {kind!r}")
        self.kind = kind
        self.modulus = None
        self.eval_point = eval_point if eval_point is not None else ZERO
        if kind == "polyquot":
            modulus = list(modulus or [])
            while modulus and not modulus[-1]:
                modulus.pop()
            if len(modulus) < 2:
                raise ValueError("polyquot needs a modulus of degree >= 1")
            if modulus[-1] != ONE:
                raise ValueError("modulus must be monic")
            if poly_eval(modulus, self.eval_point):
                raise ValueError("eval_point must be a root of the modulus")
            self.modulus = modulus
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

    def reduce(self, p: Dict[int, GaussRat]) -> Dict[int, GaussRat]:
        """p modulo the monic modulus, in place (p itself if there is none)."""
        m = self.modulus
        if m is None:
            return p
        d = len(m) - 1
        for top in range(max(p, default=0), d - 1, -1):
            c = p.pop(top, ZERO)
            if c:
                off = top - d
                for k in range(d):
                    if m[k]:
                        p[off + k] = p.get(off + k, ZERO) - c * m[k]
        return p

    # -- element constructors -----------------------------------------

    def zero(self) -> "BElem":
        return self.from_scalar(ZERO)

    def one(self) -> "BElem":
        return self.from_scalar(ONE)

    def from_scalar(self, c) -> "BElem":
        return self.from_poly({0: c})

    def generator(self) -> "BElem":
        """The distinguished generator x (undefined for trivial B)."""
        if self.kind == "trivial":
            raise ValueError("trivial presentation has no generator")
        return self.from_poly({1: ONE})

    def from_poly(self, coeffs: Dict[int, GaussRat]) -> "BElem":
        """Element from an exponent -> coefficient map (laurent allows < 0)."""
        rep = {}
        for e, c in coeffs.items():
            if e and self.kind == "trivial":
                raise ValueError("trivial B has only scalars")
            if e < 0 and self.kind != "laurent":
                raise ValueError("negative exponents need the laurent presentation")
            rep[e] = c if isinstance(c, GaussRat) else GaussRat(c)
        return BElem(self, self.reduce(rep))


class BElem:
    """Canonical element of a B presentation; rep maps exponent to a
    nonzero coefficient."""

    __slots__ = ("pres", "rep", "_psi")

    def __init__(self, pres: BPresentation, rep: Dict[int, GaussRat]):
        self.pres = pres
        self.rep = {e: c for e, c in rep.items() if c}
        self._psi = None

    def _check(self, other: "BElem"):
        if self.pres != other.pres:
            raise ValueError("mixed B presentations")

    def __add__(self, other: "BElem") -> "BElem":
        self._check(other)
        out = dict(self.rep)
        for e, c in other.rep.items():
            out[e] = out[e] + c if e in out else c
        return BElem(self.pres, out)

    def __neg__(self) -> "BElem":
        return BElem(self.pres, {e: -c for e, c in self.rep.items()})

    def __sub__(self, other: "BElem") -> "BElem":
        return self + (-other)

    def __mul__(self, other) -> "BElem":
        if not isinstance(other, BElem):
            c = GaussRat._coerce(other)
            return NotImplemented if c is NotImplemented else self.scale(c)
        self._check(other)
        out: Dict[int, GaussRat] = {}
        for e1, c1 in self.rep.items():
            for e2, c2 in other.rep.items():
                e, c = e1 + e2, c1 * c2
                out[e] = out[e] + c if e in out else c
        return BElem(self.pres, self.pres.reduce(out))

    __rmul__ = __mul__

    def scale(self, c: GaussRat) -> "BElem":
        return BElem(self.pres, {e: c * x for e, x in self.rep.items()})

    def __eq__(self, other):
        return (isinstance(other, BElem) and self.pres == other.pres
                and self.rep == other.rep)

    def __hash__(self):
        return hash(frozenset(self.rep.items()))

    def is_zero(self) -> bool:
        return not self.rep

    def psi(self) -> GaussRat:
        """Evaluation homomorphism into the scalar field: the sum of
        c * a^e at the evaluation point a (cached)."""
        if self._psi is None:
            a = self.pres.eval_point
            acc = ZERO
            for e, c in self.rep.items():
                p = a if e >= 0 else a.inverse()
                for _ in range(abs(e)):
                    c = c * p
                acc = acc + c
            self._psi = acc
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
        parts = []
        for e, c in items:
            mono = "" if e == 0 else ("x" if e == 1 else f"x^{e}")
            cs = _format_scalar(c)
            if mono and cs == "1":
                piece = mono
            elif mono and cs == "-1":
                piece = f"-{mono}"
            elif mono:
                piece = f"{cs}*{mono}"
            else:
                piece = cs
            parts.append(piece)
        out = parts[0]
        for piece in parts[1:]:
            out += piece if piece.startswith("-") else f"+{piece}"
        return f"({out})"

    def __repr__(self):
        return f"BElem({self})"


def _format_scalar(c: GaussRat) -> str:
    """Short scalar form for printing: omit unit denominators."""
    if c.im == 0:
        f = c.re
        return str(f.numerator) if f.denominator == 1 else f"{f}"
    return f"({c})"
