"""The commutative coefficient algebra B, its evaluation map and ideal powers.

Three concrete presentations are supported:

* trivial  -- B is the scalar field itself, evaluation is the identity;
* polyquot -- B = F[x]/(m(x)) for a monic m with m(a) = 0, evaluation at a;
* laurent  -- B = F[x, x^-1], evaluation at a nonzero point a.

Elements carry a canonical representative (reduced polynomial, finite
Laurent polynomial, or scalar) so equality is structural.  The maximal
ideal M is the kernel of the evaluation map; membership in M^k is
decided by exact linear algebra (polyquot) or by exact division by
(x - a)^k (laurent).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .linalg import SpanBasis
from .scalars import GaussRat, ONE, ZERO

Poly = List[GaussRat]  # coefficients, low to high, no trailing zeros


def poly_trim(p: Poly) -> Poly:
    while p and not p[-1]:
        p.pop()
    return p


def poly_add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    out = []
    for k in range(n):
        a = p[k] if k < len(p) else ZERO
        b = q[k] if k < len(q) else ZERO
        out.append(a + b)
    return poly_trim(out)


def poly_neg(p: Poly) -> Poly:
    return [-c for c in p]


def poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return []
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] = out[i + j] + a * b
    return poly_trim(out)


def poly_mod(p: Poly, m: Poly) -> Poly:
    """Remainder of p modulo the monic polynomial m."""
    r = list(p)
    d = len(m) - 1
    while len(r) > d:
        c = r[-1]
        if c:
            off = len(r) - 1 - d
            for k in range(d):
                if m[k]:
                    r[off + k] = r[off + k] - c * m[k]
        r.pop()
    return poly_trim(r)


def poly_eval(p: Poly, x: GaussRat) -> GaussRat:
    acc = ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_pow_linear(a: GaussRat, k: int) -> Poly:
    """(x - a)^k as a coefficient list."""
    out: Poly = [ONE]
    for _ in range(k):
        out = poly_mul(out, [-a, ONE])
    return out


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
            if modulus is None or len(modulus) < 2:
                raise ValueError("polyquot needs a modulus of degree >= 1")
            modulus = poly_trim(list(modulus))
            if modulus[-1] != ONE:
                raise ValueError("modulus must be monic")
            if poly_eval(modulus, self.eval_point):
                raise ValueError("eval_point must be a root of the modulus")
            self.modulus = modulus
        elif kind == "laurent":
            if not self.eval_point:
                raise ValueError("laurent eval_point must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.modulus) - 1 if self.modulus else 0

    def __eq__(self, other):
        return (isinstance(other, BPresentation)
                and self.kind == other.kind
                and self.modulus == other.modulus
                and self.eval_point == other.eval_point)

    def __repr__(self):
        return f"BPresentation({self.kind!r})"

    # -- element constructors -----------------------------------------

    def zero(self) -> "BElem":
        return self.from_scalar(ZERO)

    def one(self) -> "BElem":
        return self.from_scalar(ONE)

    def from_scalar(self, c) -> "BElem":
        c = c if isinstance(c, GaussRat) else GaussRat(c)
        if self.kind == "trivial":
            return BElem(self, c)
        if self.kind == "polyquot":
            return BElem(self, poly_trim([c]))
        return BElem(self, {0: c} if c else {})

    def generator(self) -> "BElem":
        """The distinguished generator x (undefined for trivial B)."""
        if self.kind == "trivial":
            raise ValueError("trivial presentation has no generator")
        if self.kind == "polyquot":
            return BElem(self, poly_mod([ZERO, ONE], self.modulus))
        return BElem(self, {1: ONE})

    def from_poly(self, coeffs: Dict[int, GaussRat]) -> "BElem":
        """Element from an exponent -> coefficient map (laurent allows < 0)."""
        out = self.zero()
        x = self.generator() if self.kind != "trivial" else None
        for e, c in coeffs.items():
            if self.kind == "trivial":
                if e != 0:
                    raise ValueError("trivial B has only scalars")
                out = out + self.from_scalar(c)
                continue
            if e < 0 and self.kind != "laurent":
                raise ValueError("negative exponents need the laurent presentation")
            if self.kind == "laurent":
                term = BElem(self, {e: GaussRat._coerce(c)})
            else:
                mono = poly_mod([ZERO] * e + [ONE], self.modulus)
                term = BElem(self, mono) * self.from_scalar(c)
            out = out + term
        return out

    def nilpotency_index(self) -> Optional[int]:
        """Smallest k with M^k = 0, or None if no power of M vanishes."""
        if self.kind == "trivial":
            return 1
        if self.kind == "laurent":
            return None
        d = self.degree
        if self.modulus == poly_pow_linear(self.eval_point, d):
            return d
        return None

    def _ideal_power_span(self, k: int) -> SpanBasis:
        # column span of multiplication by (x-a)^k on the quotient basis
        d = self.degree
        g = poly_mod(poly_pow_linear(self.eval_point, k), self.modulus)
        span = SpanBasis(d)
        mono: Poly = [ONE]
        for _ in range(d):
            col = poly_mod(poly_mul(g, mono), self.modulus)
            span.insert(col + [ZERO] * (d - len(col)))
            mono = [ZERO] + mono
        return span


class BElem:
    """Canonical element of a B presentation.

    rep is a GaussRat (trivial), a reduced coefficient list (polyquot)
    or a sparse exponent map (laurent).
    """

    __slots__ = ("pres", "rep", "_psi")

    def __init__(self, pres: BPresentation, rep):
        self.pres = pres
        if pres.kind == "laurent":
            rep = {e: c for e, c in rep.items() if c}
        self.rep = rep
        self._psi = None

    def _check(self, other: "BElem"):
        if self.pres != other.pres:
            raise ValueError("mixed B presentations")

    def __add__(self, other: "BElem") -> "BElem":
        self._check(other)
        k = self.pres.kind
        if k == "trivial":
            return BElem(self.pres, self.rep + other.rep)
        if k == "polyquot":
            return BElem(self.pres, poly_add(self.rep, other.rep))
        out = dict(self.rep)
        for e, c in other.rep.items():
            out[e] = out.get(e, ZERO) + c
        return BElem(self.pres, out)

    def __neg__(self) -> "BElem":
        k = self.pres.kind
        if k == "trivial":
            return BElem(self.pres, -self.rep)
        if k == "polyquot":
            return BElem(self.pres, poly_neg(self.rep))
        return BElem(self.pres, {e: -c for e, c in self.rep.items()})

    def __sub__(self, other: "BElem") -> "BElem":
        return self + (-other)

    def __mul__(self, other) -> "BElem":
        if not isinstance(other, BElem):
            c = GaussRat._coerce(other)
            return NotImplemented if c is NotImplemented else self.scale(c)
        self._check(other)
        k = self.pres.kind
        if k == "trivial":
            return BElem(self.pres, self.rep * other.rep)
        if k == "polyquot":
            return BElem(self.pres, poly_mod(poly_mul(self.rep, other.rep),
                                             self.pres.modulus))
        out: Dict[int, GaussRat] = {}
        for e1, c1 in self.rep.items():
            for e2, c2 in other.rep.items():
                e = e1 + e2
                out[e] = out.get(e, ZERO) + c1 * c2
        return BElem(self.pres, out)

    __rmul__ = __mul__

    def scale(self, c: GaussRat) -> "BElem":
        k = self.pres.kind
        if k == "trivial":
            return BElem(self.pres, self.rep * c)
        if k == "polyquot":
            return BElem(self.pres, poly_trim([c * x for x in self.rep]))
        return BElem(self.pres, {e: c * x for e, x in self.rep.items()})

    def __eq__(self, other):
        return (isinstance(other, BElem) and self.pres == other.pres
                and self.rep == other.rep)

    def __hash__(self):
        k = self.pres.kind
        if k == "trivial":
            return hash(self.rep)
        if k == "polyquot":
            return hash(tuple(self.rep))
        return hash(frozenset(self.rep.items()))

    def is_zero(self) -> bool:
        k = self.pres.kind
        if k == "trivial":
            return self.rep.is_zero()
        return not self.rep

    def psi(self) -> GaussRat:
        """Evaluation homomorphism into the scalar field (cached)."""
        if self._psi is None:
            self._psi = self._eval_psi()
        return self._psi

    def _eval_psi(self) -> GaussRat:
        k = self.pres.kind
        if k == "trivial":
            return self.rep
        a = self.pres.eval_point
        if k == "polyquot":
            return poly_eval(self.rep, a)
        acc = ZERO
        for e, c in self.rep.items():
            p = a if e >= 0 else a.inverse()
            term = c
            for _ in range(abs(e)):
                term = term * p
            acc = acc + term
        return acc

    def in_ideal_power(self, k: int) -> bool:
        """Membership in M^k for M = ker(psi)."""
        if k < 1:
            raise ValueError("k must be >= 1")
        kind = self.pres.kind
        if kind == "trivial":
            return self.is_zero()
        if self.is_zero():
            return True
        a = self.pres.eval_point
        if kind == "polyquot":
            d = self.pres.degree
            span = self.pres._ideal_power_span(k)
            vec = list(self.rep) + [ZERO] * (d - len(self.rep))
            return span.contains(vec)
        # laurent: clear the unit power of x, then divide by (x-a) k times
        lo = min(self.rep)
        p = [ZERO] * (max(self.rep) - lo + 1)
        for e, c in self.rep.items():
            p[e - lo] = c
        for _ in range(k):
            if not p:
                break
            # synthetic division by (x - a); exact iff p(a) = 0
            q = [ZERO] * (len(p) - 1)
            acc = ZERO
            for j in range(len(p) - 1, 0, -1):
                acc = p[j] + a * acc
                q[j - 1] = acc
            if p[0] + a * acc:
                return False
            p = poly_trim(q)
        return True

    def __str__(self):
        k = self.pres.kind
        if k == "trivial":
            return str(self.rep)
        if k == "polyquot":
            items = [(e, c) for e, c in enumerate(self.rep) if c]
        else:
            items = sorted(self.rep.items())
        if not items:
            return "0"
        parts = []
        for e, c in items:
            if e == 0:
                parts.append(f"({c})")
            else:
                parts.append(f"({c})*x^{e}" if e != 1 else f"({c})*x")
        return " + ".join(parts)

    def __repr__(self):
        return f"BElem({self})"
