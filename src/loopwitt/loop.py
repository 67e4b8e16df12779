"""Elements and exact brackets of the loop algebra (A x DerA) (x) B.

An element is a sparse map from basis keys to B coefficients.  Keys are
("t", 0, r) for the function part t^r and ("d", i, r) for the basis
derivation carrying e_i at degree r; a general derivation with direction
vector u at degree r is stored as the n entries with coefficients u_i.
Zero coefficients are pruned, so equality to zero is structural.

A bracket is one pass over the term pairs.  Each pair reads its
structure constants first and costs no B product when they all vanish;
otherwise the product b b' is formed once, unreduced, and added with
each integer constant into one accumulator, a map from output key to
exponent to coefficient.  Each output key's coefficient is reduced
modulo the polyquot modulus once, at the end.  That is exact: the
remainder modulo a monic m is linear and unique, so reducing the sum
equals summing the reduced products.  ``bracket_sum`` adds several
brackets, and optionally a start element, into one such accumulator:
``jacobi_residual`` sums its three outer brackets that way, and the
antisymmetry residual [x, y] + [y, x] adds [y, x] to [x, y] without
collecting [y, x] on its own.
"""

from __future__ import annotations

from math import comb
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from .coeff import BElem, BPresentation
from .scalars import GaussRat

Degree = Tuple[int, ...]
Key = Tuple[str, int, Degree]  # kind, direction index (0 for "t"), degree


def _add_deg(r: Degree, s: Degree) -> Degree:
    return tuple(map(add, r, s))


class LoopElem:
    __slots__ = ("n", "pres", "terms", "_plan")

    def __init__(self, n: int, pres: BPresentation,
                 terms: Dict[Key, BElem] = None):
        self.n = n
        self.pres = pres
        self.terms = {}
        # (weak reference to the module, plan) of the module it last
        # acted in: TensorModule.plan
        self._plan = None
        for key, coeff in (terms or {}).items():
            if not coeff.is_zero():
                self.terms[key] = coeff

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(n: int, pres: BPresentation) -> "LoopElem":
        return LoopElem(n, pres)

    @staticmethod
    def t_part(n: int, pres: BPresentation, r: Sequence[int],
               b: BElem = None) -> "LoopElem":
        b = b if b is not None else pres.one()
        return LoopElem(n, pres, {("t", 0, tuple(r)): b})

    @staticmethod
    def d_part(n: int, pres: BPresentation, i: int, r: Sequence[int],
               b: BElem = None) -> "LoopElem":
        if not 1 <= i <= n:
            raise ValueError(f"direction index {i} out of range 1..{n}")
        b = b if b is not None else pres.one()
        return LoopElem(n, pres, {("d", i, tuple(r)): b})

    @staticmethod
    def d_vec(n: int, pres: BPresentation, u: Sequence[GaussRat],
              r: Sequence[int], b: BElem = None) -> "LoopElem":
        """D(u, r) tensor b as a combination of basis derivations."""
        b = b if b is not None else pres.one()
        terms: Dict[Key, BElem] = {}
        for i, ui in enumerate(u, start=1):
            c = b * ui
            if not c.is_zero():
                terms[("d", i, tuple(r))] = c
        return LoopElem(n, pres, terms)

    # -- vector-space structure ---------------------------------------

    def _check(self, other: "LoopElem"):
        if self.n != other.n:
            raise ValueError("rank mismatch")
        if self.pres != other.pres:
            raise ValueError("B presentation mismatch")

    def __add__(self, other: "LoopElem") -> "LoopElem":
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            if key in out:
                out[key] = out[key] + c
            else:
                out[key] = c
        return LoopElem(self.n, self.pres, out)

    def __neg__(self) -> "LoopElem":
        return LoopElem(self.n, self.pres,
                        {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "LoopElem") -> "LoopElem":
        return self + (-other)

    def scale(self, c) -> "LoopElem":
        return LoopElem(self.n, self.pres,
                        {k: v * c for k, v in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, LoopElem) and self.n == other.n
                and self.pres == other.pres and self.terms == other.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- Lie structure ------------------------------------------------

    def bracket(self, other: "LoopElem") -> "LoopElem":
        return bracket_sum([(self, other)])

    def jacobi_residual(self, y: "LoopElem", z: "LoopElem",
                        xy: Optional["LoopElem"] = None) -> "LoopElem":
        """[x, [y, z]] + [y, [z, x]] + [z, [x, y]], the three outer
        brackets summed in one accumulator and reduced once; xy, when
        given, must be [x, y] and is not computed again."""
        if xy is None:
            xy = self.bracket(y)
        return bracket_sum([(self, y.bracket(z)), (y, z.bracket(self)),
                            (z, xy)])

    # -- deterministic ordering / printing ----------------------------

    def sorted_terms(self) -> List[Tuple[Key, BElem]]:
        return sorted(self.terms.items(),
                      key=lambda kv: (kv[0][0], kv[0][1], kv[0][2]))


Acc = Dict[Key, Dict[int, GaussRat]]  # key -> exponent -> unreduced coeff


def bracket_sum(pairs: Sequence[Tuple[LoopElem, LoopElem]],
                start: Optional[LoopElem] = None) -> LoopElem:
    """start + the sum of [a, b] over the (nonempty) pairs, added into one
    accumulator and reduced once."""
    first = pairs[0][0]
    acc: Acc = {}
    if start is not None:
        first._check(start)
        acc = {key: dict(b.rep) for key, b in start.terms.items()}
    for a, b in pairs:
        a._check(b)
        _accumulate(acc, a.terms, b.terms)
    return _collect(first.n, first.pres, acc)


def _accumulate(acc: Acc, xs: Dict[Key, BElem], ys: Dict[Key, BElem]):
    """Add the bracket of the term maps xs and ys to acc, unreduced:
    [D(e_i,r), D(e_j,s)] = s_i D(e_j,r+s) - r_j D(e_i,r+s),
    [D(e_i,r), t^s] = s_i t^(r+s), [t^r, D(e_j,s)] = -r_j t^(r+s) and
    [t^r, t^s] = 0, each tensored with b b'."""
    for (k1, i, r), b1 in xs.items():
        for (k2, j, s), b2 in ys.items():
            if k1 == "d":
                if k2 == "d":
                    outs = (("d", j, s[i - 1]), ("d", i, -r[j - 1]))
                else:
                    outs = (("t", 0, s[i - 1]),)
            elif k2 == "d":
                outs = (("t", 0, -r[j - 1]),)
            else:
                continue
            prod = None
            for kind, idx, k in outs:
                if not k:
                    continue
                if prod is None:
                    rs = _add_deg(r, s)
                    prod = [(e1 + e2, c1 * c2)
                            for e1, c1 in b1.rep.items()
                            for e2, c2 in b2.rep.items()]
                key = (kind, idx, rs)
                p = acc.get(key)
                if p is None:
                    p = acc[key] = {}
                for e, c in prod:
                    c = c * k
                    p[e] = p[e] + c if e in p else c


def _collect(n: int, pres: BPresentation, acc: Acc) -> LoopElem:
    """The element with acc's coefficients, each reduced once."""
    return LoopElem(n, pres, {key: BElem(pres, pres.reduce(p))
                              for key, p in acc.items()})


# -- rank-one special elements ---------------------------------------


def poly_derivation(pres: BPresentation, k: int, i: int) -> LoopElem:
    """(t-1)^k d_i expanded in the d_m basis (rank one only)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = LoopElem.zero(1, pres)
    for j in range(k + 1):
        sign = 1 if (k - j) % 2 == 0 else -1
        out = out + LoopElem.d_part(1, pres, 1, (i + j,)).scale(sign * comb(k, j))
    return out


def diff_derivation(pres: BPresentation, r: int) -> LoopElem:
    """(t^r - 1) d = d_r - d_0 (rank one only)."""
    return (LoopElem.d_part(1, pres, 1, (r,))
            - LoopElem.d_part(1, pres, 1, (0,)))


def poly_derivation_bracket_residual(pres: BPresentation, k: int, l: int,
                                     i: int, j: int) -> LoopElem:
    """[(t-1)^k d_i, (t-1)^l d_j] minus its closed form
    (l-k+j-i)(t-1)^(k+l) d_(i+j) + (l-k)(t-1)^(k+l-1) d_(i+j).
    The second term is dropped when its coefficient vanishes, which in
    particular covers k = l = 0."""
    lhs = poly_derivation(pres, k, i).bracket(poly_derivation(pres, l, j))
    rhs = poly_derivation(pres, k + l, i + j).scale(l - k + j - i)
    if l != k:
        rhs = rhs + poly_derivation(pres, k + l - 1, i + j).scale(l - k)
    return lhs - rhs


def diff_derivation_bracket_residual(pres: BPresentation, r: int,
                                     s: int) -> LoopElem:
    """[(t^r-1)d, (t^s-1)d] minus (s-r)(t^(r+s)-1)d + r(t^r-1)d - s(t^s-1)d."""
    lhs = diff_derivation(pres, r).bracket(diff_derivation(pres, s))
    rhs = (diff_derivation(pres, r + s).scale(s - r)
           + diff_derivation(pres, r).scale(r)
           - diff_derivation(pres, s).scale(s))
    return lhs - rhs
