"""Dense exact linear algebra over GaussRat.

Matrices are lists of row lists.  Everything here is elementary
Gaussian elimination with no pivoting strategy (sizes stay small,
d <= 64).  Storage is dense, but the arithmetic skips zero entries: a
zero costs one truth test, never a GaussRat operation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .scalars import GaussRat, ONE, ZERO

Vec = List[GaussRat]
Mat = List[List[GaussRat]]


def zeros(rows: int, cols: int) -> Mat:
    return [[ZERO] * cols for _ in range(rows)]


def identity(n: int) -> Mat:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_add(a: Mat, b: Mat) -> Mat:
    return [[x + y if y else x for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def mat_sub(a: Mat, b: Mat) -> Mat:
    return [[x - y if y else x for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def mat_mul(a: Mat, b: Mat) -> Mat:
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = zeros(n, m)
    for i in range(n):
        arow = a[i]
        orow = out[i]
        for t in range(k):
            c = arow[t]
            if not c:
                continue
            brow = b[t]
            for j in range(m):
                if brow[j]:
                    orow[j] = orow[j] + c * brow[j]
    return out


def mat_vec(a: Mat, v: Sequence[GaussRat]) -> Vec:
    out = []
    for row in a:
        acc = ZERO
        for x, y in zip(row, v):
            if x and y:
                acc = acc + x * y
        out.append(acc)
    return out


def transpose(a: Mat) -> Mat:
    return [list(col) for col in zip(*a)]


def mat_is_zero(a: Mat) -> bool:
    return all(not x for row in a for x in row)


def vec_is_zero(v: Vec) -> bool:
    return all(not x for x in v)


def commutator(a: Mat, b: Mat) -> Mat:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


class SpanBasis:
    """Incremental echelon basis of a subspace of GaussRat^N.

    Rows are kept in echelon form with leading coefficient 1, in
    insertion order; each row is zero at the pivots of the rows before
    it.
    """

    def __init__(self, length: int):
        self.length = length
        self.rows: List[Vec] = []
        self.pivots: List[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, v: Vec, coeffs: Optional[dict] = None) -> Vec:
        """v minus the combination of the rows that clears every pivot;
        each nonzero coefficient goes into coeffs, keyed by the pivot."""
        v = list(v)
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if not c:
                continue
            if coeffs is not None:
                coeffs[piv] = c
            for j in range(piv, self.length):
                if row[j]:
                    v[j] = v[j] - c * row[j]
        return v

    def insert(self, v: Sequence[GaussRat]) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        red = self._reduce(v)
        piv = next((j for j, x in enumerate(red) if x), None)
        if piv is None:
            return False
        inv = red[piv].inverse()
        self.rows.append([inv * x for x in red])
        self.pivots.append(piv)
        return True

    def coords(self, v: Sequence[GaussRat]) -> Vec:
        """Coordinates of v in the echelon rows."""
        coeffs = {}
        if not vec_is_zero(self._reduce(v, coeffs)):
            raise ValueError("vector is not in the span")
        return [coeffs.get(piv, ZERO) for piv in self.pivots]


def null_space(a: Mat) -> List[Vec]:
    """A basis of {x : a x = 0}.

    Column j of a, followed by the unit vector e_j, goes into one
    SpanBasis.  An echelon row whose pivot falls in the unit part is
    sum_j x_j (column j, e_j) with a x = 0, so its unit part is a kernel
    vector; there are as many such rows as columns minus the rank."""
    m = len(a)
    cols = len(a[0]) if a else 0
    span = SpanBasis(m + cols)
    for j in range(cols):
        unit = [ZERO] * cols
        unit[j] = ONE
        span.insert([row[j] for row in a] + unit)
    return [row[m:] for row, piv in zip(span.rows, span.pivots) if piv >= m]


def spin(v: Sequence[GaussRat], mats: Sequence[Mat]) -> SpanBasis:
    """The smallest subspace that contains v and is invariant under every
    matrix of mats; the search stops once it fills the whole space."""
    span = SpanBasis(len(v))
    frontier = [v] if span.insert(v) else []
    while frontier and span.dim < span.length:
        w = frontier.pop()
        for m in mats:
            image = mat_vec(m, w)
            if span.insert(image):
                frontier.append(image)
    return span

