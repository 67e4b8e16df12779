"""Dense exact linear algebra over GaussRat.

Matrices are lists of row lists.  Everything here is elementary
Gaussian elimination; sizes stay small (d <= 64) so no attempt is made
to be clever about pivoting or sparsity.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from .scalars import GaussRat, ONE, ZERO

Vec = List[GaussRat]
Mat = List[List[GaussRat]]


def zeros(rows: int, cols: int) -> Mat:
    return [[ZERO] * cols for _ in range(rows)]


def identity(n: int) -> Mat:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_add(a: Mat, b: Mat) -> Mat:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Mat, b: Mat) -> Mat:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


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


def mat_is_zero(a: Mat) -> bool:
    return all(not x for row in a for x in row)


def vec_is_zero(v: Vec) -> bool:
    return all(not x for x in v)


def commutator(a: Mat, b: Mat) -> Mat:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


class SpanBasis:
    """Incremental echelon basis of a subspace of GaussRat^N.

    Rows are kept in echelon form with leading coefficient 1.  With
    ``track_coords`` every echelon row also records its expression in
    the vectors inserted so far, so ``coords`` can express a member of
    the span as a combination of the original insertions.
    """

    def __init__(self, length: int, track_coords: bool = False):
        self.length = length
        self.rows: List[Vec] = []
        self.pivots: List[int] = []
        self.track = track_coords
        self.combos: List[Vec] = []
        self.n_inserted = 0

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, v: Vec):
        v = list(v)
        combo = [ZERO] * self.n_inserted if self.track else None
        for row, piv, rc in zip(self.rows, self.pivots, self.combos or [None] * len(self.rows)):
            c = v[piv]
            if not c:
                continue
            for j in range(piv, self.length):
                if row[j]:
                    v[j] = v[j] - c * row[j]
            if combo is not None:
                for j in range(len(rc)):
                    if rc[j]:
                        combo[j] = combo[j] - c * rc[j]
        return v, combo

    def insert(self, v: Sequence[GaussRat]) -> bool:
        """Insert a vector; returns True if it enlarged the span.

        With coordinate tracking, a dependent vector is not counted as
        an insertion, so coordinate indices match the successfully
        inserted vectors only.
        """
        if self.track:
            self.n_inserted += 1
            for c in self.combos:
                c.append(ZERO)
        red, combo = self._reduce(v)
        piv = next((j for j, x in enumerate(red) if x), None)
        if piv is None:
            if self.track:
                self.n_inserted -= 1
                for c in self.combos:
                    c.pop()
            return False
        inv = red[piv].inverse()
        red = [inv * x for x in red]
        if self.track:
            combo[self.n_inserted - 1] = combo[self.n_inserted - 1] + ONE
            combo = [inv * x for x in combo]
            self.combos.append(combo)
        self.rows.append(red)
        self.pivots.append(piv)
        return True

    def contains(self, v: Sequence[GaussRat]) -> bool:
        red, _ = self._reduce(v)
        return vec_is_zero(red)

    def coords(self, v: Sequence[GaussRat]) -> Vec:
        """Express v in terms of the inserted vectors (requires tracking)."""
        if not self.track:
            raise ValueError("SpanBasis built without coordinate tracking")
        red, combo = self._reduce(v)
        if not vec_is_zero(red):
            raise ValueError("vector is not in the span")
        return [-c for c in combo]


def rank(vectors: Iterable[Sequence[GaussRat]], length: Optional[int] = None) -> int:
    vectors = list(vectors)
    if not vectors:
        return 0
    basis = SpanBasis(length if length is not None else len(vectors[0]))
    for v in vectors:
        basis.insert(v)
    return basis.dim
