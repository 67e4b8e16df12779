"""Exact linear algebra over GaussRat.

Columns is the one matrix format: per column, its nonzero (row, entry)
pairs, rows increasing.  The gl(n) matrices and the operator matrices
are built in it and checked in it.  A sum of sparse products is
collected as Entries, the nonzero entries keyed by (row, col), so a zero
matrix is the empty dict, and `to_columns` turns it back into Columns.
A dense Mat, a list of row lists, comes only from `dense`, for two uses:
printing the E_ij and the Burnside closure.  Elimination is elementary
Gaussian elimination with no pivoting strategy (sizes stay small,
d <= 64) on dense vectors that skip zero entries: a zero costs one truth
test, never a GaussRat operation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .scalars import GaussRat, ONE, ZERO

Vec = List[GaussRat]
Mat = List[List[GaussRat]]
# a sparse column: its nonzero (row, entry) pairs, rows increasing
Column = List[Tuple[int, GaussRat]]
Columns = List[Column]
Entry = Tuple[Tuple[int, int], GaussRat]
Entries = Dict[Tuple[int, int], GaussRat]


def zeros(rows: int, cols: int) -> Mat:
    return [[ZERO] * cols for _ in range(rows)]


def identity(n: int) -> Mat:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


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


def vec_is_zero(v: Vec) -> bool:
    return all(not x for x in v)


def dense(a: Columns, rows: int) -> Mat:
    """The dense matrix of a, which has `rows` rows."""
    out = zeros(rows, len(a))
    for col, pairs in enumerate(a):
        for row, x in pairs:
            out[row][col] = x
    return out


def transposed(a: Columns, rows: int) -> Columns:
    """The column view of the transpose of a, which has `rows` rows."""
    out: Columns = [[] for _ in range(rows)]
    for col, pairs in enumerate(a):
        for row, x in pairs:
            out[row].append((col, x))
    return out


def entries(a: Columns) -> Iterator[Entry]:
    """The nonzero entries of a, keyed (row, col)."""
    for col, pairs in enumerate(a):
        for row, x in pairs:
            yield (row, col), x


def product_entries(a: Columns, b: Columns) -> Iterator[Entry]:
    """The terms of the product a b, keyed (row, col).  Column c of a b is
    sum_t b[t][c] (column t of a), so no zero is ever visited."""
    for col, b_col in enumerate(b):
        for t, x in b_col:
            for row, y in a[t]:
                yield (row, col), y * x


def sparse_sum(plus: Iterable[Entry], minus: Iterable[Entry] = ()) -> Entries:
    """The terms of plus minus the terms of minus, collected by key, with
    the entries that cancel dropped."""
    out: Entries = {}
    for key, x in plus:
        out[key] = out[key] + x if key in out else x
    for key, x in minus:
        out[key] = out[key] - x if key in out else -x
    return {key: x for key, x in out.items() if x}


def to_columns(a: Entries, cols: int) -> Columns:
    """The Columns of the matrix whose nonzero entries are a."""
    out: Columns = [[] for _ in range(cols)]
    for row, col in sorted(a):
        out[col].append((row, a[row, col]))
    return out


def col_apply(a: Columns, v: Sequence[GaussRat]) -> Vec:
    """a v for a square a: the sum of v[c] times column c."""
    out = [ZERO] * len(v)
    for col, x in zip(a, v):
        if x:
            for row, e in col:
                out[row] = out[row] + e * x if out[row] else e * x
    return out


def col_apply_transpose(a: Columns, v: Sequence[GaussRat]) -> Vec:
    """a^T v for a square a: entry c is column c of a dotted with v."""
    out = []
    for col in a:
        acc = ZERO
        for row, e in col:
            x = v[row]
            if x:
                acc = acc + e * x if acc else e * x
        out.append(acc)
    return out


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
        self.rows.append([inv * x if x else ZERO for x in red])
        self.pivots.append(piv)
        return True

    def coords(self, v: Sequence[GaussRat]) -> Vec:
        """Coordinates of v in the echelon rows."""
        coeffs = {}
        if not vec_is_zero(self._reduce(v, coeffs)):
            raise ValueError("vector is not in the span")
        return [coeffs.get(piv, ZERO) for piv in self.pivots]


def null_space(a: Columns, rows: int) -> List[Vec]:
    """A basis of {x : a x = 0}, for a with `rows` rows.

    Column j of a, followed by the unit vector e_j, goes into one
    SpanBasis.  An echelon row whose pivot falls in the unit part is
    sum_j x_j (column j, e_j) with a x = 0, so its unit part is a kernel
    vector; there are as many such rows as columns minus the rank."""
    cols = len(a)
    span = SpanBasis(rows + cols)
    for j, col in enumerate(a):
        v = [ZERO] * (rows + cols)
        for row, x in col:
            v[row] = x
        v[rows + j] = ONE
        span.insert(v)
    return [row[rows:] for row, piv in zip(span.rows, span.pivots)
            if piv >= rows]


def spin(v: Sequence[GaussRat], mats: Sequence[Columns],
         transpose: bool = False) -> SpanBasis:
    """The smallest subspace that contains v and is invariant under every
    square matrix of mats, or under their transposes if transpose is
    set; the search stops once it fills the whole space."""
    apply = col_apply_transpose if transpose else col_apply
    span = SpanBasis(len(v))
    frontier = [v] if span.insert(v) else []
    while frontier and span.dim < span.length:
        w = frontier.pop()
        for m in mats:
            image = apply(m, w)
            if span.insert(image):
                frontier.append(image)
    return span
