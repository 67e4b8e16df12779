"""Exact linear algebra over GaussRat.

Vec is the one vector format: a dict from index to entry that holds the
nonzero entries only, so a zero vector is the empty dict.  Columns is
the one matrix format: per column, its nonzero (row, entry) pairs, rows
increasing.  The gl(n) matrices and the operator matrices are built in
it and checked in it.  A sum of sparse terms, vector or matrix entries,
is collected by `sparse_sum`, so a matrix sum is Entries, the nonzero
entries keyed by (row, col), and `to_columns` turns it back into
Columns.  A dense Mat, a list of row lists, comes only from `dense`, for
two uses: printing the E_ij and the Burnside closure.  Elimination is
elementary Gaussian elimination with no pivoting strategy (sizes stay
small, d <= 64) on sparse vectors, so a zero is never visited.
"""

from __future__ import annotations

from typing import (Dict, Hashable, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, TypeVar)

from .scalars import GaussRat, ONE, ZERO

# a sparse vector: index -> nonzero entry
Vec = Dict[int, GaussRat]
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


Key = TypeVar("Key", bound=Hashable)


def sparse_sum(plus: Iterable[Tuple[Key, GaussRat]],
               minus: Iterable[Tuple[Key, GaussRat]] = ()
               ) -> Dict[Key, GaussRat]:
    """The terms of plus minus the terms of minus, collected by key, with
    the entries that cancel dropped: a Vec for int keys, Entries for
    (row, col) keys."""
    out: Dict[Key, GaussRat] = {}
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


def col_apply(a: Columns, v: Vec) -> Vec:
    """a v: the sum of v[c] times column c."""
    return sparse_sum((row, e * x) for c, x in v.items() for row, e in a[c])


def col_apply_transpose(a: Columns, v: Vec) -> Vec:
    """a^T v: entry c is column c of a dotted with v."""
    return sparse_sum((c, e * v[row]) for c, col in enumerate(a)
                      for row, e in col if row in v)


class SpanBasis:
    """Incremental echelon basis of a subspace of GaussRat^N.

    Rows are sparse, kept in echelon form with leading coefficient 1, in
    insertion order; each row is zero at the pivots of the rows before
    it.  A row's pivot is its lowest index.
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
        v = dict(v)
        for row, piv in zip(self.rows, self.pivots):
            c = v.get(piv)
            if c is None:
                continue
            if coeffs is not None:
                coeffs[piv] = c
            for j, x in row.items():
                if j in v:
                    y = v[j] - c * x
                    if y:
                        v[j] = y
                    else:
                        del v[j]
                else:
                    v[j] = -c * x
        return v

    def insert(self, v: Vec) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        red = self._reduce(v)
        if not red:
            return False
        piv = min(red)
        inv = red[piv].inverse()
        self.rows.append({j: inv * x for j, x in red.items()})
        self.pivots.append(piv)
        return True

    def coords(self, v: Vec) -> Vec:
        """Coordinates of v in the echelon rows, keyed by row index."""
        coeffs = {}
        if self._reduce(v, coeffs):
            raise ValueError("vector is not in the span")
        return {k: coeffs[piv] for k, piv in enumerate(self.pivots)
                if piv in coeffs}


def null_space(a: Columns, rows: int) -> List[Vec]:
    """A basis of {x : a x = 0}, for a with `rows` rows.

    Column j of a, followed by the unit vector e_j, goes into one
    SpanBasis.  An echelon row whose pivot falls in the unit part is
    sum_j x_j (column j, e_j) with a x = 0, so its unit part is a kernel
    vector; there are as many such rows as columns minus the rank."""
    span = SpanBasis(rows + len(a))
    for j, col in enumerate(a):
        span.insert(dict([*col, (rows + j, ONE)]))
    return [{j - rows: x for j, x in row.items() if j >= rows}
            for row, piv in zip(span.rows, span.pivots) if piv >= rows]


def spin(v: Vec, mats: Sequence[Columns], transpose: bool = False
         ) -> SpanBasis:
    """The smallest subspace that contains v and is invariant under every
    square matrix of mats, or under their transposes if transpose is
    set; the search stops once it fills the whole space."""
    apply = col_apply_transpose if transpose else col_apply
    span = SpanBasis(len(mats[0]))
    frontier = [v] if span.insert(v) else []
    while frontier and span.dim < span.length:
        w = frontier.pop()
        for m in mats:
            image = apply(m, w)
            if span.insert(image):
                frontier.append(image)
    return span
