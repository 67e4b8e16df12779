"""Exact linear algebra over Q(i), run over the Gaussian integers.

Every check reads one matrix format, IntMatrix: a Gaussian-integer
matrix as the sparse columns of its real part and of its imaginary part,
standing for itself over one denominator D kept beside it.  An
IntVec is a Gaussian-integer vector, its real and imaginary parts each a
dict from index to nonzero int.  `int_columns` collects integer entries
into an IntMatrix, `int_apply` applies one, `mat_mul` multiplies two,
and `null_space` and `int_spin` take and return integer forms only.

GaussRat appears at the boundary.  Vec is a dict from index to nonzero
GaussRat, which `int_vec` clears to an IntVec for `SpanBasis.coords`,
and `dense` turns an IntMatrix over D into a dense GaussRat Mat, for
printing the E_ij.

Elimination is fraction free, with no pivoting strategy, on sparse
vectors, so a zero is never visited: SpanBasis keeps each row as a
primitive Gaussian-integer vector, divided by the gcd of its parts, and
reduces by v <- a v - c row, a the row's pivot entry.  Unlike Bareiss's
method, no step divides v by an earlier pivot, so within one reduction
v's entries may grow by the product of the a; only the rows kept are
made primitive.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, TypeVar

from .scalars import GaussRat, ZERO

# a sparse vector: index -> nonzero entry
Vec = Dict[int, GaussRat]
Mat = List[List[GaussRat]]
Entries = Dict[Tuple[int, int], GaussRat]
# a Gaussian-integer vector: its real and its imaginary parts, each a
# dict from index to nonzero int
IntVec = Tuple[Dict[int, int], Dict[int, int]]
# per column, its (row, int) pairs
IntColumns = List[List[Tuple[int, int]]]
# a Gaussian-integer matrix: the IntColumns of its real part and of its
# imaginary part, None for a real matrix
IntMatrix = Tuple[IntColumns, Optional[IntColumns]]


def zeros(rows: int, cols: int) -> Mat:
    return [[ZERO] * cols for _ in range(rows)]


def dense(a: IntMatrix, rows: int, den: int) -> Mat:
    """The dense GaussRat matrix a / den, for a with `rows` rows."""
    re, im = a
    out = zeros(rows, len(re))
    for col, pairs in enumerate(re):
        for row, x in gauss_entries(dict(pairs), dict(im[col]) if im else {},
                                    den).items():
            out[row][col] = x
    return out


def transposed(a: IntMatrix) -> IntMatrix:
    """The transpose of a square IntMatrix."""
    d = len(a[0])
    re, im = ({col * d + row: x for col, pairs in enumerate(part or ())
               for row, x in pairs} for part in a)
    return int_columns(re, im, d)


Key = TypeVar("Key", bound=Hashable)


def int_vec(v: Vec) -> Tuple[IntVec, int]:
    """D v as an IntVec, and D, the least common denominator of v."""
    den = lcm(*{x.parts()[2] for x in v.values()})
    re, im = {}, {}
    for j, x in v.items():
        p, q, r = x.parts()
        if p:
            re[j] = p * (den // r)
        if q:
            im[j] = q * (den // r)
    return (re, im), den


def primitive(v: IntVec) -> IntVec:
    """v divided by the gcd of all its parts."""
    re, im = v
    g = gcd(*re.values(), *im.values())
    if g <= 1:
        return v
    return ({j: x // g for j, x in re.items()},
            {j: x // g for j, x in im.items()})


def int_columns(re: Dict[int, int], im: Dict[int, int], d: int
                ) -> IntMatrix:
    """The d x d IntMatrix whose entry (row, col) is re + im i at key
    row * d + col; zero entries are dropped, and a zero imaginary part
    is None."""
    out = []
    for part in (re, im):
        cols: IntColumns = [[] for _ in range(d)]
        for key in sorted(part):
            if part[key]:
                row, col = divmod(key, d)
                cols[col].append((row, part[key]))
        out.append(cols)
    return out[0], out[1] if any(out[1]) else None


def gauss_entries(re: Dict[Key, int], im: Dict[Key, int], den: int
                  ) -> Dict[Key, GaussRat]:
    """The nonzero (re + im i) / den, by key."""
    if not (any(re.values()) or any(im.values())):
        return {}
    keys = {key for part in (re, im) for key, x in part.items() if x}
    return {key: GaussRat.from_parts(re.get(key, 0), im.get(key, 0), den)
            for key in sorted(keys)}


def add_into(acc: Dict[Key, int], part: Dict[Key, int], f: int) -> None:
    """acc += f part, entry by entry; cancelled entries stay, as zeros."""
    for key, x in part.items():
        acc[key] = acc.get(key, 0) + f * x


def add_times(re: Dict[int, int], im: Dict[int, int], off: int, cr: int,
              ci: int, p_re: Dict[int, int], p_im: Dict[int, int]):
    """re + im i += (cr + ci i) x^off (p_re + p_im i), unpruned, for
    vectors keyed by index or Laurent polynomials keyed by exponent."""
    for k, y in p_re.items():
        re[off + k] = re.get(off + k, 0) + cr * y
        if ci:
            im[off + k] = im.get(off + k, 0) + ci * y
    for k, y in p_im.items():
        im[off + k] = im.get(off + k, 0) + cr * y
        if ci:
            re[off + k] = re.get(off + k, 0) - ci * y


def int_entries_into(re: Dict[int, int], im: Dict[int, int], a: IntMatrix,
                     f: int) -> None:
    """re + im i += f a, for square a, keyed row * d + col."""
    for acc, part in zip((re, im), a):
        d = len(part or ())
        for col, pairs in enumerate(part or ()):
            for row, x in pairs:
                key = row * d + col
                acc[key] = acc.get(key, 0) + f * x


def mat_product_into(re: Dict[int, int], im: Dict[int, int], a: IntMatrix,
                     b: IntMatrix, f: int) -> None:
    """re + im i += f a b over Z[i], for square a and b, keyed
    row * d + col: four real products, a zero imaginary part skipped.
    Column c of a product is sum_t b[t][c] (column t of a), so no zero
    is ever visited."""
    (ar, ai), (br, bi) = a, b
    d = len(br)
    for acc, left, right, g in ((re, ar, br, f), (re, ai, bi, -f),
                                (im, ar, bi, f), (im, ai, br, f)):
        if left and right:
            for col, r_col in enumerate(right):
                for t, x in r_col:
                    x *= g
                    for row, y in left[t]:
                        key = row * d + col
                        acc[key] = acc.get(key, 0) + y * x


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """a b over Z[i], for square a and b."""
    re, im = {}, {}
    mat_product_into(re, im, a, b, 1)
    return int_columns(re, im, len(b[0]))


def _apply_into(acc: Dict[int, int], a: IntColumns, v: Dict[int, int],
                f: int) -> None:
    """acc += f a v, entry by entry: f v[c] times column c, for each c."""
    for c, x in v.items():
        x *= f
        for row, e in a[c]:
            acc[row] = acc.get(row, 0) + e * x


def int_apply(a: IntMatrix, v: IntVec) -> IntVec:
    """a v over Z[i]."""
    (ar, ai), (vr, vi) = a, v
    re, im = {}, {}
    _apply_into(re, ar, vr, 1)
    if vi:
        _apply_into(im, ar, vi, 1)
    if ai:
        _apply_into(re, ai, vi, -1)
        _apply_into(im, ai, vr, 1)
    return ({j: x for j, x in re.items() if x},
            {j: x for j, x in im.items() if x})


def _scaled_minus(v: IntVec, a: Tuple[int, int], c: Tuple[int, int],
                  row: IntVec) -> IntVec:
    """a v - c row for Gaussian integers a and c, each a (re, im) pair."""
    re, im = {}, {}
    add_times(re, im, 0, *a, *v)
    add_times(re, im, 0, -c[0], -c[1], *row)
    return ({j: x for j, x in re.items() if x},
            {j: x for j, x in im.items() if x})


class SpanBasis:
    """Incremental echelon basis of a subspace of GaussRat^N.

    Each row is a primitive Gaussian-integer vector, an IntVec whose
    parts have gcd 1, in insertion order; each row is zero at the pivots
    of the rows before it.  A row's pivot is its lowest index.  Every row
    is a nonzero multiple of the row that elimination over Q(i) would
    keep, so dimensions and pivots are the same.
    """

    def __init__(self, length: int):
        self.length = length
        self.int_rows: List[IntVec] = []
        self.pivots: List[int] = []

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def _reduce(self, v: IntVec, steps: Optional[list] = None) -> IntVec:
        """A nonzero multiple of v minus the combination of the rows that
        clears every pivot.  The rows are applied in insertion order;
        row k, with pivot entry a, clears v's entry c at its pivot by
        v <- a' v - c' row, where a' = a / g and c' = c / g for g the gcd
        of the parts of a and c; each step goes into steps as (k, c, a')."""
        for k, (piv, row) in enumerate(zip(self.pivots, self.int_rows)):
            cr, ci = v[0].get(piv, 0), v[1].get(piv, 0)
            if not (cr or ci):
                continue
            ar, ai = row[0].get(piv, 0), row[1].get(piv, 0)
            g = gcd(ar, ai, cr, ci)
            if steps is not None:
                steps.append((k, (cr, ci), (ar // g, ai // g)))
            v = _scaled_minus(v, (ar // g, ai // g), (cr // g, ci // g), row)
        return v

    def insert(self, v: IntVec) -> bool:
        """Insert v; returns True if it enlarged the span."""
        red = self._reduce(v)
        if not (red[0] or red[1]):
            return False
        self.pivots.append(min(red[0].keys() | red[1].keys()))
        self.int_rows.append(primitive(red))
        return True

    def coords(self, v: Vec) -> Vec:
        """Coordinates of v in the leading-1 rows, keyed by row index.
        Before step k, the vector being reduced is P v minus rows, P the
        product of D and the a' so far, so row k's coordinate is c / P."""
        w, den = int_vec(v)
        steps = []
        if any(self._reduce(w, steps)):
            raise ValueError("vector is not in the span")
        out = {}
        scale = GaussRat(den)
        for k, c, a in steps:
            out[k] = GaussRat(*c) * scale.inverse()
            scale = scale * GaussRat(*a)
        return out


def null_space(a: IntMatrix, rows: int) -> List[IntVec]:
    """A basis of {x : a x = 0}, for a with `rows` rows, of primitive
    Gaussian-integer vectors.  A kernel vector of a is one of any
    nonzero multiple of a, so a may stand over any denominator.

    Column j of a, followed by the unit vector e_j, goes into one
    SpanBasis.  An echelon row whose pivot falls in the unit part is
    sum_j x_j (column j, e_j) with a x = 0, so it is its unit part, a
    kernel vector, and primitive; there are as many such rows as columns
    minus the rank."""
    re, im = a
    span = SpanBasis(rows + len(re))
    for j, col in enumerate(re):
        span.insert((dict([*col, (rows + j, 1)]), dict(im[j]) if im else {}))
    return [tuple({j - rows: x for j, x in part.items()} for part in row)
            for row, piv in zip(span.int_rows, span.pivots) if piv >= rows]


def int_spin(v: IntVec, gens: Sequence[IntMatrix], transpose: bool = False
             ) -> SpanBasis:
    """The smallest subspace that contains v and is invariant under every
    matrix of gens, or under their transposes if transpose is set; the
    search stops once it fills the whole space.  Invariance under M and
    under lambda M, lambda != 0, agree, so gens may stand over any
    denominators.  Each image that enlarges the span is divided by the
    gcd of its parts before it is spun in turn."""
    d = len(gens[0][0])
    if transpose:
        gens = [transposed(m) for m in gens]
    span = SpanBasis(d)
    frontier = [v] if span.insert(v) else []
    while frontier and span.dim < span.length:
        w = frontier.pop()
        for m in gens:
            image = int_apply(m, w)
            if span.insert(image):
                frontier.append(primitive(image))
    return span
