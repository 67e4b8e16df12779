"""Truncated tensor-field weight modules on a finite degree window.

The module is V(mu, c) tensored with the Laurent algebra, graded over
Z^n and truncated to the box |m_i| <= R.  The loop-algebra action is

    D(u,r)b . v(x)t^m = psi(b) { (u, m+alpha) v + sum_ij u_i r_j E_ji v } (x) t^(m+r)
    t^r b  . v(x)t^m = psi(b) v (x) t^(m+r)

extended linearly.  A ModVector holds a block of w module vectors over
the same slices: each slice m keeps one flat coordinate list of length
w d, whose chunk k, vec[k*d:(k+1)*d], is the slice-m part of column k.
An ordinary vector is a block of width 1; TensorModule.basis_block(m)
is the d x d identity on slice m.  Sums, scaling and slice sums act on
the flat lists entry by entry, so they act on each column.

Only the scalar (u, m+alpha) depends on the source slice m, so act
compiles each element once per module into a plan: for each degree r,
the constant kappa_r = sum psi(b) of the t-parts plus
sum_i psi_i alpha_i, the pairs (i, psi_i) of the derivation terms, and
the Columns of M_r = sum_ij psi_i r_j E_ji, summed from the irrep's
Irrep.columns.  On slice m it computes s = kappa_r + sum_i psi_i m_i
once and then s v + M_r v on each chunk v of the block.  The plans,
keyed by element identity, live on the TensorModule and are freed with
it; it keeps the newest PLAN_CACHE_SIZE plans.  act sums every degree
before it looks at the window, and raises OutOfWindowError exactly when
a source slice has a nonzero image, in any column, outside the window,
so it never silently truncates.  op_matrix gives the matrix of any
operator on module vectors as Columns, the one matrix format of linalg,
applying the operator once per source slice to its basis block.
"""

from __future__ import annotations

from itertools import product
from math import prod
from operator import add
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .coeff import BElem, BPresentation
from .glnrep import Irrep
from .linalg import Columns, entries, sparse_sum, to_columns
from .loop import Degree, LoopElem
from .scalars import GaussRat, ZERO


class OutOfWindowError(ValueError):
    pass


# one degree r of a compiled element: r, kappa_r, the pairs (i - 1, psi_i)
# of its derivation terms, and the sparse columns of M_r (None if zero)
DegreePlan = Tuple[Degree, GaussRat, List[Tuple[int, GaussRat]],
                   Optional[Columns]]


# bound on the slice count (2R+1)^n of a configured window
WINDOW_CAP = 10 ** 6
# plans a module keeps; the oldest goes first, so that elements acted
# with once do not pile up over a long suite
PLAN_CACHE_SIZE = 64


class Window:
    def __init__(self, n: int, radius: int):
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        self.n = n
        self.radius = radius

    def contains(self, m: Sequence[int]) -> bool:
        return max(map(abs, m), default=0) <= self.radius

    def slices(self) -> List[Degree]:
        return self.interior((0,) * self.n)

    def interior(self, margin: Sequence[int]) -> List[Degree]:
        """The slices with |m_i| <= radius - margin_i, in lexicographic
        order."""
        R = self.radius
        return list(product(*(range(-R + g, R - g + 1) for g in margin)))

    def interior_count(self, margin: Sequence[int]) -> int:
        """len(interior(margin)), without listing the slices."""
        return prod(max(0, 2 * (self.radius - g) + 1) for g in margin)

    def interior_slice(self, margin: Sequence[int], index: int) -> Degree:
        """interior(margin)[index], without listing the slices: the index
        read in mixed radix, the last coordinate fastest."""
        out = []
        for g in reversed(margin):
            index, q = divmod(index, 2 * (self.radius - g) + 1)
            out.append(q - self.radius + g)
        return tuple(reversed(out))


class TensorModule:
    def __init__(self, rep: Irrep, alpha: Sequence[GaussRat],
                 pres: BPresentation, window: Window):
        if rep.n != window.n or len(alpha) != rep.n:
            raise ValueError("rank mismatch between rep, alpha and window")
        self.rep = rep
        self.alpha = [GaussRat._coerce(a) for a in alpha]
        self.pres = pres
        self.window = window
        # what act compiles, by id(x)
        self._plans: Dict[int, Tuple[LoopElem, List[DegreePlan]]] = {}

    @property
    def n(self) -> int:
        return self.rep.n

    @property
    def d(self) -> int:
        return self.rep.d

    def basis_vector(self, m: Degree, k: int) -> "ModVector":
        vec = [ZERO] * self.d
        vec[k] = GaussRat(1)
        return ModVector(self, {tuple(m): vec})

    def basis_block(self, m: Degree) -> "ModVector":
        """The d basis vectors of slice m as one block: column k is
        v_k (x) t^m."""
        d = self.d
        vec = [ZERO] * (d * d)
        vec[::d + 1] = [GaussRat(1)] * d
        return ModVector(self, {tuple(m): vec}, d)

    def plan(self, x: LoopElem) -> List[DegreePlan]:
        """x compiled for act, once per module while its entry is kept.
        The entry holds x, so its id is not reused while the entry
        exists."""
        entry = self._plans.get(id(x))
        if entry is None:
            if len(self._plans) >= PLAN_CACHE_SIZE:
                del self._plans[next(iter(self._plans))]
            entry = self._plans[id(x)] = (x, self._compile(x))
        return entry[1]

    def _compile(self, x: LoopElem) -> List[DegreePlan]:
        if x.n != self.n:
            raise ValueError("rank mismatch")
        if x.pres != self.pres:
            raise ValueError("B presentation mismatch")
        kappa: Dict[Degree, GaussRat] = {}
        # every degree with a term, t-only degrees with no d-terms
        d_terms: Dict[Degree, List[Tuple[int, GaussRat]]] = {}
        for (kind, i, r), b in x.terms.items():
            pb = b.psi()
            if not pb:
                continue
            terms = d_terms.setdefault(r, [])
            if kind == "d":
                terms.append((i - 1, pb))
                pb = pb * self.alpha[i - 1]
            kappa[r] = kappa[r] + pb if r in kappa else pb
        return [(r, kappa[r], terms, self._m_columns(r, terms))
                for r, terms in d_terms.items()]

    def _m_columns(self, r: Degree, d_terms: List[Tuple[int, GaussRat]]
                   ) -> Optional[Columns]:
        """The Columns of M_r = sum_ij psi_i r_j E_ji, or None when M_r is
        zero."""
        m = sparse_sum((key, pb * rj * e) for i, pb in d_terms
                       for j, rj in enumerate(r) if rj
                       for key, e in entries(self.rep.columns(j + 1, i + 1)))
        return to_columns(m, self.d) if m else None


class ModVector:
    """Sparse block of width w of a truncated module: degree -> flat
    coordinate list of length w d, chunk k holding column k.  The width
    is read from the data when not given; an empty block is of width 1
    unless given."""

    __slots__ = ("module", "data", "width")

    def __init__(self, module: TensorModule,
                 data: Dict[Degree, List[GaussRat]] = None,
                 width: Optional[int] = None):
        self.module = module
        self.data = {}
        if width is None:
            width = len(next(iter(data.values()))) // module.d if data else 1
        self.width = width
        for m, vec in (data or {}).items():
            if any(vec):
                if not module.window.contains(m):
                    raise OutOfWindowError(f"degree {m} outside window")
                self.data[m] = list(vec)

    def __add__(self, other: "ModVector") -> "ModVector":
        out = {m: list(v) for m, v in self.data.items()}
        for m, v in other.data.items():
            if m in out:
                out[m] = [a + b for a, b in zip(out[m], v)]
            else:
                out[m] = list(v)
        return ModVector(self.module, out, self.width)

    def __neg__(self) -> "ModVector":
        return ModVector(self.module,
                         {m: [-x for x in v] for m, v in self.data.items()},
                         self.width)

    def __sub__(self, other: "ModVector") -> "ModVector":
        return self + (-other)

    def scale(self, c: GaussRat) -> "ModVector":
        return ModVector(self.module,
                         {m: [c * x for x in v] for m, v in self.data.items()},
                         self.width)

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other):
        return isinstance(other, ModVector) and (self - other).is_zero()

    def slice_sum(self) -> List[GaussRat]:
        """Sum of all slice coordinate vectors: the image of v in the
        quotient of the window by the shift differences
        v_k(x)t^m - v_k(x)t^0, m != 0, as bottom-slice coordinates; for
        a block, the w column images side by side.

        Order the coordinates with the nonzero slices first and slice 0
        last.  Then the differences are a reduced echelon basis: each has
        its pivot at (m, k) and its only other entry at (0, k).  Reducing
        v clears every nonzero-slice component and leaves the slice sum
        at slice 0, so v lies in the span of the differences iff its
        slice sum is zero, and the quotient has dimension d."""
        out = [ZERO] * (self.width * self.module.d)
        for v in self.data.values():
            out = [a + b for a, b in zip(out, v)]
        return out


def act(x: LoopElem, v: ModVector) -> ModVector:
    """Action of a loop-algebra element on a block of module vectors,
    column by column, through the module's plan of x."""
    module = v.module
    d = module.d
    blank = [ZERO] * (v.width * d)
    # per source slice, its nonzero entries (j, c); entry j is coordinate
    # j % d of column j // d, and M_r maps it into that column's chunk
    nonzero = [(m, [(j, c) for j, c in enumerate(vec) if c])
               for m, vec in v.data.items()]
    acc: Dict[Degree, List[GaussRat]] = {}
    for r, kappa, d_terms, cols in module.plan(x):
        for m, entries in nonzero:
            s = kappa
            for i, pb in d_terms:
                if m[i]:
                    s = s + pb * m[i]
            out = list(blank)
            if s:
                for j, c in entries:
                    out[j] = s * c
            if cols is not None:
                for j, c in entries:
                    k = j % d
                    for row, e in cols[k]:
                        row += j - k
                        out[row] = out[row] + e * c
            if not any(out):
                continue
            target = tuple(map(add, m, r))
            if not module.window.contains(target):
                raise OutOfWindowError(f"action leaves the window at {target}")
            if target in acc:
                acc[target] = list(map(add, acc[target], out))
            else:
                acc[target] = out
    return ModVector(module, acc, v.width)


def module_axiom_residual(x: LoopElem, y: LoopElem, v: ModVector) -> ModVector:
    """act([x,y], v) - act(x, act(y, v)) + act(y, act(x, v)); must vanish."""
    return (act(x.bracket(y), v)
            - act(x, act(y, v))
            + act(y, act(x, v)))


def assoc_unital_residuals(r: Degree, s: Degree, b: BElem, b2: BElem,
                           v: ModVector) -> Tuple[ModVector, ModVector]:
    """Associativity of the function-part action and the unit law."""
    module = v.module
    n = module.n
    xr = LoopElem.t_part(n, module.pres, r, b)
    xs = LoopElem.t_part(n, module.pres, s, b2)
    xrs = LoopElem.t_part(n, module.pres,
                          tuple(a + c for a, c in zip(r, s)), b * b2)
    assoc = act(xr, act(xs, v)) - act(xrs, v)
    unit = act(LoopElem.t_part(n, module.pres, (0,) * n), v) - v
    return assoc, unit


Op = Callable[[ModVector], ModVector]


def op_matrix(op: Op, module: TensorModule, src: Iterable[Degree],
              dst: Optional[Iterable[Degree]] = None) -> Columns:
    """Columns of a linear operator on module vectors, applied once per
    src slice to its basis block: columns in (src slice, basis index)
    order, rows in (dst slice, basis index) order.  dst=None takes the
    sorted support of the images; an image outside dst raises
    OutOfWindowError."""
    d = module.d
    images = [op(module.basis_block(m)) for m in src]
    if dst is None:
        dst = sorted({m for w in images for m in w.data})
    offset = {tuple(m): k * d for k, m in enumerate(dst)}
    out: Columns = []
    for w in images:
        for m in w.data:
            if m not in offset:
                raise OutOfWindowError(
                    f"operator maps into slice {m}, outside the destination")
        rows = [(offset[m], w.data[m])
                for m in sorted(w.data, key=offset.__getitem__)]
        for base in range(0, d * d, d):
            out.append([(off + row, x) for off, vec in rows
                        for row, x in enumerate(vec[base:base + d]) if x])
    return out
