"""Truncated tensor-field weight modules on a finite degree window.

The module is V(mu, c) tensored with the Laurent algebra, graded over
Z^n and truncated to the box |m_i| <= R.  The loop-algebra action is

    D(u,r)b . v(x)t^m = psi(b) { (u, m+alpha) v + sum_ij u_i r_j E_ji v } (x) t^(m+r)
    t^r b  . v(x)t^m = psi(b) v (x) t^(m+r)

extended linearly.  A ModVector holds a block of module vectors over
the same slices: each slice m keeps one sparse linalg.Vec, whose entry
k d + i is coordinate i of column k.  An ordinary vector is a block
whose only column is column 0; TensorModule.basis_block(m) is the d x d
identity on slice m.  Sums, scaling and slice sums act on the stored
entries, so they act on each column, and no zero is ever stored.

Only the scalar (u, m+alpha) depends on the source slice m, so the
action compiles each element into a plan for its module: for each
degree r, the constant kappa_r = sum psi(b) of the t-parts plus
sum_i psi_i alpha_i, the pairs (i, psi_i) of the derivation terms, and
the Columns of M_r = sum_ij psi_i r_j E_ji, summed from the irrep's
Irrep.columns.  On slice m it computes s = kappa_r + sum_i psi_i m_i
once and then s v + M_r v, mapping each stored entry k d + i through
column i of M_r into column k.  An element keeps the plan of the last
module it acted in, and the plan is freed with it.

The action has one core, act_into(acc, x, v, c), which adds c (x . v)
into an accumulator, a map from degree to an unpruned Vec.  It raises
OutOfWindowError exactly when the image of one degree of x on one
source slice of v is nonzero and lands outside the window, whatever c,
so it never silently truncates.  act is that core plus one prune, and
signed_sum adds the terms (c, x, w), c (x . w) or c w when x is None,
into one accumulator and prunes once: the module residuals below sum
their outer actions that way, with only the inner images built as
ModVectors.  op_matrix gives the matrix of an operator that maps one
slice into itself as Columns, the one matrix format of linalg,
applying the operator once to the slice's basis block.  All of them
visit only the stored entries of a block.
"""

from __future__ import annotations

from itertools import chain, product
from math import prod
from operator import add
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .coeff import BElem, BPresentation
from .glnrep import Irrep
from .linalg import Columns, Vec, entries, sparse_sum, to_columns
from .loop import Degree, LoopElem
from .scalars import GaussRat, ONE


class OutOfWindowError(ValueError):
    pass


# one degree r of a compiled element: r, kappa_r, the pairs (i - 1, psi_i)
# of its derivation terms, and the sparse columns of M_r (None if zero)
DegreePlan = Tuple[Degree, GaussRat, List[Tuple[int, GaussRat]],
                   Optional[Columns]]


# bound on the slice count (2R+1)^n of a configured window
WINDOW_CAP = 10 ** 6


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
        # t^0, the unit of the function part, whose plan stays cached
        self.unit = LoopElem.t_part(rep.n, pres, (0,) * rep.n)

    @property
    def n(self) -> int:
        return self.rep.n

    @property
    def d(self) -> int:
        return self.rep.d

    def basis_vector(self, m: Degree, k: int) -> "ModVector":
        return ModVector(self, {tuple(m): {k: ONE}})

    def basis_block(self, m: Degree) -> "ModVector":
        """The d basis vectors of slice m as one block: column k is
        v_k (x) t^m."""
        return ModVector(self, {tuple(m): {k * (self.d + 1): ONE
                                           for k in range(self.d)}})

    def plan(self, x: LoopElem) -> List[DegreePlan]:
        """x compiled for act_into, kept on x: compiled again only when x
        last acted in another module."""
        if x._plan is None or x._plan[0] is not self:
            x._plan = (self, self._compile(x))
        return x._plan[1]

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
    """Sparse block of a truncated module: degree -> Vec, whose entry
    k d + i is coordinate i of column k.  Only nonzero entries and
    nonempty slices are kept."""

    __slots__ = ("module", "data")

    def __init__(self, module: TensorModule, data: Dict[Degree, Vec] = None):
        self.module = module
        self.data = {}
        for m, vec in (data or {}).items():
            vec = {j: x for j, x in vec.items() if x}
            if vec:
                if not module.window.contains(m):
                    raise OutOfWindowError(f"degree {m} outside window")
                self.data[m] = vec

    def __add__(self, other: "ModVector") -> "ModVector":
        out = dict(self.data)
        for m, v in other.data.items():
            if m in out:
                out[m] = sparse_sum(chain(out[m].items(), v.items()))
            else:
                out[m] = v
        return ModVector(self.module, out)

    def __neg__(self) -> "ModVector":
        return self.scale(-ONE)

    def __sub__(self, other: "ModVector") -> "ModVector":
        return self + (-other)

    def scale(self, c: GaussRat) -> "ModVector":
        return ModVector(self.module,
                         {m: {j: c * x for j, x in v.items()}
                          for m, v in self.data.items()})

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other):
        return isinstance(other, ModVector) and (self - other).is_zero()

    def slice_sum(self) -> Vec:
        """Sum of all slice coordinate vectors: the image of v in the
        quotient of the window by the shift differences
        v_k(x)t^m - v_k(x)t^0, m != 0, as bottom-slice coordinates; for
        a block, entry k d + i is coordinate i of column k's image.

        Order the coordinates with the nonzero slices first and slice 0
        last.  Then the differences are a reduced echelon basis: each has
        its pivot at (m, k) and its only other entry at (0, k).  Reducing
        v clears every nonzero-slice component and leaves the slice sum
        at slice 0, so v lies in the span of the differences iff its
        slice sum is zero, and the quotient has dimension d."""
        return sparse_sum(chain.from_iterable(
            v.items() for v in self.data.values()))


# degree -> Vec, unpruned: an entry or a slice may hold zeros
Acc = Dict[Degree, Vec]
# c (x . w), or c w when x is None
Term = Tuple[GaussRat, Optional[LoopElem], ModVector]


def _add_image(out: Vec, s: GaussRat, cols: Optional[Columns], vec: Vec,
               d: int):
    """Add s vec + M vec into out, unpruned; cols are M's Columns, or
    None for M = 0."""
    if s:
        for j, y in vec.items():
            y = s * y
            out[j] = out[j] + y if j in out else y
    if cols is not None:
        # entry j is coordinate j % d of column j // d, and M maps it
        # into that column
        for j, y in vec.items():
            base = j - j % d
            for row, e in cols[j % d]:
                k = base + row
                e = e * y
                out[k] = out[k] + e if k in out else e


def act_into(acc: Acc, x: LoopElem, v: ModVector, c: GaussRat = ONE):
    """Add c (x . v) into acc, unpruned, through the module's plan of x.
    The image of one degree of x on one source slice of v raises
    OutOfWindowError when it leaves the window and is nonzero, whatever
    c; with c = 0 nothing else is computed."""
    module = v.module
    d = module.d
    radius = module.window.radius
    # (m, the slice, the slice scaled by c or None when c = 0)
    if c is ONE or c == ONE:
        slices = [(m, vec, vec) for m, vec in v.data.items()]
    else:
        slices = [(m, vec, {j: c * y for j, y in vec.items()} if c else None)
                  for m, vec in v.data.items()]
    for r, kappa, d_terms, cols in module.plan(x):
        for m, vec, cvec in slices:
            s = kappa
            for i, pb in d_terms:
                if m[i]:
                    s = s + pb * m[i]
            target = tuple(map(add, m, r))
            if max(map(abs, target)) > radius:
                image: Vec = {}
                _add_image(image, s, cols, vec, d)
                if any(image.values()):
                    raise OutOfWindowError(
                        f"action leaves the window at {target}")
            elif cvec is not None:
                out = acc.get(target)
                if out is None:
                    out = acc[target] = {}
                _add_image(out, s, cols, cvec, d)


def act(x: LoopElem, v: ModVector) -> ModVector:
    """Action of a loop-algebra element on a block of module vectors,
    column by column: act_into and one prune."""
    acc: Acc = {}
    act_into(acc, x, v)
    return ModVector(v.module, acc)


def signed_sum(module: TensorModule, terms: Iterable[Term]) -> ModVector:
    """The sum of the terms (c, x, w), each c (x . w) or, when x is None,
    c w, added into one accumulator and pruned once."""
    acc: Acc = {}
    for c, x, w in terms:
        if x is not None:
            act_into(acc, x, w, c)
        elif c:
            for m, vec in w.data.items():
                out = acc.get(m)
                if out is None:
                    out = acc[m] = {}
                _add_image(out, c, None, vec, module.d)
    return ModVector(module, acc)


def module_axiom_residual(x: LoopElem, y: LoopElem, v: ModVector) -> ModVector:
    """[x,y] . v - x . (y . v) + y . (x . v); must vanish.  The inner
    images y . v and x . v are built, the three outer actions summed."""
    return signed_sum(v.module, [(ONE, x.bracket(y), v),
                                 (-ONE, x, act(y, v)),
                                 (ONE, y, act(x, v))])


def assoc_unital_residuals(r: Degree, s: Degree, b: BElem, b2: BElem,
                           v: ModVector) -> Tuple[ModVector, ModVector]:
    """Associativity of the function-part action and the unit law:
    t^r b . (t^s b2 . v) - t^(r+s) b b2 . v and t^0 . v - v."""
    module = v.module
    n = module.n
    xr = LoopElem.t_part(n, module.pres, r, b)
    xs = LoopElem.t_part(n, module.pres, s, b2)
    xrs = LoopElem.t_part(n, module.pres,
                          tuple(a + c for a, c in zip(r, s)), b * b2)
    assoc = signed_sum(module, [(ONE, xr, act(xs, v)), (-ONE, xrs, v)])
    unit = signed_sum(module, [(ONE, module.unit, v), (-ONE, None, v)])
    return assoc, unit


Op = Callable[[ModVector], ModVector]


def op_matrix(op: Op, module: TensorModule, m: Degree) -> Columns:
    """The d x d Columns of a linear operator that maps slice m into
    itself, applied once to the basis block of m: column k is the image
    of v_k (x) t^m.  An image on any other slice raises
    OutOfWindowError."""
    d = module.d
    image = op(module.basis_block(m))
    for p in image.data:
        if p != m:
            raise OutOfWindowError(
                f"operator maps slice {m} into slice {p}")
    return to_columns({(j % d, j // d): x
                       for j, x in image.data.get(m, {}).items()}, d)
