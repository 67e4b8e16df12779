"""Truncated tensor-field weight modules on a finite degree window.

The module is V(mu, c) tensored with the Laurent algebra, graded over
Z^n and truncated to the box |m_i| <= R.  The loop-algebra action is

    D(u,r)b . v(x)t^m = psi(b) { (u, m+alpha) v + sum_ij u_i r_j E_ji v } (x) t^(m+r)
    t^r b  . v(x)t^m = psi(b) v (x) t^(m+r)

extended linearly.  A ModVector holds a block of module vectors over
the same slices, entry k d + i of a slice being coordinate i of column
k, in Gaussian integers: one denominator D and, per slice, a
linalg.IntVec of D times the entries, nonzero parts only.  It is
built in Gaussian integers from the start, and GaussRat comes out only
through .data; the action, the block arithmetic, the slice sum and
op_matrix make none.

An element is compiled once per module into its plan, in Gaussian
integers over one denominator P: per degree r, P kappa_r for the
constant kappa_r = sum psi(b) of the t-parts plus sum_i psi_i alpha_i,
the P psi_i of the derivation terms, and P M_r for
M_r = sum_ij psi_i r_j E_ji, from Irrep.int_view.  A source slice m then
costs one Gaussian integer P s = P kappa_r + sum_i P psi_i m_i and
P s v + P M_r v.  The element keeps the plan, with a weak reference to
its module.

The one core, act_into(acc, x, v, c), adds c (x . v) into an
accumulator that maps a denominator to unpruned slices over it: with
c = (a + b i)/q the term goes in over D P q, and collect brings the
denominators to their least common multiple once and prunes.  It raises
OutOfWindowError exactly when the image of one degree of x on one source
slice is nonzero and leaves the window, whatever c.  act is act_into
plus collect; signed_sum adds terms (c, x, w), c (x . w) or c w for x
None, into one accumulator, and the module residuals and ModVector +, -
and scale are such sums.  op_matrix applies an operator that maps a
slice into itself once, to the slice's basis block, and reads the
image's integers as a linalg.IntMatrix over the image's denominator.
"""

from __future__ import annotations

import weakref
from itertools import product
from math import lcm, prod
from operator import add
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .coeff import BElem, BPresentation
from .glnrep import Irrep
from .linalg import (IntColumns, IntMatrix, IntVec, Vec, add_into,
                     gauss_entries, int_columns, int_entries_into)
from .loop import Degree, LoopElem
from .scalars import GaussRat, MINUS_ONE, ONE


class OutOfWindowError(ValueError):
    pass


# one degree r of a compiled element over the plan's one denominator P:
# r, P, P kappa_r as (re, im), the pairs (i - 1, P psi_i as (re, im)) of
# its derivation terms, and P M_r as an IntMatrix, or None if zero
IntDegreePlan = Tuple[Degree, int, int, int,
                      List[Tuple[int, Tuple[int, int]]], Optional[IntMatrix]]


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


def _over(x: GaussRat, den: int) -> Tuple[int, int]:
    """den x as (re, im), for den a multiple of x's denominator."""
    a, b, q = x.parts()
    f = den // q
    return a * f, b * f


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
        """v_k (x) t^m, a block of one column."""
        m = tuple(m)
        if not self.window.contains(m):
            raise OutOfWindowError(f"degree {m} outside window")
        return ModVector(self, 1, {m: ({k: 1}, {})})

    def basis_block(self, m: Degree) -> "ModVector":
        """The d basis vectors of slice m as one block: column k is
        v_k (x) t^m."""
        m = tuple(m)
        if not self.window.contains(m):
            raise OutOfWindowError(f"degree {m} outside window")
        d = self.d
        diagonal = {k * (d + 1): 1 for k in range(d)}
        return ModVector(self, 1, {m: (diagonal, {})})

    def difference_block(self, margin: Sequence[int]) -> "ModVector":
        """The shift differences of every nonzero slice of
        window.interior(margin) as one block: column g d + k is
        v_k (x) t^(m_g) - v_k (x) t^0, for m_g the g-th such slice."""
        d = self.d
        zero = (0,) * self.n
        # column c holds 1 or -1 at entry c d + c % d
        ints: Dict[Degree, IntVec] = {
            m: ({c * d + c % d: 1 for c in range(g * d, g * d + d)}, {})
            for g, m in enumerate(m for m in self.window.interior(margin)
                                  if m != zero)}
        if ints:
            ints[zero] = ({c * d + c % d: -1 for c in range(len(ints) * d)},
                          {})
        return ModVector(self, 1, ints)

    def plan(self, x: LoopElem) -> List[IntDegreePlan]:
        """x compiled for act_into and put over one denominator, kept on
        x: compiled again only when x last acted in another module."""
        kept = x._plan
        if kept is None or kept[0]() is not self:
            kept = x._plan = (weakref.ref(self), self._compile(x))
        return kept[1]

    def _compile(self, x: LoopElem) -> List[IntDegreePlan]:
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
        # one denominator P for the whole plan: every kappa_r's and
        # psi_i's, times the irrep's when some M_r is nonzero
        shifted = {r for r, terms in d_terms.items() if terms and any(r)}
        den = lcm(*(k.parts()[2] for k in kappa.values()),
                  *(pb.parts()[2] for terms in d_terms.values()
                    for _, pb in terms))
        if shifted:
            den *= self.rep.int_view()[0]
        out = []
        for r, terms in d_terms.items():
            terms = [(i, _over(pb, den)) for i, pb in terms]
            out.append((r, den, *_over(kappa[r], den), terms,
                        self._m_columns(r, terms) if r in shifted else None))
        return out

    def _m_columns(self, r: Degree, d_terms: List[Tuple[int, Tuple[int, int]]]
                   ) -> Optional[IntMatrix]:
        """P M_r = sum_ij P psi_i r_j E_ji in Gaussian integers, or None
        when it is zero, from the P psi_i of d_terms, for P a multiple of
        the irrep's denominator D times each psi_i's: P M_r is
        sum_ij (P psi_i / D) r_j N_ji over the N_ji = D E_ji of
        Irrep.int_view."""
        e_den, ints = self.rep.int_view()
        re: Dict[int, int] = {}
        im: Dict[int, int] = {}
        for i, (a, b) in d_terms:
            a //= e_den
            b //= e_den
            for j, rj in enumerate(r):
                if not rj:
                    continue
                nr, ni = ints[j][i]
                # (a + b i) r_j (nr + ni i)
                if a:
                    int_entries_into(re, im, (nr, ni), a * rj)
                if b:
                    int_entries_into(im, re, (nr, None), b * rj)
                    if ni:
                        int_entries_into(re, im, (ni, None), -b * rj)
        if not (any(re.values()) or any(im.values())):
            return None
        return int_columns(re, im, self.d)


class ModVector:
    """Sparse block of a truncated module: den, one denominator, and
    ints, degree -> IntVec of den times the entries, whose entry k d + i
    is coordinate i of column k.  The constructor takes the block as it
    is: nonzero parts and nonempty slices only."""

    __slots__ = ("module", "den", "ints")

    def __init__(self, module: TensorModule, den: int = 1,
                 ints: Optional[Dict[Degree, IntVec]] = None):
        self.module = module
        self.den = den
        self.ints = {} if ints is None else ints

    @property
    def data(self) -> Dict[Degree, Vec]:
        """The block over GaussRat: degree -> Vec."""
        return {m: gauss_entries(re, im, self.den)
                for m, (re, im) in self.ints.items()}

    def __add__(self, other: "ModVector") -> "ModVector":
        return signed_sum(self.module, [(ONE, None, self), (ONE, None, other)])

    def __sub__(self, other: "ModVector") -> "ModVector":
        return signed_sum(self.module,
                          [(ONE, None, self), (MINUS_ONE, None, other)])

    def scale(self, c: GaussRat) -> "ModVector":
        return signed_sum(self.module, [(c, None, self)])

    def is_zero(self) -> bool:
        return not self.ints

    def __eq__(self, other):
        return isinstance(other, ModVector) and (self - other).is_zero()

    def slice_sum(self) -> "ModVector":
        """Sum of all slice coordinate vectors: the image of v in the
        quotient of the window by the shift differences
        v_k(x)t^m - v_k(x)t^0, m != 0, as a block on slice 0 over den;
        for a block, entry k d + i is coordinate i of column k's image.

        Order the coordinates with the nonzero slices first and slice 0
        last.  Then the differences are a reduced echelon basis: each has
        its pivot at (m, k) and its only other entry at (0, k).  Reducing
        v clears every nonzero-slice component and leaves the slice sum
        at slice 0, so v lies in the span of the differences iff its
        slice sum is zero, and the quotient has dimension d."""
        re: Dict[int, int] = {}
        im: Dict[int, int] = {}
        for vr, vi in self.ints.values():
            for j, y in vr.items():
                re[j] = re.get(j, 0) + y
            for j, y in vi.items():
                im[j] = im.get(j, 0) + y
        return collect(self.module, {self.den: {(0,) * self.module.n:
                                                (re, im)}})


# denominator -> degree -> unpruned IntVec over that denominator: an
# entry or a slice may hold zeros
Acc = Dict[int, Dict[Degree, IntVec]]
# c (x . w), or c w when x is None
Term = Tuple[GaussRat, Optional[LoopElem], ModVector]


def _add_part(acc: Dict[int, int], part: Dict[int, int], f: int,
              mat: Optional[IntColumns], d: int, g: int):
    """acc += f part + g mat part, unpruned, for mat None or the columns
    of a d x d matrix M: entry j of part is coordinate j % d of column
    j // d, and M maps it into that column."""
    if mat is None:
        if f:
            for j, y in part.items():
                acc[j] = acc.get(j, 0) + f * y
        return
    for j, y in part.items():
        if f:
            acc[j] = acc.get(j, 0) + f * y
        i = j % d
        base = j - i
        y *= g
        for row, e in mat[i]:
            k = base + row
            acc[k] = acc.get(k, 0) + e * y


def _add_image(out: IntVec, sr: int, si: int, cols: Optional[IntMatrix],
               vec: IntVec, d: int, g: int = 1):
    """Add s vec + g M vec into out, unpruned, for the Gaussian integer
    s = sr + si i, an int g and cols = (mr, mi) the parts of M, or None
    for M = 0: (sr + g mr) vr - (si + g mi) vi into the real part and
    (si + g mi) vr + (sr + g mr) vi into the imaginary part."""
    ore, oim = out
    vr, vi = vec
    mr, mi = cols or (None, None)
    _add_part(ore, vr, sr, mr, d, g)
    if vi:
        _add_part(oim, vi, sr, mr, d, g)
    if si or mi:
        _add_part(oim, vr, si, mi, d, g)
        if vi:
            _add_part(ore, vi, -si, mi, d, -g)


def act_into(acc: Acc, x: LoopElem, v: ModVector, c: GaussRat = ONE):
    """Add c (x . v) into acc, unpruned, through the module's plan of x.
    The image of one degree of x on one source slice of v raises
    OutOfWindowError when it leaves the window and is nonzero, whatever
    c; with c = 0 nothing else is computed."""
    module = v.module
    plan = module.plan(x)
    if not plan:
        return
    d = module.d
    radius = module.window.radius
    cr, ci, cq = GaussRat._coerce(c).parts()
    # (m, the slice, the slice that is added): the numerator g = cr of a
    # real c scales each image as it is added, while a non-real c's
    # multiplies the slices first
    g = 1 if ci else cr
    slices = [(m, vec, vec) for m, vec in v.ints.items()]
    if ci:
        for k, (m, vec, _) in enumerate(slices):
            cvec: IntVec = ({}, {})
            _add_image(cvec, cr, ci, None, vec, d)
            slices[k] = (m, vec, cvec)
    for r, den, kr, ki, d_terms, cols in plan:
        shifts = any(r)
        bucket = None
        for m, vec, cvec in slices:
            # P s = P kappa_r + sum_i P psi_i m_i
            sr, si = kr, ki
            for i, (pr, pi) in d_terms:
                if m[i]:
                    sr += pr * m[i]
                    si += pi * m[i]
            target = tuple(map(add, m, r)) if shifts else m
            if shifts and max(map(abs, target)) > radius:
                image: IntVec = ({}, {})
                _add_image(image, sr, si, cols, vec, d)
                if any(image[0].values()) or any(image[1].values()):
                    raise OutOfWindowError(
                        f"action leaves the window at {target}")
            elif g:
                if bucket is None:
                    bucket = acc.setdefault(v.den * den * cq, {})
                out = bucket.get(target)
                if out is None:
                    out = bucket[target] = ({}, {})
                _add_image(out, g * sr, g * si, cols, cvec, d, g)


def collect(module: TensorModule, acc: Acc) -> ModVector:
    """The sum an accumulator holds, as a ModVector: every denominator
    brought to their least common multiple, and pruned.  acc is emptied
    on the way, slice by slice, so that the sum and the accumulator are
    never both held in full."""
    den = lcm(*acc)
    sums: Dict[Degree, IntVec] = acc.pop(den) if len(acc) == 1 else {}
    for q in list(acc):
        f = den // q
        for m, (re, im) in acc.pop(q).items():
            if m in sums:
                add_into(sums[m][0], re, f)
                add_into(sums[m][1], im, f)
            else:
                sums[m] = (re, im) if f == 1 else (
                    {j: f * y for j, y in re.items()},
                    {j: f * y for j, y in im.items()})
    ints: Dict[Degree, IntVec] = {}
    for m in list(sums):
        re, im = sums.pop(m)
        re = {j: y for j, y in re.items() if y}
        im = {j: y for j, y in im.items() if y} if im else {}
        if re or im:
            ints[m] = (re, im)
    return ModVector(module, den if ints else 1, ints)


def act(x: LoopElem, v: ModVector) -> ModVector:
    """Action of a loop-algebra element on a block of module vectors,
    column by column: act_into and one collect."""
    acc: Acc = {}
    act_into(acc, x, v)
    return collect(v.module, acc)


def signed_sum(module: TensorModule, terms: Iterable[Term]) -> ModVector:
    """The sum of the terms (c, x, w), each c (x . w) or, when x is None,
    c w, added into one accumulator and collected once."""
    acc: Acc = {}
    for c, x, w in terms:
        if x is not None:
            act_into(acc, x, w, c)
        elif c and w.ints:
            cr, ci, cq = GaussRat._coerce(c).parts()
            bucket = acc.setdefault(w.den * cq, {})
            for m, vec in w.ints.items():
                out = bucket.get(m)
                if out is None:
                    out = bucket[m] = ({}, {})
                _add_image(out, cr, ci, None, vec, module.d)
    return collect(module, acc)


def module_axiom_residual(x: LoopElem, y: LoopElem, v: ModVector) -> ModVector:
    """[x,y] . v - x . (y . v) + y . (x . v); must vanish.  The inner
    images y . v and x . v are built, the three outer actions summed."""
    return signed_sum(v.module, [(ONE, x.bracket(y), v),
                                 (MINUS_ONE, x, act(y, v)),
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
    assoc = signed_sum(module, [(ONE, xr, act(xs, v)), (MINUS_ONE, xrs, v)])
    unit = signed_sum(module, [(ONE, module.unit, v), (MINUS_ONE, None, v)])
    return assoc, unit


Op = Callable[[ModVector], ModVector]


def op_matrix(op: Op, module: TensorModule, m: Degree
              ) -> Tuple[int, IntMatrix]:
    """(den, den A) for the d x d matrix A of a linear operator that maps
    slice m into itself, applied once to the basis block of m: column k
    of A is the image of v_k (x) t^m, and den is the image's
    denominator.  An image on any other slice raises OutOfWindowError."""
    image = op(module.basis_block(m))
    for p in image.ints:
        if p != m:
            raise OutOfWindowError(
                f"operator maps slice {m} into slice {p}")
    # entry k d + i of the slice is A's entry (i, k)
    d = module.d
    re, im = ({(j % d) * d + j // d: x for j, x in part.items()}
              for part in image.ints.get(m, ({}, {})))
    return image.den, int_columns(re, im, d)
