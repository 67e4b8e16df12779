"""Truncated tensor-field weight modules on a finite degree window.

The module is V(mu, c) tensored with the Laurent algebra, graded over
Z^n and truncated to the box |m_i| <= R.  The loop-algebra action is

    D(u,r)b . v(x)t^m = psi(b) { (u, m+alpha) v + sum_ij u_i r_j E_ji v } (x) t^(m+r)
    t^r b  . v(x)t^m = psi(b) v (x) t^(m+r)

extended linearly.  The action raises OutOfWindowError when a produced
degree leaves the window, so it never silently truncates.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .coeff import BElem, BPresentation
from .glnrep import Irrep
from .linalg import Mat, zeros
from .loop import Degree, LoopElem
from .scalars import GaussRat, ZERO


class OutOfWindowError(ValueError):
    pass


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


class TensorModule:
    def __init__(self, rep: Irrep, alpha: Sequence[GaussRat],
                 pres: BPresentation, window: Window):
        if rep.n != window.n or len(alpha) != rep.n:
            raise ValueError("rank mismatch between rep, alpha and window")
        self.rep = rep
        self.alpha = [GaussRat._coerce(a) for a in alpha]
        self.pres = pres
        self.window = window

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


class ModVector:
    """Sparse element of a truncated module: degree -> coordinate list."""

    __slots__ = ("module", "data")

    def __init__(self, module: TensorModule, data: Dict[Degree, List[GaussRat]] = None):
        self.module = module
        self.data = {}
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
        return ModVector(self.module, out)

    def __neg__(self) -> "ModVector":
        return ModVector(self.module,
                         {m: [-x for x in v] for m, v in self.data.items()})

    def __sub__(self, other: "ModVector") -> "ModVector":
        return self + (-other)

    def scale(self, c: GaussRat) -> "ModVector":
        return ModVector(self.module,
                         {m: [c * x for x in v] for m, v in self.data.items()})

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other):
        return isinstance(other, ModVector) and (self - other).is_zero()

    def slice_sum(self) -> List[GaussRat]:
        """Sum of all slice coordinate vectors: the image of v in the
        quotient of the window by the shift differences
        v_k(x)t^m - v_k(x)t^0, m != 0, as bottom-slice coordinates.

        Order the coordinates with the nonzero slices first and slice 0
        last.  Then the differences are a reduced echelon basis: each has
        its pivot at (m, k) and its only other entry at (0, k).  Reducing
        v clears every nonzero-slice component and leaves the slice sum
        at slice 0, so v lies in the span of the differences iff its
        slice sum is zero, and the quotient has dimension d."""
        out = [ZERO] * self.module.d
        for v in self.data.values():
            out = [a + b for a, b in zip(out, v)]
        return out


def act(x: LoopElem, v: ModVector) -> ModVector:
    """Action of a loop-algebra element on a module vector."""
    module = v.module
    if x.n != module.n:
        raise ValueError("rank mismatch")
    if x.pres != module.pres:
        raise ValueError("B presentation mismatch")
    rep = module.rep
    acc: Dict[Degree, List[GaussRat]] = {}

    def put(m: Degree, vec: List[GaussRat]):
        if not any(vec):
            return
        if not module.window.contains(m):
            raise OutOfWindowError(f"action leaves the window at {m}")
        if m in acc:
            acc[m] = [a + b for a, b in zip(acc[m], vec)]
        else:
            acc[m] = vec

    d = module.d
    for (kind, i, r), b in x.terms.items():
        pb = b.psi()
        if not pb:
            continue
        for m, vec in v.data.items():
            target = tuple(a + b2 for a, b2 in zip(m, r))
            if kind == "t":
                put(target, [pb * c if c else ZERO for c in vec])
                continue
            scal = pb * (module.alpha[i - 1] + m[i - 1])
            out = [scal * c if c else ZERO for c in vec]
            nonzero = [(k, c) for k, c in enumerate(vec) if c]
            for j in range(1, module.n + 1):
                rj = r[j - 1]
                if not rj:
                    continue
                mat = rep.E(j, i)
                for k, c in nonzero:
                    w = pb * rj * c
                    for row in range(d):
                        e = mat[row][k]
                        if e:
                            out[row] = out[row] + e * w
            put(target, out)
    return ModVector(module, acc)


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
              dst: Optional[Iterable[Degree]] = None) -> Mat:
    """Matrix of a linear operator on module vectors, applied to the basis
    vectors of the src slices: columns in (src slice, basis index) order,
    rows in (dst slice, basis index) order.  dst=None takes the sorted
    support of the images; an image outside dst raises OutOfWindowError."""
    d = module.d
    cols = [op(module.basis_vector(m, k)) for m in src for k in range(d)]
    if dst is None:
        dst = sorted({m for w in cols for m in w.data})
    dst_index = {tuple(m): k for k, m in enumerate(dst)}
    out = zeros(len(dst_index) * d, len(cols))
    for col, w in enumerate(cols):
        for m, vec in w.data.items():
            if m not in dst_index:
                raise OutOfWindowError(
                    f"operator maps into slice {m}, outside the destination")
            for row, x in enumerate(vec, start=dst_index[m] * d):
                out[row][col] = x
    return out
