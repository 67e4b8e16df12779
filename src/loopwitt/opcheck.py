"""Derived operator families on the tensor-field module and their identities.

Three operator families are materialized through the module action:

* product    P(u,r,b1,b2) = t^(-r) b1 . D(u,r) b2           (weight preserving)
* reduced    R(u,r,b1,b2) = P(u,r,b1,b2) - D(u,0) b1 b2
* evaluated  Q(u,r,b1,b2) = psi(b1) D(u,r) b2 - D(u,0) b1 b2

Every bracket identity among them, the scalar action of the zero modes,
the collapse of B coefficients through psi, the shift-difference
subspace and the rank-one identities are checked as exact zero
residuals by applying operator combinations to slice basis vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import List, Sequence, Tuple

from .coeff import BElem
from .glnrep import burnside_dim
from .linalg import Mat, SpanBasis
from .loop import (Degree, LoopElem, _add_deg, diff_derivation,
                   poly_derivation)
from .scalars import GaussRat, ONE, ZERO
from .tensmod import ModVector, Op, TensorModule, act, op_matrix


@dataclass(frozen=True)
class OpSpec:
    family: str  # "product", "reduced" or "evaluated"
    u: Tuple[GaussRat, ...]
    r: Degree
    b1: BElem
    b2: BElem

    def __post_init__(self):
        if self.family not in ("product", "reduced", "evaluated"):
            raise ValueError(f"unknown operator family {self.family!r}")


def _pair(u: Sequence[GaussRat], s: Sequence[int]) -> GaussRat:
    out = ZERO
    for a, b in zip(u, s):
        if b:
            out = out + a * b
    return out


def _neg_deg(r: Degree) -> Degree:
    return tuple(-a for a in r)


def as_operator(spec: OpSpec, module: TensorModule) -> Op:
    n = module.n
    pres = module.pres
    d_elem = LoopElem.d_vec(n, pres, spec.u, spec.r, spec.b2)
    zero_deg = (0,) * n
    zero_mode = LoopElem.d_vec(n, pres, spec.u, zero_deg, spec.b1 * spec.b2)
    if spec.family == "product":
        shift_back = LoopElem.t_part(n, pres, _neg_deg(spec.r), spec.b1)
        return lambda v: act(shift_back, act(d_elem, v))
    if spec.family == "reduced":
        shift_back = LoopElem.t_part(n, pres, _neg_deg(spec.r), spec.b1)
        return lambda v: (act(shift_back, act(d_elem, v))
                          - act(zero_mode, v))
    p1 = spec.b1.psi()
    return lambda v: act(d_elem, v).scale(p1) - act(zero_mode, v)


# One row per bracket identity: the X family of the left-hand side, the Y
# family of the right-hand side, and the (b1, b2) placement of each of the
# three right-hand terms Y(w, r1+r2), Y(u2, r2), Y(u1, r1).  Digits k
# stand for the B coefficient b_k of the operands X(u1,r1,b1,b2) and
# X(u2,r2,b3,b4).  The placements are invisible on the module: every
# family scales by psi(b1) psi(b2), and each row's placements multiply to
# b1 b2 b3 b4, so swapping rows of placements makes no check fail.
_PRODUCT_PLACES = (("13", "24"), ("123", "4"), ("134", "2"))
_SHIFTED_PLACES = (("13", "24"), ("3", "124"), ("1", "234"))
BRACKET_ROWS = {
    "product": ("product", "product", _PRODUCT_PLACES),
    "reduced": ("reduced", "reduced", _SHIFTED_PLACES),
    "evaluated": ("evaluated", "evaluated", _SHIFTED_PLACES),
    "product-to-reduced": ("product", "reduced", _PRODUCT_PLACES),
    "scaled-product": ("product", "product", (("13", "24"),) * 3),
}


def bracket_identity(name: str, s1: OpSpec, s2: OpSpec,
                     module: TensorModule) -> Mat:
    """Residual of the bracket identity of row ``name`` on the bottom slice:
    [X(u1,r1), X(u2,r2)] - Y(w, r1+r2) + (u1,r2) Y(u2,r2) - (u2,r1) Y(u1,r1)
    with w = (u1,r2) u2 - (u2,r1) u1.  The family fields of s1 and s2 are
    ignored; the row names the families."""
    x_family, y_family, placements = BRACKET_ROWS[name]
    u1, r1, u2, r2 = s1.u, s1.r, s2.u, s2.r
    c12 = _pair(u1, r2)
    c21 = _pair(u2, r1)
    w = tuple(c12 * b - c21 * a for a, b in zip(u1, u2))
    bs = {"1": s1.b1, "2": s1.b2, "3": s2.b1, "4": s2.b2}

    def place(digits: str) -> BElem:
        return reduce(mul, (bs[k] for k in digits))

    x1 = as_operator(OpSpec(x_family, u1, r1, s1.b1, s1.b2), module)
    x2 = as_operator(OpSpec(x_family, u2, r2, s2.b1, s2.b2), module)
    rhs = [(-ONE, w, _add_deg(r1, r2)), (c12, u2, r2), (-c21, u1, r1)]
    ys = [(c, as_operator(OpSpec(y_family, u, r, place(p1), place(p2)),
                          module))
          for (c, u, r), (p1, p2) in zip(rhs, placements)]

    def residual(v: ModVector) -> ModVector:
        out = x1(x2(v)) - x2(x1(v))
        for c, y in ys:
            out = out + y(v).scale(c)
        return out

    return op_matrix(residual, module, [(0,) * module.n])


def product_bracket_residual(s1: OpSpec, s2: OpSpec,
                             module: TensorModule) -> Mat:
    return bracket_identity("product", s1, s2, module)


def reduced_bracket_residual(s1: OpSpec, s2: OpSpec,
                             module: TensorModule) -> Mat:
    return bracket_identity("reduced", s1, s2, module)


def evaluated_bracket_residual(s1: OpSpec, s2: OpSpec,
                               module: TensorModule) -> Mat:
    return bracket_identity("evaluated", s1, s2, module)


def product_to_reduced_residual(s1: OpSpec, s2: OpSpec,
                                module: TensorModule) -> Mat:
    return bracket_identity("product-to-reduced", s1, s2, module)


def scaled_product_bracket_residual(v: Tuple[GaussRat, ...], s: Degree,
                                    b: BElem, u: Tuple[GaussRat, ...],
                                    r: Degree, b2: BElem,
                                    module: TensorModule) -> Mat:
    """[P(v,s,1,b), P(u,r,1,b2)] through the scaled-product row."""
    one = module.pres.one()
    return bracket_identity("scaled-product", OpSpec("product", v, s, one, b),
                            OpSpec("product", u, r, one, b2), module)


def zero_mode_scalar_residual(u: Tuple[GaussRat, ...], b: BElem,
                              module: TensorModule) -> Mat:
    """D(u,0)b on the degree-zero slice minus psi(b)(u,alpha) Id."""
    n = module.n
    x = LoopElem.d_vec(n, module.pres, u, (0,) * n, b)
    scal = b.psi() * _pair(u, module.alpha)

    def op(v: ModVector) -> ModVector:
        return act(x, v) - v.scale(scal)

    return op_matrix(op, module, [(0,) * n])


def coefficient_collapse_residual(u: Tuple[GaussRat, ...], r: Degree,
                                  b: BElem, module: TensorModule) -> Mat:
    """D(u,r)b minus psi(b) D(u,r) as operators; must vanish."""
    n = module.n
    xb = LoopElem.d_vec(n, module.pres, u, r, b)
    x1 = LoopElem.d_vec(n, module.pres, u, r)
    pb = b.psi()

    def op(v: ModVector) -> ModVector:
        return act(xb, v) - act(x1, v).scale(pb)

    return op_matrix(op, module, [(0,) * n])


class ShiftDifferenceBasis:
    """Row-reduced basis of span{ v(x)t^r - v(x)t^0 } over the window.

    The generators (v_k at slice r) - (v_k at slice 0) are already a
    reduced echelon basis when coordinates are ordered with the nonzero
    slices first and slice 0 last: each generator has its pivot at
    (r, k) and its only other entries at slice 0.  Reduction of a
    vector therefore subtracts its every non-zero-slice component and
    leaves the sum of all slice vectors at slice 0, so membership is
    exactly 'slice sum vanishes'.
    """

    def __init__(self, module: TensorModule):
        self.module = module
        n_slices = len(module.window.slices())
        self.dim = module.d * (n_slices - 1)
        self.codim = module.d

    def contains(self, v: ModVector) -> bool:
        return all(not c for c in v.slice_sum())

    def quotient_rep(self, v: ModVector) -> List[GaussRat]:
        """Image in the d-dimensional quotient, as bottom-slice coords."""
        return v.slice_sum()

    def explicit_rows(self) -> List[List[GaussRat]]:
        """Dense generator rows, for small-scale rank checks."""
        module = self.module
        d = module.d
        slices = [m for m in module.window.slices() if any(m)]
        zero = (0,) * module.n
        cols = {m: k for k, m in enumerate(slices + [zero])}
        rows = []
        for m in slices:
            for k in range(d):
                row = [ZERO] * (len(cols) * d)
                row[cols[m] * d + k] = GaussRat(1)
                row[cols[zero] * d + k] = GaussRat(-1)
                rows.append(row)
        return rows


def evaluated_preserves_differences(spec: OpSpec, module: TensorModule,
                                    W: ShiftDifferenceBasis = None) -> bool:
    """The evaluated family maps shift differences into the
    shift-difference subspace (on generators whose image stays in the
    window)."""
    if spec.family != "evaluated":
        raise ValueError("expected an evaluated-family operator")
    W = W or ShiftDifferenceBasis(module)
    op = as_operator(spec, module)
    margin = tuple(abs(a) for a in spec.r)
    zero = (0,) * module.n
    for m in module.window.interior(margin):
        if m == zero:
            continue
        for k in range(module.d):
            diff = (module.basis_vector(m, k)
                    - module.basis_vector(zero, k))
            if not W.contains(op(diff)):
                return False
    return True


def quotient_intertwining_check(specs: Sequence[OpSpec],
                                module: TensorModule) -> bool:
    """The projection modulo shift differences intertwines the reduced
    family on the bottom slice with the evaluated family on the
    quotient, and restricts bijectively on the bottom slice."""
    W = ShiftDifferenceBasis(module)
    zero = (0,) * module.n
    d = module.d
    # bijectivity: bottom-slice basis vectors project to the standard basis
    span = SpanBasis(d)
    for k in range(d):
        span.insert(W.quotient_rep(module.basis_vector(zero, k)))
    if span.dim != d:
        return False
    for spec in specs:
        red = as_operator(OpSpec("reduced", spec.u, spec.r,
                                 spec.b1, spec.b2), module)
        ev = as_operator(OpSpec("evaluated", spec.u, spec.r,
                                spec.b1, spec.b2), module)
        for k in range(d):
            v = module.basis_vector(zero, k)
            if W.quotient_rep(red(v)) != W.quotient_rep(ev(v)):
                return False
    return True


def bottom_slice_algebra_dim(module: TensorModule,
                             specs: Sequence[OpSpec]) -> int:
    """Burnside dimension of the algebra generated by weight-preserving
    product operators on the bottom slice; equals d^2 iff irreducible."""
    zero = [(0,) * module.n]
    mats = [op_matrix(as_operator(spec, module), module, zero, zero)
            for spec in specs]
    return burnside_dim(mats)


def default_irreducibility_specs(module: TensorModule) -> List[OpSpec]:
    """Documented generator sample: P(e_i, e_j, 1, 1) for all i, j plus
    the zero-mode P(e_1, 0, 1, 1)."""
    n = module.n
    one = module.pres.one()
    specs = []
    for i in range(n):
        u = tuple(GaussRat(1 if t == i else 0) for t in range(n))
        for j in range(n):
            r = tuple(1 if t == j else 0 for t in range(n))
            specs.append(OpSpec("product", u, r, one, one))
    e1 = tuple(GaussRat(1 if t == 0 else 0) for t in range(n))
    specs.append(OpSpec("product", e1, (0,) * n, one, one))
    return specs


# -- rank-one checks --------------------------------------------------


def rank_one_scalar_shift_check(module: TensorModule,
                                r_range: Sequence[int]) -> List[str]:
    """For n = 1 the derivation d_r acts on v(x)t^s by the scalar
    r c + s + alpha; equivalently the shifted derivation (t^r - 1)d acts
    on the quotient by the scalar r c."""
    if module.n != 1:
        raise ValueError("rank-one check needs n = 1")
    failures = []
    W = ShiftDifferenceBasis(module)
    c = module.rep.c
    alpha = module.alpha[0]
    R = module.window.radius
    for r in r_range:
        for s in range(-(R - abs(r)), R - abs(r) + 1):
            x = LoopElem.d_part(1, module.pres, 1, (r,))
            v = module.basis_vector((s,), 0)
            got = act(x, v)
            scal = c * r + s + alpha
            want = module.basis_vector((s + r,), 0).scale(scal)
            if got != want:
                failures.append(f"d_{r} on slice {s}: wrong scalar")
        v0 = module.basis_vector((0,), 0)
        got_q = W.quotient_rep(act(diff_derivation(module.pres, r), v0))
        want_q = [x * (c * r) for x in W.quotient_rep(v0)]
        if got_q != want_q:
            failures.append(f"quotient scalar of (t^{r}-1)d is not {r}c")
    return failures


def rank_one_commutation_check(module: TensorModule, k_max: int = 2,
                               f_degrees: Sequence[int] = (1, 2, 3)) -> List[str]:
    """For n = 1: f(A - k) . B = B . f(A) where A = (1 - t^-1) d_0 =
    d_0 - d_(-1) and B = (t-1)^(k+1) d_(-1), for monomial f up to the
    given degrees (linearity extends this to all polynomials)."""
    if module.n != 1:
        raise ValueError("rank-one check needs n = 1")
    failures = []
    pres = module.pres
    A = diff_derivation(pres, -1).scale(-1)  # d_0 - d_(-1)
    for k in range(k_max + 1):
        B = poly_derivation(pres, k + 1, -1)
        for p in f_degrees:
            v = module.basis_vector((0,) * 1, 0)

            def apply_pow(x: LoopElem, shift: int, w: ModVector, power: int):
                for _ in range(power):
                    w = act(x, w) + w.scale(GaussRat(shift))
                return w

            left = apply_pow(A, -k, act(B, v), p)
            right = act(B, apply_pow(A, 0, v, p))
            if left != right:
                failures.append(f"commutation fails at k={k}, f=x^{p}")
    return failures


def rank_one_quotient_annihilation_check(module: TensorModule,
                                         i_range: Sequence[int] = (-1, 0, 1)
                                         ) -> List[str]:
    """For n = 1 the square of the augmentation ideal times d kills the
    quotient: (t-1)^2 t^i d maps the bottom slice into shift differences."""
    if module.n != 1:
        raise ValueError("rank-one check needs n = 1")
    failures = []
    W = ShiftDifferenceBasis(module)
    for i in i_range:
        x = poly_derivation(module.pres, 2, i)
        for k in range(module.d):
            v = module.basis_vector((0,), k)
            if not W.contains(act(x, v)):
                failures.append(f"(t-1)^2 t^{i} d image not in differences")
    return failures
