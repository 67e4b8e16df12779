"""Derived operator families on the tensor-field module and their identities.

Three operator families are materialized through the module action:

* product    P(u,r,b1,b2) = t^(-r) b1 . D(u,r) b2           (weight preserving)
* reduced    R(u,r,b1,b2) = P(u,r,b1,b2) - D(u,0) b1 b2
* evaluated  Q(u,r,b1,b2) = psi(b1) D(u,r) b2 - D(u,0) b1 b2

Q is one loop element, so each application is one act.  Every bracket
identity among them, the scalar action of the zero modes, the collapse
of B coefficients through psi, the shift-difference subspace and the
rank-one identities are checked as exact zero residuals by applying
operator combinations to slice basis blocks, all d basis vectors of a
slice in one call (tensmod.TensorModule.basis_block).  A residual is the
Columns of op_matrix, zero when no column has an entry; only the
Burnside fallback densifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import List, Sequence, Tuple

from .coeff import BElem
from .glnrep import (burnside_dim, highest_weight_theta, hw_shifted,
                     norton_irreducible)
from .linalg import Columns, dense
from .loop import (Degree, LoopElem, _add_deg, diff_derivation,
                   poly_derivation)
from .scalars import GaussRat, ONE, ZERO
from .tensmod import ModVector, Op, TensorModule, act, op_matrix


@dataclass(frozen=True)
class OpSpec:
    u: Tuple[GaussRat, ...]
    r: Degree
    b1: BElem
    b2: BElem


def _pair(u: Sequence[GaussRat], s: Sequence[int]) -> GaussRat:
    out = ZERO
    for a, b in zip(u, s):
        if b:
            out = out + a * b
    return out


def _neg_deg(r: Degree) -> Degree:
    return tuple(-a for a in r)


def as_operator(family, spec: OpSpec, module: TensorModule) -> Op:
    """The operator of family "product", "reduced" or "evaluated"; the
    evaluated one is a single loop element, so it acts once."""
    n = module.n
    pres = module.pres
    d_elem = LoopElem.d_vec(n, pres, spec.u, spec.r, spec.b2)
    zero_mode = LoopElem.d_vec(n, pres, spec.u, (0,) * n, spec.b1 * spec.b2)
    if family == "evaluated":
        q = d_elem.scale(spec.b1.psi()) - zero_mode
        return lambda v: act(q, v)
    shift_back = LoopElem.t_part(n, pres, _neg_deg(spec.r), spec.b1)
    if family == "product":
        return lambda v: act(shift_back, act(d_elem, v))
    if family == "reduced":
        return lambda v: act(shift_back, act(d_elem, v)) - act(zero_mode, v)
    raise ValueError(f"unknown operator family {family!r}")


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
                     module: TensorModule) -> Columns:
    """Residual of the bracket identity of row ``name`` on the bottom slice:
    [X(u1,r1), X(u2,r2)] - Y(w, r1+r2) + (u1,r2) Y(u2,r2) - (u2,r1) Y(u1,r1)
    with w = (u1,r2) u2 - (u2,r1) u1; the row names the families X and Y."""
    x_family, y_family, placements = BRACKET_ROWS[name]
    u1, r1, u2, r2 = s1.u, s1.r, s2.u, s2.r
    c12 = _pair(u1, r2)
    c21 = _pair(u2, r1)
    w = tuple(c12 * b - c21 * a for a, b in zip(u1, u2))
    bs = {"1": s1.b1, "2": s1.b2, "3": s2.b1, "4": s2.b2}

    def place(digits: str) -> BElem:
        return reduce(mul, (bs[k] for k in digits))

    x1 = as_operator(x_family, s1, module)
    x2 = as_operator(x_family, s2, module)
    rhs = [(-ONE, w, _add_deg(r1, r2)), (c12, u2, r2), (-c21, u1, r1)]
    ys = [(c, as_operator(y_family, OpSpec(u, r, place(p1), place(p2)),
                          module))
          for (c, u, r), (p1, p2) in zip(rhs, placements)]

    def residual(v: ModVector) -> ModVector:
        out = x1(x2(v)) - x2(x1(v))
        for c, y in ys:
            out = out + y(v).scale(c)
        return out

    return op_matrix(residual, module, [(0,) * module.n])


def product_bracket_residual(s1: OpSpec, s2: OpSpec,
                             module: TensorModule) -> Columns:
    return bracket_identity("product", s1, s2, module)


def reduced_bracket_residual(s1: OpSpec, s2: OpSpec,
                             module: TensorModule) -> Columns:
    return bracket_identity("reduced", s1, s2, module)


def evaluated_bracket_residual(s1: OpSpec, s2: OpSpec,
                               module: TensorModule) -> Columns:
    return bracket_identity("evaluated", s1, s2, module)


def product_to_reduced_residual(s1: OpSpec, s2: OpSpec,
                                module: TensorModule) -> Columns:
    return bracket_identity("product-to-reduced", s1, s2, module)


def scaled_product_bracket_residual(v: Tuple[GaussRat, ...], s: Degree,
                                    b: BElem, u: Tuple[GaussRat, ...],
                                    r: Degree, b2: BElem,
                                    module: TensorModule) -> Columns:
    """[P(v,s,1,b), P(u,r,1,b2)] through the scaled-product row."""
    one = module.pres.one()
    return bracket_identity("scaled-product", OpSpec(v, s, one, b),
                            OpSpec(u, r, one, b2), module)


def zero_mode_scalar_residual(u: Tuple[GaussRat, ...], b: BElem,
                              module: TensorModule) -> Columns:
    """D(u,0)b on the degree-zero slice minus psi(b)(u,alpha) Id."""
    n = module.n
    x = LoopElem.d_vec(n, module.pres, u, (0,) * n, b)
    scal = b.psi() * _pair(u, module.alpha)

    def op(v: ModVector) -> ModVector:
        return act(x, v) - v.scale(scal)

    return op_matrix(op, module, [(0,) * n])


def coefficient_collapse_residual(u: Tuple[GaussRat, ...], r: Degree,
                                  b: BElem, module: TensorModule) -> Columns:
    """D(u,r)b minus psi(b) D(u,r) as operators; must vanish."""
    n = module.n
    xb = LoopElem.d_vec(n, module.pres, u, r, b)
    x1 = LoopElem.d_vec(n, module.pres, u, r)
    pb = b.psi()

    def op(v: ModVector) -> ModVector:
        return act(xb, v) - act(x1, v).scale(pb)

    return op_matrix(op, module, [(0,) * n])


def evaluated_preserves_differences(spec: OpSpec,
                                    module: TensorModule) -> bool:
    """The evaluated operator Q of ``spec`` maps each shift difference
    e_k t^m - e_k t^0 (m != 0, image in the window) to slice sum zero.
    act is exactly linear and handles each source slice on its own, so
    Q(e_k t^m - e_k t^0) = Q(e_k t^m) - Q(e_k t^0), and the slice sums
    of Q on each interior slice's basis block, one column per k, are
    checked against those of the bottom slice's."""
    op = as_operator("evaluated", spec, module)
    margin = tuple(abs(a) for a in spec.r)
    zero = (0,) * module.n
    bottom = op(module.basis_block(zero)).slice_sum()
    return all(op(module.basis_block(m)).slice_sum() == bottom
               for m in module.window.interior(margin) if m != zero)


def quotient_intertwining_check(specs: Sequence[OpSpec],
                                module: TensorModule) -> bool:
    """The projection modulo shift differences, the slice sum,
    intertwines the reduced family on the bottom slice with the
    evaluated family on the quotient."""
    zero = (0,) * module.n
    v = module.basis_block(zero)
    for spec in specs:
        red = as_operator("reduced", spec, module)
        ev = as_operator("evaluated", spec, module)
        if red(v).slice_sum() != ev(v).slice_sum():
            return False
    return True


def bottom_slice_algebra_dim(module: TensorModule) -> int:
    """Burnside dimension of the algebra generated on the bottom slice by
    the weight-preserving product operators P(e_i, e_j, 1, 1) for all
    i, j and the zero mode P(e_1, 0, 1, 1); equals d^2 iff irreducible.

    Norton's test decides the d^2 case first.  On the bottom slice
    P(e_i, e_j, 1, 1) acts as alpha_i I + E_ji, so theta is built from
    the generators i(n+1), alpha_i I + E_ii, never from the irrep, and
    lies in the generated algebra.  Norton spins under each generator
    minus its diagonal entry at the highest weight vector times I: the
    weight-homogeneous E_ji, the E_ii shifted by a scalar, and a zero
    matrix for the zero mode (every one is zero when d = 1).  The spins,
    and the unital algebra that theta lies in, are those of the
    unshifted generators; Burnside still gets the unshifted matrices."""
    n, d = module.n, module.d
    one = module.pres.one()
    zero = (0,) * n
    units = [tuple(int(t == i) for t in range(n)) for i in range(n)]
    gens = [(ei, ej) for ei in units for ej in units] + [(units[0], zero)]
    specs = [OpSpec(tuple(map(GaussRat, u)), r, one, one) for u, r in gens]
    mats = [op_matrix(as_operator("product", spec, module), module,
                      [zero], [zero]) for spec in specs]
    hw = module.rep.hw_index
    theta = highest_weight_theta(mats[:n * n:n + 1], hw)
    if norton_irreducible([hw_shifted(m, hw) for m in mats], theta):
        return d * d
    return burnside_dim([dense(m, d) for m in mats])


# -- rank-one checks --------------------------------------------------


def rank_one_scalar_shift_check(module: TensorModule) -> List[str]:
    """For n = 1 the derivation d_r acts on v(x)t^s by the scalar
    r c + s + alpha; equivalently the shifted derivation (t^r - 1)d acts
    on the quotient by the scalar r c.  Checked for |r| <= 3."""
    if module.n != 1:
        raise ValueError("rank-one check needs n = 1")
    failures = []
    c = module.rep.c
    alpha = module.alpha[0]
    R = module.window.radius
    for r in range(-3, 4):
        for s in range(-(R - abs(r)), R - abs(r) + 1):
            x = LoopElem.d_part(1, module.pres, 1, (r,))
            v = module.basis_vector((s,), 0)
            got = act(x, v)
            scal = c * r + s + alpha
            want = module.basis_vector((s + r,), 0).scale(scal)
            if got != want:
                failures.append(f"d_{r} on slice {s}: wrong scalar")
        v0 = module.basis_vector((0,), 0)
        got_q = act(diff_derivation(module.pres, r), v0).slice_sum()
        want_q = v0.scale(c * r).slice_sum()
        if got_q != want_q:
            failures.append(f"quotient scalar of (t^{r}-1)d is not {r}c")
    return failures


def rank_one_commutation_check(module: TensorModule) -> List[str]:
    """For n = 1: f(A - k) . B = B . f(A) where A = (1 - t^-1) d_0 =
    d_0 - d_(-1) and B = (t-1)^(k+1) d_(-1), for k <= 2 and the monomials
    f = x, x^2, x^3 (linearity extends this to all polynomials)."""
    if module.n != 1:
        raise ValueError("rank-one check needs n = 1")
    failures = []
    pres = module.pres
    A = diff_derivation(pres, -1).scale(-1)  # d_0 - d_(-1)
    for k in range(3):
        B = poly_derivation(pres, k + 1, -1)
        for p in (1, 2, 3):
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


def rank_one_quotient_annihilation_check(module: TensorModule) -> List[str]:
    """For n = 1 the square of the augmentation ideal times d kills the
    quotient: (t-1)^2 t^i d maps the bottom slice into shift differences,
    for i = -1, 0, 1."""
    if module.n != 1:
        raise ValueError("rank-one check needs n = 1")
    failures = []
    d = module.d
    v = module.basis_block((0,))
    for i in (-1, 0, 1):
        sums = act(poly_derivation(module.pres, 2, i), v).slice_sum()
        # one failure per column with a nonzero slice sum
        for _ in {j // d for j in sums}:
            failures.append(f"(t-1)^2 t^{i} d image not in differences")
    return failures
