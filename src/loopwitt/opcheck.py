"""Derived operator families on the tensor-field module and their identities.

Three operator families are materialized through the module action:

* product    P(u,r,b1,b2) = t^(-r) b1 . D(u,r) b2           (weight preserving)
* reduced    R(u,r,b1,b2) = P(u,r,b1,b2) - D(u,0) b1 b2
* evaluated  Q(u,r,b1,b2) = psi(b1) D(u,r) b2 - D(u,0) b1 b2

Each family gives its image of v as terms (c, x, w) of a
tensmod.signed_sum: P is t^(-r) b1 acting on the built image D(u,r)b2 . v,
R adds -D(u,0)b1b2 acting on v, and Q is one loop element acting on v.
Every bracket identity among them, the scalar action of the zero modes
and the collapse of B coefficients through psi is one signed sum of
such terms, with only the inner images of the brackets built, so each
residual is collected once.  The seven checks of an operator-suite case
read every loop element from the OperatorTable of the case's spec pair,
and the sweep and the intertwining from that of each sampled spec; a
table builds, and so compiles, each element once, keyed by the value of
its B coefficient.  A residual is exact: the signed sum on the bottom
slice's basis block, all d basis vectors in one call
(tensmod.TensorModule.basis_block), a ModVector that must be zero.  The
shift-difference subspace is one signed sum as well: Q acts once on a
block of difference vectors, one group of d columns per interior slice
(tensmod.TensorModule.difference_block), whose slice sum must vanish,
and the quotient intertwining is the slice sum of R - Q.  All of it runs
in the action's Gaussian integers, so a passing check makes no GaussRat
per slice.  The algebra of the bottom slice builds its generators
through act, with no table, and reads them from op_matrix as
Gaussian-integer matrices, each over its own denominator; Norton's test
and its Burnside fallback both run on them as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import mul
from typing import Callable, List, Sequence, Tuple

from .coeff import BElem
from .glnrep import (burnside_dim, highest_weight_theta, hw_shifted,
                     norton_irreducible)
from .loop import (Degree, LoopElem, _add_deg, diff_derivation,
                   poly_derivation)
from .scalars import GaussRat, MINUS_ONE, ONE, ZERO
from .tensmod import ModVector, Term, TensorModule, act, op_matrix, signed_sum

# an operator giving its image of v as the terms of a signed sum
TermOp = Callable[[ModVector], List[Term]]


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


class OperatorTable:
    """The loop elements of the spec pair (s1, s2), each built once and
    so compiled once: a table lives for one case of the operator suite,
    all seven of whose checks read it, or for one sampled spec, as the
    table of (spec, spec), whose sweep and intertwining read R and Q.

    An element is keyed (operand, part, digits).  The operand is "1" for
    (u1, r1), "2" for (u2, r2) and "w" for (w, r1 + r2),
    w = (u1,r2) u2 - (u2,r1) u1.  The part is "d" for D(u,r) b, "t" for
    t^(-r) b, "z" for the zero mode D(u,0) b and "q" for the evaluated
    element psi(b') D(u,r) b - D(u,0) b' b, whose key holds the digits of
    b' and of b.  The digits name b by value: digit k of BRACKET_ROWS,
    b_k, becomes the first digit whose b equals b_k, or "0" if b_k = 1,
    and they are sorted with the units dropped, as B is commutative."""

    def __init__(self, s1: OpSpec, s2: OpSpec, module: TensorModule):
        self.pair = (s1, s2)
        self.module = module
        # b by key: "" is 1, and digit k is b_k if no b_j, j < k, equals it
        self._bs = {"": module.pres.one()}
        self._digits = {"0": "0"}
        for k, b in zip("1234", (s1.b1, s1.b2, s2.b1, s2.b2)):
            same = next((j for j, c in self._bs.items() if c == b), k)
            self._bs.setdefault(same, b)
            self._digits[k] = same or "0"
        self._elems = {}
        self._operands = {"1": (s1.u, s1.r), "2": (s2.u, s2.r)}

    # the row coefficients (u1,r2), (u2,r1) and the operand w are made on
    # first read: the table of a sampled spec reads operand "1" only
    @cached_property
    def coefficients(self) -> Tuple[GaussRat, GaussRat]:
        s1, s2 = self.pair
        return _pair(s1.u, s2.r), _pair(s2.u, s1.r)

    @cached_property
    def _w(self) -> Tuple[Tuple[GaussRat, ...], Degree]:
        (s1, s2), (c12, c21) = self.pair, self.coefficients
        return (tuple(c12 * b - c21 * a for a, b in zip(s1.u, s2.u)),
                _add_deg(s1.r, s2.r))

    def _b(self, key: str) -> BElem:
        """The product of the key's b_k, psi evaluated once, so that each
        term b u_i built from it carries psi(b) u_i (BElem.scale)."""
        b = self._bs.get(key)
        if b is None:
            b = self._bs[key] = reduce(mul, map(self._bs.get, key))
            b.psi()
        return b

    def elem(self, operand: str, part: str, *digits: str) -> LoopElem:
        """The element (operand, part, digits), built on first use."""
        key = (operand, part) + tuple(
            "".join(sorted(map(self._digits.get, p))).lstrip("0")
            for p in digits)
        x = self._elems.get(key)
        if x is None:
            x = self._elems[key] = self._build(*key)
        return x

    def _build(self, operand: str, part: str, *keys: str) -> LoopElem:
        n, pres = self.module.n, self.module.pres
        u, r = self._w if operand == "w" else self._operands[operand]
        if part == "q":
            k1, k2 = keys
            return (self.elem(operand, "d", k2).scale(self._b(k1).psi())
                    - self.elem(operand, "z", k1 + k2))
        b = self._b(keys[0])
        if part == "d":
            return LoopElem.d_vec(n, pres, u, r, b)
        if part == "t":
            return LoopElem.t_part(n, pres, _neg_deg(r), b)
        return LoopElem.d_vec(n, pres, u, (0,) * n, b)

    def terms(self, family: str, operand: str = "1",
              places: Tuple[str, str] = ("1", "2"),
              c: GaussRat = ONE) -> TermOp:
        """c times the operator of family "product", "reduced" or
        "evaluated" on the operand with the placement (p1, p2) = places,
        by default X(u1,r1,b1,b2), giving its image as terms: the outer
        actions are left to the signed sum, and the evaluated operator is
        a single loop element, so it acts once."""
        p1, p2 = places
        if family == "evaluated":
            q = self.elem(operand, "q", p1, p2)
            return lambda v: [(c, q, v)]
        if family not in ("product", "reduced"):
            raise ValueError(f"unknown operator family {family!r}")
        d_elem = self.elem(operand, "d", p2)
        shift_back = self.elem(operand, "t", p1)
        if family == "product":
            return lambda v: [(c, shift_back, act(d_elem, v))]
        zero_mode, minus_c = self.elem(operand, "z", p1 + p2), -c
        return lambda v: [(c, shift_back, act(d_elem, v)),
                          (minus_c, zero_mode, v)]


# One row per bracket identity: the X family of the left-hand side, the Y
# family of the right-hand side, the (b1, b2) placements of X(u1, r1) and
# X(u2, r2), and those of Y(w, r1+r2), Y(u2, r2), Y(u1, r1).  Digit k is
# b_k of the table's pair (u1,r1,b1,b2), (u2,r2,b3,b4), and "0" is 1.
# The Y placements are invisible on the module: every family scales by
# psi(b1) psi(b2), and each row's Y placements multiply to the product of
# its X placements, so swapping them makes no check fail.  The
# scaled-product row is minus the identity of [P(u2,r2,1,b1),
# P(u1,r1,1,b2)] with every Y at (1, b1 b2): the bracket and w change sign.
_PAIR = (("1", "2"), ("3", "4"))
_PRODUCT_PLACES = (("13", "24"), ("123", "4"), ("134", "2"))
_SHIFTED_PLACES = (("13", "24"), ("3", "124"), ("1", "234"))
BRACKET_ROWS = {
    "product": ("product", "product", _PAIR, _PRODUCT_PLACES),
    "reduced": ("reduced", "reduced", _PAIR, _SHIFTED_PLACES),
    "evaluated": ("evaluated", "evaluated", _PAIR, _SHIFTED_PLACES),
    "product-to-reduced": ("product", "reduced", _PAIR, _PRODUCT_PLACES),
    "scaled-product": ("product", "product", (("0", "2"), ("0", "1")),
                       (("0", "12"),) * 3),
}


def bracket_identity(name: str, table: OperatorTable) -> ModVector:
    """Residual of the bracket identity of row ``name`` on the bottom slice:
    [X(u1,r1), X(u2,r2)] - Y(w, r1+r2) + (u1,r2) Y(u2,r2) - (u2,r1) Y(u1,r1)
    with w = (u1,r2) u2 - (u2,r1) u1; the row names the families X and Y
    and their placements, and ``table``, the operator table of (s1, s2),
    holds them."""
    x_family, y_family, (p1, p2), placements = BRACKET_ROWS[name]
    module = table.module
    c12, c21 = table.coefficients
    x1 = table.terms(x_family, "1", p1)
    x2 = table.terms(x_family, "2", p2)
    minus_x2 = table.terms(x_family, "2", p2, MINUS_ONE)
    rhs = [(MINUS_ONE, "w"), (c12, "2"), (-c21, "1")]
    ys = [table.terms(y_family, operand, places, c)
          for (c, operand), places in zip(rhs, placements)]
    v = module.basis_block((0,) * module.n)
    terms = (x1(signed_sum(module, x2(v)))
             + minus_x2(signed_sum(module, x1(v))))
    for y in ys:
        terms += y(v)
    return signed_sum(module, terms)


def product_bracket_residual(table: OperatorTable) -> ModVector:
    return bracket_identity("product", table)


def reduced_bracket_residual(table: OperatorTable) -> ModVector:
    return bracket_identity("reduced", table)


def evaluated_bracket_residual(table: OperatorTable) -> ModVector:
    return bracket_identity("evaluated", table)


def product_to_reduced_residual(table: OperatorTable) -> ModVector:
    return bracket_identity("product-to-reduced", table)


def scaled_product_bracket_residual(table: OperatorTable) -> ModVector:
    return bracket_identity("scaled-product", table)


def zero_mode_scalar_residual(table: OperatorTable) -> ModVector:
    """D(u1,0)b1 on the degree-zero slice minus psi(b1)(u1,alpha) Id."""
    module, spec = table.module, table.pair[0]
    scal = spec.b1.psi() * _pair(spec.u, module.alpha)
    v = module.basis_block((0,) * module.n)
    return signed_sum(module, [(ONE, table.elem("1", "z", "1"), v),
                               (-scal, None, v)])


def coefficient_collapse_residual(table: OperatorTable) -> ModVector:
    """D(u1,r1)b1 minus psi(b1) D(u1,r1) as operators; must vanish."""
    module, spec = table.module, table.pair[0]
    v = module.basis_block((0,) * module.n)
    return signed_sum(module, [(ONE, table.elem("1", "d", "1"), v),
                               (-spec.b1.psi(), table.elem("1", "d", "0"), v)])


def evaluated_preserves_differences(table: OperatorTable) -> bool:
    """The evaluated operator Q of the table's spec, that of the pair
    (spec, spec), maps each shift difference e_k t^m - e_k t^0 (m != 0,
    image in the window) to slice sum zero.  Q acts once, on the block
    whose column group g holds the d differences of the g-th interior
    slice m_g != 0 (TensorModule.difference_block), and every column of
    the slice sum of the image must vanish.  act is exactly linear and
    handles each source slice on its own, so the verdict is that of
    comparing the slice sums of Q on each interior slice's basis block
    with those of the bottom slice's, and a passing sweep makes no
    GaussRat."""
    module, spec = table.module, table.pair[0]
    block = module.difference_block(tuple(abs(a) for a in spec.r))
    image = signed_sum(module, table.terms("evaluated")(block))
    return image.slice_sum().is_zero()


def quotient_intertwining_check(tables: Sequence[OperatorTable]) -> bool:
    """The projection modulo shift differences, the slice sum,
    intertwines the reduced family on the bottom slice with the
    evaluated family on the quotient: for the spec of each table, that
    of (spec, spec), R - Q on the bottom slice's basis block, one signed
    sum, has slice sum zero."""
    for table in tables:
        module = table.module
        v = module.basis_block((0,) * module.n)
        red = table.terms("reduced")
        minus_ev = table.terms("evaluated", c=MINUS_ONE)
        res = signed_sum(module, red(v) + minus_ev(v))
        if not res.slice_sum().is_zero():
            return False
    return True


def bottom_slice_algebra_dim(module: TensorModule) -> int:
    """Burnside dimension of the algebra generated on the bottom slice by
    the weight-preserving product operators P(e_i, e_j, 1, 1) for all
    i, j and the zero mode P(e_1, 0, 1, 1); equals d^2 iff irreducible.
    Each generator is t^(-r) . (D(u,r) . v), two actions of its own two
    loop elements.

    Norton's test decides the d^2 case first.  On the bottom slice
    P(e_i, e_j, 1, 1) acts as alpha_i I + E_ji, so theta is built from
    the generators i(n+1), alpha_i I + E_ii, never from the irrep, and
    lies in the generated algebra.  Norton spins under each generator
    minus its diagonal entry at the highest weight vector times I: the
    weight-homogeneous E_ji, the E_ii shifted by a scalar, and a zero
    matrix for the zero mode (every one is zero when d = 1).  The spins,
    and the unital algebra that theta lies in, are those of the
    unshifted generators.  Burnside gets the unshifted matrices, each
    times its denominator, which generate the same unital algebra."""
    n, d, pres = module.n, module.d, module.pres
    one = pres.one()  # one coefficient, so that psi(1) is evaluated once
    zero = (0,) * n
    units = [tuple(int(t == i) for t in range(n)) for i in range(n)]
    gens = [(ei, ej) for ei in units for ej in units] + [(units[0], zero)]
    mats = []
    for u, r in gens:
        d_elem = LoopElem.d_vec(n, pres, [ONE if a else ZERO for a in u], r,
                                one)
        shift_back = LoopElem.t_part(n, pres, _neg_deg(r), one)
        mats.append(op_matrix(lambda v: act(shift_back, act(d_elem, v)),
                              module, zero))
    hw = module.rep.hw_index
    _, theta = highest_weight_theta(mats[:n * n:n + 1], hw)
    if norton_irreducible([hw_shifted(m, hw) for _, m in mats], theta):
        return d * d
    return burnside_dim([m for _, m in mats])


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
    v = module.basis_vector((0,), 0)

    def apply_pow(x: LoopElem, shift: int, w: ModVector, power: int):
        for _ in range(power):
            w = act(x, w) + w.scale(GaussRat(shift))
        return w

    for k in range(3):
        B = poly_derivation(pres, k + 1, -1)
        for p in (1, 2, 3):
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
    v = module.basis_vector((0,), 0)
    for i in (-1, 0, 1):
        image = act(poly_derivation(module.pres, 2, i), v)
        if not image.slice_sum().is_zero():
            failures.append(f"(t-1)^2 t^{i} d image not in differences")
    return failures
