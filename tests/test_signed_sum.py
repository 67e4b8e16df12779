"""The signed-sum residuals against the same residuals in ModVector
arithmetic (conftest's reference_module_axiom, reference_assoc_unital,
reference_bracket_identity), and the window rule of tensmod.act_into.

Every residual vanishes on a module, so half of the draws act through a
broken irrep, every off-diagonal E_ij doubled: it is no representation
for n >= 2, and the residuals it gives are nonzero and must still agree
with the reference."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (as_operator, doubled_off_diagonal, make_laurent,
                      make_polyquot_cube, mod_vector, reference_act,
                      reference_assoc_unital, reference_block,
                      reference_bracket_identity, reference_module_axiom,
                      reference_operator)
from loopwitt import opcheck, scalars
from loopwitt.coeff import BPresentation
from loopwitt.glnrep import build_irrep
from loopwitt.loop import LoopElem
from loopwitt.opcheck import OperatorTable, OpSpec
from loopwitt.scalars import GaussRat, MINUS_ONE, ONE, ZERO
from loopwitt.tensmod import (ModVector, OutOfWindowError, TensorModule,
                              Window, act, assoc_unital_residuals, act_into,
                              collect, module_axiom_residual, signed_sum)

MU = {1: (), 2: (1,), 3: (1, 0)}
SCALARS = [ZERO, GaussRat(1), GaussRat(-2), GaussRat(Fraction(1, 2)),
           GaussRat(0, 1)]


def presentation(kind):
    return {"trivial": BPresentation("trivial"),
            "polyquot": make_polyquot_cube(),
            "laurent": make_laurent()}[kind]


def pool(pres):
    out = [pres.one(), pres.from_scalar(GaussRat(-2, 1))]
    if pres.kind != "trivial":
        x = pres.generator()
        out += [x, x - pres.from_scalar(pres.eval_point)]  # psi = 0
    return out


@st.composite
def setups(draw, radius=3):
    """(module, rng, coefficient pool): n, B and a broken or true irrep."""
    n = draw(st.sampled_from([1, 2, 3]))
    pres = presentation(draw(st.sampled_from(
        ["trivial", "polyquot", "laurent"])))
    rep = build_irrep(MU[n], GaussRat(Fraction(3, 2)), n)
    if draw(st.booleans()):
        rep = doubled_off_diagonal(rep)
    alpha = [GaussRat(Fraction(1, 3)), GaussRat(-1), GaussRat(0)][:n]
    module = TensorModule(rep, alpha, pres, Window(n, radius))
    return module, random.Random(draw(st.integers(0, 10 ** 6))), pool(pres)


def homogeneous(rng, module, b_pool):
    n, pres = module.n, module.pres
    r = tuple(rng.randint(-1, 1) for _ in range(n))
    if rng.random() < 0.4:
        return LoopElem.t_part(n, pres, r, rng.choice(b_pool)), r
    return LoopElem.d_part(n, pres, rng.randint(1, n), r,
                           rng.choice(b_pool)), r


def element(rng, module, b_pool):
    """One or two homogeneous terms, at one or two degrees."""
    x, _ = homogeneous(rng, module, b_pool)
    if rng.random() < 0.5:
        x = x + homogeneous(rng, module, b_pool)[0]
    return x


def vector(rng, module, margin):
    """A block of width one or two on one or two interior slices."""
    interior = module.window.interior(margin)
    width = rng.randint(1, 2)
    return mod_vector(module, {
        rng.choice(interior): {j: rng.choice(SCALARS)
                               for j in range(width * module.d)}
        for _ in range(rng.randint(1, 2))})


def spec(rng, module, b_pool):
    n = module.n
    u = tuple(rng.choice(SCALARS) for _ in range(n))
    if not any(u):
        u = (ONE,) + u[1:]
    return OpSpec(u, tuple(rng.randint(-1, 1) for _ in range(n)),
                  rng.choice(b_pool), rng.choice(b_pool))


class TestAgainstModVectorArithmetic:
    @settings(max_examples=40, deadline=None)
    @given(setups())
    def test_signed_sum_of_terms(self, setup):
        module, rng, b_pool = setup
        terms = [(rng.choice(SCALARS),
                  element(rng, module, b_pool) if rng.random() < 0.7
                  else None,
                  vector(rng, module, (1,) * module.n))
                 for _ in range(rng.randint(1, 4))]
        want = ModVector(module)
        for c, x, w in terms:
            want = want + (reference_act(x, w) if x else w).scale(c)
        assert signed_sum(module, terms) == want

    @settings(max_examples=40, deadline=None)
    @given(setups())
    def test_module_axiom(self, setup):
        module, rng, b_pool = setup
        x, r = homogeneous(rng, module, b_pool)
        y, s = homogeneous(rng, module, b_pool)
        v = vector(rng, module, tuple(abs(a) + abs(b) for a, b in zip(r, s)))
        assert module_axiom_residual(x, y, v) == reference_module_axiom(
            x, y, v)

    @settings(max_examples=30, deadline=None)
    @given(setups())
    def test_assoc_and_unit(self, setup):
        module, rng, b_pool = setup
        n = module.n
        r = tuple(rng.randint(-1, 1) for _ in range(n))
        s = tuple(rng.randint(-1, 1) for _ in range(n))
        b, b2 = rng.choice(b_pool), rng.choice(b_pool)
        v = vector(rng, module, tuple(abs(a) + abs(c) for a, c in zip(r, s)))
        assert (assoc_unital_residuals(r, s, b, b2, v)
                == reference_assoc_unital(r, s, b, b2, v))

    @settings(max_examples=30, deadline=None)
    @given(setups())
    def test_each_operator_family(self, setup):
        module, rng, b_pool = setup
        sp = spec(rng, module, b_pool)
        for m in [(0,) * module.n, module.window.interior((1,) * module.n)[0]]:
            for family in ("product", "reduced", "evaluated"):
                got = as_operator(family, sp, module)(
                    module.basis_block(m))
                assert got == reference_block(reference_operator(
                    family, sp, module), module, m), family

    @settings(max_examples=25, deadline=None)
    @given(setups())
    def test_every_bracket_row(self, setup):
        module, rng, b_pool = setup
        s1, s2 = spec(rng, module, b_pool), spec(rng, module, b_pool)
        for name in opcheck.BRACKET_ROWS:
            table = OperatorTable(s1, s2, module)
            assert opcheck.bracket_identity(name, table) == (
                reference_bracket_identity(name, s1, s2, module)), name

    @settings(max_examples=30, deadline=None)
    @given(setups())
    def test_zero_mode_and_collapse(self, setup):
        module, rng, b_pool = setup
        n, zero = module.n, (0,) * module.n
        sp = spec(rng, module, b_pool)
        u, r, b = sp.u, sp.r, sp.b1
        x = LoopElem.d_vec(n, module.pres, u, (0,) * n, b)
        scal = b.psi() * sum((a * c for a, c in zip(u, module.alpha)), ZERO)
        table = OperatorTable(sp, sp, module)
        assert opcheck.zero_mode_scalar_residual(table) == reference_block(
            lambda v: reference_act(x, v) - v.scale(scal), module, zero)
        xb = LoopElem.d_vec(n, module.pres, u, r, b)
        x1 = LoopElem.d_vec(n, module.pres, u, r)
        assert opcheck.coefficient_collapse_residual(
            table) == reference_block(
            lambda v: reference_act(xb, v) - reference_act(x1, v).scale(
                b.psi()), module, zero)

    def test_a_broken_irrep_gives_nonzero_residuals(self):
        # so the comparisons above are not all between zeros
        rep = doubled_off_diagonal(build_irrep((1,), GaussRat(1), 2))
        pres = BPresentation("trivial")
        module = TensorModule(rep, [ZERO, ZERO], pres, Window(2, 3))
        x = LoopElem.d_part(2, pres, 1, (0, 1))
        y = LoopElem.d_part(2, pres, 2, (1, 0))
        v = module.basis_vector((0, 0), 0)
        assert not module_axiom_residual(x, y, v).is_zero()
        s1 = OpSpec((ONE, ZERO), (0, 1), pres.one(), pres.one())
        s2 = OpSpec((ZERO, ONE), (1, 0), pres.one(), pres.one())
        assert not any(opcheck.bracket_identity(
            name, OperatorTable(s1, s2, module)).is_zero()
            for name in opcheck.BRACKET_ROWS)


def two_degrees(rng, module, b_pool):
    """A sum of two homogeneous terms at two different degrees, so that
    its plan has two entries."""
    x, r = homogeneous(rng, module, b_pool)
    while True:
        y, s = homogeneous(rng, module, b_pool)
        if s != r:
            return x + y


def multi_degree_mismatches(n, kind):
    """How many of 12 cases of module_axiom_residual and of signed_sum,
    on elements with terms at two degrees, differ from the residual and
    the sum in ModVector arithmetic.  The irrep has every off-diagonal
    E_ij doubled, so the residuals are nonzero for n >= 2."""
    pres = presentation(kind)
    rep = doubled_off_diagonal(build_irrep(MU[n], GaussRat(Fraction(3, 2)),
                                           n))
    alpha = [GaussRat(Fraction(1, 3)), GaussRat(-1, 1), GaussRat(0)][:n]
    module = TensorModule(rep, alpha, pres, Window(n, 3))
    # psi(b) != 0 throughout, so no degree drops out of a plan
    b_pool = [pres.one(), pres.from_scalar(GaussRat(-2, 1))]
    if kind != "trivial":
        b_pool.append(pres.generator())
    rng = random.Random(17 * n + len(kind))
    axiom = terms = 0
    for _ in range(12):
        x = two_degrees(rng, module, b_pool)
        y = two_degrees(rng, module, b_pool)
        v = vector(rng, module, (2,) * n)
        axiom += module_axiom_residual(x, y, v) != reference_module_axiom(
            x, y, v)
        c = rng.choice(SCALARS[1:])
        want = reference_act(x, v).scale(c) - reference_act(y, v)
        terms += signed_sum(module, [(c, x, v), (-ONE, y, v)]) != want
    return axiom, terms


class TestMultiDegreePlans:
    """The module suites act only with elements of one degree, so these
    cases reach the plans with two entries.  A plan cut to its first
    degree fails them."""

    @pytest.mark.parametrize("kind", ["trivial", "polyquot", "laurent"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_module_axiom_and_signed_sum(self, n, kind):
        assert multi_degree_mismatches(n, kind) == (0, 0)

    @pytest.mark.parametrize("kind", ["trivial", "polyquot", "laurent"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_first_degree_only_plan_fails_them(self, n, kind, monkeypatch):
        plan = TensorModule.plan
        monkeypatch.setattr(TensorModule, "plan",
                            lambda self, x: plan(self, x)[:1])
        axiom, terms = multi_degree_mismatches(n, kind)
        assert axiom and terms


@pytest.mark.parametrize("kind", ["trivial", "polyquot", "laurent"])
def test_unit_terms_make_no_gauss_rat(kind, monkeypatch):
    # every GaussRat is made by scalars._norm: once x and y are compiled,
    # a difference, an equality and a signed sum of +-1 terms run in ints
    pres = presentation(kind)
    rep = build_irrep(MU[2], GaussRat(Fraction(3, 2)), 2)
    module = TensorModule(rep, [GaussRat(Fraction(1, 3)), GaussRat(-1)],
                          pres, Window(2, 3))
    b = pool(pres)[1]
    x = LoopElem.d_part(2, pres, 1, (1, 0), b)
    y = LoopElem.t_part(2, pres, (0, -1), b)
    v = module.basis_block((0, 0))
    xv, yv = act(x, v), act(y, v)
    terms = [(ONE, x, v), (MINUS_ONE, y, v), (MINUS_ONE, None, xv),
             (ONE, None, yv)]
    norm = scalars._norm
    made = []
    monkeypatch.setattr(scalars, "_norm",
                        lambda *parts: made.append(parts) or norm(*parts))
    diff = xv - yv
    equal = xv == xv
    total = signed_sum(module, terms)
    monkeypatch.undo()
    assert made == []
    assert equal and not diff.is_zero() and total.is_zero()
    assert diff == reference_act(x, v) - reference_act(y, v)


class TestWindow:
    """An image of one degree on one source slice that leaves the window
    raises when it is nonzero, whatever the term's coefficient, and is
    silent when it is zero.  On n = 1 with c = 0 and alpha = -1,
    D(1, 2) . v t^1 = (1 + alpha) v t^3 + 2 c v t^3 = 0."""

    def module(self, c):
        pres = BPresentation("trivial")
        rep = build_irrep((), GaussRat(c), 1)
        return TensorModule(rep, [GaussRat(-1)], pres, Window(1, 2))

    @pytest.mark.parametrize("fold", [False, True])
    @pytest.mark.parametrize("coeff", SCALARS)
    def test_a_zero_image_outside_is_silent(self, coeff, fold):
        module = self.module(0)
        pres = module.pres
        # the degree-0 part lands inside the window, the degree-2 part
        # leaves it with a zero image
        x = (LoopElem.d_part(1, pres, 1, (2,))
             + LoopElem.t_part(1, pres, (0,), pres.from_scalar(GaussRat(3))))
        v = module.basis_vector((1,), 0)
        # folded, the sums are those of v t^0 in place of v t^1
        w = module.basis_vector((0,), 0) if fold else v
        acc = {}
        act_into(acc, x, v, coeff, fold=fold)
        got = signed_sum(module, [(coeff, x, v), (-coeff, None, v)],
                         fold=fold)
        assert got == w.scale(GaussRat(2) * coeff)
        assert collect(module, acc) == w.scale(GaussRat(3) * coeff)

    @pytest.mark.parametrize("fold", [False, True])
    @pytest.mark.parametrize("coeff", SCALARS)
    def test_a_nonzero_image_outside_raises(self, coeff, fold):
        # folded, the image would go onto slice 0, inside the window
        module = self.module(1)
        x = LoopElem.d_part(1, module.pres, 1, (2,))
        v = module.basis_vector((1,), 0)
        with pytest.raises(OutOfWindowError):
            act_into({}, x, v, coeff, fold=fold)
        with pytest.raises(OutOfWindowError):
            signed_sum(module, [(ONE, None, v), (coeff, x, v)], fold=fold)
        with pytest.raises(OutOfWindowError):
            reference_act(x, v)
