import random
from fractions import Fraction

import pytest

from conftest import cartan_eigenvalue, make_polyquot_cube, reference_act
from loopwitt.glnrep import build_irrep
from loopwitt.linalg import dense, identity
from loopwitt.loop import LoopElem
from loopwitt.scalars import GaussRat, ZERO
from loopwitt.tensmod import (PLAN_CACHE_SIZE, ModVector, OutOfWindowError,
                              TensorModule, Window, act,
                              assoc_unital_residuals, module_axiom_residual,
                              op_matrix)

HALF = GaussRat(Fraction(1, 2))


def make_module(pres, n=2, mu=(1,), c=GaussRat(1), radius=3, alpha=None):
    rep = build_irrep(mu, c, n)
    alpha = alpha if alpha is not None else [HALF] * n
    return TensorModule(rep, alpha, pres, Window(n, radius))


class TestWindow:
    def test_slice_count(self):
        assert len(Window(2, 2).slices()) == 25
        assert len(Window(1, 3).slices()) == 7

    def test_interior_margins(self):
        w = Window(2, 2)
        assert (2, 0) in w.slices()
        assert w.contains((2, 0)) and not w.contains((3, 0))
        assert (2, 0) not in w.interior((1, 1))
        assert (1, 0) in w.interior((1, 2))
        assert (1, 1) not in w.interior((1, 2))
        assert w.interior((1, 2)) == sorted(w.interior((1, 2)))

    @pytest.mark.parametrize("n,radius,margin", [
        (1, 3, (0,)), (1, 2, (2,)), (2, 2, (0, 1)), (2, 3, (2, 0)),
        (3, 2, (1, 0, 2)), (3, 3, (0, 2, 1))])
    def test_interior_slice_decodes_the_listed_index(self, n, radius,
                                                     margin):
        w = Window(n, radius)
        listed = w.interior(margin)
        assert w.interior_count(margin) == len(listed)
        assert [w.interior_slice(margin, k)
                for k in range(len(listed))] == listed

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            Window(1, -1)


class TestModuleShape:
    def test_rank_mismatch_rejected(self, trivial):
        rep = build_irrep((1,), GaussRat(1), 2)
        with pytest.raises(ValueError):
            TensorModule(rep, [HALF] * 2, trivial, Window(3, 2))
        with pytest.raises(ValueError):
            TensorModule(rep, [HALF], trivial, Window(2, 2))

    def test_diagonal_eigenvalue(self, trivial):
        module = make_module(trivial)
        assert cartan_eigenvalue(module, 1, (2, -1)) == GaussRat(2) + HALF
        assert cartan_eigenvalue(module, 2, (2, -1)) == GaussRat(-1) + HALF
        for i in (1, 2):
            h = LoopElem.d_part(2, trivial, i, (0, 0))
            for k in range(module.d):
                v = module.basis_vector((2, -1), k)
                assert act(h, v) == v.scale(
                    cartan_eigenvalue(module, i, (2, -1)))

    def test_vectors_outside_window_rejected(self, trivial):
        module = make_module(trivial, radius=1)
        with pytest.raises(OutOfWindowError):
            ModVector(module, {(2, 0): [GaussRat(1), ZERO]})


class TestAction:
    def test_function_part_shifts_with_evaluation_factor(self, laurent):
        module = make_module(laurent)
        t = laurent.generator()
        x = LoopElem.t_part(2, laurent, (1, -1), t)
        v = module.basis_vector((0, 0), 1)
        got = act(x, v)
        assert got == module.basis_vector((1, -1), 1).scale(GaussRat(3))

    def test_zero_mode_acts_by_pairing_scalar(self, trivial):
        module = make_module(trivial)
        u = (GaussRat(2), GaussRat(-1))
        x = LoopElem.d_vec(2, trivial, u, (0, 0))
        m = (1, -2)
        v = module.basis_vector(m, 0)
        # (u, m + alpha) = 2(1 + 1/2) - 1(-2 + 1/2) = 9/2
        assert act(x, v) == v.scale(GaussRat(Fraction(9, 2)))

    def test_derivation_mixes_in_lowering_matrix(self, trivial):
        # D(e1,(0,1)) on v (x) t^0: scalar alpha_1 plus the E_21 term
        module = make_module(trivial)
        x = LoopElem.d_part(2, trivial, 1, (0, 1))
        for k in range(module.d):
            v = module.basis_vector((0, 0), k)
            got = act(x, v)
            coords = [ZERO] * module.d
            coords[k] = HALF
            ev = [row[k] for row in module.rep.E(2, 1)]  # column k
            coords = [a + b for a, b in zip(coords, ev)]
            assert got == ModVector(module, {(0, 1): coords})

    def test_strict_mode_raises_at_boundary(self, trivial):
        module = make_module(trivial, radius=1)
        x = LoopElem.t_part(2, trivial, (1, 0))
        v = module.basis_vector((1, 0), 0)
        with pytest.raises(OutOfWindowError):
            act(x, v)

    def test_cancelling_terms_may_end_outside_the_window(self, trivial):
        # on v t^3, D(1;1) gives (3 + alpha + c) v t^4 and kappa t(1) gives
        # kappa v t^4: the image is zero, so nothing leaves the window
        alpha, c = GaussRat(Fraction(1, 3)), GaussRat(Fraction(3, 2))
        module = make_module(trivial, n=1, mu=(), c=c, radius=3,
                             alpha=[alpha])
        d_elem = LoopElem.d_part(1, trivial, 1, (1,))
        kappa = -(GaussRat(3) + alpha + c)
        x = d_elem + LoopElem.t_part(1, trivial, (1,),
                                     trivial.from_scalar(kappa))
        v = module.basis_vector((3,), 0)
        assert act(x, v).is_zero()
        with pytest.raises(OutOfWindowError):
            reference_act(x, v)  # term by term, each term leaves it
        with pytest.raises(OutOfWindowError):
            act(d_elem, v)

    def test_presentation_mismatch_rejected(self, trivial, laurent):
        module = make_module(trivial)
        with pytest.raises(ValueError):
            act(LoopElem.t_part(2, laurent, (0, 0)),
                module.basis_vector((0, 0), 0))


ORACLE_ALPHAS = [GaussRat(Fraction(1, 3)), GaussRat(0), GaussRat(1),
                 GaussRat(-2)]
ORACLE_SCALARS = [ZERO, GaussRat(1), GaussRat(-2), GaussRat(Fraction(1, 2)),
                  GaussRat(0, 1)]


def oracle_pool(pres):
    """Coefficients with psi(b) = 0 next to units, for every kind of B."""
    out = [pres.one(), pres.from_scalar(GaussRat(Fraction(-1, 2), 1))]
    if pres.kind != "trivial":
        x = pres.generator()
        zero_psi = x - pres.from_scalar(pres.eval_point)  # x - 2 at 2
        assert zero_psi.psi() == ZERO and not zero_psi.is_zero()
        out += [x, x * x, zero_psi, zero_psi * x]
    return out


def oracle_elem(rng, n, pres, pool):
    """One to three degrees |r_i| <= 1, each with a t-term, derivation
    terms or both."""
    x = LoopElem.zero(n, pres)
    for _ in range(rng.randint(1, 3)):
        r = tuple(rng.randint(-1, 1) for _ in range(n))
        if rng.random() < 0.6:
            x = x + LoopElem.t_part(n, pres, r, rng.choice(pool))
        for i in range(1, n + 1):
            if rng.random() < 0.6:
                x = x + LoopElem.d_part(n, pres, i, r, rng.choice(pool))
    return x


def oracle_vector(rng, module):
    """One to three slices of the radius-1 interior, some coordinates
    zero."""
    interior = module.window.interior((1,) * module.n)
    return ModVector(module, {
        rng.choice(interior): [rng.choice(ORACLE_SCALARS)
                               for _ in range(module.d)]
        for _ in range(rng.randint(1, 3))})


class TestActOracle:
    """act against reference_act, the action applied term by term."""

    @pytest.mark.parametrize("shift", range(len(ORACLE_ALPHAS)))
    @pytest.mark.parametrize("n,mu", [(1, ()), (2, (1,)), (3, (1, 0))])
    def test_matches_term_by_term_action(self, n, mu, shift, any_pres):
        alpha = [ORACLE_ALPHAS[(shift + i) % len(ORACLE_ALPHAS)]
                 for i in range(n)]
        module = make_module(any_pres, n=n, mu=mu, alpha=alpha)
        rng = random.Random(100 * n + shift)
        pool = oracle_pool(any_pres)
        for _ in range(12):
            x = oracle_elem(rng, n, any_pres, pool)
            for _ in range(2):  # the second vector reuses x's plan
                v = oracle_vector(rng, module)
                assert act(x, v) == reference_act(x, v)

    def test_no_plan_leaks_between_modules(self):
        pres = make_polyquot_cube()
        third = GaussRat(Fraction(1, 3))
        modules = [make_module(pres, alpha=[third, GaussRat(0)]),
                   make_module(pres, alpha=[GaussRat(1), GaussRat(-2)]),
                   make_module(pres, mu=(2,), alpha=[third, GaussRat(0)])]
        rng = random.Random(7)
        pool = oracle_pool(pres)
        for _ in range(10):
            x = oracle_elem(rng, 2, pres, pool)
            for module in modules + modules:
                v = oracle_vector(rng, module)
                assert act(x, v) == reference_act(x, v)

    def test_plan_cache_keeps_the_newest_elements(self, laurent):
        module = make_module(laurent)
        rng = random.Random(3)
        pool = oracle_pool(laurent)
        elems = [oracle_elem(rng, 2, laurent, pool)
                 for _ in range(PLAN_CACHE_SIZE + 5)]
        for x in elems + elems[:5]:  # the first five were dropped
            v = oracle_vector(rng, module)
            assert act(x, v) == reference_act(x, v)
        assert len(module._plans) == PLAN_CACHE_SIZE


def random_homogeneous(rng, n, pres, pool):
    deg = tuple(rng.randint(-1, 1) for _ in range(n))
    b = pool[rng.randrange(len(pool))]
    if rng.random() < 0.4:
        return LoopElem.t_part(n, pres, deg, b), deg
    return LoopElem.d_part(n, pres, rng.randint(1, n), deg, b), deg


def b_pool(pres):
    out = [pres.one(), pres.one() * GaussRat(2)]
    if pres.kind != "trivial":
        out.append(pres.generator())
    return out


class TestModuleAxioms:
    def test_function_pair_commutes(self, trivial):
        module = make_module(trivial)
        x = LoopElem.t_part(2, trivial, (1, 0))
        y = LoopElem.t_part(2, trivial, (0, 1))
        v = module.basis_vector((0, 0), 0)
        assert module_axiom_residual(x, y, v).is_zero()

    def test_derivation_function_pair(self, trivial):
        module = make_module(trivial)
        x = LoopElem.d_part(2, trivial, 1, (1, 0))
        y = LoopElem.t_part(2, trivial, (0, 1))
        v = module.basis_vector((0, 0), 1)
        assert module_axiom_residual(x, y, v).is_zero()

    @pytest.mark.parametrize("n,mu", [(1, ()), (2, (1,)), (3, (1, 0))])
    def test_random_homogeneous_pairs(self, n, mu, any_pres):
        module = make_module(any_pres, n=n, mu=mu)
        rng = random.Random(11 * n)
        pool = b_pool(any_pres)
        interior = module.window.interior((2,) * n)
        for _ in range(30):
            x, r = random_homogeneous(rng, n, any_pres, pool)
            y, s = random_homogeneous(rng, n, any_pres, pool)
            m = interior[rng.randrange(len(interior))]
            v = module.basis_vector(m, rng.randrange(module.d))
            assert module_axiom_residual(x, y, v).is_zero()

    def test_function_action_associative_and_unital(self, laurent):
        module = make_module(laurent)
        t = laurent.generator()
        tinv = laurent.from_poly({-1: GaussRat(1)})
        v = module.basis_vector((0, 0), 0)
        assoc, unit = assoc_unital_residuals((1, 0), (-1, 0), t, tinv, v)
        assert assoc.is_zero()
        assert unit.is_zero()


def acting(x):
    return lambda v: act(x, v)


class TestOperatorMatrices:
    def test_unit_function_is_identity_block(self, trivial):
        module = make_module(trivial)
        x = LoopElem.t_part(2, trivial, (0, 0))
        assert (dense(op_matrix(acting(x), module, [(0, 0)], [(0, 0)]),
                      module.d) == identity(module.d))

    def test_zero_mode_block_is_scalar(self, trivial):
        module = make_module(trivial)
        x = LoopElem.d_part(2, trivial, 1, (0, 0))
        m = (2, -1)
        got = op_matrix(acting(x), module, [m], [m])
        scal = GaussRat(2) + HALF
        want = [[scal if i == j else ZERO for j in range(module.d)]
                for i in range(module.d)]
        assert dense(got, module.d) == want

    def test_shift_block_is_identity(self, trivial):
        module = make_module(trivial)
        x = LoopElem.t_part(2, trivial, (1, 1))
        got = op_matrix(acting(x), module, [(0, 0)], [(1, 1)])
        assert dense(got, module.d) == identity(module.d)

    def test_coefficient_factors_through_evaluation(self, polyquot):
        # the matrix of D(u,r) b is psi(b) times the matrix of D(u,r)
        module = make_module(polyquot)
        x = polyquot.generator()
        u = (GaussRat(1), GaussRat(1))
        xb = LoopElem.d_vec(2, polyquot, u, (1, 0), x)
        x1 = LoopElem.d_vec(2, polyquot, u, (1, 0))
        src, dst = [(0, 0)], [(1, 0)]
        got = op_matrix(acting(xb), module, src, dst)
        base = op_matrix(acting(x1), module, src, dst)
        assert got == [[(row, GaussRat(2) * v) for row, v in col]
                       for col in base]

    def test_destination_mismatch_raises(self, trivial):
        module = make_module(trivial)
        x = LoopElem.t_part(2, trivial, (1, 0))
        with pytest.raises(OutOfWindowError):
            op_matrix(acting(x), module, [(0, 0)], [(0, 0)])

    def test_default_destination_is_sorted_image_support(self, trivial):
        module = make_module(trivial)
        x = (LoopElem.t_part(2, trivial, (1, 0))
             + LoopElem.t_part(2, trivial, (-1, 0)))
        got = op_matrix(acting(x), module, [(0, 0)])
        # rows: slice (-1, 0) first, then (1, 0), increasing in each column
        d = module.d
        assert [[row for row, _ in col] for col in got] == [
            [k, d + k] for k in range(d)]
        assert dense(got, 2 * d) == identity(d) + identity(d)
        empty = op_matrix(lambda v: v - v, module, [(0, 0)])
        assert empty == [[] for _ in range(d)]

    def test_columns_follow_source_slice_order(self, trivial):
        module = make_module(trivial)
        x = LoopElem.t_part(2, trivial, (0, 1))
        got = op_matrix(acting(x), module, [(0, 0), (1, 0)],
                        [(1, 1), (0, 1)])
        d = module.d
        got = dense(got, 2 * d)
        for row in range(2 * d):
            for col in range(2 * d):
                # (0,0) -> (0,1) is the second dst block, (1,0) -> (1,1) the first
                want = 1 if (row + d) % (2 * d) == col else 0
                assert got[row][col] == GaussRat(want)
