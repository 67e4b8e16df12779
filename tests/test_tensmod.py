import random
from fractions import Fraction

import pytest

from loopwitt.glnrep import build_irrep
from loopwitt.linalg import identity
from loopwitt.loop import LoopElem
from loopwitt.scalars import GaussRat, ZERO
from loopwitt.tensmod import (ModVector, OutOfWindowError, TensorModule,
                              Window, act, assoc_unital_residuals,
                              module_axiom_residual, op_matrix)

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
        assert w.contains((2, 0))
        assert not w.contains((2, 0), margin=1)
        assert w.contains((1, 0), margin=(1, 2))
        assert not w.contains((1, 1), margin=(1, 2))

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
        assert module.cartan_eigenvalue(1, (2, -1)) == GaussRat(2) + HALF
        assert module.cartan_eigenvalue(2, (2, -1)) == GaussRat(-1) + HALF

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

    def test_presentation_mismatch_rejected(self, trivial, laurent):
        module = make_module(trivial)
        with pytest.raises(ValueError):
            act(LoopElem.t_part(2, laurent, (0, 0)),
                module.basis_vector((0, 0), 0))


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
        interior = module.window.interior(2)
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
        assert (op_matrix(acting(x), module, [(0, 0)], [(0, 0)])
                == identity(module.d))

    def test_zero_mode_block_is_scalar(self, trivial):
        module = make_module(trivial)
        x = LoopElem.d_part(2, trivial, 1, (0, 0))
        m = (2, -1)
        got = op_matrix(acting(x), module, [m], [m])
        scal = GaussRat(2) + HALF
        want = [[scal if i == j else ZERO for j in range(module.d)]
                for i in range(module.d)]
        assert got == want

    def test_shift_block_is_identity(self, trivial):
        module = make_module(trivial)
        x = LoopElem.t_part(2, trivial, (1, 1))
        got = op_matrix(acting(x), module, [(0, 0)], [(1, 1)])
        assert got == identity(module.d)

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
        want = [[GaussRat(2) * v for v in row] for row in base]
        assert got == want

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
        # rows: slice (-1, 0) first, then (1, 0)
        assert got == identity(module.d) + identity(module.d)
        assert op_matrix(lambda v: v - v, module, [(0, 0)]) == []

    def test_columns_follow_source_slice_order(self, trivial):
        module = make_module(trivial)
        x = LoopElem.t_part(2, trivial, (0, 1))
        got = op_matrix(acting(x), module, [(0, 0), (1, 0)],
                        [(1, 1), (0, 1)])
        d = module.d
        for row in range(2 * d):
            for col in range(2 * d):
                # (0,0) -> (0,1) is the second dst block, (1,0) -> (1,1) the first
                want = 1 if (row + d) % (2 * d) == col else 0
                assert got[row][col] == GaussRat(want)
