from fractions import Fraction
from itertools import permutations, product

import pytest

from conftest import (all_relations_hold, columns, dense_relation_residual,
                      direct_sum_irrep, mat_is_zero)
from loopwitt import glnrep
from loopwitt.glnrep import (build_irrep, burnside_dim, gt_patterns,
                             partition, weyl_dim)
from loopwitt.linalg import dense, identity, mat_mul, zeros
from loopwitt.scalars import GaussRat, ONE, ZERO


def norton_irreducible(mats, theta):
    """Norton's test on dense matrices, through their column views."""
    return glnrep.norton_irreducible([columns(m) for m in mats],
                                     columns(theta))


def highest_weight_theta(diagonals, hw):
    """Norton's theta from dense diagonals, as a dense matrix."""
    return dense(glnrep.highest_weight_theta(
        [columns(m) for m in diagonals], hw), len(diagonals[0]))


class TestWeylDimension:
    @pytest.mark.parametrize("mu,n,dim", [
        ((1,), 2, 2),      # natural representation
        ((2,), 2, 3),
        ((3,), 2, 4),
        ((1, 0), 3, 3),
        ((0, 1), 3, 3),
        ((1, 1), 3, 8),    # adjoint of the traceless part
        ((2, 0), 3, 6),
        ((0,), 2, 1),
        ((0, 0), 3, 1),
        ((), 1, 1),
    ])
    def test_known_dimensions(self, mu, n, dim):
        assert weyl_dim(mu, n) == dim

    def test_bad_weight_rejected(self):
        with pytest.raises(ValueError):
            weyl_dim((1,), 3)
        with pytest.raises(ValueError):
            weyl_dim((-1,), 2)


ALL_CONFIGS = [(mu, n) for mu, n in
               [((1,), 2), ((2,), 2), ((1, 0), 3), ((1, 1), 3), ((), 1)]]
C_VALUES = [GaussRat(0), GaussRat(1), GaussRat(Fraction(5, 2))]


@pytest.fixture(scope="module")
def built():
    return {(mu, n, str(c)): build_irrep(mu, c, n)
            for mu, n in ALL_CONFIGS for c in C_VALUES}


class TestConstruction:
    def test_natural_representation_matrices(self):
        rep = build_irrep((1,), GaussRat(1), 2)
        assert rep.d == 2
        # matrix units in the construction basis
        assert rep.E(1, 2) == [[ZERO, ONE], [ZERO, ZERO]]
        assert rep.E(2, 1) == [[ZERO, ZERO], [ONE, ZERO]]
        total = [[a + b for a, b in zip(r1, r2)]
                 for r1, r2 in zip(rep.E(1, 1), rep.E(2, 2))]
        assert total == identity(2)

    def test_lowering_chain_length(self):
        # symmetric square of the natural rep: the lowering operator is
        # nilpotent of order exactly 3
        rep = build_irrep((2,), GaussRat(0), 2)
        assert rep.d == 3
        e21 = rep.E(2, 1)
        sq = mat_mul(e21, e21)
        assert not mat_is_zero(sq)
        assert mat_is_zero(mat_mul(sq, e21))

    def test_trivial_weight_gives_scalars(self):
        rep = build_irrep((0,), GaussRat(0), 2)
        assert rep.d == 1
        for i in range(1, 3):
            for j in range(1, 3):
                assert mat_is_zero(rep.E(i, j))

    def test_dimension_matches_formula(self, built):
        for (mu, n, _), rep in built.items():
            assert rep.d == weyl_dim(mu, n)

    def test_commutation_relations(self, built):
        for rep in built.values():
            assert all_relations_hold(rep)

    def test_identity_acts_by_scalar(self, built):
        for (_, _, c_str), rep in built.items():
            tp = rep.trace_part()
            for i in range(rep.d):
                for j in range(rep.d):
                    want = rep.c if i == j else ZERO
                    assert tp.get((i, j), ZERO) == want

    def test_highest_weight_vector_killed_by_raising(self, built):
        for (mu, n, _), rep in built.items():
            hw = rep.hw_index
            for i in range(1, n):
                col = [rep.E(i, i + 1)[row][hw] for row in range(rep.d)]
                assert not any(col)

    def test_highest_weight_vector_is_diagonal_eigenvector(self, built):
        for (mu, n, _), rep in built.items():
            hw = rep.hw_index
            for i in range(1, n + 1):
                m = rep.E(i, i)
                col = [m[row][hw] for row in range(rep.d)]
                # only the hw entry may be nonzero
                assert all(not c for k, c in enumerate(col) if k != hw)

    def test_weight_multiset_is_symmetric_group_invariant(self):
        rep = build_irrep((1, 1), GaussRat(0), 3)
        table = dict(rep.weight_table())
        for w, mult in table.items():
            for p in permutations(w):
                assert table.get(tuple(p)) == mult

    def test_highest_weight_column_has_shifted_weight(self, built):
        # E_ii v_hw = (lambda_i + (c - |lambda|)/n) v_hw
        for (mu, n, _), rep in built.items():
            lam = partition(mu)
            shift = (rep.c - sum(lam)) * GaussRat(Fraction(1, n))
            for i in range(1, n + 1):
                assert rep.E(i, i)[rep.hw_index][rep.hw_index] == \
                    lam[i - 1] + shift

    def test_gelfand_tsetlin_patterns(self):
        # V(2) of gl(2): the patterns (2,0 / 2), (2,0 / 1), (2,0 / 0)
        assert gt_patterns([2, 0]) == [((), (2,), (2, 0)),
                                       ((), (1,), (2, 0)),
                                       ((), (0,), (2, 0))]
        assert len(gt_patterns([2, 1, 0])) == 8
        assert gt_patterns([2, 1, 0])[0] == ((), (2,), (2, 1), (2, 1, 0))


def sparse_view_cases():
    c = GaussRat(Fraction(3, 2), 1)
    out = {f"n{n}-mu{list(mu)}": lambda n=n, mu=mu: build_irrep(mu, c, n)
           for n, mu in [(3, (2, 1)), (4, (1, 0, 1)), (4, (1, 1, 1))]}
    out["direct-sum"] = lambda: direct_sum_irrep(build_irrep((1, 0), c, 3),
                                                 build_irrep((0, 1), c, 3))
    return out


SPARSE_VIEW_CASES = sparse_view_cases()


@pytest.mark.parametrize("name", sorted(SPARSE_VIEW_CASES))
def test_sparse_view_matches_dense(name):
    """Every E_ij is d columns of nonzero entries, rows increasing, and
    every sparse relation residual equals the dense-commutator oracle."""
    rep = SPARSE_VIEW_CASES[name]()
    rng = range(1, rep.n + 1)
    for i, j in product(rng, repeat=2):
        cols = rep.columns(i, j)
        assert len(cols) == rep.d
        assert columns(rep.E(i, j)) == cols
    for i, j, k, l in product(rng, repeat=4):
        res = rep.relation_residual(i, j, k, l)
        assert [[res.get((r, c), ZERO) for c in range(rep.d)]
                for r in range(rep.d)] == dense_relation_residual(
                    rep, i, j, k, l)
        assert ZERO not in res.values()


SMALL_MODULES = [(mu, n) for n in range(1, 5)
                 for mu in product(range(15), repeat=n - 1)
                 if weyl_dim(mu, n) <= 15]


@pytest.mark.parametrize("mu,n", SMALL_MODULES,
                         ids=[f"n{n}-mu{list(mu)}" for mu, n in SMALL_MODULES])
def test_every_small_module(mu, n):
    rep = build_irrep(mu, GaussRat(Fraction(3, 2), 1), n)
    assert rep.d == weyl_dim(mu, n)
    assert all_relations_hold(rep)
    mats, theta = gl_generators(rep)
    assert burnside_dim(mats) == rep.d ** 2
    # Norton certifies exactly when Burnside finds the full algebra
    assert norton_irreducible(mats, theta)


def gl_generators(rep):
    """Every E_ij of rep, and Norton's theta built from the E_ii."""
    rng = range(1, rep.n + 1)
    mats = [rep.E(i, j) for i, j in product(rng, repeat=2)]
    return mats, highest_weight_theta([rep.E(i, i) for i in rng],
                                      rep.hw_index)


class TestNorton:
    """norton_irreducible returns True only when burnside_dim == d^2."""

    def test_identity_alone_is_not_certified(self):
        # the algebra is the scalars, dimension 1; every theta is c I
        for theta in (zeros(3, 3), identity(3)):
            assert not norton_irreducible([identity(3)], theta)

    def test_single_diagonal_matrix_is_not_certified(self):
        # Burnside finds dimension 2 (TestBurnside)
        m = [[GaussRat(1), ZERO], [ZERO, GaussRat(2)]]
        theta = [[ZERO, ZERO], [ZERO, ONE]]   # m - I
        assert not norton_irreducible([m], theta)

    @pytest.mark.parametrize("lower", [True, False])
    def test_triangular_family(self, lower):
        # lower triangular 2 x 2: e1 spins to everything, but span(e2) is
        # a submodule missing ker theta, which only the transposed spin
        # sees; upper triangular: ker theta = span(e1) is a submodule
        m = [[GaussRat(1), ZERO], [ZERO, GaussRat(2)]]
        nil = [[ZERO, ZERO], [ONE, ZERO]] if lower else [[ZERO, ONE],
                                                         [ZERO, ZERO]]
        theta = [[ZERO, ZERO], [ZERO, ONE]]   # m - I
        assert not norton_irreducible([m, nil], theta)
        assert burnside_dim([m, nil]) == 3

    def test_irreducible_but_not_absolutely_irreducible(self):
        # multiplication by sqrt 2 on Q(i)(sqrt 2): irreducible over Q(i)
        # with a two-dimensional algebra; every theta in it is 0 or
        # invertible, so ker theta is never one-dimensional
        s = [[ZERO, GaussRat(2)], [ONE, ZERO]]
        assert not norton_irreducible([s], zeros(2, 2))
        assert burnside_dim([s]) == 2

    @pytest.mark.parametrize("n,mu,mu2", [
        (2, (1,), (2,)), (2, (1,), (0,)), (3, (1, 0), (0, 1)),
        (3, (1, 0), (1, 0))])
    def test_direct_sum_is_not_certified(self, n, mu, mu2):
        c = GaussRat(Fraction(3, 2))
        a, b = build_irrep(mu, c, n), build_irrep(mu2, c, n)
        mats, theta = gl_generators(direct_sum_irrep(a, b))
        assert not norton_irreducible(mats, theta)
        want = a.d ** 2 + b.d ** 2 if mu != mu2 else a.d ** 2
        assert burnside_dim(mats) == want

    def test_kernel_above_one_dimension_decides_nothing(self):
        # the natural module of gl(3) is irreducible, but theta = 0 and
        # theta = E_22 - (its highest weight entry) I have kernels of
        # dimension 3 and 2
        rep = build_irrep((1, 0), GaussRat(1), 3)
        mats, _ = gl_generators(rep)
        z = zeros(3, 3)
        for theta in (z, highest_weight_theta([z, rep.E(2, 2), z],
                                               rep.hw_index)):
            assert not norton_irreducible(mats, theta)

    @pytest.mark.parametrize("hw", [0, 2])
    def test_hw_shifted_subtracts_the_hw_diagonal_entry(self, hw):
        a = [[GaussRat(2), ONE, ZERO], [ZERO, GaussRat(0, 1), ZERO],
             [ONE, ZERO, GaussRat(5)]]
        top = a[hw][hw]
        want = [[x - top if r == k else x for k, x in enumerate(row)]
                for r, row in enumerate(a)]
        assert glnrep.hw_shifted(columns(a), hw) == columns(want)
        # a zero entry leaves the matrix itself; a scalar matrix goes to
        # zero and keeps its d empty columns
        b = columns([[ZERO, ONE], [ONE, ZERO]])
        assert glnrep.hw_shifted(b, 1) is b
        assert glnrep.hw_shifted(columns(identity(3)), hw) == [[], [], []]


class TestBurnside:
    def test_identity_alone_spans_scalars(self):
        assert burnside_dim([identity(3)]) == 1

    def test_single_diagonal_matrix_is_reducible(self):
        m = [[GaussRat(1), ZERO], [ZERO, GaussRat(2)]]
        assert burnside_dim([m]) == 2

    def test_matrix_units_span_everything(self):
        rep = build_irrep((1,), GaussRat(1), 2)
        mats = [rep.E(i, j) for i in range(1, 3) for j in range(1, 3)]
        assert burnside_dim(mats) == 4

    def test_built_modules_are_irreducible(self, built):
        for (mu, n, _), rep in built.items():
            mats = [rep.E(i, j)
                    for i, j in product(range(1, n + 1), repeat=2)]
            assert burnside_dim(mats) == rep.d ** 2

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            burnside_dim([])
