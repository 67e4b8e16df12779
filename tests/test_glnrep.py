from fractions import Fraction
from itertools import count, permutations, product, takewhile

import pytest

from hypothesis import given, settings, strategies as st

from conftest import (all_relations_hold, columns, dense_of,
                      dense_relation_residual, direct_sum_irrep, identity, int_form, int_mat,
                      mat_is_zero, mat_mul, rational_columns,
                      rational_highest_weight_theta, rational_hw_shifted,
                      reference_build_irrep, reference_burnside_dim,
                      reference_int_view, sparse_sum)
from loopwitt import glnrep
from loopwitt.glnrep import (DIM_CAP, build_irrep, gt_patterns, partition,
                             weyl_dim)
from loopwitt.linalg import dense, zeros
from loopwitt.scalars import GaussRat, ONE, ZERO
from test_linalg import GAUSS_RAT


def norton_irreducible(mats, theta):
    """Norton's test on dense matrices, through their integer forms."""
    return glnrep.norton_irreducible([int_mat(m) for m in mats],
                                     int_mat(theta))


def burnside_dim(mats):
    """The Burnside dimension of dense matrices, through their integer
    forms."""
    return glnrep.burnside_dim([int_mat(m) for m in mats])


def highest_weight_theta(diagonals, hw):
    """Norton's theta from dense diagonals, as a dense matrix."""
    den, theta = glnrep.highest_weight_theta(
        [int_form(columns(m)) for m in diagonals], hw)
    return dense(theta, len(diagonals[0]), den)


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
    """Every N_ij is d columns of nonzero entries, rows increasing, and
    every sparse relation residual equals the dense-commutator oracle."""
    rep = SPARSE_VIEW_CASES[name]()
    rng = range(1, rep.n + 1)
    _, ints = rep.int_view()
    for part in (part for row in ints for m in row for part in m if part):
        assert len(part) == rep.d
        for col in part:
            assert all(x for _, x in col)
            assert [r for r, _ in col] == sorted({r for r, _ in col})
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


def modules_up_to(cap, n_max):
    """(mu, n) for every gl(n) module with n <= n_max and d <= cap; the
    dimension grows with each entry of mu."""
    out = []
    for n in range(1, n_max + 1):
        mus = [()]
        for k in range(n - 1):
            pad = (0,) * (n - 2 - k)
            mus = [mu + (m,) for mu in mus for m in takewhile(
                lambda m, mu=mu: weyl_dim(mu + (m,) + pad, n) <= cap,
                count())]
        out += [(mu, n) for mu in mus]
    return out


class TestIntegerView:
    def test_view_is_d_times_every_e_ij(self):
        scalar = GaussRat(Fraction(3, 2), 1)
        rep = build_irrep((1, 1), scalar, 3)
        reference = reference_build_irrep((1, 1), scalar, 3)
        den, ints = rep.int_view()
        for i, j in product(range(1, 4), repeat=2):
            re, im = ints[i - 1][j - 1]
            for c, col in enumerate(reference[i - 1][j - 1]):
                got = sparse_sum([(r, GaussRat(x)) for r, x in re[c]] + [
                    (r, GaussRat(0, x)) for r, x in (im[c] if im else [])])
                assert got == {r: x * den for r, x in col}
        # the diagonal carries c's imaginary part, the rest is real
        assert ints[0][0][1] is not None and ints[0][1][1] is None

    @pytest.mark.parametrize("c", [
        GaussRat(Fraction(3, 2)), GaussRat(Fraction(1, 2), 1), GaussRat(0),
        GaussRat(Fraction(-7, 3), Fraction(-2, 5))], ids=str)
    def test_build_matches_the_gauss_rat_construction(self, c):
        # the same least D and the same N_ij as the GaussRat construction
        # cleared, on every module up to DIM_CAP at n <= 5
        modules = modules_up_to(DIM_CAP, 5)
        assert len(modules) == 141
        for mu, n in modules:
            assert build_irrep(mu, c, n).int_view() == reference_int_view(
                reference_build_irrep(mu, c, n)), (mu, n)

    def test_build_makes_no_gauss_rat(self, monkeypatch):
        # every GaussRat is made by scalars._norm; at a non-real c the
        # d = 64 modules make none, and the weight table one per
        # coordinate of each distinct weight
        from loopwitt import scalars
        calls = []
        norm = scalars._norm

        def counted(*args):
            calls.append(args)
            return norm(*args)

        c = GaussRat(Fraction(1, 2), 1)
        monkeypatch.setattr(scalars, "_norm", counted)
        for mu, n in [((1, 1, 1), 4), ((3, 3), 3)]:
            rep = build_irrep(mu, c, n)
            assert rep.d == DIM_CAP and calls == []
            table = rep.weight_table()
            assert len(calls) == n * len(table) < n * rep.d
            calls.clear()


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
        (3, (1, 0), (1, 0)), (3, (1, 0), (2, 0))])
    def test_direct_sum_is_not_certified(self, n, mu, mu2):
        # Burnside on the N_ij of the planted sum agrees with the GaussRat
        # closure on its dense E_ij
        c = GaussRat(Fraction(3, 2))
        a, b = build_irrep(mu, c, n), build_irrep(mu2, c, n)
        rep = direct_sum_irrep(a, b)
        mats, theta = gl_generators(rep)
        assert not norton_irreducible(mats, theta)
        want = a.d ** 2 + b.d ** 2 if mu != mu2 else a.d ** 2
        _, ints = rep.int_view()
        assert glnrep.burnside_dim([m for row in ints for m in row]) == (
            reference_burnside_dim(mats)) == want

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
        assert glnrep.hw_shifted(int_mat(a), hw) == int_mat(want)
        # a zero entry leaves the matrix itself; a scalar matrix goes to
        # zero and keeps its d empty columns
        b = int_mat([[ZERO, ONE], [ONE, ZERO]])
        assert glnrep.hw_shifted(b, 1) is b
        assert glnrep.hw_shifted(int_mat(identity(3)), hw) == (
            [[], [], []], None)


@st.composite
def square_columns(draw, d, entries=GAUSS_RAT):
    """The Columns of a sparse d x d matrix over Q(i), by default with
    non-real entries and denominators up to 2^61 - 1 included."""
    filled = draw(st.dictionaries(
        st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)), entries,
        max_size=2 * d))
    return [[(r, filled[r, c]) for r in range(d) if filled.get((r, c))]
            for c in range(d)]


def scaled(form, k):
    """(k den, k den a) for (den, den a): the same matrix a over a
    larger denominator."""
    den, (re, im) = form
    return den * k, tuple(part and [[(r, k * x) for r, x in col]
                                    for col in part] for part in (re, im))


class TestIntegerFormsAgainstGaussRat:
    """theta and the hw shift over Z[i] equal the GaussRat oracles of
    conftest, over their denominators, whatever denominator each input
    stands over."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda d: st.tuples(
        st.lists(st.tuples(square_columns(d), st.integers(1, 3)),
                 min_size=1, max_size=3),
        st.integers(0, d - 1))))
    def test_theta(self, drawn):
        diagonals, hw = drawn
        got = glnrep.highest_weight_theta(
            [scaled(int_form(a), k) for a, k in diagonals], hw)
        assert rational_columns(got) == rational_highest_weight_theta(
            [a for a, _ in diagonals], hw)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda d: st.tuples(
        square_columns(d), st.integers(1, 3), st.integers(0, d - 1))))
    def test_hw_shift(self, drawn):
        a, k, hw = drawn
        den, m = scaled(int_form(a), k)
        assert rational_columns((den, glnrep.hw_shifted(m, hw))) == (
            rational_hw_shifted(a, hw))


@pytest.mark.parametrize("c", ["3/2", "1/2+1 i"])
def test_any_common_denominator_gives_the_same_output(c, tmp_path, capsys,
                                                      monkeypatch):
    # an Irrep over (2D, 2 N_ij) is the same module: the reports of the
    # default suites and the printed E_ij are byte-identical to those
    # over the least D, at real and at non-real c
    import json
    from loopwitt import cli, suites
    from loopwitt.glnrep import Irrep
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "n": 3, "mu": [1, 0], "c": c, "alpha": ["1/3", "-1/2 i", "2/3"],
        "B": {"kind": "polyquot", "modulus": ["-8", "12", "-6", "1"],
              "eval_point": "2"}, "seed": 7, "cases_per_suite": 2}))

    def outputs():
        out = []
        for args in (["verify-all", "--json"],
                     ["irrep-info", "--matrices", "--json"]):
            assert cli.main(args + ["--config", str(path)]) == 0
            text = capsys.readouterr().out
            if args[0] == "verify-all":
                text = json.dumps([{k: v for k, v in r.items()
                                    if k != "wall_time"}
                                   for r in json.loads(text)])
            out.append(text)
        return out

    want = outputs()
    build, calls = glnrep.build_irrep, []

    def doubled(mu, c, n):
        rep = build(mu, c, n)
        den, ints = rep.int_view()
        calls.append(n)
        return Irrep(n, rep.mu, rep.c, 2 * den,
                     [[scaled((den, m), 2)[1] for m in row] for row in ints],
                     rep.hw_index)

    for module in (cli, suites):
        monkeypatch.setattr(module, "build_irrep", doubled)
    assert outputs() == want
    assert calls == [3, 3]


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


# real and non-real entries with numerators and denominators up to 3
SMALL_GAUSS_RAT = st.builds(
    lambda a, q, b, r: GaussRat(Fraction(a, q), Fraction(b, r)),
    st.integers(-3, 3), st.integers(1, 3), st.sampled_from([0, 0, -2, 1, 3]),
    st.integers(1, 3))
# the modules of the benchmark's gl-cert workload, d = 3 to 15
GL_CERT = [(3, (1, 0)), (3, (2, 0)), (3, (1, 1)), (3, (3, 0)), (3, (2, 1)),
           (4, (1, 0, 0)), (4, (2, 0, 0)), (4, (1, 0, 1))]


class TestBurnsideAgainstGaussRat:
    """burnside_dim on IntMatrix forms gives the dimension of the GaussRat
    closure of conftest on the same generators, dense: on the N_ij of
    built modules (planted ones in TestNorton) and on sparse generator
    sets."""

    @pytest.mark.parametrize("n,mu", GL_CERT,
                             ids=[f"n{n}-mu{list(mu)}" for n, mu in GL_CERT])
    def test_gl_cert_modules(self, n, mu):
        rep = build_irrep(mu, GaussRat(Fraction(3, 2), 1), n)
        _, ints = rep.int_view()
        mats, _ = gl_generators(rep)
        assert glnrep.burnside_dim([m for row in ints for m in row]) == (
            reference_burnside_dim(mats)) == rep.d ** 2

    # non-real generators with large denominators, or dense ones, make
    # the reduced vectors' entries grow to millions of bits, in both
    # closures; so the sets are sparse, their entries small and d <= 4
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda d: st.lists(
        square_columns(d, SMALL_GAUSS_RAT), min_size=1, max_size=3)))
    def test_sparse_generators(self, gens):
        d = len(gens[0])
        assert glnrep.burnside_dim([int_form(a)[1] for a in gens]) == (
            reference_burnside_dim([dense_of(a, d) for a in gens]))
