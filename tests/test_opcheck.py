import random
from fractions import Fraction

import pytest

from loopwitt import opcheck
from loopwitt.glnrep import build_irrep
from loopwitt.linalg import mat_is_zero, rank
from loopwitt.opcheck import OpSpec, ShiftDifferenceBasis
from loopwitt.scalars import GaussRat, ZERO
from loopwitt.tensmod import TensorModule, Window, op_matrix

HALF = GaussRat(Fraction(1, 2))


def make_module(pres, n=2, mu=(1,), c=GaussRat(1), radius=3, alpha=None):
    rep = build_irrep(mu, c, n)
    alpha = alpha if alpha is not None else [HALF] * n
    return TensorModule(rep, alpha, pres, Window(n, radius))


def e(n, i):
    return tuple(GaussRat(1 if t == i else 0) for t in range(n))


def deg(n, j, val=1):
    return tuple(val if t == j else 0 for t in range(n))


def bottom_block(spec, module):
    zero = [(0,) * module.n]
    return op_matrix(opcheck.as_operator(spec, module), module, zero, zero)


def sample_specs(pres, n, rng, count, family="product"):
    pool = [pres.one(), pres.one() * GaussRat(2)]
    if pres.kind != "trivial":
        pool.append(pres.generator())
    out = []
    for _ in range(count):
        u = tuple(GaussRat(rng.randint(-1, 2)) for _ in range(n))
        if not any(u):
            u = e(n, 0)
        r = tuple(rng.randint(-1, 1) for _ in range(n))
        b1 = pool[rng.randrange(len(pool))]
        b2 = pool[rng.randrange(len(pool))]
        out.append(OpSpec(family, u, r, b1, b2))
    return out


class TestOperatorFamilies:
    def test_unknown_family_rejected(self, trivial):
        with pytest.raises(ValueError):
            OpSpec("twisted", (GaussRat(1),), (0,), trivial.one(),
                   trivial.one())

    def test_product_family_preserves_weight(self, trivial):
        module = make_module(trivial)
        spec = OpSpec("product", e(2, 0), (1, -1), trivial.one(),
                      trivial.one())
        # a single-slice block succeeds only if the operator maps the
        # slice to itself
        m = bottom_block(spec, module)
        assert len(m) == module.d

    def test_product_zero_shift_is_pairing_scalar(self, trivial):
        module = make_module(trivial)
        u = (GaussRat(2), GaussRat(1))
        spec = OpSpec("product", u, (0, 0), trivial.one(), trivial.one())
        got = bottom_block(spec, module)
        scal = GaussRat(2) * HALF + HALF  # (u, alpha)
        want = [[scal if i == j else ZERO for j in range(module.d)]
                for i in range(module.d)]
        assert got == want

    def test_reduced_zero_shift_vanishes(self, trivial):
        module = make_module(trivial)
        spec = OpSpec("reduced", e(2, 0), (0, 0), trivial.one(),
                      trivial.one())
        assert mat_is_zero(bottom_block(spec, module))


class TestBracketIdentities:
    @pytest.mark.parametrize("n,mu", [(1, ()), (2, (1,)), (3, (1, 0))])
    def test_all_residuals_vanish_on_random_specs(self, n, mu, any_pres):
        module = make_module(any_pres, n=n, mu=mu)
        rng = random.Random(31 + n)
        for _ in range(6):
            s1, s2 = sample_specs(any_pres, n, rng, 2)
            assert mat_is_zero(
                opcheck.product_bracket_residual(s1, s2, module))
            assert mat_is_zero(
                opcheck.reduced_bracket_residual(s1, s2, module))
            assert mat_is_zero(
                opcheck.evaluated_bracket_residual(s1, s2, module))
            assert mat_is_zero(
                opcheck.product_to_reduced_residual(s1, s2, module))

    def test_scaled_product_bracket(self, laurent):
        module = make_module(laurent)
        t = laurent.generator()
        res = opcheck.scaled_product_bracket_residual(
            e(2, 0), (1, 0), t, e(2, 1), (0, 1), laurent.one(), module)
        assert mat_is_zero(res)

    def test_bracket_with_zero_shifts_is_trivial(self, trivial):
        # two zero-shift operators are scalars on every slice, so their
        # bracket relation degenerates
        module = make_module(trivial)
        s1 = OpSpec("product", e(2, 0), (0, 0), trivial.one(), trivial.one())
        s2 = OpSpec("product", e(2, 1), (0, 0), trivial.one(), trivial.one())
        assert mat_is_zero(opcheck.product_bracket_residual(s1, s2, module))


class TestScalarAndCollapse:
    def test_zero_modes_act_by_evaluation_scaled_pairing(self, any_pres):
        module = make_module(any_pres)
        pool = [any_pres.one()]
        if any_pres.kind != "trivial":
            pool.append(any_pres.generator())
        for b in pool:
            res = opcheck.zero_mode_scalar_residual(
                (GaussRat(1), GaussRat(-2)), b, module)
            assert mat_is_zero(res)

    def test_ideal_member_acts_by_zero(self, polyquot):
        # b in the kernel of evaluation makes the zero mode vanish
        module = make_module(polyquot)
        x = polyquot.generator()
        b = x - polyquot.from_scalar(GaussRat(2))
        assert mat_is_zero(opcheck.zero_mode_scalar_residual(
            e(2, 0), b, module))

    def test_coefficient_collapse(self, any_pres):
        module = make_module(any_pres)
        b = (any_pres.generator() if any_pres.kind != "trivial"
             else any_pres.one() * GaussRat(3))
        assert mat_is_zero(opcheck.coefficient_collapse_residual(
            e(2, 0), (1, -1), b, module))


class TestShiftDifferences:
    def test_rank_one_scalar_dimensions(self, trivial):
        module = make_module(trivial, n=1, mu=(), radius=1)
        W = ShiftDifferenceBasis(module)
        assert W.dim == 2   # differences of 3 slices
        assert W.codim == 1

    def test_rank_two_dimensions(self, trivial):
        module = make_module(trivial, radius=1)
        W = ShiftDifferenceBasis(module)
        assert W.dim == 16  # 2 * (9 - 1)
        assert W.codim == 2
        assert rank(W.explicit_rows()) == 16

    def test_membership_is_slice_sum_vanishing(self, trivial):
        module = make_module(trivial, radius=1)
        W = ShiftDifferenceBasis(module)
        diff = (module.basis_vector((1, 0), 0)
                - module.basis_vector((0, 0), 0))
        assert W.contains(diff)
        assert not W.contains(module.basis_vector((1, 0), 0))

    def test_quotient_representative(self, trivial):
        module = make_module(trivial, radius=1)
        W = ShiftDifferenceBasis(module)
        v = (module.basis_vector((1, 0), 0).scale(GaussRat(2))
             + module.basis_vector((0, 1), 1))
        assert W.quotient_rep(v) == [GaussRat(2), GaussRat(1)]

    def test_evaluated_family_preserves_differences(self, any_pres):
        module = make_module(any_pres)
        rng = random.Random(5)
        for spec in sample_specs(any_pres, 2, rng, 4, family="evaluated"):
            assert opcheck.evaluated_preserves_differences(spec, module)

    def test_family_guard(self, trivial):
        module = make_module(trivial)
        spec = OpSpec("product", e(2, 0), (0, 0), trivial.one(),
                      trivial.one())
        with pytest.raises(ValueError):
            opcheck.evaluated_preserves_differences(spec, module)

    def test_quotient_intertwines_reduced_and_evaluated(self, any_pres):
        module = make_module(any_pres)
        rng = random.Random(17)
        specs = sample_specs(any_pres, 2, rng, 4)
        assert opcheck.quotient_intertwining_check(specs, module)


class TestIrreducibility:
    @pytest.mark.parametrize("n,mu,want", [
        (1, (), 1), (2, (1,), 4), (3, (1, 0), 9)])
    def test_bottom_slice_algebra_is_full(self, n, mu, want, trivial):
        module = make_module(trivial, n=n, mu=mu)
        specs = opcheck.default_irreducibility_specs(module)
        assert opcheck.bottom_slice_algebra_dim(module, specs) == want

    def test_trivial_weight_gives_scalar_algebra(self, trivial):
        module = make_module(trivial, n=2, mu=(0,))
        specs = opcheck.default_irreducibility_specs(module)
        assert opcheck.bottom_slice_algebra_dim(module, specs) == 1


class TestRankOne:
    @pytest.mark.parametrize("c", [GaussRat(0), GaussRat(1),
                                   GaussRat(Fraction(3, 2))])
    def test_scalar_shift(self, c, any_pres):
        module = make_module(any_pres, n=1, mu=(), c=c, radius=5)
        assert opcheck.rank_one_scalar_shift_check(
            module, range(-3, 4)) == []

    @pytest.mark.parametrize("c", [GaussRat(0), GaussRat(1),
                                   GaussRat(Fraction(3, 2))])
    def test_commutation(self, c, trivial):
        module = make_module(trivial, n=1, mu=(), c=c, radius=5)
        assert opcheck.rank_one_commutation_check(module) == []

    @pytest.mark.parametrize("c", [GaussRat(0), GaussRat(1),
                                   GaussRat(Fraction(3, 2))])
    def test_quotient_annihilation(self, c, trivial):
        module = make_module(trivial, n=1, mu=(), c=c, radius=5)
        assert opcheck.rank_one_quotient_annihilation_check(module) == []

    def test_rank_guard(self, trivial):
        module = make_module(trivial, n=2, mu=(1,))
        with pytest.raises(ValueError):
            opcheck.rank_one_scalar_shift_check(module, range(2))
        with pytest.raises(ValueError):
            opcheck.rank_one_commutation_check(module)
        with pytest.raises(ValueError):
            opcheck.rank_one_quotient_annihilation_check(module)


BRACKET_CHECKS = {"product-bracket", "reduced-bracket", "evaluated-bracket",
                  "product-to-reduced", "scaled-product-bracket"}


def operator_suite_failures(n, mu, pres):
    from loopwitt.suites import RunConfig, run_operator_suite
    cfg = RunConfig(n=n, mu=mu, bpres=pres, seed=42, cases_per_suite=6,
                    suites=("operator-suite",))
    return {f["check"] for f in run_operator_suite(cfg).failures}


class TestNegativeControls:
    """Planted defects that the operator suite must report."""

    @pytest.mark.parametrize("n,mu,pres", [(1, (), "trivial"),
                                           (2, (1,), "polyquot")])
    def test_dropped_last_rhs_term_fails_every_bracket(self, n, mu, pres,
                                                       request, monkeypatch):
        for name, (x, y, places) in list(opcheck.BRACKET_ROWS.items()):
            monkeypatch.setitem(opcheck.BRACKET_ROWS, name,
                                (x, y, places[:2]))
        got = operator_suite_failures(n, mu, request.getfixturevalue(pres))
        assert BRACKET_CHECKS <= got

    def test_negated_off_diagonal_irrep_fails_every_bracket(self, trivial,
                                                            monkeypatch):
        # at n = 2 this is conjugation by diag(1, -1), an automorphism,
        # so the control needs n = 3
        from loopwitt.glnrep import Irrep
        E = Irrep.E
        monkeypatch.setattr(
            Irrep, "E", lambda self, i, j: E(self, i, j) if i == j
            else [[-x for x in row] for row in E(self, i, j)])
        assert BRACKET_CHECKS <= operator_suite_failures(3, (1, 0), trivial)

    def test_clean_run_has_no_failures(self, trivial):
        assert operator_suite_failures(3, (1, 0), trivial) == set()
