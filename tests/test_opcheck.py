import random
from fractions import Fraction

import pytest

from conftest import (columns, dense_relation_residual, direct_sum_irrep,
                      mat_is_zero, rank, reference_evaluated,
                      reference_op_matrix, shift_difference_generators,
                      window_coords)
from loopwitt import opcheck
from loopwitt.glnrep import build_irrep
from loopwitt.linalg import dense
from loopwitt.opcheck import OpSpec
from loopwitt.scalars import GaussRat, ZERO
from loopwitt.tensmod import ModVector, TensorModule, Window, op_matrix

HALF = GaussRat(Fraction(1, 2))


def make_module(pres, n=2, mu=(1,), c=GaussRat(1), radius=3, alpha=None):
    rep = build_irrep(mu, c, n)
    alpha = alpha if alpha is not None else [HALF] * n
    return TensorModule(rep, alpha, pres, Window(n, radius))


def e(n, i):
    return tuple(GaussRat(1 if t == i else 0) for t in range(n))


def deg(n, j, val=1):
    return tuple(val if t == j else 0 for t in range(n))


def bottom_block(family, spec, module):
    zero = [(0,) * module.n]
    return op_matrix(opcheck.as_operator(family, spec, module), module, zero,
                     zero)


def sample_specs(pres, n, rng, count):
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
        out.append(OpSpec(u, r, b1, b2))
    return out


class TestBlockOpMatrix:
    """op_matrix, one operator call per source slice on its basis block,
    against reference_op_matrix, one call per basis vector."""

    @pytest.mark.parametrize("n,mu", [(1, ()), (2, (2,)), (3, (1, 0))])
    def test_operator_families_match_the_reference(self, n, mu, any_pres):
        pres = any_pres
        module = make_module(pres, n=n, mu=mu, radius=2)
        zero = (0,) * n
        src = [zero, (1,) + zero[1:]]
        dst = list(reversed(module.window.slices()))
        for spec in sample_specs(pres, n, random.Random(n), 3):
            for family in ("product", "reduced", "evaluated"):
                op = opcheck.as_operator(family, spec, module)
                for to in (None, dst):
                    got = op_matrix(op, module, src, to)
                    assert len(got) == 2 * module.d
                    assert got == reference_op_matrix(op, module, src, to)

    @pytest.mark.parametrize("n,mu", [(1, ()), (2, (2,)), (3, (1, 0))])
    def test_residual_operators_match_the_reference(self, n, mu, any_pres,
                                                    monkeypatch):
        # every op_matrix call the residuals make, with its own dst and
        # with dst=None, against the reference on the same operator
        pres = any_pres
        module = make_module(pres, n=n, mu=mu, radius=2)
        calls = []

        def checked(op, module, src, dst=None):
            got = op_matrix(op, module, src, dst)
            assert got == reference_op_matrix(op, module, src, dst)
            assert (op_matrix(op, module, src)
                    == reference_op_matrix(op, module, src))
            calls.append(len(got))
            return got

        monkeypatch.setattr(opcheck, "op_matrix", checked)
        s1, s2 = sample_specs(pres, n, random.Random(7 * n), 2)
        b = pres.one() if pres.kind == "trivial" else pres.generator()
        opcheck.zero_mode_scalar_residual(s1.u, b, module)
        opcheck.coefficient_collapse_residual(s1.u, s1.r, b, module)
        opcheck.reduced_bracket_residual(s1, s2, module)
        opcheck.bottom_slice_algebra_dim(module)
        assert calls == [module.d] * (3 + n * n + 1)


class TestOperatorFamilies:
    def test_unknown_family_rejected(self, trivial):
        module = make_module(trivial)
        spec = OpSpec(e(2, 0), (0, 0), trivial.one(), trivial.one())
        with pytest.raises(ValueError):
            opcheck.as_operator("twisted", spec, module)

    def test_product_family_preserves_weight(self, trivial):
        module = make_module(trivial)
        spec = OpSpec(e(2, 0), (1, -1), trivial.one(), trivial.one())
        # a single-slice block succeeds only if the operator maps the
        # slice to itself
        m = bottom_block("product", spec, module)
        assert len(m) == module.d

    def test_product_zero_shift_is_pairing_scalar(self, trivial):
        module = make_module(trivial)
        u = (GaussRat(2), GaussRat(1))
        spec = OpSpec(u, (0, 0), trivial.one(), trivial.one())
        got = bottom_block("product", spec, module)
        scal = GaussRat(2) * HALF + HALF  # (u, alpha)
        want = [[scal if i == j else ZERO for j in range(module.d)]
                for i in range(module.d)]
        assert dense(got, module.d) == want

    def test_reduced_zero_shift_vanishes(self, trivial):
        module = make_module(trivial)
        spec = OpSpec(e(2, 0), (0, 0), trivial.one(), trivial.one())
        assert not any(bottom_block("reduced", spec, module))


def random_block(module, margin, rng, width=2):
    """A block of ``width`` random columns on up to three slices whose
    images under a degree-r operator, |r_i| <= margin_i, stay in the
    window."""
    slices = module.window.interior(margin)
    size = width * module.d
    return ModVector(module, {
        m: {j: GaussRat(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                        rng.randint(-1, 1))
            for j in range(size) if rng.random() < 0.6}
        for m in rng.sample(slices, min(3, len(slices)))})


class TestEvaluatedElement:
    """as_operator("evaluated") acts once with the one loop element
    psi(b1) D(u,r)b2 - D(u,0)b1b2; reference_evaluated acts twice."""

    @staticmethod
    def assert_matches(spec, module, rng, blocks=3):
        got = opcheck.as_operator("evaluated", spec, module)
        want = reference_evaluated(spec, module)
        margin = tuple(map(abs, spec.r))
        for _ in range(blocks):
            v = random_block(module, margin, rng)
            assert got(v).data == want(v).data
        return got

    @pytest.mark.parametrize("n,mu", [(1, ()), (2, (1,)), (3, (1, 0))])
    def test_matches_two_actions_on_random_blocks(self, n, mu, any_pres):
        module = make_module(any_pres, n=n, mu=mu, radius=2)
        rng = random.Random(31 * n)
        for spec in sample_specs(any_pres, n, rng, 5):
            self.assert_matches(spec, module, rng)

    @pytest.mark.parametrize("n,mu", [(1, ()), (2, (1,)), (3, (1, 0))])
    def test_zero_shift_merges_the_keys(self, n, mu, any_pres):
        # at r = 0 both parts sit on the keys ("d", i, 0) and are added
        # before the module sees them; with b1 = x the sums psi(x) 2 - 2x
        # are nonzero in B but psi kills them, so Q acts by zero
        module = make_module(any_pres, n=n, mu=mu, radius=2)
        rng = random.Random(37 * n)
        two = any_pres.one() * GaussRat(2)
        b1 = two if any_pres.kind == "trivial" else any_pres.generator()
        spec = OpSpec(tuple(GaussRat(k + 1) for k in range(n)), (0,) * n,
                      b1, two)
        op = self.assert_matches(spec, module, rng)
        assert op(module.basis_block((0,) * n)).is_zero()

    @pytest.mark.parametrize("pres", ["polyquot", "laurent"])
    def test_b1_in_the_kernel_of_psi(self, pres, request):
        # psi(x - a) = 0, so only the zero mode is left and it acts by
        # psi(b1 b2) = 0 as well
        pres = request.getfixturevalue(pres)
        module = make_module(pres, radius=2)
        b1 = pres.generator() - pres.one() * pres.eval_point
        assert not b1.is_zero() and not b1.psi()
        spec = OpSpec((GaussRat(1), GaussRat(-2)), (1, -1), b1,
                      pres.generator())
        op = self.assert_matches(spec, module, random.Random(41))
        assert op(module.basis_block((0, 0))).is_zero()

    def test_folded_element_is_zero(self, trivial):
        # trivial B, r = 0, b1 = 1: D(u,0)b2 - D(u,0)b2 = 0
        module = make_module(trivial, radius=2)
        one = trivial.one()
        spec = OpSpec((GaussRat(2), GaussRat(-1)), (0, 0), one,
                      one * GaussRat(3))
        op = self.assert_matches(spec, module, random.Random(43))
        assert op(module.basis_block((1, 0))).is_zero()


class TestBracketIdentities:
    @pytest.mark.parametrize("n,mu", [(1, ()), (2, (1,)), (3, (1, 0))])
    def test_all_residuals_vanish_on_random_specs(self, n, mu, any_pres):
        module = make_module(any_pres, n=n, mu=mu)
        rng = random.Random(31 + n)
        for _ in range(6):
            s1, s2 = sample_specs(any_pres, n, rng, 2)
            assert not any(
                opcheck.product_bracket_residual(s1, s2, module))
            assert not any(
                opcheck.reduced_bracket_residual(s1, s2, module))
            assert not any(
                opcheck.evaluated_bracket_residual(s1, s2, module))
            assert not any(
                opcheck.product_to_reduced_residual(s1, s2, module))

    def test_scaled_product_bracket(self, laurent):
        module = make_module(laurent)
        t = laurent.generator()
        res = opcheck.scaled_product_bracket_residual(
            e(2, 0), (1, 0), t, e(2, 1), (0, 1), laurent.one(), module)
        assert not any(res)

    def test_bracket_with_zero_shifts_is_trivial(self, trivial):
        # two zero-shift operators are scalars on every slice, so their
        # bracket relation degenerates
        module = make_module(trivial)
        s1 = OpSpec(e(2, 0), (0, 0), trivial.one(), trivial.one())
        s2 = OpSpec(e(2, 1), (0, 0), trivial.one(), trivial.one())
        assert not any(opcheck.product_bracket_residual(s1, s2, module))


class TestScalarAndCollapse:
    def test_zero_modes_act_by_evaluation_scaled_pairing(self, any_pres):
        module = make_module(any_pres)
        pool = [any_pres.one()]
        if any_pres.kind != "trivial":
            pool.append(any_pres.generator())
        for b in pool:
            res = opcheck.zero_mode_scalar_residual(
                (GaussRat(1), GaussRat(-2)), b, module)
            assert not any(res)

    def test_ideal_member_acts_by_zero(self, polyquot):
        # b in the kernel of evaluation makes the zero mode vanish
        module = make_module(polyquot)
        x = polyquot.generator()
        b = x - polyquot.from_scalar(GaussRat(2))
        assert not any(opcheck.zero_mode_scalar_residual(
            e(2, 0), b, module))

    def test_coefficient_collapse(self, any_pres):
        module = make_module(any_pres)
        b = (any_pres.generator() if any_pres.kind != "trivial"
             else any_pres.one() * GaussRat(3))
        assert not any(opcheck.coefficient_collapse_residual(
            e(2, 0), (1, -1), b, module))


class TestShiftDifferences:
    # the generators v_k(x)t^m - v_k(x)t^0 stand in for the subspace;
    # ModVector.slice_sum is the projection onto the quotient

    def test_rank_one_scalar_dimensions(self, trivial):
        module = make_module(trivial, n=1, mu=(), radius=1)
        gens = shift_difference_generators(module)
        assert len(gens) == rank(map(window_coords, gens)) == 2  # 3 slices
        assert rank([module.basis_vector((0,), 0).slice_sum()]) == 1

    def test_rank_two_dimensions(self, trivial):
        module = make_module(trivial, radius=1)
        gens = shift_difference_generators(module)
        assert len(gens) == rank(map(window_coords, gens)) == 16  # 2 * (9 - 1)
        assert all(not g.slice_sum() for g in gens)
        assert rank(module.basis_vector((0, 0), k).slice_sum()
                    for k in range(2)) == 2

    def test_membership_is_slice_sum_vanishing(self, trivial):
        module = make_module(trivial, radius=1)
        gens = shift_difference_generators(module)
        rows = [window_coords(g) for g in gens]
        rng = random.Random(3)
        for _ in range(12):
            # a combination of generators, plus a basis vector half the time
            v = gens[rng.randrange(16)] + gens[rng.randrange(16)].scale(
                GaussRat(rng.randint(-2, 2), 1))
            if rng.random() < 0.5:
                m = rng.choice(module.window.slices())
                v = v + module.basis_vector(m, rng.randrange(2))
            in_span = rank(rows + [window_coords(v)]) == len(rows)
            assert in_span == (not v.slice_sum())

    def test_quotient_representative(self, trivial):
        module = make_module(trivial, radius=1)
        v = (module.basis_vector((1, 0), 0).scale(GaussRat(2))
             + module.basis_vector((0, 1), 1))
        assert v.slice_sum() == {0: GaussRat(2), 1: GaussRat(1)}

    def test_evaluated_family_preserves_differences(self, any_pres):
        module = make_module(any_pres)
        rng = random.Random(5)
        for spec in sample_specs(any_pres, 2, rng, 4):
            assert opcheck.evaluated_preserves_differences(spec, module)

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
        assert opcheck.bottom_slice_algebra_dim(module) == want

    def test_trivial_weight_gives_scalar_algebra(self, trivial):
        module = make_module(trivial, n=2, mu=(0,))
        assert opcheck.bottom_slice_algebra_dim(module) == 1

    # (n, mu, c, alpha); None keeps the RunConfig default.  gl(4)
    # mu = (1, 1, 1) at alpha = 1/3 is d = 64 with alpha != 0, where the
    # unshifted generators alpha_i I + E_ji filled Norton's spins; at
    # n = 2, mu = (0,), d = 1 and every shifted generator is zero
    CERTIFIED = [(1, (), None, None), (2, (3,), None, None),
                 (3, (1, 1), None, None), (4, (1, 0, 1), None, None),
                 (4, (1, 1, 1), Fraction(3, 2), Fraction(1, 3)),
                 (2, (0,), None, None)]

    @pytest.mark.parametrize(
        "n,mu,c,alpha", CERTIFIED,
        ids=[f"{n}-mu{k}" for k, (n, *_) in enumerate(CERTIFIED)])
    def test_irreducible_modules_are_certified_without_burnside(
            self, n, mu, c, alpha, monkeypatch):
        # Norton's test decides every irreducible module, in both suites
        from loopwitt import suites

        def refuse(mats):
            raise AssertionError("Burnside called")
        monkeypatch.setattr(suites, "burnside_dim", refuse)
        monkeypatch.setattr(opcheck, "burnside_dim", refuse)
        over = {}
        if c is not None:
            over = {"c": GaussRat(c), "alpha": (GaussRat(alpha),) * n}
        cfg = suites.RunConfig(n=n, mu=mu, cases_per_suite=1,
                               suites=("gl-relations", "irreducibility"),
                               **over)
        assert all(r.passed for r in suites.run_suites(cfg))


class TestRankOne:
    @pytest.mark.parametrize("c", [GaussRat(0), GaussRat(1),
                                   GaussRat(Fraction(3, 2))])
    def test_scalar_shift(self, c, any_pres):
        module = make_module(any_pres, n=1, mu=(), c=c, radius=5)
        assert opcheck.rank_one_scalar_shift_check(module) == []

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
            opcheck.rank_one_scalar_shift_check(module)
        with pytest.raises(ValueError):
            opcheck.rank_one_commutation_check(module)
        with pytest.raises(ValueError):
            opcheck.rank_one_quotient_annihilation_check(module)


BRACKET_CHECKS = {"product-bracket", "reduced-bracket", "evaluated-bracket",
                  "product-to-reduced", "scaled-product-bracket"}


def suite_failures(suite, n, mu, **over):
    """Checks failing in one suite run at seed 42 with 6 cases."""
    from loopwitt.suites import RunConfig, run_suites
    cfg = RunConfig(n=n, mu=mu, seed=42, cases_per_suite=6, suites=(suite,),
                    **over)
    (report,) = run_suites(cfg)
    return {f["check"] for f in report.failures}


def operator_suite_failures(n, mu, pres):
    return suite_failures("operator-suite", n, mu, bpres=pres)


def drop_e_terms(monkeypatch, keep_diagonal):
    """Plant a defect in act's sum_ij u_i r_j E_ji term: act reads E_ji
    through Irrep.columns, and no other reader runs in the suites below."""
    from loopwitt.glnrep import Irrep
    cols = Irrep.columns
    monkeypatch.setattr(
        Irrep, "columns", lambda self, i, j: cols(self, i, j)
        if keep_diagonal and i == j else [[] for _ in range(self.d)])


def double_d_terms_on_slice(monkeypatch, first):
    """Plant a defect in act that touches one source slice only: the
    derivation terms act twice on slice (first, 0, ..., 0).  The operator
    suite reaches act through its binding in opcheck."""
    from loopwitt.loop import LoopElem
    act = opcheck.act

    def broken(x, v):
        out = act(x, v)
        p = (first,) + (0,) * (v.module.n - 1)
        if p in v.data:
            d_terms = LoopElem(x.n, x.pres, {key: b for key, b in
                                             x.terms.items() if key[0] == "d"})
            out = out + act(d_terms, ModVector(v.module, {p: v.data[p]}))
        return out
    monkeypatch.setattr(opcheck, "act", broken)


def double_d_terms_on_last_basis_vector(monkeypatch):
    """Plant a defect in act that touches one basis vector only: the
    derivation terms act twice on v_(d-1) (x) t^(2, 0, ..., 0).  On a
    block that is the last coordinate of each column on that slice, so
    on a basis block only column d - 1 changes."""
    from loopwitt.loop import LoopElem
    act = opcheck.act

    def broken(x, v):
        out = act(x, v)
        p = (2,) + (0,) * (v.module.n - 1)
        d = v.module.d
        last = {j: c for j, c in v.data.get(p, {}).items() if j % d == d - 1}
        if last:
            d_terms = LoopElem(x.n, x.pres, {key: b for key, b in
                                             x.terms.items() if key[0] == "d"})
            out = out + act(d_terms, ModVector(v.module, {p: last}))
        return out
    monkeypatch.setattr(opcheck, "act", broken)


class TestNegativeControls:
    """Planted defects that the operator suite must report."""

    @pytest.mark.parametrize("first", [1, 2])
    @pytest.mark.parametrize("n,mu", [(1, ()), (2, (1,)), (3, (1, 0))])
    def test_single_slice_defect_fails_difference_submodule(self, n, mu, first,
                                                            monkeypatch):
        # an evaluated operator moves the bottom slice by some r with
        # |r_i| <= 1 before the next one acts, so the evaluated bracket may
        # see a defect on slice (1, 0, ...); on (2, 0, ...) only the sweep
        # over every interior slice does
        double_d_terms_on_slice(monkeypatch, first)
        got = suite_failures("operator-suite", n, mu)
        assert "difference-submodule" in got
        if first == 2:
            assert got == {"difference-submodule"}

    @pytest.mark.parametrize("n,mu", [(2, (1,)), (3, (1, 0))])
    def test_last_basis_vector_defect_fails_difference_submodule(
            self, n, mu, monkeypatch):
        # only column d - 1 of the basis block of slice (2, 0, ...) is
        # wrong, so the sweep must compare every column of the slice sums
        double_d_terms_on_last_basis_vector(monkeypatch)
        assert suite_failures("operator-suite", n, mu) == {
            "difference-submodule"}

    @pytest.mark.parametrize("n,mu,pres", [(1, (), "trivial"),
                                           (2, (1,), "polyquot")])
    def test_dropped_last_rhs_term_fails_every_bracket(self, n, mu, pres,
                                                       request, monkeypatch):
        for name, (x, y, places) in list(opcheck.BRACKET_ROWS.items()):
            monkeypatch.setitem(opcheck.BRACKET_ROWS, name,
                                (x, y, places[:2]))
        got = operator_suite_failures(n, mu, request.getfixturevalue(pres))
        assert BRACKET_CHECKS <= got

    @pytest.mark.parametrize("n,mu", [(1, ()), (2, (1,)), (3, (1, 0))])
    def test_first_degree_only_plan_fails_the_evaluated_checks(
            self, n, mu, monkeypatch):
        # the evaluated family is one loop element with terms at degrees
        # r and 0; a plan that keeps only its first degree loses the zero
        # mode whenever r != 0, while every other operator has one degree
        plan = TensorModule.plan
        monkeypatch.setattr(TensorModule, "plan",
                            lambda self, x: plan(self, x)[:1])
        assert suite_failures("operator-suite", n, mu) == {
            "difference-submodule", "evaluated-bracket",
            "quotient-intertwiner"}

    def test_negated_off_diagonal_irrep_fails_every_bracket(self, trivial,
                                                            monkeypatch):
        # at n = 2 this is conjugation by diag(1, -1), an automorphism,
        # so the control needs n = 3
        from loopwitt.glnrep import Irrep
        cols = Irrep.columns
        monkeypatch.setattr(
            Irrep, "columns", lambda self, i, j: cols(self, i, j) if i == j
            else [[(r, -x) for r, x in col] for col in cols(self, i, j)])
        assert BRACKET_CHECKS <= operator_suite_failures(3, (1, 0), trivial)

    def test_clean_run_has_no_failures(self, trivial):
        assert operator_suite_failures(3, (1, 0), trivial) == set()

    def test_zeroed_slice_sum_coordinate_fails_difference_codimension(
            self, monkeypatch):
        # the bottom slice then maps onto a quotient of dimension d - 1
        slice_sum = ModVector.slice_sum

        def broken(self):
            out = slice_sum(self)
            out.pop(0, None)
            return out
        monkeypatch.setattr(ModVector, "slice_sum", broken)
        assert "difference-codimension" in suite_failures(
            "operator-suite", 2, (1,))

    def test_dropped_off_diagonal_e_terms_fail(self, monkeypatch):
        # the diagonal part of a gl(n) representation is not one
        drop_e_terms(monkeypatch, keep_diagonal=True)
        assert suite_failures("module-axiom", 3, (1, 0)) == {"module-axiom"}
        assert BRACKET_CHECKS <= suite_failures("operator-suite", 3, (1, 0))

    def test_dropped_e_terms_fail_irreducibility_and_rank_one(self,
                                                              monkeypatch):
        # with every E_ji term gone the action is that of the density
        # module tensored with the trivial module C^d: still a module, so
        # module-axiom and operator-suite pass, but it is reducible and
        # the identity no longer acts by c
        drop_e_terms(monkeypatch, keep_diagonal=False)
        assert suite_failures("module-axiom", 3, (1, 0)) == set()
        assert suite_failures("operator-suite", 3, (1, 0)) == set()
        assert suite_failures("irreducibility", 2, (1,)) == {
            "bottom-slice-burnside"}
        assert suite_failures("rank-one", 1, (), window_radius=5) == {
            "scalar-shift"}

    @pytest.mark.parametrize("alpha", [(Fraction(1, 2), Fraction(1, 2)),
                                       (1, 2), (0, 0)])
    def test_dropped_off_diagonal_e_terms_fail_irreducibility_at_any_alpha(
            self, alpha, monkeypatch):
        # on the bottom slice the generators act as alpha_i I + E_ji, and
        # their unital algebra does not depend on alpha, integral or not
        drop_e_terms(monkeypatch, keep_diagonal=True)
        assert suite_failures("irreducibility", 2, (1,),
                              alpha=tuple(map(GaussRat, alpha))) == {
            "bottom-slice-burnside"}

    @pytest.mark.parametrize("n,mu,mu2,got", [(2, (1,), (2,), 13),
                                              (3, (1, 0), (1, 0), 9)])
    def test_direct_sum_reports_its_burnside_dimension(self, n, mu, mu2, got,
                                                       monkeypatch):
        # a reducible "irrep" V(mu) + V(mu2) keeps every relation; Norton's
        # test cannot certify it (at mu2 = mu ker theta is two-dimensional),
        # so both suites call Burnside and report the dimension of the
        # algebra, d1^2 + d2^2 or d1^2
        from loopwitt import suites
        build, burnside = suites.build_irrep, suites.burnside_dim
        calls = []

        def counted(mats):
            calls.append(len(mats[0]))
            return burnside(mats)

        monkeypatch.setattr(suites, "build_irrep", lambda mu_, c, n_:
                            direct_sum_irrep(build(mu_, c, n_),
                                             build(mu2, c, n_)))
        monkeypatch.setattr(suites, "burnside_dim", counted)
        monkeypatch.setattr(opcheck, "burnside_dim", counted)
        cfg = suites.RunConfig(n=n, mu=mu, c=GaussRat(Fraction(3, 2)),
                               seed=42, cases_per_suite=1,
                               suites=("gl-relations", "irreducibility"))
        gl, irr = suites.run_suites(cfg)
        d = build(mu, cfg.c, n).d + build(mu2, cfg.c, n).d
        assert gl.failures == [
            {"check": "weyl-dimension", "got": d},
            {"check": "burnside", "got": got, "want": d * d}]
        assert irr.failures == [
            {"check": "bottom-slice-burnside", "got": got, "want": d * d}]
        assert calls == [d, d]

    def test_diagonal_shift_off_by_one_over_n_fails_identity_scalar(
            self, monkeypatch):
        # adding 1/n to every diagonal entry of E_11..E_nn keeps every
        # commutation relation, the dimension, Burnside and the highest
        # weight; only the identity then acts by c + 1
        from loopwitt import suites
        from loopwitt.glnrep import Irrep
        build = suites.build_irrep

        def shifted(mu, c, n):
            rep = build(mu, c, n)
            rng = range(1, n + 1)
            E = [[rep.columns(i, j) for j in rng] for i in rng]
            for i in range(n):
                m = dense(E[i][i], rep.d)
                for k in range(rep.d):
                    m[k][k] = m[k][k] + GaussRat(Fraction(1, n))
                E[i][i] = columns(m)
            return Irrep(n, rep.mu, rep.c, rep.d, E, rep.hw_index)

        monkeypatch.setattr(suites, "build_irrep", shifted)
        for n, mu in ((1, ()), (2, (1,)), (3, (1, 1))):
            assert suite_failures("gl-relations", n, mu) == {
                "identity-scalar"}

    @pytest.mark.parametrize("mu", [(1, 0), (2, 1), (1,), (2,), (1, 0, 0)])
    def test_changed_off_diagonal_entry_fails_gl_relations(self, mu,
                                                           monkeypatch):
        # one off-diagonal entry of E_12 at n = len(mu) + 1, changed
        # through Irrep.columns: gl-relations reports exactly the
        # relations whose dense commutator residual is nonzero, both
        # orders of each failing pair, in lexicographic order
        from itertools import product
        from loopwitt import suites
        from loopwitt.glnrep import Irrep
        cols = Irrep.columns

        def changed(self, i, j):
            if (i, j) != (1, 2):
                return cols(self, i, j)
            m = dense(cols(self, i, j), self.d)
            m[1][0] = m[1][0] + 1
            return columns(m)

        monkeypatch.setattr(Irrep, "columns", changed)
        n = len(mu) + 1
        cfg = suites.RunConfig(n=n, mu=mu, seed=42, cases_per_suite=1,
                               suites=("gl-relations",))
        (report,) = suites.run_suites(cfg)
        got = [f["indices"] for f in report.failures
               if f["check"] == "gl-relation"]
        rep = build_irrep(mu, cfg.c, n)
        want = [list(idx) for idx in product(range(1, n + 1), repeat=4)
                if not mat_is_zero(dense_relation_residual(rep, *idx))]
        assert want and got == want


class TestGlRelationsSuite:
    @pytest.mark.parametrize("mu", [(), (1,), (1, 0), (1, 0, 0)])
    def test_each_generator_pair_is_evaluated_once(self, mu, monkeypatch):
        # [E_kl, E_ij] residual = -[E_ij, E_kl] residual, so gl-relations
        # evaluates n^2 (n^2 + 1) / 2 residuals for its n^4 relation cases
        from loopwitt import suites
        from loopwitt.glnrep import Irrep
        residual = Irrep.relation_residual
        calls = []

        def counted(self, *idx):
            calls.append(idx)
            return residual(self, *idx)

        monkeypatch.setattr(Irrep, "relation_residual", counted)
        n = len(mu) + 1
        cfg = suites.RunConfig(n=n, mu=mu, seed=42, cases_per_suite=1,
                               suites=("gl-relations",))
        (report,) = suites.run_suites(cfg)
        assert report.passed and report.cases == n ** 4 + 4
        assert len(calls) == len(set(calls)) == n * n * (n * n + 1) // 2
