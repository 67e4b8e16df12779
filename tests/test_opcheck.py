import random
import sys
from fractions import Fraction

import pytest

from conftest import (OLD_SCALED_ROW, as_operator, block_column,
                      changed_irrep, dense_of, dense_relation_residual,
                      direct_sum_irrep, doubled_off_diagonal,
                      make_polyquot_cube, mat_is_zero, mod_vector, rank,
                      rational_columns, reference_act,
                      reference_block, reference_bracket_identity,
                      reference_evaluated, reference_op_matrix,
                      reference_preserves_differences,
                      shift_difference_generators, window_coords)
from loopwitt import opcheck, suites, tensmod
from loopwitt.glnrep import build_irrep
from loopwitt.linalg import zeros
from loopwitt.loop import LoopElem
from loopwitt.opcheck import OperatorTable, OpSpec
from loopwitt.scalars import GaussRat, ONE, ZERO
from loopwitt.tensmod import OutOfWindowError, TensorModule, Window, op_matrix
from test_tensmod import count_compiles

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
    """The bottom-slice matrix of an operator family, as Columns."""
    return rational_columns(op_matrix(
        as_operator(family, spec, module), module, (0,) * module.n))


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
    """op_matrix, one operator call on a slice's basis block, against
    reference_op_matrix, one call per basis vector."""

    @pytest.mark.parametrize("n,mu", [(1, ()), (2, (2,)), (3, (1, 0))])
    def test_operator_families_match_the_reference(self, n, mu, any_pres):
        # product and reduced preserve the weight; evaluated moves the
        # slice unless r = 0, and then both raise
        pres = any_pres
        module = make_module(pres, n=n, mu=mu, radius=2)
        zero = (0,) * n
        for spec in sample_specs(pres, n, random.Random(n), 3):
            for family in ("product", "reduced", "evaluated"):
                op = as_operator(family, spec, module)
                for m in (zero, (1,) + zero[1:]):
                    if family == "evaluated" and any(spec.r):
                        with pytest.raises(OutOfWindowError):
                            op_matrix(op, module, m)
                        with pytest.raises(OutOfWindowError):
                            reference_op_matrix(op, module, m)
                        continue
                    got = rational_columns(op_matrix(op, module, m))
                    assert len(got) == module.d
                    assert got == reference_op_matrix(op, module, m)

    @pytest.mark.parametrize("n,mu", [(1, ()), (2, (2,)), (3, (1, 0))])
    def test_residual_operators_match_the_reference(self, n, mu, any_pres,
                                                    monkeypatch):
        # each residual block against its reference, one basis vector at
        # a time, and every op_matrix call of the bottom slice's algebra
        # against the reference on the same operator
        pres = any_pres
        module = make_module(pres, n=n, mu=mu, radius=2)
        zero = (0,) * n
        calls = []

        def checked(op, module, m):
            got = op_matrix(op, module, m)
            assert rational_columns(got) == reference_op_matrix(op, module, m)
            calls.append(len(got[1][0]))
            return got

        monkeypatch.setattr(opcheck, "op_matrix", checked)
        s1, s2 = sample_specs(pres, n, random.Random(7 * n), 2)
        b = pres.one() if pres.kind == "trivial" else pres.generator()
        x = LoopElem.d_vec(n, pres, s1.u, zero, b)
        scal = b.psi() * sum((a * c for a, c in zip(s1.u, module.alpha)),
                             ZERO)
        table = OperatorTable(OpSpec(s1.u, s1.r, b, s1.b2), s2, module)
        assert opcheck.zero_mode_scalar_residual(table) == reference_block(
            lambda v: reference_act(x, v) - v.scale(scal), module, zero)
        xb = LoopElem.d_vec(n, pres, s1.u, s1.r, b)
        x1 = LoopElem.d_vec(n, pres, s1.u, s1.r)
        assert opcheck.coefficient_collapse_residual(
            table) == reference_block(
            lambda v: reference_act(xb, v)
            - reference_act(x1, v).scale(b.psi()), module, zero)
        assert opcheck.reduced_bracket_residual(
            OperatorTable(s1, s2, module)) == reference_bracket_identity(
            "reduced", s1, s2, module)
        opcheck.bottom_slice_algebra_dim(module)
        assert calls == [module.d] * (n * n + 1)


class TestOperatorFamilies:
    def test_unknown_family_rejected(self, trivial):
        module = make_module(trivial)
        spec = OpSpec(e(2, 0), (0, 0), trivial.one(), trivial.one())
        with pytest.raises(ValueError):
            OperatorTable(spec, spec, module).terms(
                "twisted", module.basis_block((0, 0)))

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
        assert dense_of(got, module.d) == want

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
    return mod_vector(module, {
        m: {j: GaussRat(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                        rng.randint(-1, 1))
            for j in range(size) if rng.random() < 0.6}
        for m in rng.sample(slices, min(3, len(slices)))})


class TestEvaluatedElement:
    """as_operator("evaluated") acts once with the one loop element
    psi(b1) D(u,r)b2 - D(u,0)b1b2; reference_evaluated acts twice."""

    @staticmethod
    def assert_matches(spec, module, rng, blocks=3):
        got = as_operator("evaluated", spec, module)
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
            table = OperatorTable(*sample_specs(any_pres, n, rng, 2), module)
            assert opcheck.product_bracket_residual(table).is_zero()
            assert opcheck.reduced_bracket_residual(table).is_zero()
            assert opcheck.evaluated_bracket_residual(table).is_zero()
            assert opcheck.product_to_reduced_residual(table).is_zero()

    def test_scaled_product_bracket(self, laurent):
        # [P(e_2,(0,1),1,1), P(e_1,(1,0),1,t)], on the case pair
        # ((e_2,(0,1),t,1), (e_1,(1,0),b3,b4)) whatever b3, b4
        module = make_module(laurent)
        t, one = laurent.generator(), laurent.one()
        table = OperatorTable(OpSpec(e(2, 1), (0, 1), t, one),
                              OpSpec(e(2, 0), (1, 0), t, t), module)
        assert opcheck.scaled_product_bracket_residual(table).is_zero()

    def test_bracket_with_zero_shifts_is_trivial(self, trivial):
        # two zero-shift operators are scalars on every slice, so their
        # bracket relation degenerates
        module = make_module(trivial)
        s1 = OpSpec(e(2, 0), (0, 0), trivial.one(), trivial.one())
        s2 = OpSpec(e(2, 1), (0, 0), trivial.one(), trivial.one())
        assert opcheck.product_bracket_residual(
            OperatorTable(s1, s2, module)).is_zero()


def suite_pair(module, rng):
    """The spec pair (s1, s2) of one operator-suite case, drawn as
    suites.run_operator_suite draws it."""
    n, pool = module.n, suites.coefficient_pool(module.pres)
    u, v = suites.sample_u(rng, n), suites.sample_u(rng, n)
    r = suites.sample_deg(rng, n, suites.SHIFT_BOUND)
    s = suites.sample_deg(rng, n, suites.SHIFT_BOUND)
    b1, b2, b3, b4 = (suites.sample_b(rng, pool) for _ in range(4))
    return OpSpec(u, r, b1, b2), OpSpec(v, s, b3, b4)


PAIR_ROWS = {
    "product": opcheck.product_bracket_residual,
    "reduced": opcheck.reduced_bracket_residual,
    "evaluated": opcheck.evaluated_bracket_residual,
    "product-to-reduced": opcheck.product_to_reduced_residual,
}
ROWS = {**PAIR_ROWS, "scaled-product": opcheck.scaled_product_bracket_residual}


def scaled_pair(s1, s2, module):
    """The spec pair ((u2,r2,1,b1), (u1,r1,1,b2)) on which OLD_SCALED_ROW
    gives minus the scaled-product row of the table of (s1, s2)."""
    one = module.pres.one()
    return OpSpec(s2.u, s2.r, one, s1.b1), OpSpec(s1.u, s1.r, one, s1.b2)


REFERENCE_C_ALPHA = [
    (GaussRat(1), None),
    (GaussRat(Fraction(3, 2), 1),
     [GaussRat(Fraction(1, 3), 1), GaussRat(0, -1), GaussRat(2)])]


def reference_module(n, mu, broken, c, alpha, pres):
    """The module of the irrep of (mu, c), or of the broken irrep, every
    off-diagonal E_ij doubled, at alpha or at 1/2 throughout."""
    rep = build_irrep(mu, c, n)
    if broken:
        rep = doubled_off_diagonal(rep)
    return TensorModule(rep, (alpha or [HALF] * 3)[:n], pres, Window(n, 3))


def tables_made(monkeypatch):
    """The OperatorTables constructed from now on."""
    made = []
    init = OperatorTable.__init__

    def recorded(self, *args):
        init(self, *args)
        made.append(self)
    monkeypatch.setattr(OperatorTable, "__init__", recorded)
    return made


class TestOperatorTable:
    """One OperatorTable per spec pair: every operator element of an
    operator-suite case built and compiled once, with the residuals of
    the reference."""

    @pytest.mark.parametrize("kind", ["trivial", "polyquot", "laurent"])
    def test_a_case_compiles_each_table_element_once(self, kind, request,
                                                     monkeypatch):
        module = make_module(request.getfixturevalue(kind), n=2)
        compiled = count_compiles(monkeypatch)
        for seed in range(3):
            table = OperatorTable(*suite_pair(module, random.Random(seed)),
                                  module)
            compiled.clear()
            for row in PAIR_ROWS.values():
                assert row(table).is_zero()
            elems = list(table._elems.values())
            assert len({id(x) for x in compiled}) == len(compiled)
            assert {id(x) for x in compiled} == {id(x) for x in elems}

    @pytest.mark.parametrize("kind", ["trivial", "polyquot", "laurent"])
    @pytest.mark.parametrize("n,mu", [(1, ()), (2, (1,)), (3, (1, 0))])
    def test_a_suite_case_compiles_each_element_once(self, n, mu, kind,
                                                     request, monkeypatch):
        # one case runs all seven checks on the case's table, and the
        # five sampled specs get a table each, read by the sweep and the
        # intertwining (14 cases with the codimension); nothing else is
        # compiled
        made = tables_made(monkeypatch)
        compiled = count_compiles(monkeypatch)
        cfg = suites.RunConfig(n=n, mu=mu, cases_per_suite=1,
                               bpres=request.getfixturevalue(kind),
                               suites=("operator-suite",))
        assert suites.run_operator_suite(cfg) == (14, [])
        assert len(made) == 1 + 5
        assert len({id(x) for x in compiled}) == len(compiled)
        in_tables = [x for table in made for x in table._elems.values()]
        for x in in_tables:
            assert sum(y is x for y in compiled) == 1
        assert len(compiled) == len(in_tables)

    @pytest.mark.parametrize("kind", ["trivial", "polyquot", "laurent"])
    @pytest.mark.parametrize("n,mu", [(1, ()), (2, (1,)), (3, (1, 0))])
    def test_the_bottom_slice_generators_need_no_table(self, n, mu, kind,
                                                       request, monkeypatch):
        # each of the n^2 + 1 generators t^(-r) . (D(u,r) . v) compiles
        # its two loop elements
        module = make_module(request.getfixturevalue(kind), n=n, mu=mu)
        made = tables_made(monkeypatch)
        compiled = count_compiles(monkeypatch)
        assert opcheck.bottom_slice_algebra_dim(module) == module.d ** 2
        assert len({id(x) for x in compiled}) == len(compiled)
        assert len(compiled) == 2 * (n * n + 1)
        assert made == []

    @pytest.mark.parametrize("kind", ["trivial", "polyquot", "laurent"])
    def test_the_sweep_and_the_intertwining_share_q(self, kind, request,
                                                    monkeypatch):
        module = make_module(request.getfixturevalue(kind), n=2)
        specs = sample_specs(module.pres, 2, random.Random(5), 5)
        tables = [OperatorTable(spec, spec, module) for spec in specs]
        compiled = count_compiles(monkeypatch)
        for table in tables:
            assert opcheck.evaluated_preserves_differences(table)
        assert opcheck.quotient_intertwining_check(tables)
        assert len({id(x) for x in compiled}) == len(compiled)
        for table in tables:
            q = table.elem("1", "q", "1", "2")
            assert sum(x is q for x in compiled) == 1

    @pytest.mark.parametrize("n,mu", [(1, ()), (2, (1,)), (3, (1, 0))])
    def test_equal_coefficients_share_their_elements(self, n, mu, any_pres,
                                                     monkeypatch):
        # b1 = b3 = 1 and b2 = b4 = b != b^2, each a B element of its own:
        # the seven checks of the case compile no element twice, though
        # placements such as "123" and "4", or "0" and "1", name equal b
        module = make_module(any_pres, n=n, mu=mu)
        b = (any_pres.generator() if any_pres.kind != "trivial"
             else any_pres.from_scalar(GaussRat(2)))
        s1 = OpSpec((GaussRat(1), GaussRat(2), GaussRat(3))[:n],
                    (1, -1, 1)[:n], any_pres.one(), b)
        s2 = OpSpec((GaussRat(3), GaussRat(1), GaussRat(-1))[:n],
                    (-2, 1, 0)[:n], any_pres.from_scalar(GaussRat(1)),
                    b * any_pres.one())
        table = OperatorTable(s1, s2, module)
        compiled = count_compiles(monkeypatch)
        for check in [*ROWS.values(), opcheck.zero_mode_scalar_residual,
                      opcheck.coefficient_collapse_residual]:
            assert check(table).is_zero()
        assert not any(x == y for k, x in enumerate(compiled)
                       for y in compiled[:k])

    @pytest.mark.parametrize("c,alpha", REFERENCE_C_ALPHA,
                             ids=["real", "non-real"])
    @pytest.mark.parametrize("broken", [False, True],
                             ids=["irrep", "broken-irrep"])
    @pytest.mark.parametrize("n,mu", [(1, ()), (2, (1,)), (3, (1, 0))])
    def test_tables_give_the_reference_residuals(self, n, mu, broken, c,
                                                 alpha, any_pres):
        # on the broken irrep the residuals are nonzero, so the
        # comparisons are not all between zeros; the rows run in a
        # shuffled order, so the table builds its elements in any order
        module = reference_module(n, mu, broken, c, alpha, any_pres)
        rng, order = random.Random(17 * n + broken), random.Random(n)
        nonzero = 0
        for _ in range(4):
            s1, s2 = suite_pair(module, rng)
            table = OperatorTable(s1, s2, module)
            rows = list(ROWS.items())
            order.shuffle(rows)
            for name, row in rows:
                got = row(table)
                assert got == reference_bracket_identity(
                    name, s1, s2, module), name
                nonzero += not got.is_zero()
        assert (nonzero > 0) == (broken and n > 1)

    @pytest.mark.parametrize("c,alpha", REFERENCE_C_ALPHA,
                             ids=["real", "non-real"])
    @pytest.mark.parametrize("broken", [False, True],
                             ids=["irrep", "broken-irrep"])
    @pytest.mark.parametrize("n,mu", [(1, ()), (2, (1,)), (3, (1, 0))])
    def test_the_scaled_row_is_minus_its_old_identity(self, n, mu, broken,
                                                      c, alpha, any_pres):
        # the row brackets the old row's two operators the other way
        # round, which negates w as well
        module = reference_module(n, mu, broken, c, alpha, any_pres)
        rng = random.Random(19 * n + broken)
        nonzero = 0
        for _ in range(3):
            s1, s2 = suite_pair(module, rng)
            got = opcheck.scaled_product_bracket_residual(
                OperatorTable(s1, s2, module))
            assert got == reference_bracket_identity(
                OLD_SCALED_ROW, *scaled_pair(s1, s2, module),
                module).scale(-ONE)
            nonzero += not got.is_zero()
        assert (nonzero > 0) == (broken and n > 1)


def spec_table(u, r, b, module):
    """The table of (spec, spec), spec = (u, r, b, b): the zero-mode and
    collapse checks read D(u,0)b, D(u,r)b and D(u,r) from it."""
    spec = OpSpec(u, r, b, b)
    return OperatorTable(spec, spec, module)


class TestScalarAndCollapse:
    def test_zero_modes_act_by_evaluation_scaled_pairing(self, any_pres):
        module = make_module(any_pres)
        pool = [any_pres.one()]
        if any_pres.kind != "trivial":
            pool.append(any_pres.generator())
        for b in pool:
            res = opcheck.zero_mode_scalar_residual(spec_table(
                (GaussRat(1), GaussRat(-2)), (0, 0), b, module))
            assert res.is_zero()

    def test_ideal_member_acts_by_zero(self, polyquot):
        # b in the kernel of evaluation makes the zero mode vanish
        module = make_module(polyquot)
        x = polyquot.generator()
        b = x - polyquot.from_scalar(GaussRat(2))
        assert opcheck.zero_mode_scalar_residual(
            spec_table(e(2, 0), (0, 0), b, module)).is_zero()

    def test_coefficient_collapse(self, any_pres):
        module = make_module(any_pres)
        b = (any_pres.generator() if any_pres.kind != "trivial"
             else any_pres.one() * GaussRat(3))
        assert opcheck.coefficient_collapse_residual(
            spec_table(e(2, 0), (1, -1), b, module)).is_zero()


class TestShiftDifferences:
    # the generators v_k(x)t^m - v_k(x)t^0 stand in for the subspace;
    # ModVector.slice_sum is the projection onto the quotient

    def test_rank_one_scalar_dimensions(self, trivial):
        module = make_module(trivial, n=1, mu=(), radius=1)
        gens = shift_difference_generators(module)
        assert len(gens) == rank(map(window_coords, gens)) == 2  # 3 slices
        assert rank([window_coords(
            module.basis_vector((0,), 0).slice_sum())]) == 1

    def test_rank_two_dimensions(self, trivial):
        module = make_module(trivial, radius=1)
        gens = shift_difference_generators(module)
        assert len(gens) == rank(map(window_coords, gens)) == 16  # 2 * (9 - 1)
        assert all(g.slice_sum().is_zero() for g in gens)
        assert rank(window_coords(module.basis_vector((0, 0), k).slice_sum())
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
            assert in_span == v.slice_sum().is_zero()

    def test_quotient_representative(self, trivial):
        module = make_module(trivial, radius=1)
        v = (module.basis_vector((1, 0), 0).scale(GaussRat(2))
             + module.basis_vector((0, 1), 1))
        assert v.slice_sum().data == {(0, 0): {0: GaussRat(2),
                                               1: GaussRat(1)}}

    def test_evaluated_family_preserves_differences(self, any_pres):
        module = make_module(any_pres)
        rng = random.Random(5)
        for spec in sample_specs(any_pres, 2, rng, 4):
            assert opcheck.evaluated_preserves_differences(
                OperatorTable(spec, spec, module))

    def test_quotient_intertwines_reduced_and_evaluated(self, any_pres):
        module = make_module(any_pres)
        rng = random.Random(17)
        specs = sample_specs(any_pres, 2, rng, 4)
        assert opcheck.quotient_intertwining_check(
            [OperatorTable(spec, spec, module) for spec in specs])


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


def count_norms(monkeypatch):
    """The argument tuples of every scalars._norm call from now on: one
    per GaussRat made."""
    from loopwitt import scalars
    calls = []
    norm = scalars._norm

    def counted(*args):
        calls.append(args)
        return norm(*args)
    monkeypatch.setattr(scalars, "_norm", counted)
    return calls


class TestIntegerPathMakesNoGaussRat:
    """Norton's test and its inputs run in Z[i]: on passing modules,
    theta, the hw shift, the kernel and the spins make no GaussRat, and
    reading an operator's matrix makes none beyond applying it."""

    @pytest.fixture(params=[Fraction(3, 2), (Fraction(3, 2), -1)],
                    ids=["real-c", "complex-c"])
    def rep(self, request):
        c = request.param
        rep = build_irrep((2, 1), GaussRat(*c) if isinstance(c, tuple)
                          else GaussRat(c), 3)
        rep.int_view()
        return rep

    def test_gl_relations_certificate(self, rep, monkeypatch):
        from loopwitt.glnrep import (highest_weight_theta, hw_shifted,
                                     norton_irreducible)
        from loopwitt.linalg import null_space
        calls = count_norms(monkeypatch)
        den, ints = rep.int_view()
        hw = rep.hw_index
        _, theta = highest_weight_theta([(den, ints[k][k]) for k in range(3)],
                                        hw)
        mats = [m for row in ints for m in row]
        assert all(hw_shifted(m, hw) for m in mats)
        assert len(null_space(theta, rep.d)) == 1
        assert norton_irreducible(mats, theta)
        assert calls == []

    def test_bottom_slice_generators(self, rep, trivial, monkeypatch):
        from loopwitt.glnrep import (highest_weight_theta, hw_shifted,
                                     norton_irreducible)
        module = TensorModule(rep, [GaussRat(Fraction(1, 3), 1)] * 3,
                              trivial, Window(3, 1))
        zero, one = (0, 0, 0), trivial.one()
        # the generators of bottom_slice_algebra_dim, in its order
        specs = [OpSpec(e(3, i), deg(3, j), one, one)
                 for i in range(3) for j in range(3)]
        specs.append(OpSpec(e(3, 0), zero, one, one))
        calls = count_norms(monkeypatch)
        forms = []
        for spec in specs:
            op = as_operator("product", spec, module)
            op(module.basis_block(zero))  # compiles the plans
            calls.clear()
            op(module.basis_block(zero))
            applied = len(calls)
            calls.clear()
            forms.append(op_matrix(op, module, zero))
            assert len(calls) <= applied
        calls.clear()
        hw = rep.hw_index
        _, theta = highest_weight_theta(forms[:9:4], hw)
        assert norton_irreducible([hw_shifted(m, hw) for _, m in forms],
                                  theta)
        assert calls == []


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


def plant(monkeypatch, change):
    """Make the suites build every gl(n) module with each E_ij replaced
    by change(i, j, E_ij), dense, and return that builder."""
    build = suites.build_irrep

    def changed(mu, c, n):
        return changed_irrep(build(mu, c, n), change)
    monkeypatch.setattr(suites, "build_irrep", changed)
    return changed


def drop_e_terms(monkeypatch, keep_diagonal):
    """Plant a defect in act's sum_ij u_i r_j E_ji term: the off-diagonal
    E_ij, or all of them, are zero."""
    plant(monkeypatch, lambda i, j, m: m if keep_diagonal and i == j
          else zeros(len(m), len(m)))


def double_d_terms_on_slice(monkeypatch, first):
    """Plant a defect in the action that touches one source slice only:
    the derivation terms act twice on slice (first, 0, ..., 0).  Every
    action, act and each term of a signed sum, folded or not, runs
    tensmod.act_into, and the defect folds when the action does."""
    from loopwitt.loop import LoopElem
    act_into = tensmod.act_into

    def broken(acc, x, v, c=ONE, fold=False):
        act_into(acc, x, v, c, fold=fold)
        p = (first,) + (0,) * (v.module.n - 1)
        if p in v.data:
            d_terms = LoopElem(x.n, x.pres, {key: b for key, b in
                                             x.terms.items() if key[0] == "d"})
            act_into(acc, d_terms, mod_vector(v.module, {p: v.data[p]}), c,
                     fold=fold)
    monkeypatch.setattr(tensmod, "act_into", broken)


def double_d_terms_on_last_basis_vector(monkeypatch):
    """Plant a defect in the action that touches one basis vector only:
    the derivation terms act twice on v_(d-1) (x) t^(2, 0, ..., 0).  On a
    block that is the last coordinate of each column on that slice, so
    on a basis block only column d - 1 changes."""
    from loopwitt.loop import LoopElem
    act_into = tensmod.act_into

    def broken(acc, x, v, c=ONE, fold=False):
        act_into(acc, x, v, c, fold=fold)
        p = (2,) + (0,) * (v.module.n - 1)
        d = v.module.d
        last = {j: y for j, y in v.data.get(p, {}).items() if j % d == d - 1}
        if last:
            d_terms = LoopElem(x.n, x.pres, {key: b for key, b in
                                             x.terms.items() if key[0] == "d"})
            act_into(acc, d_terms, mod_vector(v.module, {p: last}), c,
                     fold=fold)
    monkeypatch.setattr(tensmod, "act_into", broken)


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
        for name, (x, y, xp, places) in list(opcheck.BRACKET_ROWS.items()):
            monkeypatch.setitem(opcheck.BRACKET_ROWS, name,
                                (x, y, xp, places[:2]))
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

    def test_squared_degree_in_the_d_scalar_fails_rank_one(self,
                                                           monkeypatch):
        # each D(e_i, r) term adds r_i^2 to its scalar: zero modes keep
        # theirs, so d_r no longer acts by r c + s + alpha, f(A - k) . B
        # and B . f(A) part, and (t-1)^2 t^i d leaves the differences;
        # the brackets run in the loop algebra and still hold; the plan
        # holds P kappa_r, so the defect adds P r_i^2
        from collections import Counter
        from loopwitt.suites import RunConfig, run_suites
        compile_ = TensorModule._compile

        def broken(self, x):
            return [(r, den, kr + den * sum(r[i] ** 2 for i, _ in d_terms),
                     ki, d_terms, cols)
                    for r, den, kr, ki, d_terms, cols in compile_(self, x)]

        monkeypatch.setattr(TensorModule, "_compile", broken)
        cfg = RunConfig(n=1, mu=(), seed=42, cases_per_suite=6,
                        window_radius=5, suites=("rank-one",))
        (report,) = run_suites(cfg)
        assert Counter(f["check"] for f in report.failures) == {
            "scalar-shift": 48, "commutation": 6, "quotient-annihilation": 3}
        assert [f["witness"] for f in report.failures
                if f["check"] == "quotient-annihilation"] == [
            f"(t-1)^2 t^{i} d image not in differences" for i in (-1, 0, 1)]

    def test_negated_off_diagonal_irrep_fails_every_bracket(self, trivial,
                                                            monkeypatch):
        # at n = 2 this is conjugation by diag(1, -1), an automorphism,
        # so the control needs n = 3
        plant(monkeypatch, lambda i, j, m: m if i == j
              else [[-x for x in row] for row in m])
        assert BRACKET_CHECKS <= operator_suite_failures(3, (1, 0), trivial)

    def test_clean_run_has_no_failures(self, trivial):
        assert operator_suite_failures(3, (1, 0), trivial) == set()

    def test_zeroed_slice_sum_coordinate_fails_difference_codimension(
            self, monkeypatch):
        # coordinate 0 of every folded signed sum, a block on slice 0,
        # is dropped, so the bottom slice maps onto a quotient of
        # dimension d - 1; ModVector.slice_sum, which the codimension
        # check reads, and the sweep both fold through signed_sum
        signed_sum = tensmod.signed_sum

        def broken(module, terms, fold=False):
            out = signed_sum(module, terms, fold=fold)
            if fold:
                for part in out.ints.get((0,) * module.n, ()):
                    part.pop(0, None)
                out.ints = {m: vec for m, vec in out.ints.items()
                            if vec[0] or vec[1]}
            return out
        bindings = [mod for name, mod in sys.modules.items()
                    if name.startswith("loopwitt.")
                    and getattr(mod, "signed_sum", None) is signed_sum]
        assert {tensmod, opcheck} <= set(bindings)
        for mod in bindings:
            monkeypatch.setattr(mod, "signed_sum", broken)
        # the sweep's slice sum holds one column group per interior
        # slice, and the dropped coordinate is in group 0 only
        assert suite_failures("operator-suite", 2, (1,)) == {
            "difference-codimension", "difference-submodule"}

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
                                              (3, (1, 0), (1, 0), 9),
                                              (3, (1, 0), (2, 0), 45)])
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
            calls.append(len(mats[0][0]))
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
        for n, mu in ((1, ()), (2, (1,)), (3, (1, 1))):
            shift = GaussRat(Fraction(1, n))
            with monkeypatch.context() as mp:
                plant(mp, lambda i, j, m: [
                    [x + shift if i == j and r == k else x
                     for k, x in enumerate(row)] for r, row in enumerate(m)])
                assert suite_failures("gl-relations", n, mu) == {
                    "identity-scalar"}

    @pytest.mark.parametrize("mu", [(1, 0), (2, 1), (1,), (2,), (1, 0, 0)])
    def test_changed_off_diagonal_entry_fails_gl_relations(self, mu,
                                                           monkeypatch):
        # one off-diagonal entry of E_12 at n = len(mu) + 1, changed:
        # gl-relations reports exactly the relations whose dense
        # commutator residual is nonzero, both orders of each failing
        # pair, in lexicographic order
        n = len(mu) + 1
        assert changed_entry_failures(monkeypatch, n, mu, GaussRat(1),
                                      GaussRat(1))

    def test_imaginary_change_fails_gl_relations_at_complex_c(self,
                                                              monkeypatch):
        # at c = 3/2 + i the E_ii, and so the integer view, have
        # imaginary parts; an entry of E_12 changed by i fails exactly
        # the relations whose dense residual is nonzero
        from loopwitt.scalars import I
        assert changed_entry_failures(monkeypatch, 3, (1, 0),
                                      GaussRat(Fraction(3, 2), 1), I)


def changed_entry_failures(monkeypatch, n, mu, c, delta):
    """Plant E_12 with entry (1, 0) changed by delta and run gl-relations
    at c: whether it fails exactly the relations, in lexicographic
    order, whose dense residual on the changed module is nonzero."""
    from itertools import product

    def changed(i, j, m):
        if (i, j) == (1, 2):
            m[1][0] = m[1][0] + delta
        return m

    build = plant(monkeypatch, changed)
    cfg = suites.RunConfig(n=n, mu=mu, c=c, seed=42, cases_per_suite=1,
                           suites=("gl-relations",))
    (report,) = suites.run_suites(cfg)
    got = [f["indices"] for f in report.failures
           if f["check"] == "gl-relation"]
    rep = build(mu, c, n)
    want = [list(idx) for idx in product(range(1, n + 1), repeat=4)
            if not mat_is_zero(dense_relation_residual(rep, *idx))]
    return want != [] and got == want


class TestDifferenceSweep:
    """evaluated_preserves_differences, the evaluated operator applied
    once to the basis blocks of every interior slice, against
    reference_preserves_differences, the slice-by-slice sweep it
    replaced, on clean modules and under the planted single-slice
    defects."""

    DEFECTS = {
        "slice-1": lambda mp: double_d_terms_on_slice(mp, 1),
        "slice-2": lambda mp: double_d_terms_on_slice(mp, 2),
        "last-basis-vector": double_d_terms_on_last_basis_vector,
    }

    @pytest.mark.parametrize("defect", [None, *DEFECTS])
    @pytest.mark.parametrize("n,mu", [(1, ()), (2, (1,)), (3, (1, 0))])
    def test_same_verdict_as_the_per_slice_sweep(self, n, mu, defect,
                                                 any_pres, monkeypatch):
        module = make_module(any_pres, n=n, mu=mu)
        specs = sample_specs(any_pres, n, random.Random(40 + n), 6)
        if defect is not None:
            self.DEFECTS[defect](monkeypatch)
        got = [opcheck.evaluated_preserves_differences(
                   OperatorTable(spec, spec, module)) for spec in specs]
        assert got == [reference_preserves_differences(spec, module)
                       for spec in specs]
        # each defect shows on some spec, and a clean module passes all
        assert all(got) == (defect is None)

    def test_block_holds_the_basis_of_every_slice(self, trivial):
        module = make_module(trivial, n=2, mu=(1,), radius=2)
        slices = module.window.interior((1, 0))
        block = module.basis_block(*slices)
        d = module.d
        assert len(slices) == 15
        for g, m in enumerate(slices):
            for k in range(d):
                assert block_column(block, g * d + k) == (
                    module.basis_vector(m, k))
        assert block_column(block, len(slices) * d).is_zero()
        with pytest.raises(OutOfWindowError):
            module.basis_block((0, 0), (3, 0))

    def test_each_slice_holds_d_columns(self, trivial, monkeypatch):
        # Q acts on no column twice: a block of the differences
        # e_k t^m - e_k t^0 would hold 28 columns on slice 0, a -1 copy
        # of those of each of the 14 nonzero slices
        module = make_module(trivial, n=2, mu=(1,), radius=2)
        spec = OpSpec(e(2, 0), (1, 0), trivial.one(), trivial.one())
        d = module.d
        act_into = tensmod.act_into
        columns = []

        def counting(acc, x, v, c=ONE, fold=False):
            columns.append((fold, {m: len({j // d for part in vec
                                           for j in part})
                                   for m, vec in v.ints.items()}))
            act_into(acc, x, v, c, fold=fold)

        monkeypatch.setattr(tensmod, "act_into", counting)
        assert opcheck.evaluated_preserves_differences(
            OperatorTable(spec, spec, module))
        # and Q folds its images onto slice 0 as it makes them
        assert columns == [
            (True, dict.fromkeys(module.window.interior((1, 0)), d))]

    def test_margin_beyond_the_radius_passes(self, trivial):
        # no slice is interior, so there is no difference to map, and Q
        # acts on no slice: on the bottom slice it would leave the window
        module = make_module(trivial, n=2, mu=(1,), radius=2)
        spec = OpSpec(e(2, 0), (3, 0), trivial.one(), trivial.one())
        assert module.window.interior((3, 0)) == []
        assert opcheck.evaluated_preserves_differences(
            OperatorTable(spec, spec, module))
        with pytest.raises(OutOfWindowError):
            reference_preserves_differences(spec, module)

    def test_gauss_rat_work_does_not_grow_with_the_window(self, monkeypatch):
        # a passing sweep makes no GaussRat per slice: its GaussRat
        # arithmetic, counted by wrapping the methods as the benchmark's
        # tracer does, and every GaussRat made (scalars._norm) are those
        # of building Q and its plan, at any radius
        from collections import Counter
        from loopwitt import scalars
        rep = build_irrep((1,), GaussRat(Fraction(3, 2)), 2)
        rep.int_view()
        counts = Counter()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for attr in ("__add__", "__radd__", "__sub__", "__rsub__",
                     "__neg__", "__mul__", "__rmul__", "inverse"):
            monkeypatch.setattr(GaussRat, attr,
                                counting(attr, GaussRat.__dict__[attr]))
        monkeypatch.setattr(scalars, "_norm",
                            counting("_norm", scalars._norm))
        got = []
        for radius in (3, 5):
            # a presentation of its own, so that no power of the
            # evaluation point is cached from the last radius, and a spec
            # built afresh, so that no psi is
            pres = make_polyquot_cube()
            module = TensorModule(rep, [HALF, GaussRat(Fraction(-1, 3))],
                                  pres, Window(2, radius))
            spec = OpSpec((GaussRat(1), GaussRat(0, 1)), (1, 0),
                          pres.generator(), pres.one() * 2)
            counts.clear()
            assert opcheck.evaluated_preserves_differences(
                OperatorTable(spec, spec, module))
            got.append(dict(counts))
        assert got[0] == got[1]
        assert got[0]["__mul__"] and got[0]["_norm"]


class TestGlRelationsSuite:
    @pytest.mark.parametrize("mu", [(), (1,), (1, 0), (1, 0, 0)])
    def test_each_generator_pair_is_evaluated_once(self, mu, monkeypatch):
        # [E_kl, E_ij] residual = -[E_ij, E_kl] residual, and the (i, j, i,
        # j) residual is therefore zero, so gl-relations evaluates
        # n^2 (n^2 - 1) / 2 residuals for its n^4 relation cases
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
        assert len(calls) == len(set(calls)) == n * n * (n * n - 1) // 2
        assert all(idx[:2] != idx[2:] for idx in calls)
