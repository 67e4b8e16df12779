import gc
import random
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (block_column, cartan_eigenvalue, make_laurent,
                      make_polyquot_cube, mod_vector, rational_columns,
                      reference_act, reference_op_matrix,
                      reference_slice_sum)
from loopwitt.coeff import BPresentation
from loopwitt.glnrep import build_irrep
from loopwitt.linalg import dense
from loopwitt.loop import LoopElem
from loopwitt.scalars import GaussRat, ONE, ZERO
from loopwitt.tensmod import (ModVector, OutOfWindowError, TensorModule,
                              Window, act, act_into,
                              assoc_unital_residuals, collect,
                              module_axiom_residual, op_matrix, signed_sum)

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
        for m in ((2, 0), (-1, 2)):
            with pytest.raises(OutOfWindowError):
                module.basis_vector(m, 0)
            with pytest.raises(OutOfWindowError):
                module.basis_block(m)


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
            assert got == mod_vector(module, {(0, 1): dict(enumerate(coords))})

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
    return mod_vector(module, {
        rng.choice(interior): {k: rng.choice(ORACLE_SCALARS)
                               for k in range(module.d)}
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

    def test_an_element_compiles_once_per_module(self, laurent,
                                                  monkeypatch):
        module = make_module(laurent)
        compiled = count_compiles(monkeypatch)
        rng = random.Random(3)
        x = oracle_elem(rng, 2, laurent, oracle_pool(laurent))
        for _ in range(2):
            v = oracle_vector(rng, module)
            assert act(x, v) == reference_act(x, v)
        assert compiled == [x]

    def test_an_element_moving_between_modules_recompiles(self, laurent,
                                                         monkeypatch):
        # the plan kept is that of the last module, so each move compiles
        modules = [make_module(laurent),
                   make_module(laurent, alpha=[GaussRat(1), GaussRat(-2)])]
        compiled = count_compiles(monkeypatch)
        rng = random.Random(4)
        x = oracle_elem(rng, 2, laurent, oracle_pool(laurent))
        for module in modules + modules:
            v = oracle_vector(rng, module)
            assert act(x, v) == reference_act(x, v)
        assert compiled == [x] * 4

    def test_a_module_keeps_no_reference_to_its_elements(self, laurent):
        # the plan lives on the element, so it is freed with it
        module = make_module(laurent)
        rng = random.Random(5)
        x = oracle_elem(rng, 2, laurent, oracle_pool(laurent))
        refs = sys.getrefcount(x)
        act(x, oracle_vector(rng, module))
        # acting adds no reference to x, such as a cache entry (x, plan)
        assert sys.getrefcount(x) == refs
        assert not any(isinstance(r, tuple) for r in gc.get_referrers(x))
        assert x._plan[0]() is module

    def test_a_module_dies_with_its_last_reference(self, laurent):
        # the unit's plan holds its module through a weak reference, so
        # no cycle keeps the module alive once the unit has acted
        gc.disable()
        try:
            module = make_module(laurent)
            assert act(module.unit, module.basis_block((0, 0))) == (
                module.basis_block((0, 0)))
            assert module.unit._plan[0]() is module
            ref = weakref.ref(module)
            del module
            assert ref() is None
        finally:
            gc.enable()


def count_compiles(monkeypatch):
    """The elements TensorModule._compile is called with, from now on."""
    compile_ = TensorModule._compile
    compiled = []

    def counted(self, x):
        compiled.append(x)
        return compile_(self, x)

    monkeypatch.setattr(TensorModule, "_compile", counted)
    return compiled


def oracle_block(rng, module, width, zero_column=None):
    """A block of the given width on one to three slices of the radius-1
    interior, some coordinates zero; column zero_column, if given, is
    zero."""
    interior = module.window.interior((1,) * module.n)
    d = module.d
    data = {}
    for _ in range(rng.randint(1, 3)):
        data[rng.choice(interior)] = {
            j: rng.choice(ORACLE_SCALARS) for j in range(width * d)
            if j // d != zero_column}
    return mod_vector(module, data)


class TestBlockAction:
    """act on a block of w columns against act and reference_act on each
    column."""

    @pytest.mark.parametrize("n,mu", [(1, ()), (2, (1,)), (2, (2,)),
                                      (3, (1, 0))])
    def test_block_matches_each_column(self, n, mu, any_pres):
        module = make_module(any_pres, n=n, mu=mu,
                             alpha=ORACLE_ALPHAS[:n])
        rng = random.Random(500 + 10 * n + module.d)
        pool = oracle_pool(any_pres)
        for width in (1, 2, module.d, 4):
            for _ in range(4):
                x = oracle_elem(rng, n, any_pres, pool)
                v = oracle_block(rng, module, width,
                                 zero_column=rng.choice([None, width - 1]))
                got = act(x, v)
                # every stored entry, and every slice sum, lies in the
                # first width columns
                assert all(j < width * module.d
                           for w in (got, got.slice_sum())
                           for vec in w.data.values() for j in vec)
                for k in range(width):
                    col = block_column(v, k)
                    assert block_column(got, k) == act(x, col)
                    assert block_column(got, k) == reference_act(x, col)

    def test_zero_column_stays_zero(self, polyquot):
        module = make_module(polyquot, mu=(2,))
        x = (LoopElem.d_part(2, polyquot, 1, (0, 1))
             + LoopElem.t_part(2, polyquot, (1, 0), polyquot.generator()))
        v = oracle_block(random.Random(4), module, 3, zero_column=1)
        got = act(x, v)
        assert block_column(v, 1).is_zero()
        assert block_column(got, 1).is_zero()
        assert not block_column(got, 0).is_zero()
        assert block_column(got, 2) == reference_act(x, block_column(v, 2))

    def test_width_one_is_an_ordinary_vector(self, laurent):
        module = make_module(laurent)
        v = module.basis_vector((1, -1), 1)
        assert v.data == {(1, -1): {1: GaussRat(1)}}
        x = LoopElem.d_part(2, laurent, 2, (-1, 1), laurent.generator())
        got = act(x, v)
        assert all(j < module.d for vec in got.data.values() for j in vec)
        assert got == reference_act(x, v)
        assert act(x, v - v).slice_sum().is_zero()

    def test_basis_block_columns_are_the_basis_vectors(self, trivial):
        module = make_module(trivial, n=3, mu=(1, 0))
        block = module.basis_block((1, 0, -1))
        d = module.d
        # only the d diagonal entries are stored
        assert block.data == {(1, 0, -1): {k * (d + 1): GaussRat(1)
                                           for k in range(d)}}
        for k in range(module.d):
            assert block_column(block, k) == module.basis_vector(
                (1, 0, -1), k)

    def test_zero_image_stores_nothing(self, trivial):
        module = make_module(trivial, mu=(2,))
        x = LoopElem.t_part(2, trivial, (0, 1), trivial.from_scalar(ZERO))
        got = act(x, module.basis_block((0, 0)))
        assert got.is_zero() and got.data == {}
        assert got.slice_sum().is_zero()

    def test_only_the_last_column_leaving_raises(self, trivial):
        module = make_module(trivial, mu=(2,), radius=2)
        d = module.d
        x = LoopElem.t_part(2, trivial, (1, 0))
        edge = {d * d - 1: GaussRat(1)}
        v = mod_vector(module, {
            (2, 0): edge, (0, 0): {j: GaussRat(1) for j in range(d * d)}})
        with pytest.raises(OutOfWindowError):
            act(x, v)
        for k in range(d - 1):
            assert act(x, block_column(v, k)) == reference_act(
                x, block_column(v, k))
        with pytest.raises(OutOfWindowError):
            act(x, block_column(v, d - 1))


def no_zero_stored(v):
    """Every slice of v holds an entry and every stored entry is
    nonzero."""
    return all(vec and all(vec.values()) for vec in v.data.values())


@st.composite
def cancelling_blocks(draw, module):
    """Blocks v and w of one width on two or three slices of the
    radius-1 interior, some coordinates zero, and the set of cancelling
    columns: w is -v on those columns, so they vanish from v + w, and
    on v's last slice they are minus the sum over its other slices, so
    their slice sums vanish."""
    d = module.d
    width = draw(st.integers(1, 3))
    interior = module.window.interior((1,) * module.n)
    slices = draw(st.lists(st.sampled_from(interior), min_size=2,
                           max_size=3, unique=True))
    cancel = draw(st.sets(st.integers(0, width - 1)))
    scalar = st.sampled_from(ORACLE_SCALARS)
    v = {m: {j: draw(scalar) for j in range(width * d)} for m in slices}
    for j in range(width * d):
        if j // d in cancel:
            v[slices[-1]][j] = -sum((v[m][j] for m in slices[:-1]), ZERO)
    w = {m: {j: -x if j // d in cancel else draw(scalar)
             for j, x in vec.items()} for m, vec in v.items()}
    return mod_vector(module, v), mod_vector(module, w), cancel


class TestModVectorContract:
    def test_constructor_takes_the_block_as_it_is(self, trivial):
        module = make_module(trivial, radius=1)
        ints = {(0, 0): ({1: 4}, {}), (1, 0): ({}, {0: -1})}
        v = ModVector(module, 2, ints)
        assert v.den == 2 and v.ints is ints
        assert v.data == {(0, 0): {1: GaussRat(2)},
                          (1, 0): {0: GaussRat(0, Fraction(-1, 2))}}
        empty = ModVector(module)
        assert empty.is_zero() and empty.den == 1 and empty.data == {}
        assert module.basis_vector((1, -1), 1).ints == {(1, -1): ({1: 1}, {})}
        # the tests' GaussRat helper clears a block to that form, zero
        # entries and empty slices dropped
        data = {(0, 0): {0: ZERO, 1: GaussRat(2)}, (1, 0): {0: ZERO},
                (0, 1): {}}
        assert mod_vector(module, data).ints == {(0, 0): ({1: 2}, {})}

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_no_result_stores_a_zero(self, data):
        pres = make_polyquot_cube()
        module = make_module(pres, mu=(2,), alpha=ORACLE_ALPHAS[:2])
        d = module.d
        v, w, cancel = data.draw(cancelling_blocks(module))
        x = oracle_elem(random.Random(data.draw(st.integers(0, 10 ** 6))),
                        2, pres, oracle_pool(pres))
        if data.draw(st.booleans()):
            # D(e_1, 0) - (alpha_1 + m_1) kills slice m of v
            m = next(iter(v.data), (0, 0))
            x = x + LoopElem.d_part(2, pres, 1, (0, 0)) - LoopElem.t_part(
                2, pres, (0, 0), pres.from_scalar(cartan_eigenvalue(
                    module, 1, m)))
        c = data.draw(st.sampled_from(ORACLE_SCALARS))
        results = [v + w, v - w, v - v, v.scale(-ONE), v.scale(c),
                   act(x, v), act(x, v + w)]
        assert all(no_zero_stored(r) for r in results)
        assert all(no_zero_stored(r.slice_sum()) for r in results + [v, w])
        assert (v - v).data == {} and v.scale(ZERO).data == {}
        assert all(j // d not in cancel
                   for vec in (v + w).data.values() for j in vec)
        assert all(j // d not in cancel
                   for vec in v.slice_sum().data.values() for j in vec)


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
        assert op_matrix(acting(x), module, (0, 0)) == (
            1, ([[(k, 1)] for k in range(module.d)], None))
        # the zero operator has d empty columns
        assert op_matrix(lambda v: v - v, module, (0, 0)) == (
            1, ([[] for _ in range(module.d)], None))

    def test_zero_mode_block_is_scalar(self, trivial):
        module = make_module(trivial)
        x = LoopElem.d_part(2, trivial, 1, (0, 0))
        m = (2, -1)
        den, got = op_matrix(acting(x), module, m)
        scal = GaussRat(2) + HALF
        want = [[scal if i == j else ZERO for j in range(module.d)]
                for i in range(module.d)]
        assert den == 2 and dense(got, module.d, den) == want

    def test_shift_block_is_identity(self, trivial):
        # t^(1,1) moves the basis block of slice (0, 0) onto that of (1, 1)
        module = make_module(trivial)
        x = LoopElem.t_part(2, trivial, (1, 1))
        got = act(x, module.basis_block((0, 0)))
        assert got == module.basis_block((1, 1))

    def test_coefficient_factors_through_evaluation(self, polyquot):
        # D(u,r) b acts as psi(b) times D(u,r)
        module = make_module(polyquot)
        x = polyquot.generator()
        u = (GaussRat(1), GaussRat(1))
        xb = LoopElem.d_vec(2, polyquot, u, (1, 0), x)
        x1 = LoopElem.d_vec(2, polyquot, u, (1, 0))
        block = module.basis_block((0, 0))
        got = act(xb, block)
        assert list(got.data) == [(1, 0)]
        assert got.data == act(x1, block).scale(GaussRat(2)).data

    def test_destination_mismatch_raises(self, trivial):
        module = make_module(trivial)
        for x in (LoopElem.t_part(2, trivial, (1, 0)),
                  LoopElem.t_part(2, trivial, (0, 0))
                  + LoopElem.t_part(2, trivial, (-1, 0))):
            with pytest.raises(OutOfWindowError):
                op_matrix(acting(x), module, (0, 0))


# -- the Gaussian-integer core against GaussRat arithmetic ---------------

BIG = 2 ** 61 - 1
CORE_MU = {1: (), 2: (1,), 3: (1, 0)}
CORE_PRES = {
    "trivial": BPresentation("trivial"),
    "polyquot": make_polyquot_cube(),
    "laurent": make_laurent(),
    # psi(x) = 0, so every term with coefficient x drops out of a plan
    "x^2 @ 0": BPresentation("polyquot", modulus=[ZERO, ZERO, ONE],
                             eval_point=ZERO),
}


def gauss_rationals():
    """Real and non-real Gaussian rationals, each part with a small or a
    large numerator and a denominator up to 2^61 - 1."""
    nums = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG))
    dens = st.one_of(st.integers(1, 6), st.just(BIG), st.integers(1, BIG))
    part = st.builds(Fraction, nums, dens)
    return st.builds(GaussRat, part, st.one_of(st.just(Fraction(0)), part))


@st.composite
def core_modules(draw, kind, radius=2):
    """A module over the given B, with c and alpha drawn."""
    n = draw(st.sampled_from(sorted(CORE_MU)))
    rep = build_irrep(CORE_MU[n], draw(gauss_rationals()), n)
    alpha = [draw(gauss_rationals()) for _ in range(n)]
    return TensorModule(rep, alpha, CORE_PRES[kind], Window(n, radius))


@st.composite
def core_elems(draw, module, bound=1, max_terms=3, zero_degree=False):
    """One to max_terms terms of degree |r_i| <= bound (r = 0 if
    zero_degree), each coefficient a drawn scalar, times x half the time
    for a B with a generator."""
    n, pres = module.n, module.pres
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        r = tuple(0 if zero_degree else draw(st.integers(-bound, bound))
                  for _ in range(n))
        i = draw(st.integers(0, n))
        b = pres.from_scalar(draw(gauss_rationals()))
        if pres.kind != "trivial" and draw(st.booleans()):
            b = b * pres.generator()
        terms[("t", 0, r) if i == 0 else ("d", i, r)] = b
    return LoopElem(n, pres, terms)


@st.composite
def core_vectors(draw, module, margin=1):
    """A block of width one or two on one to three slices of the
    interior with the given margin, some coordinates zero."""
    d = module.d
    width = draw(st.integers(1, 2))
    slices = draw(st.lists(st.sampled_from(
        module.window.interior((margin,) * module.n)), min_size=1,
        max_size=3, unique=True))
    return mod_vector(module, {
        m: {j: draw(gauss_rationals()) for j in range(width * d)
            if draw(st.booleans())} for m in slices})


def combination(terms):
    """sum_k c_k w_k over GaussRat blocks w_k (degree -> Vec), with the
    zero entries and empty slices dropped."""
    out = {}
    for c, w in terms:
        for m, vec in w.items():
            slot = out.setdefault(m, {})
            for j, x in vec.items():
                slot[j] = slot[j] + c * x if j in slot else c * x
    out = {m: {j: x for j, x in vec.items() if x} for m, vec in out.items()}
    return {m: vec for m, vec in out.items() if vec}


def slice_total(w, n):
    """The slice sum of a GaussRat block as a block on slice 0, zero
    entries dropped."""
    return combination([(ONE, {(0,) * n: vec}) for vec in w.values()])


def stores_no_zero(v):
    """Every stored slice of v holds a nonzero part, and no stored part
    is zero."""
    return all((re or im) and all(re.values()) and all(im.values())
               for re, im in v.ints.values())


CORE = settings(max_examples=10, deadline=None)


class TestIntegerCoreOracle:
    """The Gaussian-integer action and block arithmetic against
    reference_act and GaussRat arithmetic on the entries, for non-real
    c, alpha and entries with denominators up to 2^61 - 1."""

    @pytest.mark.parametrize("kind", sorted(CORE_PRES))
    @CORE
    @given(st.data())
    def test_act_and_slice_sum(self, kind, data):
        module = data.draw(core_modules(kind))
        x = data.draw(core_elems(module))
        v = data.draw(core_vectors(module))
        got, want = act(x, v), reference_act(x, v)
        assert got.data == want.data and stores_no_zero(got)
        for w, total in ((got, want.data), (v, v.data)):
            s = w.slice_sum()
            assert s.data == slice_total(total, module.n)
            assert (s.is_zero() or s.den == w.den) and stores_no_zero(s)

    @pytest.mark.parametrize("kind", sorted(CORE_PRES))
    @CORE
    @given(st.data())
    def test_signed_sum(self, kind, data):
        module = data.draw(core_modules(kind))
        terms = []
        for _ in range(data.draw(st.integers(1, 4))):
            c = data.draw(st.one_of(st.just(ZERO), gauss_rationals()))
            x = data.draw(st.one_of(st.none(), core_elems(module)))
            terms.append((c, x, data.draw(core_vectors(module))))
        got = signed_sum(module, terms)
        assert got.data == combination(
            [(c, (reference_act(x, w) if x else w).data)
             for c, x, w in terms])
        assert stores_no_zero(got)

    @pytest.mark.parametrize("kind", sorted(CORE_PRES))
    @CORE
    @given(st.data())
    def test_folded_signed_sum(self, kind, data):
        # each image added onto slice 0 as it is made is the slice sum of
        # the unfolded sum, to its denominator and integers: terms with
        # and without x, real and non-real c, blocks over denominators up
        # to 2^61 - 1, so that the accumulator holds several
        module = data.draw(core_modules(kind))
        terms = []
        for _ in range(data.draw(st.integers(1, 4))):
            c = data.draw(st.one_of(st.just(ZERO), gauss_rationals()))
            x = data.draw(st.one_of(st.none(), core_elems(module)))
            terms.append((c, x, data.draw(core_vectors(module))))
        got = signed_sum(module, terms, fold=True)
        want = reference_slice_sum(signed_sum(module, terms))
        assert (got.den, got.ints) == (want.den, want.ints)
        assert stores_no_zero(got) and set(got.ints) <= {(0,) * module.n}

    @pytest.mark.parametrize("kind", sorted(CORE_PRES))
    @CORE
    @given(st.data())
    def test_folding_keeps_the_window_rule(self, kind, data):
        # an image that leaves the window raises with the fold on exactly
        # when it raises with the fold off, at any coefficient
        module = data.draw(core_modules(kind))
        x = data.draw(core_elems(module, bound=2))
        v = data.draw(core_vectors(module, margin=0))
        c = data.draw(st.one_of(st.just(ZERO), gauss_rationals()))
        sums = []
        for fold in (False, True):
            acc = {}
            try:
                act_into(acc, x, v, c, fold=fold)
            except OutOfWindowError:
                sums.append(None)
            else:
                sums.append(collect(module, acc))
        unfolded, folded = sums
        assert (folded is None) == (unfolded is None)
        if folded is not None:
            assert folded == reference_slice_sum(unfolded)

    @pytest.mark.parametrize("kind", sorted(CORE_PRES))
    @CORE
    @given(st.data())
    def test_block_arithmetic(self, kind, data):
        module = data.draw(core_modules(kind))
        v = data.draw(core_vectors(module))
        w = data.draw(core_vectors(module))
        c = data.draw(st.one_of(st.just(ZERO), gauss_rationals()))
        for got, want in ((v + w, [(ONE, v.data), (ONE, w.data)]),
                          (v - w, [(ONE, v.data), (-ONE, w.data)]),
                          (v.scale(c), [(c, v.data)])):
            assert got.data == combination(want) and stores_no_zero(got)
        assert (v == w) == (v.data == w.data)
        assert v == mod_vector(module, v.data) and v == v.scale(ONE)
        assert (v - v).is_zero() and v.scale(ZERO).is_zero()

    @pytest.mark.parametrize("kind", sorted(CORE_PRES))
    @CORE
    @given(st.data())
    def test_op_matrix(self, kind, data):
        module = data.draw(core_modules(kind))
        x = data.draw(core_elems(module, zero_degree=True))
        m = data.draw(st.sampled_from(module.window.slices()))
        assert rational_columns(op_matrix(lambda w: act(x, w), module, m)) == (
            reference_op_matrix(lambda w: reference_act(x, w), module, m))

    @pytest.mark.parametrize("kind", sorted(CORE_PRES))
    @CORE
    @given(st.data())
    def test_leaving_the_window_raises_at_any_coefficient(self, kind, data):
        # one term, so its degree's image is the term's image; c = 0
        # still raises when that image is nonzero outside the window
        module = data.draw(core_modules(kind))
        x = data.draw(core_elems(module, bound=2, max_terms=1))
        v = data.draw(core_vectors(module, margin=0))
        c = data.draw(st.one_of(st.just(ZERO), gauss_rationals()))
        try:
            reference_act(x, v)
        except OutOfWindowError:
            with pytest.raises(OutOfWindowError):
                act_into({}, x, v, c)
        else:
            acc = {}
            act_into(acc, x, v, c)
            assert signed_sum(module, [(c, x, v)]) == act(x, v).scale(c)

    def test_compile_puts_every_part_over_one_denominator(self, trivial):
        # P = 14, the lcm of psi_1 = 3/2, kappa_1 = psi_1 alpha_1 = 1/2
        # and kappa_0 = 2/7 + i, times the irrep's denominator 1; the
        # plan holds P kappa_r, the P psi_i and P M_r = P psi_1 r_1 E_11
        rep = build_irrep((), GaussRat(1), 1)
        module = TensorModule(rep, [GaussRat(Fraction(1, 3))], trivial,
                              Window(1, 2))
        x = LoopElem(1, trivial, {
            ("d", 1, (1,)): trivial.from_scalar(GaussRat(Fraction(3, 2))),
            ("t", 0, (0,)): trivial.from_scalar(
                GaussRat(Fraction(2, 7), 1))})
        assert sorted(module._compile(x)) == [
            ((0,), 14, 4, 14, [], None),
            ((1,), 14, 7, 0, [(0, (21, 0))], ([[(0, 21)]], None))]
