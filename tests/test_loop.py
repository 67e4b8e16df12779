import inspect
import random
import textwrap
from fractions import Fraction

import pytest

from conftest import (ad_weight, make_laurent, make_polyquot_cube,
                      reference_bracket, reference_jacobi)
from loopwitt import loop, suites
from loopwitt.loop import (LoopElem, diff_derivation,
                           diff_derivation_bracket_residual, poly_derivation,
                           poly_derivation_bracket_residual)
from loopwitt.scalars import GaussRat
from test_reports_pinned import B_SPECS, GRID_MU


def d(pres, m):
    """Rank-one basis derivation at degree m."""
    return LoopElem.d_part(1, pres, 1, (m,))


def random_elem(rng, n, pres, bound=3, max_terms=3):
    coeffs = [pres.one(), pres.one() * GaussRat(2),
              pres.one() * GaussRat(Fraction(-1, 2))]
    if pres.kind != "trivial":
        coeffs.append(pres.generator())
    out = LoopElem.zero(n, pres)
    for _ in range(rng.randint(1, max_terms)):
        deg = tuple(rng.randint(-bound, bound) for _ in range(n))
        b = coeffs[rng.randrange(len(coeffs))]
        if rng.random() < 0.5:
            out = out + LoopElem.t_part(n, pres, deg, b)
        else:
            out = out + LoopElem.d_part(n, pres, rng.randint(1, n), deg, b)
    return out


class TestBracket:
    def test_rank_one_witt_bracket(self, trivial):
        # [d_1, d_-1] = -2 d_0
        got = d(trivial, 1).bracket(d(trivial, -1))
        assert got == d(trivial, 0).scale(-2)

    def test_rank_two_direction_mixing(self, trivial):
        # [D(e1,(0,1)), D(e2,(1,0))] = D(e2 - e1, (1,1))
        x = LoopElem.d_part(2, trivial, 1, (0, 1))
        y = LoopElem.d_part(2, trivial, 2, (1, 0))
        want = (LoopElem.d_part(2, trivial, 2, (1, 1))
                - LoopElem.d_part(2, trivial, 1, (1, 1)))
        assert x.bracket(y) == want

    def test_derivation_on_function_with_coefficient_reduction(
            self, polyquot_square):
        # [D(e1,(1,0)) x, t^(1,0) x] = t^(2,0) (4x - 4) in F[x]/((x-2)^2)
        pres = polyquot_square
        x = pres.generator()
        lhs = LoopElem.d_part(2, pres, 1, (1, 0), x).bracket(
            LoopElem.t_part(2, pres, (1, 0), x))
        want = LoopElem.t_part(
            2, pres, (2, 0),
            pres.from_poly({0: GaussRat(-4), 1: GaussRat(4)}))
        assert lhs == want

    def test_function_parts_commute(self, any_pres):
        x = LoopElem.t_part(2, any_pres, (1, -2))
        y = LoopElem.t_part(2, any_pres, (0, 3))
        assert x.bracket(y).is_zero()

    def test_function_part_is_an_ideal(self, trivial):
        rng = random.Random(7)
        for _ in range(20):
            x = random_elem(rng, 2, trivial)
            t_only = LoopElem.t_part(2, trivial, (rng.randint(-2, 2),
                                                  rng.randint(-2, 2)))
            br = x.bracket(t_only)
            assert all(key[0] == "t" for key in br.terms)

    def test_rank_mismatch_rejected(self, trivial):
        with pytest.raises(ValueError):
            d(trivial, 0).bracket(LoopElem.t_part(2, trivial, (0, 0)))

    def test_presentation_mismatch_rejected(self, trivial, laurent):
        with pytest.raises(ValueError):
            d(trivial, 0).bracket(d(laurent, 0))


class TestLieAxioms:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_antisymmetry_random(self, n, any_pres):
        rng = random.Random(100 + n)
        for _ in range(25):
            x = random_elem(rng, n, any_pres)
            y = random_elem(rng, n, any_pres)
            assert (x.bracket(y) + y.bracket(x)).is_zero()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_jacobi_random(self, n, any_pres):
        rng = random.Random(200 + n)
        for _ in range(25):
            x = random_elem(rng, n, any_pres)
            y = random_elem(rng, n, any_pres)
            z = random_elem(rng, n, any_pres)
            assert x.jacobi_residual(y, z).is_zero()

    def test_jacobi_degenerate_repeat(self, trivial):
        x = d(trivial, 2)
        y = d(trivial, -1)
        assert x.jacobi_residual(x, y).is_zero()

    def test_homogeneous_degree_additivity(self, trivial):
        rng = random.Random(5)
        for _ in range(30):
            r = tuple(rng.randint(-2, 2) for _ in range(2))
            s = tuple(rng.randint(-2, 2) for _ in range(2))
            x = LoopElem.d_part(2, trivial, rng.randint(1, 2), r)
            y = LoopElem.d_part(2, trivial, rng.randint(1, 2), s)
            br = x.bracket(y)
            if not br.is_zero():
                assert ad_weight(br) == tuple(a + b for a, b in zip(r, s))


def noncanonical_results(pres, n, seed, cases=30):
    """How many of bracket and jacobi_residual on sample_loop_elem
    triples have a coefficient exponent outside 0 .. deg m - 1."""
    deg = len(pres.modulus) - 1
    rng = random.Random(seed)
    pool = suites.coefficient_pool(pres)
    bad = 0
    for _ in range(cases):
        x, y, z = (suites.sample_loop_elem(rng, n, pres, pool)
                   for _ in range(3))
        for elem in (x.bracket(y), x.jacobi_residual(y, z)):
            bad += any(not 0 <= e < deg for b in elem.terms.values()
                       for e in b.rep)
    return bad


class TestCanonicalCoefficients:
    """bracket and jacobi_residual return reduced polyquot coefficients;
    bracket-soundness cannot see an unreduced one, since both identities
    also hold over F[x]."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_exponent_is_below_the_modulus_degree(self, n, polyquot,
                                                        polyquot_square):
        assert noncanonical_results(polyquot, n, 700 + n) == 0
        assert noncanonical_results(polyquot_square, n, 710 + n) == 0


class TestAgainstReference:
    """The one-pass bracket against the term-by-term oracle."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bracket_and_jacobi_match(self, n, any_pres):
        rng = random.Random(300 + n)
        pool = suites.coefficient_pool(any_pres)
        outer_nonzero = 0
        for _ in range(30):
            x, y, z = (suites.sample_loop_elem(rng, n, any_pres, pool)
                       for _ in range(3))
            assert x.bracket(y) == reference_bracket(x, y)
            assert x.jacobi_residual(y, z) == reference_jacobi(x, y, z)
            outer_nonzero += not reference_bracket(
                x, reference_bracket(y, z)).is_zero()
        # the three outer brackets cancel in the shared accumulator
        assert outer_nonzero > 10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_jacobi_with_the_given_xy_matches(self, n, any_pres):
        # bracket-soundness passes its [x, y] in, so it is computed once
        rng = random.Random(320 + n)
        pool = suites.coefficient_pool(any_pres)
        for _ in range(20):
            x, y, z = (suites.sample_loop_elem(rng, n, any_pres, pool)
                       for _ in range(3))
            assert (x.jacobi_residual(y, z, x.bracket(y))
                    == x.jacobi_residual(y, z) == reference_jacobi(x, y, z))

    def test_equal_direction_constants_cancel(self, any_pres):
        # [D(e_1,r), D(e_1,s)] = (s_1 - r_1) D(e_1,r+s): zero at r_1 = s_1
        x = LoopElem.d_part(2, any_pres, 1, (1, 0))
        y = LoopElem.d_part(2, any_pres, 1, (1, 2), any_pres.one().scale(
            GaussRat(3)))
        assert x.bracket(y).is_zero() and not x.bracket(y).terms
        assert reference_bracket(x, y).is_zero()
        y2 = LoopElem.d_part(2, any_pres, 1, (2, 2))
        assert x.bracket(y2) == reference_bracket(x, y2) == (
            LoopElem.d_part(2, any_pres, 1, (3, 2)))

    @pytest.mark.parametrize("b2_scale", [-1, 1])
    def test_two_pairs_on_one_output_key(self, any_pres, b2_scale):
        # [t^r, D(e_j,s)] = -r_j t^(r+s): both pairs land on t^(1,1)
        one = any_pres.one()
        x = (LoopElem.t_part(2, any_pres, (1, 0))
             + LoopElem.t_part(2, any_pres, (0, 1), one.scale(
                 GaussRat(b2_scale))))
        y = (LoopElem.d_part(2, any_pres, 1, (0, 1))
             + LoopElem.d_part(2, any_pres, 2, (1, 0)))
        got = x.bracket(y)
        assert got == reference_bracket(x, y)
        if b2_scale == -1:
            assert got.is_zero()
        else:
            assert got == LoopElem.t_part(2, any_pres, (1, 1)).scale(-2)

    def test_polyquot_product_reducing_to_zero(self):
        # (x-2) (x-2)^2 = 0 in F[x]/((x-2)^3), though both factors are not
        pres = make_polyquot_cube()
        u = pres.generator() - pres.from_scalar(GaussRat(2))
        x = LoopElem.d_part(1, pres, 1, (1,), u)
        y = LoopElem.t_part(1, pres, (1,), u * u)
        assert x.bracket(y).is_zero() and not x.bracket(y).terms
        assert reference_bracket(x, y).is_zero()
        z = LoopElem.d_part(1, pres, 1, (2,), u * u)
        assert x.bracket(z) == reference_bracket(x, z)
        assert x.bracket(z).is_zero()

    def test_polyquot_unreduced_sum_reduces_once(self):
        # x^2 x^2 and x x^3 both exceed deg m; their sum is reduced once
        pres = make_polyquot_cube()
        gen = pres.generator()
        x = (LoopElem.t_part(1, pres, (1,), gen * gen)
             + LoopElem.t_part(1, pres, (2,), gen))
        y = (LoopElem.d_part(1, pres, 1, (1,), gen * gen)
             + LoopElem.d_part(1, pres, 1, (0,), gen * gen * gen))
        got = x.bracket(y)
        assert got == reference_bracket(x, y)
        assert all(max(b.rep) < 3 for b in got.terms.values())

    def test_laurent_inverse_pair(self):
        # [D(e_1,1) x, t^1 x^-1] = t^2 (x x^-1) = t^2
        pres = make_laurent()
        x = LoopElem.d_part(1, pres, 1, (1,), pres.generator())
        y = LoopElem.t_part(1, pres, (1,), pres.from_poly({-1: 1}))
        assert x.bracket(y) == reference_bracket(x, y) == (
            LoopElem.t_part(1, pres, (2,)))


def mutant(fn, old: str, new: str):
    """fn recompiled from its source with the one occurrence of old
    replaced by new, in fn's module namespace."""
    src = textwrap.dedent(inspect.getsource(fn))
    assert src.count(old) == 1, f"{old!r} not found once in {fn.__name__}"
    ns = {}
    exec(compile(src.replace(old, new), inspect.getsourcefile(fn), "exec"),
         vars(inspect.getmodule(fn)), ns)
    return ns[fn.__name__]


def soundness_failures():
    """Failed checks of bracket-soundness per 9-grid config, seed 42."""
    out = {}
    for n, mu in GRID_MU.items():
        for kind, b in B_SPECS.items():
            cfg = suites.RunConfig.from_dict(
                {"n": n, "mu": mu, "B": b, "seed": 42,
                 "cases_per_suite": 20})
            _, failures = suites.run_bracket_soundness(cfg)
            out[n, kind] = {f["check"] for f in failures}
    return out


class TestPlantedBracketDefects:
    """Negative controls for bracket-soundness, planted in the shared
    accumulation routine that bracket and jacobi_residual both run.

    A global sign flip of the bracket passes both identities, since each
    is homogeneous in the bracket; module-axiom catches it
    (perfbench/test_perfbench.py::test_bracket_sign_flip_fails_checks)."""

    def test_unplanted_grid_passes(self):
        assert not any(soundness_failures().values())

    @pytest.mark.parametrize("old,new", [
        # drop the -r_j D(e_i) term of [D(e_i,r), D(e_j,s)]
        ('("d", i, -r[j - 1])', '("d", i, 0)'),
        # flip the sign of [t^r, D(e_j,s)]
        ('outs = (("t", 0, -r[j - 1]),)', 'outs = (("t", 0, r[j - 1]),)'),
    ], ids=["drop-rj-term", "flip-t-d-sign"])
    def test_structure_constant_defect_fails_everywhere(
            self, old, new, monkeypatch):
        monkeypatch.setattr(loop, "_accumulate",
                            mutant(loop._accumulate, old, new))
        failed = soundness_failures()
        assert all(failed.values()), failed

    def test_skipped_reduction_is_caught_by_the_oracle(self, monkeypatch):
        # Without the final reduction every coefficient is the exact
        # product in F[x], where both identities hold too; reduction is a
        # ring homomorphism onto B.  So bracket-soundness cannot see this
        # defect; the term-by-term oracle does, and so do the printed
        # coefficients that test_cli pins.
        monkeypatch.setattr(loop, "_collect", mutant(
            loop._collect, "pres.element(*pres.reduce(den, re, im))",
            "pres.element(den, re, im)"))
        assert not any(soundness_failures().values())
        pres = make_polyquot_cube()
        assert noncanonical_results(pres, 2, 702) > 0
        gen = pres.generator()
        x = LoopElem.d_part(1, pres, 1, (1,), gen * gen)
        y = LoopElem.t_part(1, pres, (1,), gen * gen)
        assert x.bracket(y) != reference_bracket(x, y)


class TestAdWeight:
    def test_function_part_weight(self, trivial):
        x = LoopElem.t_part(2, trivial, (1, 2))
        assert ad_weight(x) == (1, 2)

    def test_zero_mode_weight(self, trivial):
        assert ad_weight(d(trivial, 0)) == (0,)

    def test_mixed_degrees_rejected(self, trivial):
        x = (LoopElem.t_part(2, trivial, (1, 0))
             + LoopElem.t_part(2, trivial, (0, 1)))
        with pytest.raises(ValueError):
            ad_weight(x)

    def test_zero_element_rejected(self, trivial):
        with pytest.raises(ValueError):
            ad_weight(LoopElem.zero(1, trivial))


class TestRankOneElements:
    def test_zeroth_power_is_plain_derivation(self, trivial):
        assert poly_derivation(trivial, 0, 5) == d(trivial, 5)

    def test_first_power_expansion(self, trivial):
        assert poly_derivation(trivial, 1, 0) == d(trivial, 1) - d(trivial, 0)

    def test_second_power_expansion(self, trivial):
        want = d(trivial, 1) - d(trivial, 0).scale(2) + d(trivial, -1)
        assert poly_derivation(trivial, 2, -1) == want

    def test_shift_difference_element(self, trivial):
        assert diff_derivation(trivial, 3) == d(trivial, 3) - d(trivial, 0)
        assert diff_derivation(trivial, 0).is_zero()

    def test_binomial_bracket_closed_form(self, any_pres):
        for k in range(5):
            for l in range(5):
                for i in range(-3, 4):
                    for j in range(-3, 4):
                        assert poly_derivation_bracket_residual(
                            any_pres, k, l, i, j).is_zero()

    def test_shift_difference_bracket_closed_form(self, any_pres):
        for r in range(-5, 6):
            for s in range(-5, 6):
                assert diff_derivation_bracket_residual(
                    any_pres, r, s).is_zero()

    def test_shift_difference_bracket_degenerate(self, trivial):
        # r = s reduces to antisymmetry of the bracket
        assert diff_derivation(trivial, 2).bracket(
            diff_derivation(trivial, 2)).is_zero()


class TestStructure:
    def test_zero_pruning(self, trivial):
        x = d(trivial, 1)
        assert (x - x).is_zero()
        assert not (x - x).terms

    def test_vector_direction_decomposition(self, trivial):
        u = (GaussRat(2), GaussRat(-1))
        x = LoopElem.d_vec(2, trivial, u, (1, 0))
        want = (LoopElem.d_part(2, trivial, 1, (1, 0)).scale(2)
                - LoopElem.d_part(2, trivial, 2, (1, 0)))
        assert x == want

    def test_direction_index_bounds(self, trivial):
        with pytest.raises(ValueError):
            LoopElem.d_part(2, trivial, 3, (0, 0))
        with pytest.raises(ValueError):
            LoopElem.d_part(2, trivial, 0, (0, 0))

    def test_sorted_terms_deterministic(self, trivial):
        x = (LoopElem.t_part(1, trivial, (2,)) + d(trivial, -1)
             + LoopElem.t_part(1, trivial, (0,)))
        keys = [k for k, _ in x.sorted_terms()]
        assert keys == sorted(keys)
