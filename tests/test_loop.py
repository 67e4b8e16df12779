import random
from fractions import Fraction

import pytest

from conftest import ad_weight
from loopwitt.loop import (LoopElem, diff_derivation,
                           diff_derivation_bracket_residual, poly_derivation,
                           poly_derivation_bracket_residual)
from loopwitt.scalars import GaussRat


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
