from fractions import Fraction
from itertools import product

import pytest

from loopwitt.coeff import BPresentation
from loopwitt.scalars import GaussRat

from conftest import make_laurent, make_polyquot_cube, make_polyquot_square


def pool(pres):
    """Deterministic element sample per presentation."""
    out = [pres.zero(), pres.one(), pres.from_scalar(GaussRat(2)),
           pres.from_scalar(GaussRat(Fraction(-1, 3)))]
    if pres.kind != "trivial":
        x = pres.generator()
        a = pres.from_scalar(pres.eval_point)
        out += [x, x - a, x * x, x * 2 + pres.one()]
    if pres.kind == "laurent":
        out.append(pres.from_poly({-1: GaussRat(1)}))
    return out


class TestPresentationValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            BPresentation("weird")

    def test_polyquot_needs_monic_modulus(self):
        with pytest.raises(ValueError):
            BPresentation("polyquot",
                          modulus=[GaussRat(-4), GaussRat(2)],
                          eval_point=GaussRat(2))

    def test_polyquot_eval_point_must_be_root(self):
        with pytest.raises(ValueError):
            BPresentation("polyquot",
                          modulus=[GaussRat(4), GaussRat(-4), GaussRat(1)],
                          eval_point=GaussRat(3))

    def test_laurent_eval_point_nonzero(self):
        with pytest.raises(ValueError):
            BPresentation("laurent", eval_point=GaussRat(0))


class TestRingStructure:
    def test_square_reduces_modulo_square_modulus(self):
        # x * x -> 4x - 4 in F[x]/((x-2)^2)
        pres = make_polyquot_square()
        x = pres.generator()
        assert x * x == pres.from_poly({0: GaussRat(-4), 1: GaussRat(4)})

    def test_unit_law(self, any_pres):
        for b in pool(any_pres):
            assert any_pres.one() * b == b

    def test_laurent_inverse_pair(self):
        pres = make_laurent()
        t = pres.generator()
        tinv = pres.from_poly({-1: GaussRat(1)})
        assert t * tinv == pres.one()

    def test_commutativity_and_associativity(self, any_pres):
        sample = pool(any_pres)[:6]
        for a, b in product(sample, repeat=2):
            assert a * b == b * a
            assert a + b == b + a
        for a, b, c in product(sample[:4], repeat=3):
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_mixed_presentations_rejected(self, trivial, laurent):
        with pytest.raises(ValueError):
            trivial.one() + laurent.one()
        with pytest.raises(ValueError):
            trivial.one() * laurent.one()

    def test_scalar_multiple(self, any_pres):
        b = any_pres.one() * GaussRat(3)
        assert b.psi() == GaussRat(3)

    def test_fraction_multiple(self, any_pres):
        half = Fraction(1, 2)
        for b in pool(any_pres):
            want = b * GaussRat(half)
            assert b * half == want
            assert half * b == want

    def test_float_multiple_rejected(self, any_pres):
        with pytest.raises(TypeError):
            any_pres.one() * 0.5


class TestEvaluation:
    def test_trivial_is_identity(self, trivial):
        assert trivial.from_scalar(GaussRat(5)).psi() == GaussRat(5)

    def test_polyquot_generator_evaluates_to_root(self, polyquot):
        assert polyquot.generator().psi() == GaussRat(2)

    def test_laurent_mixed_powers(self):
        # psi(t + t^-1) at a = 3 is 3 + 1/3 = 10/3
        pres = make_laurent()
        b = pres.from_poly({1: GaussRat(1), -1: GaussRat(1)})
        assert b.psi() == GaussRat(Fraction(10, 3))

    def test_evaluation_is_ring_homomorphism(self, any_pres):
        sample = pool(any_pres)
        assert any_pres.one().psi() == GaussRat(1)
        for a, b in product(sample, repeat=2):
            assert (a * b).psi() == a.psi() * b.psi()
            assert (a + b).psi() == a.psi() + b.psi()


class TestIdealPowers:
    def test_explicit_square_is_in_second_power(self, polyquot):
        x = polyquot.generator()
        two = polyquot.from_scalar(GaussRat(2))
        assert ((x - two) * (x - two)).in_ideal_power(2)

    def test_linear_term_not_in_second_power(self, polyquot):
        x = polyquot.generator()
        two = polyquot.from_scalar(GaussRat(2))
        assert (x - two).in_ideal_power(1)
        assert not (x - two).in_ideal_power(2)

    def test_laurent_membership_at_one(self):
        pres = make_laurent(a=1)
        t = pres.generator()
        assert (t - pres.one()).in_ideal_power(1)
        assert not (t - pres.one()).in_ideal_power(2)

    def test_trivial_membership(self, trivial):
        assert trivial.zero().in_ideal_power(1)
        assert not trivial.one().in_ideal_power(1)

    def test_first_power_iff_evaluation_vanishes(self, any_pres):
        for b in pool(any_pres):
            assert b.in_ideal_power(1) == (not b.psi())

    def test_membership_is_multiplicative(self, any_pres):
        if any_pres.kind == "trivial":
            # the ideal is zero, so every power contains only zero
            zero = any_pres.zero()
            assert (zero * zero).in_ideal_power(2)
            return
        x = any_pres.generator()
        a = any_pres.from_scalar(any_pres.eval_point)
        m = x - a
        sample = [(m, 1), (m * m, 2), (m * m * m, 3)]
        for (b, k), (b2, l) in product(sample, repeat=2):
            assert (b * b2).in_ideal_power(k + l)

    def test_bad_power_rejected(self, trivial):
        with pytest.raises(ValueError):
            trivial.one().in_ideal_power(0)


class TestNilpotency:
    def test_cubed_linear_modulus(self, polyquot):
        assert polyquot.nilpotency_index() == 3

    def test_laurent_never_nilpotent(self, laurent):
        assert laurent.nilpotency_index() is None

    def test_trivial_immediately_nilpotent(self, trivial):
        assert trivial.nilpotency_index() == 1

    def test_non_power_modulus_has_no_index(self):
        # x^2 - 3x + 2 = (x-1)(x-2): the ideal at 2 is not nilpotent
        pres = BPresentation(
            "polyquot",
            modulus=[GaussRat(2), GaussRat(-3), GaussRat(1)],
            eval_point=GaussRat(2))
        assert pres.nilpotency_index() is None

    def test_index_matches_vanishing_power(self, polyquot):
        x = polyquot.generator()
        two = polyquot.from_scalar(GaussRat(2))
        m = x - two
        assert not (m * m).is_zero()
        assert (m * m * m).is_zero()
