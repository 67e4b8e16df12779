from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from loopwitt.scalars import GaussRat, I, ONE, ZERO, parse_gauss


rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20)
gauss = st.builds(GaussRat, rationals, rationals)


class TestArithmetic:
    def test_conjugate_product(self):
        assert (ONE + I) * (ONE - I) == GaussRat(2)

    def test_division_by_pure_imaginary(self):
        # 1 / (2i) = -i/2
        assert ONE / GaussRat(0, 2) == GaussRat(0, Fraction(-1, 2))

    def test_add_zero_identity(self):
        x = GaussRat(Fraction(3, 7), Fraction(-2, 5))
        assert ZERO + x == x
        assert x + 0 == x

    def test_mixed_int_arithmetic(self):
        assert 2 * GaussRat(3) == GaussRat(6)
        assert GaussRat(3) - 1 == GaussRat(2)
        assert 1 - GaussRat(3) == GaussRat(-2)
        assert 1 / GaussRat(4) == GaussRat(Fraction(1, 4))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()

    def test_conjugation(self):
        x = GaussRat(1, 2)
        assert x.conj() == GaussRat(1, -2)
        assert x * x.conj() == GaussRat(5)

    def test_immutability(self):
        x = GaussRat(1)
        with pytest.raises(AttributeError):
            x.re = Fraction(2)

    def test_truthiness(self):
        assert not ZERO
        assert GaussRat(0, 1)
        assert ZERO.is_zero()
        assert not ONE.is_zero()

    @given(gauss, gauss, gauss)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(gauss, gauss)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(gauss)
    def test_inverse_roundtrip(self, a):
        if a:
            assert a * a.inverse() == ONE

    @given(gauss)
    def test_hash_consistency(self, a):
        assert hash(a) == hash(GaussRat(a.re, a.im))

    @given(rationals)
    def test_real_value_hashes_like_rational(self, q):
        assert hash(GaussRat(q)) == hash(q)
        assert len({GaussRat(q), q}) == 1

    def test_equal_int_collapses_in_set(self):
        assert {GaussRat(1), 1} == {1}
        assert len({GaussRat(0), 0, ZERO}) == 1

    @pytest.mark.parametrize("re,im", [(0.1, 0), (0, 0.5), (1.0, 0)])
    def test_floats_rejected(self, re, im):
        with pytest.raises(TypeError):
            GaussRat(re, im)


class TestParsing:
    @pytest.mark.parametrize("text,value", [
        ("1/2", GaussRat(Fraction(1, 2))),
        ("-3", GaussRat(-3)),
        ("i", I),
        ("-i", -I),
        ("2i", GaussRat(0, 2)),
        ("1/2-3/4 i", GaussRat(Fraction(1, 2), Fraction(-3, 4))),
        ("0/1+1/1 i", I),
        ("-1/2+2/3i", GaussRat(Fraction(-1, 2), Fraction(2, 3))),
    ])
    def test_parse_examples(self, text, value):
        assert parse_gauss(text) == value

    @pytest.mark.parametrize("bad", ["", "x", "1..2", "1+", "i i", "1/2/3",
                                     "1/0", "1/00", "1+2/0 i"])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_gauss(bad)

    @given(gauss)
    def test_format_parse_roundtrip(self, a):
        assert parse_gauss(str(a)) == a

    def test_canonical_string_forms(self):
        assert str(GaussRat(Fraction(1, 2))) == "1/2"
        assert str(GaussRat(0)) == "0/1"
        assert str(GaussRat(1, 1)) == "1/1+1/1 i"
        assert str(GaussRat(1, -1)) == "1/1-1/1 i"
        assert str(GaussRat(Fraction(-3, 4), Fraction(5, 6))) == "-3/4+5/6 i"
        assert str(parse_gauss("2/04")) == "1/2"
