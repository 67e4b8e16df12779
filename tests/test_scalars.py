import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from loopwitt import scalars
from loopwitt.scalars import GaussRat, I, ONE, ZERO, parse_gauss


rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20)
gauss = st.builds(GaussRat, rationals, rationals)

# parts with numerators and denominators up to 10^30, so that the
# big-integer path is exercised; zero parts (real and pure imaginary
# values) and denominator 1 come up about half the time each
BIG = 10 ** 30
big_parts = st.builds(Fraction, st.just(0) | st.integers(-BIG, BIG),
                      st.just(1) | st.integers(1, BIG))
ref_pairs = st.tuples(big_parts, big_parts)


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_inverse(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def ref_str(x):
    re_s = f"{x[0].numerator}/{x[0].denominator}"
    if not x[1]:
        return re_s
    sign = "+" if x[1] > 0 else "-"
    return f"{re_s}{sign}{abs(x[1]).numerator}/{x[1].denominator} i"


def check(g, x):
    """g is the canonical GaussRat of the Fraction pair x."""
    assert (g.re, g.im) == x
    assert type(g.re) is Fraction and type(g.im) is Fraction
    a, b, q = g._a, g._b, g._q
    assert q > 0 and gcd(a, b, q) == 1
    if x == (0, 0):
        assert (a, b, q) == (0, 0, 1)
    assert str(g) == ref_str(x)
    assert hash(g) == (hash(x) if x[1] else hash(x[0]))


class TestArithmetic:
    def test_conjugate_product(self):
        assert (ONE + I) * (ONE - I) == GaussRat(2)

    def test_inverse_of_pure_imaginary(self):
        # 1 / (2i) = -i/2
        assert GaussRat(0, 2).inverse() == GaussRat(0, Fraction(-1, 2))

    def test_add_zero_identity(self):
        x = GaussRat(Fraction(3, 7), Fraction(-2, 5))
        assert ZERO + x == x
        assert x + 0 == x

    def test_mixed_int_arithmetic(self):
        assert 2 * GaussRat(3) == GaussRat(6)
        assert GaussRat(3) - 1 == GaussRat(2)
        assert 1 - GaussRat(3) == GaussRat(-2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()

    def test_immutability(self):
        x = GaussRat(1)
        with pytest.raises(AttributeError):
            x.re = Fraction(2)

    def test_truthiness(self):
        assert not ZERO
        assert GaussRat(0, 1)
        assert bool(ZERO) is False
        assert bool(ONE) is True

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

    @pytest.mark.parametrize("value", [
        ZERO, GaussRat(-7), GaussRat(Fraction(3, 4)), I,
        GaussRat(Fraction(-5, 6), Fraction(7, 4)),
        GaussRat(Fraction(BIG + 1, 3), BIG)])
    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy,
        lambda x: pickle.loads(pickle.dumps(x))],
        ids=["copy", "deepcopy", "pickle"])
    def test_copy_and_pickle(self, value, clone):
        got = clone(value)
        assert got == value and hash(got) == hash(value)
        assert str(got) == str(value)


class TestAgainstFractionPairs:
    """Differential tests: GaussRat against a pair of Fractions."""

    @given(ref_pairs)
    def test_construction_and_negation(self, x):
        g = GaussRat(*x)
        check(g, x)
        check(-g, (-x[0], -x[1]))

    @given(ref_pairs, ref_pairs)
    def test_add_sub_mul(self, x, y):
        g, h = GaussRat(*x), GaussRat(*y)
        check(g + h, (x[0] + y[0], x[1] + y[1]))
        check(g - h, (x[0] - y[0], x[1] - y[1]))
        check(g * h, ref_mul(x, y))

    @given(ref_pairs, ref_pairs)
    def test_inverse(self, x, y):
        g, h = GaussRat(*x), GaussRat(*y)
        if any(y):
            check(h.inverse(), ref_inverse(y))
            check(g * h.inverse(), ref_mul(x, ref_inverse(y)))
        else:
            with pytest.raises(ZeroDivisionError):
                h.inverse()

    @given(ref_pairs, ref_pairs)
    def test_equality(self, x, y):
        g, h = GaussRat(*x), GaussRat(*y)
        assert (g == h) == (x == y)
        assert g == GaussRat(*x) and hash(g) == hash(GaussRat(*x))

    @given(ref_pairs, big_parts, st.integers(-BIG, BIG))
    def test_mixed_operands(self, x, f, k):
        g = GaussRat(*x)
        for c in (f, k):
            check(g + c, (x[0] + c, x[1]))
            check(c + g, (x[0] + c, x[1]))
            check(g - c, (x[0] - c, x[1]))
            check(c - g, (c - x[0], -x[1]))
            check(g * c, (x[0] * c, x[1] * c))
            check(c * g, (x[0] * c, x[1] * c))
            assert (g == c) == (x == (c, 0))

    @given(ref_pairs, st.sampled_from([0, 1, -1, 2 ** 64 + 1, -(2 ** 70)])
           | st.integers(-BIG, BIG) | st.booleans())
    def test_int_and_bool_factors(self, x, k):
        # on either side, and the same triple as the factor GaussRat(k)
        g = GaussRat(*x)
        want = g * GaussRat(k)
        check(want, (x[0] * k, x[1] * k))
        for got in (g * k, k * g):
            check(got, (x[0] * k, x[1] * k))
            assert (got._a, got._b, got._q) == (want._a, want._b, want._q)

    @given(ref_pairs, big_parts)
    def test_real_factor_and_real_inverse(self, x, f):
        g, h = GaussRat(*x), GaussRat(f)
        check(g * h, ref_mul(x, (f, 0)))
        check(h * g, ref_mul((f, 0), x))
        if f:
            check(h.inverse(), ref_inverse((f, Fraction(0))))
        else:
            with pytest.raises(ZeroDivisionError,
                               match="division by zero GaussRat"):
                h.inverse()

    @given(st.integers(1, BIG),
           st.lists(st.integers(-BIG, BIG), min_size=4, max_size=4))
    def test_sum_and_difference_over_one_denominator(self, q, nums):
        # a real numerator of 1 mod q keeps q the canonical denominator
        a, b, c, d = nums
        x = (Fraction(a * q + 1, q), Fraction(b, q))
        y = (Fraction(c * q + 1, q), Fraction(d, q))
        g, h = GaussRat(*x), GaussRat(*y)
        assert g._q == h._q == q
        check(g + h, (x[0] + y[0], x[1] + y[1]))
        check(g - h, (x[0] - y[0], x[1] - y[1]))
        check(g - g, (0, 0))

    def test_bool_factor_takes_the_coerce_path(self, monkeypatch):
        seen = []
        coerce = scalars._coerce
        monkeypatch.setattr(scalars, "_coerce",
                            lambda v: seen.append(v) or coerce(v))
        g = GaussRat(Fraction(3, 4), 5)
        assert g * True == g and True * g == g
        assert g * False == ZERO
        assert seen == [True, True, False]

    @pytest.mark.parametrize("k", [3, Fraction(1, 2), True])
    def test_product_of_one_and_a_number_is_a_gauss_rat(self, k):
        # k is coerced first, so the product never hands back k
        for got in (ONE * k, k * ONE):
            assert type(got) is GaussRat
            assert got == GaussRat(k)

    def test_product_of_one_and_a_string_raises(self):
        with pytest.raises(TypeError):
            ONE * "a"
        with pytest.raises(TypeError):
            "a" * ONE

    @given(ref_pairs)
    def test_product_with_one_matches_the_general_path(self, x):
        # ONE on either side is a product like any other: the same triple
        # as a factor GaussRat(1), which equals ONE but is another object
        g = GaussRat(*x)
        assert GaussRat(1) is not ONE
        for got in (g * ONE, ONE * g):
            want = g * GaussRat(1)
            assert (got._a, got._b, got._q) == (want._a, want._b, want._q)
            check(got, x)

    def test_zero_is_one_triple(self):
        for z in (ZERO, GaussRat(Fraction(0, 7), 0), ONE - ONE,
                  GaussRat(Fraction(1, 3)) - GaussRat(Fraction(1, 3)),
                  I * 0, GaussRat(Fraction(2, 3), Fraction(5, 6)) * ZERO):
            assert (z._a, z._b, z._q) == (0, 0, 1)

    def test_common_factor_of_all_three_cancels(self):
        # (1+i)/2 * (1+i) = 2i/2 = i: the gcd of the three entries, not
        # the content of a + b i alone, is divided out
        x = GaussRat(Fraction(1, 2), Fraction(1, 2)) * GaussRat(1, 1)
        assert (x._a, x._b, x._q) == (0, 1, 1)


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
