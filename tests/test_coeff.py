import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st
from sympy import I as SYM_I, Poly, QQ_I, Rational, expand, symbols

from loopwitt.coeff import BElem, BPresentation
from loopwitt.scalars import GaussRat, ONE, ZERO

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


SCALE_PRESENTATIONS = {
    "trivial": BPresentation("trivial"),
    "polyquot": make_polyquot_cube(),
    "laurent": make_laurent(),
    "x^2 @ 0": BPresentation("polyquot", modulus=[ZERO, ZERO, ONE],
                             eval_point=ZERO),
}


@st.composite
def gauss(draw):
    re = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
    im = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    return GaussRat(re, im)


@st.composite
def elements(draw, pres):
    """An element with up to three terms, exponents in range for pres."""
    lo, hi = {"trivial": (0, 0), "polyquot": (0, 4),
              "laurent": (-2, 2)}[pres.kind]
    exps = draw(st.lists(st.integers(lo, hi), max_size=3, unique=True))
    return pres.from_poly({e: draw(gauss()) for e in exps})


class TestScaleCarriesPsi:
    """b.scale(c) carries c psi(b) when psi(b) is cached, since psi is
    linear; products evaluate psi afresh, so that assoc-unital still
    tests that psi is multiplicative."""

    @pytest.mark.parametrize("kind", sorted(SCALE_PRESENTATIONS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_scaled_psi_is_c_times_psi(self, kind, data):
        pres = SCALE_PRESENTATIONS[kind]
        b = data.draw(elements(pres))
        cached = b.psi()
        # c = 0 and non-real c on every draw, and one drawn c
        for c in (ZERO, GaussRat(0, 1), GaussRat(Fraction(3, 2), -1),
                  data.draw(gauss())):
            scaled = b.scale(c)
            assert scaled.psi() == c * cached
            assert scaled.psi() == BElem(pres, dict(scaled.rep)).psi()

    @pytest.mark.parametrize("kind", sorted(SCALE_PRESENTATIONS))
    def test_products_evaluate_psi_afresh(self, kind):
        pres = SCALE_PRESENTATIONS[kind]
        b = pres.from_scalar(GaussRat(2, 1))
        if kind != "trivial":
            b = b + pres.generator()
        b.psi()
        assert (b * b)._psi is None
        assert (b * b).psi() == b.psi() * b.psi()


class TestNilpotency:
    def test_index_matches_vanishing_power(self, polyquot):
        x = polyquot.generator()
        two = polyquot.from_scalar(GaussRat(2))
        m = x - two
        assert not (m * m).is_zero()
        assert (m * m * m).is_zero()


# -- differential test against sympy ------------------------------------

X = symbols("x")


def to_sym(c):
    return (Rational(c.re.numerator, c.re.denominator)
            + SYM_I * Rational(c.im.numerator, c.im.denominator))


def from_qqi(c):
    return GaussRat(Fraction(int(c.x.numerator), int(c.x.denominator)),
                    Fraction(int(c.y.numerator), int(c.y.denominator)))


def from_sym(expr):
    return from_qqi(QQ_I.from_sympy(expand(expr)))


def random_gauss(rng):
    return GaussRat(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                    Fraction(rng.randint(-2, 2), rng.randint(1, 3)))


def random_coeffs(rng, exponents):
    picks = rng.sample(exponents, rng.randint(0, min(4, len(exponents))))
    return {e: random_gauss(rng) for e in picks}


# kind, modulus, evaluation point, exponent range of the random inputs
SYMPY_CASES = {
    "trivial": ("trivial", None, 0, [0]),
    "laurent-at-3": ("laurent", None, 3, list(range(-3, 6))),
    "(x-2)^2": ("polyquot", (X - 2) ** 2, 2, list(range(6))),
    "(x-2)^3": ("polyquot", (X - 2) ** 3, 2, list(range(8))),
    "x-2": ("polyquot", X - 2, 2, list(range(4))),
    "(x-i)(x-2)-at-i": ("polyquot", (X - SYM_I) * (X - 2), SYM_I,
                        list(range(6))),
}


class TestAgainstSympy:
    """+, -, *, scalar * and psi against sympy Poly over QQ_I.  A laurent
    element b is compared through the polynomial x^3 * b, a polyquot
    result through the remainder modulo m."""

    @pytest.fixture(params=list(SYMPY_CASES), ids=list(SYMPY_CASES))
    def case(self, request):
        kind, m, a, exponents = SYMPY_CASES[request.param]
        mod = None if m is None else Poly(m, X, domain=QQ_I)
        modulus = (None if mod is None
                   else [from_sym(c) for c in reversed(mod.all_coeffs())])
        pres = BPresentation(kind, modulus=modulus, eval_point=from_sym(a))
        shift = 3 if kind == "laurent" else 0
        return pres, mod, a, shift, exponents

    def test_operations_match_sympy(self, case):
        pres, mod, a, shift, exponents = case

        def lift(coeffs):  # x^shift * b as a sympy polynomial
            return Poly(sum((to_sym(c) * X ** (e + shift)
                             for e, c in coeffs.items()), 0),
                        X, domain=QQ_I)

        def back(poly, k):  # the B element x^(-k*shift) * poly
            if mod is not None:
                poly = poly.rem(mod)
            return pres.from_poly({e - k * shift: from_qqi(c) for (e,), c
                                   in poly.as_dict(native=True).items()})

        rng = random.Random(11)
        for _ in range(25):
            p = random_coeffs(rng, exponents)
            q = random_coeffs(rng, exponents)
            c = random_gauss(rng)
            x, y = pres.from_poly(p), pres.from_poly(q)
            P, Q = lift(p), lift(q)
            assert x == back(P, 1)
            assert x + y == back(P + Q, 1)
            assert x - y == back(P - Q, 1)
            assert -x == back(-P, 1)
            assert x * y == back(P * Q, 2)
            assert x * c == c * x == back(P * to_sym(c), 1)
            assert x.psi() == from_sym(P.as_expr().subs(X, a) / a ** shift)


# -- square-and-multiply reduction against the one-degree loop ------------


def naive_reduce(modulus, p):
    """p modulo the monic modulus, one degree at a time from the top,
    with the zero entries dropped: the oracle of BPresentation.reduce."""
    d = len(modulus) - 1
    for top in range(max(p, default=0), d - 1, -1):
        c = p.pop(top, ZERO)
        if c:
            for k in range(d):
                if modulus[k]:
                    p[top - d + k] = p.get(top - d + k, ZERO) - c * modulus[k]
    return {e: c for e, c in p.items() if c}


def poly_mul(a, b):
    out = {}
    for e1, c1 in enumerate(a):
        for e2, c2 in enumerate(b):
            out[e1 + e2] = out.get(e1 + e2, ZERO) + c1 * c2
    return [out[e] for e in range(len(a) + len(b) - 1)]


SMALL_GAUSS = st.builds(GaussRat, st.integers(-3, 3), st.integers(-2, 2))


@st.composite
def moduli(draw):
    """A monic (x - a) q(x) of degree 1 to 4, with its root a."""
    a = draw(SMALL_GAUSS)
    q = draw(st.lists(SMALL_GAUSS, max_size=3)) + [GaussRat(1)]
    return poly_mul([-a, GaussRat(1)], q), a


class TestReduction:
    @settings(max_examples=80, deadline=None)
    @given(moduli(), st.dictionaries(st.integers(0, 300), SMALL_GAUSS,
                                     max_size=5))
    def test_matches_the_one_degree_loop(self, modulus_root, p):
        modulus, a = modulus_root
        pres = BPresentation("polyquot", modulus=modulus, eval_point=a)
        got = {e: c for e, c in pres.reduce(dict(p)).items() if c}
        assert got == naive_reduce(pres.modulus, dict(p))

    def test_products_at_the_exponent_cap_are_logarithmic(self, monkeypatch):
        # x^cap modulo (x - 10^6)^6: the one-degree loop makes 6 products
        # per degree, about 6 * cap; square-and-multiply makes at most
        # 2 d^2 per bit of the exponent
        from loopwitt.parsing import EXPONENT_CAP
        a = GaussRat(10 ** 6)
        modulus = [GaussRat(1)]
        for _ in range(6):
            modulus = poly_mul(modulus, [-a, GaussRat(1)])
        pres = BPresentation("polyquot", modulus=modulus, eval_point=a)
        mul = GaussRat.__mul__
        count = [0]

        def counted(self, other):
            count[0] += 1
            return mul(self, other)

        monkeypatch.setattr(GaussRat, "__mul__", counted)
        b = pres.from_poly({EXPONENT_CAP: GaussRat(1)})
        assert 0 < count[0] <= 2 * 6 ** 2 * EXPONENT_CAP.bit_length()
        monkeypatch.undo()
        assert b.psi() == GaussRat(10 ** (6 * EXPONENT_CAP))
