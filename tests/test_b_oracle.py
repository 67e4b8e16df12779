"""B arithmetic and the loop bracket in Gaussian integers against their
GaussRat oracles in conftest: RationalB (+, -, *, scale, psi, str),
rational_reduce, reference_bracket and rational_bracket_sum.  The inputs
run over the three grid B, F[x]/(x^2) at 0, F[x]/(x - 2) at 2, and two
B at non-real points: F[x]/((x - a)^2) for a = 1/2 + i, whose modulus
has denominator 4, and laurent at 2/3 + i.  The coefficients are
non-real, with denominators up to 2^61 - 1."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (RationalB, make_laurent, make_polyquot_cube,
                      rational_bracket_sum, reference_bracket,
                      reference_jacobi)
from loopwitt import scalars, suites
from loopwitt.coeff import BPresentation
from loopwitt.loop import LoopElem
from loopwitt.scalars import GaussRat, ONE, ZERO, parse_gauss
from test_reports_pinned import B_SPECS

PRESENTATIONS = {
    "trivial": BPresentation("trivial"),
    "(x-2)^3 @ 2": make_polyquot_cube(),
    "laurent @ 3": make_laurent(),
    "x^2 @ 0": BPresentation("polyquot", modulus=[ZERO, ZERO, ONE],
                             eval_point=ZERO),
    "x-2 @ 2": BPresentation("polyquot", modulus=[GaussRat(-2), ONE],
                             eval_point=GaussRat(2)),
    "(x-a)^2 @ a": BPresentation(
        "polyquot", modulus=[parse_gauss("-3/4+1 i"), parse_gauss("-1-2 i"),
                             ONE], eval_point=parse_gauss("1/2+1 i")),
    "laurent @ 2/3+i": BPresentation("laurent",
                                     eval_point=parse_gauss("2/3+1 i")),
}
# exponents drawn per kind; polyquot ones reach 2 deg m and beyond, where
# from_poly takes square-and-multiply
EXPONENTS = {"trivial": (0, 0), "polyquot": (0, 7), "laurent": (-3, 3)}

BIG = 2 ** 61 - 1
NUMERATORS = st.one_of(st.integers(-9, 9), st.integers(-BIG, BIG))
DENOMINATORS = st.one_of(st.integers(1, 6), st.integers(1, BIG),
                         st.just(BIG))


@st.composite
def gauss(draw):
    return GaussRat.from_parts(draw(NUMERATORS), draw(NUMERATORS),
                               draw(DENOMINATORS))


def coeff_maps(pres):
    """exponent -> GaussRat, up to three terms, in range for pres."""
    lo, hi = EXPONENTS[pres.kind]
    return st.dictionaries(st.integers(lo, hi), gauss(), max_size=3)


@st.composite
def loop_elems(draw, n, pres):
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from("dt"))
        key = (kind, draw(st.integers(1, n)) if kind == "d" else 0,
               tuple(draw(st.integers(-2, 2)) for _ in range(n)))
        terms[key] = pres.from_poly(draw(coeff_maps(pres)))
    return LoopElem(n, pres, terms)


@pytest.mark.parametrize("name", list(PRESENTATIONS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_arithmetic_matches_the_gauss_rat_oracle(name, data):
    pres = PRESENTATIONS[name]
    p, q = (data.draw(coeff_maps(pres)) for _ in range(2))
    c = data.draw(gauss())
    x, y = pres.from_poly(p), pres.from_poly(q)
    X, Y = RationalB.from_poly(pres, p), RationalB.from_poly(pres, q)
    for got, want in [(x, X), (y, Y), (x + y, X + Y), (x - y, X - Y),
                      (-x, -X), (x * y, X * Y), (x.scale(c), X.scale(c)),
                      (c * x, X * c), (x * 3, X * 3)]:
        # structural equality with the oracle cleared to its least common
        # denominator: BElem keeps lowest terms
        assert got == want.belem()
        assert got.rep == want.rep
        assert got.psi() == want.psi()
        assert str(got) == str(want)


@pytest.mark.parametrize("name", list(PRESENTATIONS))
@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 2), data=st.data())
def test_bracket_and_jacobi_match_the_gauss_rat_oracle(name, n, data):
    pres = PRESENTATIONS[name]
    x, y, z = (data.draw(loop_elems(n, pres)) for _ in range(3))
    assert (x.bracket(y) == reference_bracket(x, y)
            == rational_bracket_sum([(x, y)]))
    assert x.jacobi_residual(y, z) == reference_jacobi(x, y, z)


@pytest.mark.parametrize("kind", list(B_SPECS))
def test_a_bracket_makes_no_gauss_rat(kind, monkeypatch):
    # every GaussRat is made by scalars._norm
    pres = suites.RunConfig.from_dict({"n": 2, "mu": [1],
                                       "B": B_SPECS[kind]}).bpres
    pool = suites.coefficient_pool(pres)
    x = (LoopElem.d_part(2, pres, 1, (1, 0), pool[1])
         + LoopElem.t_part(2, pres, (0, -1), pool[-1]))
    y = (LoopElem.d_part(2, pres, 2, (1, 1), pool[3])
         + LoopElem.d_part(2, pres, 1, (0, 2), pool[-1])
         + LoopElem.t_part(2, pres, (2, 0), pool[2]))
    z = LoopElem.t_part(2, pres, (1, 0), pool[1])
    norm = scalars._norm
    made = []
    monkeypatch.setattr(scalars, "_norm",
                        lambda *parts: made.append(parts) or norm(*parts))
    xy = x.bracket(y)
    residual = x.jacobi_residual(y, z, xy)
    monkeypatch.undo()
    assert made == []
    assert not xy.is_zero() and residual.is_zero()
    assert xy == reference_bracket(x, y)
