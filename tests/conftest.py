import pytest

from loopwitt.coeff import BPresentation
from loopwitt.scalars import GaussRat


def make_polyquot_cube():
    """F[x]/((x-2)^3) with evaluation at 2; modulus expanded low-to-high."""
    return BPresentation(
        "polyquot",
        modulus=[GaussRat(-8), GaussRat(12), GaussRat(-6), GaussRat(1)],
        eval_point=GaussRat(2),
    )


def make_polyquot_square():
    """F[x]/((x-2)^2) with evaluation at 2."""
    return BPresentation(
        "polyquot",
        modulus=[GaussRat(4), GaussRat(-4), GaussRat(1)],
        eval_point=GaussRat(2),
    )


def make_laurent(a=3):
    return BPresentation("laurent", eval_point=GaussRat(a))


@pytest.fixture
def trivial():
    return BPresentation("trivial")


@pytest.fixture
def polyquot():
    return make_polyquot_cube()


@pytest.fixture
def polyquot_square():
    return make_polyquot_square()


@pytest.fixture
def laurent():
    return make_laurent()


@pytest.fixture(params=["trivial", "polyquot", "laurent"])
def any_pres(request):
    if request.param == "trivial":
        return BPresentation("trivial")
    if request.param == "polyquot":
        return make_polyquot_cube()
    return make_laurent()


def direct_sum_irrep(a, b):
    """The block-diagonal gl(n) module a (+) b, labelled like a; its
    highest weight vector is a's."""
    from loopwitt.glnrep import Irrep
    from loopwitt.linalg import zeros
    n, d = a.n, a.d + b.d
    E = [[zeros(d, d) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for r, row in enumerate(a.E(i + 1, j + 1)):
                E[i][j][r][:a.d] = row
            for r, row in enumerate(b.E(i + 1, j + 1)):
                E[i][j][a.d + r][a.d:] = row
    return Irrep(n, a.mu, a.c, d, E, a.hw_index)
