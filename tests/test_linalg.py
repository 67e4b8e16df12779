import pytest

from loopwitt.linalg import SpanBasis
from loopwitt.scalars import GaussRat, I, ZERO


def vec(*xs):
    return [GaussRat(x) if not isinstance(x, GaussRat) else x for x in xs]


class TestSpanBasis:
    def test_coords_in_echelon_rows(self):
        span = SpanBasis(4)
        for v in (vec(0, 2, 1, 0), vec(1, 1, 0, I), vec(1, 3, 1, I)):
            span.insert(v)
        assert span.dim == 2
        v = vec(3, -1, -2, 3 * I)
        c = span.coords(v)
        got = [sum((ck * row[j] for ck, row in zip(c, span.rows)), ZERO)
               for j in range(4)]
        assert len(c) == span.dim and got == v

    def test_coords_outside_the_span_rejected(self):
        span = SpanBasis(2)
        span.insert(vec(1, 1))
        with pytest.raises(ValueError):
            span.coords(vec(1, 0))
