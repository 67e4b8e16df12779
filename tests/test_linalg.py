import pytest

from conftest import rank
from loopwitt.linalg import (SpanBasis, mat_vec, null_space, spin, transpose,
                             vec_is_zero)
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


class TestNullSpaceAndSpin:
    def test_mat_vec_and_transpose(self):
        a = [vec(1, 2, 0), vec(0, I, 3)]
        assert mat_vec(a, vec(1, 1, 1)) == vec(3, 3 + I)
        assert transpose(a) == [vec(1, 0), vec(2, I), vec(0, 3)]

    @pytest.mark.parametrize("a,dim", [
        ([vec(1, 2), vec(3, 4)], 0),
        ([vec(1, 2, 3), vec(2, 4, 6)], 2),
        ([vec(0, 0), vec(0, 0)], 2),
        ([vec(1, I, 0), vec(0, 1, 1), vec(1, 1 + I, 1)], 1),
    ])
    def test_null_space(self, a, dim):
        kernel = null_space(a)
        assert len(kernel) == dim == len(a[0]) - rank(a)
        assert rank(kernel) == dim
        for x in kernel:
            assert vec_is_zero(mat_vec(a, x))

    def test_spin_of_a_cyclic_vector_fills_the_space(self):
        shift = [vec(0, 0, 0), vec(1, 0, 0), vec(0, 1, 0)]
        assert spin(vec(1, 0, 0), [shift]).dim == 3

    def test_spin_stays_in_an_invariant_subspace(self):
        shift = [vec(0, 0, 0), vec(1, 0, 0), vec(0, 1, 0)]
        diag = [vec(1, 0, 0), vec(0, 2, 0), vec(0, 0, 3)]
        span = spin(vec(0, 1, 0), [shift, diag])
        assert span.dim == 2
        assert rank(span.rows + [vec(0, 5, I)]) == 2
        assert rank(span.rows + [vec(1, 0, 0)]) == 3

    def test_spin_of_zero_is_zero(self):
        assert spin(vec(0, 0), [[vec(1, 1), vec(0, 1)]]).dim == 0
