import pytest

from conftest import columns, mat_vec, rank, transpose
from loopwitt.linalg import (SpanBasis, col_apply, col_apply_transpose,
                             dense, entries, null_space, product_entries,
                             sparse_sum, spin, to_columns, transposed,
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


class TestColumnView:
    def test_columns_keep_the_nonzero_entries(self):
        a = [vec(1, 2, 0), vec(0, I, 3)]
        assert columns(a) == [[(0, GaussRat(1))], [(0, GaussRat(2)), (1, I)],
                              [(1, GaussRat(3))]]
        assert dense(columns(a), 2) == a
        assert dense(transposed(columns(a), 2), 3) == transpose(a)
        assert dict(entries(columns(a))) == {
            (r, c): x for r, row in enumerate(a) for c, x in enumerate(row)
            if x}
        # back from entries in any order, rows sorted in every column
        assert to_columns(dict(reversed(list(entries(columns(a))))),
                          3) == columns(a)
        assert to_columns({}, 2) == [[], []]

    def test_products_and_sums_match_the_dense_oracle(self):
        a = [vec(1, 2, 0), vec(0, I, 3), vec(0, 0, 1)]
        b = [vec(0, 1, 0), vec(1, 0, 0), vec(0, 0, 0)]
        ab = [[sum((x * y for x, y in zip(row, col)), ZERO)
               for col in zip(*b)] for row in a]
        got = sparse_sum(product_entries(columns(a), columns(b)))
        assert [[got.get((r, c), ZERO) for c in range(3)]
                for r in range(3)] == ab
        assert ZERO not in got.values()
        # a b - a b cancels to the empty result
        assert sparse_sum(product_entries(columns(a), columns(b)),
                          product_entries(columns(a), columns(b))) == {}

    def test_square_apply_and_its_transpose(self):
        a = [vec(1, 2, 0), vec(0, I, 3), vec(4, 0, 0)]
        v = vec(1, 1 + I, 0)
        assert col_apply(columns(a), v) == mat_vec(a, v)
        assert col_apply_transpose(columns(a), v) == mat_vec(transpose(a), v)


class TestNullSpaceAndSpin:
    def test_mat_vec_and_transpose(self):
        # the dense oracles the sparse view is checked against
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
        kernel = null_space(columns(a), len(a))
        assert len(kernel) == dim == len(a[0]) - rank(a)
        assert rank(kernel) == dim
        for x in kernel:
            assert vec_is_zero(mat_vec(a, x))

    def test_spin_of_a_cyclic_vector_fills_the_space(self):
        shift = columns([vec(0, 0, 0), vec(1, 0, 0), vec(0, 1, 0)])
        assert spin(vec(1, 0, 0), [shift]).dim == 3
        # the transpose shifts the other way
        assert spin(vec(1, 0, 0), [shift], transpose=True).dim == 1
        assert spin(vec(0, 0, 1), [shift], transpose=True).dim == 3

    def test_spin_stays_in_an_invariant_subspace(self):
        shift = columns([vec(0, 0, 0), vec(1, 0, 0), vec(0, 1, 0)])
        diag = columns([vec(1, 0, 0), vec(0, 2, 0), vec(0, 0, 3)])
        span = spin(vec(0, 1, 0), [shift, diag])
        assert span.dim == 2
        assert rank(span.rows + [vec(0, 5, I)]) == 2
        assert rank(span.rows + [vec(1, 0, 0)]) == 3

    def test_spin_of_zero_is_zero(self):
        assert spin(vec(0, 0), [columns([vec(1, 1), vec(0, 1)])]).dim == 0
