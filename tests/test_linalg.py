import pytest
from hypothesis import given, settings, strategies as st

from conftest import (columns, domain_matrix, mat_vec, rank, sparse,
                      transpose)
from loopwitt.linalg import (SpanBasis, col_apply, col_apply_transpose,
                             dense, entries, null_space, product_entries,
                             sparse_sum, spin, to_columns, transposed)
from loopwitt.scalars import GaussRat, I, ZERO


def vec(*xs):
    return [GaussRat(x) if not isinstance(x, GaussRat) else x for x in xs]


class TestSpanBasis:
    def test_coords_in_echelon_rows(self):
        span = SpanBasis(4)
        for v in (vec(0, 2, 1, 0), vec(1, 1, 0, I), vec(1, 3, 1, I)):
            span.insert(sparse(v))
        assert span.dim == 2
        v = vec(3, -1, -2, 3 * I)
        c = span.coords(sparse(v))
        got = sparse_sum((j, ck * x) for k, ck in c.items()
                         for j, x in span.rows[k].items())
        assert set(c) <= set(range(span.dim)) and got == sparse(v)

    def test_coords_outside_the_span_rejected(self):
        span = SpanBasis(2)
        span.insert(sparse(vec(1, 1)))
        with pytest.raises(ValueError):
            span.coords(sparse(vec(1, 0)))

    def test_rows_are_sparse_with_the_pivot_first(self):
        span = SpanBasis(5)
        for v in (vec(0, 0, 2, 0, 4), vec(0, 3, 0, 0, 0), vec(0, 3, 2, 0, 4)):
            span.insert(sparse(v))
        assert span.pivots == [2, 1]
        assert span.rows == [{2: GaussRat(1), 4: GaussRat(2)},
                             {1: GaussRat(1)}]
        assert all(min(row) == piv and row[piv] == GaussRat(1)
                   for row, piv in zip(span.rows, span.pivots))


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
        assert col_apply(columns(a), sparse(v)) == sparse(mat_vec(a, v))
        assert col_apply_transpose(columns(a), sparse(v)) == sparse(
            mat_vec(transpose(a), v))
        # a cancelling sum stores nothing
        assert col_apply(columns([vec(1, 1), vec(1, 1)]),
                         sparse(vec(1, -1))) == {}


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
            assert col_apply(columns(a), x) == {}

    def test_spin_of_a_cyclic_vector_fills_the_space(self):
        shift = columns([vec(0, 0, 0), vec(1, 0, 0), vec(0, 1, 0)])
        assert spin({0: GaussRat(1)}, [shift]).dim == 3
        # the transpose shifts the other way
        assert spin({0: GaussRat(1)}, [shift], transpose=True).dim == 1
        assert spin({2: GaussRat(1)}, [shift], transpose=True).dim == 3

    def test_spin_stays_in_an_invariant_subspace(self):
        shift = columns([vec(0, 0, 0), vec(1, 0, 0), vec(0, 1, 0)])
        diag = columns([vec(1, 0, 0), vec(0, 2, 0), vec(0, 0, 3)])
        span = spin({1: GaussRat(1)}, [shift, diag])
        assert span.dim == 2
        assert rank(span.rows + [vec(0, 5, I)]) == 2
        assert rank(span.rows + [vec(1, 0, 0)]) == 3

    def test_spin_of_zero_is_zero(self):
        assert spin({}, [columns([vec(1, 1), vec(0, 1)])]).dim == 0


# -- elimination against sympy, which shares no code with linalg ------

GAUSS_INT = st.builds(GaussRat, st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def sparse_matrix(draw, rows=None, cols=None):
    """A dense rows x cols Gaussian-integer matrix, up to 8 x 8, with at
    most rows + cols nonzero entries, so that ranks fall short and spins
    stop in proper subspaces."""
    rows = rows or draw(st.integers(1, 8))
    cols = cols or draw(st.integers(1, 8))
    filled = draw(st.dictionaries(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
        GAUSS_INT, max_size=rows + cols))
    return [[filled.get((r, c), ZERO) for c in range(cols)]
            for r in range(rows)]


def krylov_span(v, mats):
    """A column basis, by sympy, of the span of every word in mats applied
    to the column v: the basis grows by its images until its rank stops
    growing."""
    rows = list(range(v.shape[0]))
    grown = v
    while True:
        _, pivots = grown.rref()
        span = grown.extract(rows, list(pivots))
        grown = span.hstack(*(m * span for m in mats))
        if grown.rank() == span.shape[1]:
            return span


class TestEliminationAgainstSympy:
    @settings(max_examples=80, deadline=None)
    @given(sparse_matrix())
    def test_rank_and_null_space(self, a):
        rows, cols = len(a), len(a[0])
        want = domain_matrix(a, cols).rank()
        span = SpanBasis(cols)
        for row in a:
            span.insert(sparse(row))
        assert span.dim == want
        kernel = null_space(columns(a), rows)
        assert len(kernel) == cols - want
        if kernel:
            assert rank(kernel) == len(kernel)
            products = domain_matrix(a, cols) * domain_matrix(
                kernel, cols).transpose()
            assert products.is_zero_matrix

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda d: st.tuples(
        st.lists(sparse_matrix(d, d), min_size=1, max_size=3),
        sparse_matrix(1, d))), st.booleans())
    def test_spin_is_the_krylov_span(self, mats_and_v, transpose):
        mats, [v] = mats_and_v
        d = len(v)
        got = spin(sparse(v), [columns(a) for a in mats], transpose)
        gens = [domain_matrix(a, d) for a in mats]
        if transpose:
            gens = [m.transpose() for m in gens]
        want = krylov_span(domain_matrix([v], d).transpose(), gens)
        assert got.dim == want.shape[1]
        if got.dim:
            # the two spans are one: together they have the same rank
            both = want.hstack(domain_matrix(got.rows, d).transpose())
            assert both.rank() == got.dim
