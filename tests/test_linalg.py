from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (RationalSpanBasis, col_apply, columns, domain_matrix,
                      entries, int_form, int_mat, int_matrix, int_of,
                      mat_mul as dense_mat_mul, mat_vec, monic_rows,
                      monic_vecs, product_entries, rank, rational_null_space,
                      sparse, sparse_sum, to_columns, transpose)
from loopwitt.linalg import (SpanBasis, dense, gauss_entries, int_apply,
                             int_columns, int_vec, mat_mul, null_space,
                             int_spin, primitive, transposed)
from loopwitt.scalars import GaussRat, I, ZERO


def vec(*xs):
    return [GaussRat(x) if not isinstance(x, GaussRat) else x for x in xs]


class TestSpanBasis:
    def test_coords_in_echelon_rows(self):
        span = SpanBasis(4)
        for v in (vec(0, 2, 1, 0), vec(1, 1, 0, I), vec(1, 3, 1, I)):
            span.insert(int_of(sparse(v)))
        assert span.dim == 2
        v = vec(3, -1, -2, 3 * I)
        c = span.coords(sparse(v))
        rows = monic_rows(span)
        got = sparse_sum((j, ck * x) for k, ck in c.items()
                         for j, x in rows[k].items())
        assert set(c) <= set(range(span.dim)) and got == sparse(v)

    def test_coords_outside_the_span_rejected(self):
        span = SpanBasis(2)
        span.insert(int_of(sparse(vec(1, 1))))
        with pytest.raises(ValueError):
            span.coords(sparse(vec(1, 0)))

    def test_rows_are_sparse_with_the_pivot_first(self):
        span = SpanBasis(5)
        for v in (vec(0, 0, 2, 0, 4), vec(0, 3, 0, 0, 0), vec(0, 3, 2, 0, 4)):
            span.insert(int_of(sparse(v)))
        assert span.pivots == [2, 1]
        rows = monic_rows(span)
        assert rows == [{2: GaussRat(1), 4: GaussRat(2)}, {1: GaussRat(1)}]
        assert all(min(row) == piv and row[piv] == GaussRat(1)
                   for row, piv in zip(rows, span.pivots))


class TestColumnView:
    def test_columns_keep_the_nonzero_entries(self):
        a = [vec(1, 2, 0), vec(0, I, 3)]
        assert columns(a) == [[(0, GaussRat(1))], [(0, GaussRat(2)), (1, I)],
                              [(1, GaussRat(3))]]
        assert dict(entries(columns(a))) == {
            (r, c): x for r, row in enumerate(a) for c, x in enumerate(row)
            if x}
        # back from entries in any order, rows sorted in every column
        assert to_columns(dict(reversed(list(entries(columns(a))))),
                          3) == columns(a)
        assert to_columns({}, 2) == [[], []]

    def test_integer_form_and_back(self):
        # a over D = 6, non-real entries included
        a = [vec(GaussRat(Fraction(1, 2), 1), 2, 0),
             vec(0, GaussRat(0, Fraction(1, 3)), 3), vec(4, 0, 0)]
        m = int_matrix(columns(a), 6)
        assert m == ([[(0, 3), (2, 24)], [(0, 12)], [(1, 18)]],
                     [[(0, 6)], [(1, 2)], []])
        assert dense(m, 3, 6) == a
        assert dense(transposed(m), 3, 6) == transpose(a)
        # the same matrix from its entries keyed row * d + col, in any
        # order; zeros are dropped, and a zero imaginary part is None
        re, im = ({r * 3 + c: x for c, col in enumerate(part) for r, x in col}
                  for part in m)
        assert int_columns(dict(reversed(re.items())), im, 3) == m
        assert int_columns(re, {4: 0}, 3) == (m[0], None)
        assert int_columns({0: 0}, {}, 2) == ([[], []], None)
        assert transposed((m[0], None))[1] is None

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
        # over Z[i], real and non-real factors in either place; i i = -1
        # cancels the imaginary part of a a
        for x, y in ((a, b), (b, a), (a, a), (b, b)):
            assert mat_mul(int_mat(x), int_mat(y)) == int_mat(
                dense_mat_mul(x, y))
        assert mat_mul(int_mat([vec(I, 0), vec(0, 1)]),
                       int_mat([vec(I, 0), vec(0, 1)])) == (
            [[(0, -1)], [(1, 1)]], None)

    def test_square_apply_and_its_transpose(self):
        # over Z[i]: 2 a and its transpose, scaled once, applied to 2 v
        a = [vec(GaussRat(Fraction(1, 2), 1), 2, 0), vec(0, I, 3),
             vec(4, 0, 0)]
        v = vec(1, 1 + I, Fraction(1, 2))
        w, den = int_vec(sparse(v))
        assert den == 2
        m = int_matrix(columns(a), 2)
        for got, want in ((m, mat_vec(a, v)),
                          (transposed(m), mat_vec(transpose(a), v))):
            assert gauss_entries(*int_apply(got, w), 4) == sparse(want)
        # a cancelling sum stores nothing
        assert int_apply(int_mat([vec(1, 1), vec(1, 1)]),
                         ({0: 1, 1: -1}, {})) == ({}, {})


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
        kernel = null_space(int_mat(a), len(a))
        assert len(kernel) == dim == len(a[0]) - rank(a)
        assert all(primitive(x) == x for x in kernel)
        assert rank(monic_vecs(kernel)) == dim
        for x in monic_vecs(kernel):
            assert col_apply(columns(a), x) == {}

    def test_spin_of_a_cyclic_vector_fills_the_space(self):
        shift = int_mat([vec(0, 0, 0), vec(1, 0, 0), vec(0, 1, 0)])
        assert int_spin(({0: 1}, {}), [shift]).dim == 3
        # the transpose shifts the other way
        assert int_spin(({0: 1}, {}), [shift], transpose=True).dim == 1
        assert int_spin(({}, {2: 1}), [shift], transpose=True).dim == 3

    def test_spin_stays_in_an_invariant_subspace(self):
        shift = int_mat([vec(0, 0, 0), vec(1, 0, 0), vec(0, 1, 0)])
        diag = int_mat([vec(1, 0, 0), vec(0, 2, 0), vec(0, 0, 3)])
        span = int_spin(({1: 1}, {}), [shift, diag])
        assert span.dim == 2
        assert rank(monic_rows(span) + [vec(0, 5, I)]) == 2
        assert rank(monic_rows(span) + [vec(1, 0, 0)]) == 3

    def test_spin_of_zero_is_zero(self):
        gen = int_mat([vec(1, 1), vec(0, 1)])
        assert int_spin(({}, {}), [gen]).dim == 0


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
            span.insert(int_of(sparse(row)))
        assert span.dim == want
        kernel = monic_vecs(null_space(int_mat(a), rows))
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
        got = int_spin(int_of(sparse(v)), [int_mat(a) for a in mats],
                       transpose)
        gens = [domain_matrix(a, d) for a in mats]
        if transpose:
            gens = [m.transpose() for m in gens]
        want = krylov_span(domain_matrix([v], d).transpose(), gens)
        assert got.dim == want.shape[1]
        if got.dim:
            # the two spans are one: together they have the same rank
            both = want.hstack(domain_matrix(monic_rows(got), d).transpose())
            assert both.rank() == got.dim

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda d: st.tuples(
        st.lists(st.tuples(sparse_matrix(d, d), GAUSS_INT, st.booleans()),
                 min_size=1, max_size=3),
        sparse_matrix(1, d))), st.booleans())
    @example(([([[GaussRat(2)]], GaussRat(2), False)], [[GaussRat(1)]]),
             False)
    @example(([([[ZERO]], I, True), ([[I]], ZERO, False)], [[GaussRat(3)]]),
             True)
    def test_spin_is_unchanged_by_scalar_shifts(self, shifts_and_v,
                                                transpose):
        # the spin under the M_k - c_k I is the one under the M_k: each
        # generator is drawn with a shift c_k, and where the flag is set
        # it is c_k I itself, which the shift makes zero; d = 1 is the
        # first example
        shifts, [v] = shifts_and_v
        d = len(v)
        mats, shifted = [], []
        for a, c, scalar in shifts:
            if scalar:
                a = [[c if r == k else ZERO for k in range(d)]
                     for r in range(d)]
            mats.append(a)
            shifted.append([[x - c if r == k else x
                             for k, x in enumerate(row)]
                            for r, row in enumerate(a)])
        got = int_spin(int_of(sparse(v)), [int_mat(a) for a in shifted],
                       transpose)
        plain = int_spin(int_of(sparse(v)), [int_mat(a) for a in mats],
                         transpose)
        gens = [domain_matrix(a, d) for a in mats]
        if transpose:
            gens = [m.transpose() for m in gens]
        want = krylov_span(domain_matrix([v], d).transpose(), gens)
        assert got.dim == plain.dim == want.shape[1]
        if got.dim:
            both = want.hstack(domain_matrix(
                monic_rows(got) + monic_rows(plain), d).transpose())
            assert both.rank() == got.dim


# -- the Gaussian-integer core against GaussRat elimination ------------

# denominators from 1 to large primes, so that clearing them makes big
# Gaussian integers, mixed within one vector
DENOMINATORS = st.sampled_from([1, 2, 3, 4, 9, 10 ** 9 + 7, 2 ** 61 - 1])
SMALL = st.integers(-4, 4)
GAUSS_RAT = st.one_of(
    st.builds(lambda a, q, b, r: GaussRat(Fraction(a, q), Fraction(b, r)),
              SMALL, DENOMINATORS, SMALL, DENOMINATORS),
    st.builds(lambda b, r: GaussRat(0, Fraction(b, r)), SMALL, DENOMINATORS),
    st.builds(lambda a, q: GaussRat(Fraction(a, q)), SMALL, DENOMINATORS))


@st.composite
def vector_lists(draw):
    """A length up to 7 and up to 8 sparse Vecs of that length: random
    ones, zero ones, and combinations of earlier ones, so that some
    inserts are rejected and their coordinates exist."""
    length = draw(st.integers(1, 7))
    out = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["random", "random", "zero", "combo"]))
        if kind == "combo" and out:
            picks = draw(st.lists(st.tuples(
                st.integers(0, len(out) - 1), GAUSS_RAT), min_size=1,
                max_size=3))
            v = sparse_sum((j, c * x) for k, c in picks
                           for j, x in out[k].items())
        elif kind == "zero":
            v = {}
        else:
            v = {j: x for j, x in draw(st.dictionaries(
                st.integers(0, length - 1), GAUSS_RAT, max_size=length
                )).items() if x}
        out.append(v)
    return length, out


class TestIntegerCoreAgainstRationalElimination:
    @settings(max_examples=150, deadline=None)
    @given(vector_lists())
    def test_span_basis_matches_the_rational_oracle(self, drawn):
        length, vectors = drawn
        span, oracle = SpanBasis(length), RationalSpanBasis(length)
        for v in vectors:
            assert span.insert(int_of(v)) == oracle.insert(v)
        assert span.dim == oracle.dim
        assert span.pivots == oracle.pivots
        assert monic_rows(span) == oracle.rows
        for v in vectors:
            assert span.coords(v) == oracle.coords(v)
        for j in range(length):
            unit = {j: GaussRat(1)}
            try:
                want = oracle.coords(unit)
            except ValueError:
                with pytest.raises(ValueError):
                    span.coords(unit)
            else:
                assert span.coords(unit) == want

    @settings(max_examples=150, deadline=None)
    @given(vector_lists())
    def test_null_space_matches_the_rational_oracle(self, drawn):
        # the vectors are the columns of a length x len(vectors) matrix
        length, vectors = drawn
        a = [sorted(v.items()) for v in vectors]
        kernel = null_space(int_form(a)[1], length)
        assert all(primitive(x) == x for x in kernel)
        assert monic_vecs(kernel) == rational_null_space(a, length)
