"""Finite dimensional irreducible gl(n) modules with explicit exact matrices.

The module V(mu, c) is built on its Gelfand-Tsetlin basis: one basis
vector per pattern with top row lambda = partition(mu), the highest
weight pattern first.  E_kk, E_k,k+1 and E_k+1,k act by the explicit
rational formulas of Molev, "Gelfand-Tsetlin bases for classical Lie
algebras" (arXiv:math/0211289, Thm 2.3); every other E_ij is a
commutator of those.  The diagonal part is shifted so the identity
matrix acts by the scalar c.  Everything stays in GaussRat arithmetic.

Every E_ij is built and kept as Columns, Irrep.columns, and the checks
run on them: the commutation relations as sparse products, the identity
scalar as a sparse sum and Norton's spins as sparse matrix-vector
products.  The E_ij of V(mu) are very sparse in this basis, about 1.5 %
nonzero at d = 64.  Irrep.E densifies one for printing, and the
Burnside closure takes dense matrices.

Irreducibility is certified by Norton's test, `norton_irreducible`,
O(g d^3) for g generators; when it does not decide, the Burnside
closure `burnside_dim`, O(g d^6), gives the dimension of the algebra.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from math import prod
from typing import List, Sequence, Tuple

from .linalg import (Columns, Entries, Mat, SpanBasis, dense, entries,
                     identity, mat_mul, null_space, product_entries,
                     sparse_sum, spin, to_columns, transposed)
from .scalars import GaussRat, ZERO

DIM_CAP = 64


def partition(mu: Sequence[int]) -> List[int]:
    """Fundamental-weight coordinates mu as a partition lambda with
    len(mu) + 1 parts, the top row of the Gelfand-Tsetlin patterns."""
    return [sum(mu[i:]) for i in range(len(mu))] + [0]


def weyl_dim(mu: Sequence[int], n: int) -> int:
    """Dimension of V(mu) by the Weyl formula."""
    if len(mu) != n - 1 or any(m < 0 for m in mu):
        raise ValueError("mu must be n-1 nonnegative integers")
    lam = partition(mu)
    out = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            out *= Fraction(lam[i] - lam[j] + j - i, j - i)
    assert out.denominator == 1
    return int(out)


class Irrep:
    """V(mu, c): dimension d, the Columns of every E_ij (1-based via
    columns(i, j)), scalar c and the index of the highest weight vector."""

    def __init__(self, n: int, mu: Tuple[int, ...], c: GaussRat, d: int,
                 matrices: List[List[Columns]], hw_index: int):
        self.n = n
        self.mu = mu
        self.c = c
        self.d = d
        self._columns = matrices
        self.hw_index = hw_index

    def columns(self, i: int, j: int) -> Columns:
        return self._columns[i - 1][j - 1]

    def E(self, i: int, j: int) -> Mat:
        """E_ij as a dense matrix, for printing and Burnside."""
        return dense(self.columns(i, j), self.d)

    def relation_residual(self, i: int, j: int, k: int, l: int) -> Entries:
        """The nonzero entries of [E_ij, E_kl] - delta_jk E_il + delta_li
        E_kj; must be empty."""
        a, b = self.columns(i, j), self.columns(k, l)
        plus, minus = [product_entries(a, b)], [product_entries(b, a)]
        if j == k:
            minus.append(entries(self.columns(i, l)))
        if l == i:
            plus.append(entries(self.columns(k, j)))
        return sparse_sum(chain(*plus), chain(*minus))

    def trace_part(self) -> Entries:
        """The nonzero entries of E_11 + ... + E_nn."""
        return sparse_sum(chain.from_iterable(
            entries(self.columns(i, i)) for i in range(1, self.n + 1)))

    def weight_table(self) -> List[Tuple[Tuple[GaussRat, ...], int]]:
        """Joint diagonal eigenvalue tuples with multiplicities.

        The Gelfand-Tsetlin basis consists of joint eigenvectors of the
        E_ii, so the eigenvalues can be read off the diagonal matrices.
        """
        diagonals = [self.columns(i, i) for i in range(1, self.n + 1)]
        counts = {}
        for k in range(self.d):
            w = tuple(dict(m[k]).get(k, ZERO) for m in diagonals)
            counts[w] = counts.get(w, 0) + 1
        return sorted(counts.items(), key=lambda kv: [str(x) for x in kv[0]])


Pattern = Tuple[Tuple[int, ...], ...]


def gt_patterns(lam: Sequence[int]) -> List[Pattern]:
    """Gelfand-Tsetlin patterns with top row lam.  Row k (k = 1..n) of a
    pattern p is p[k], with k entries; p[0] is the empty row.  Entries
    interlace, lambda_k,i >= lambda_k-1,i >= lambda_k,i+1.  Patterns come
    in decreasing lexicographic order of rows n-1, ..., 1, so the highest
    weight pattern, whose rows are prefixes of lam, is first."""
    out = []

    def extend(rows):
        top = rows[0]
        if not top:
            out.append(tuple(rows))
            return
        for row in product(*(range(top[i], top[i + 1] - 1, -1)
                             for i in range(len(top) - 1))):
            extend([row] + rows)

    extend([tuple(lam)])
    return out


def _moved(p: Pattern, k: int, i: int, step: int) -> Pattern:
    row = list(p[k])
    row[i] += step
    return p[:k] + (tuple(row),) + p[k + 1:]


def build_irrep(mu: Sequence[int], c: GaussRat, n: int) -> Irrep:
    mu = tuple(mu)
    d_expected = weyl_dim(mu, n)
    if d_expected > DIM_CAP:
        raise ValueError(f"dimension {d_expected} exceeds cap {DIM_CAP}")
    lam = partition(mu)
    patterns = gt_patterns(lam)
    d = len(patterns)
    if d != d_expected:
        raise AssertionError(
            f"{d} Gelfand-Tsetlin patterns != Weyl dimension {d_expected}")
    index = {p: col for col, p in enumerate(patterns)}

    # make the identity matrix act by c instead of by |lambda|
    c = GaussRat._coerce(c)
    shift = (c - sum(lam)) * GaussRat(Fraction(1, n))
    E: List[List[Columns]] = [[None] * n for _ in range(n)]
    for k in range(1, n + 1):
        diagonal = (GaussRat(sum(p[k]) - sum(p[k - 1])) + shift
                    for p in patterns)
        E[k - 1][k - 1] = [[(col, x)] if x else []
                           for col, x in enumerate(diagonal)]

    # Molev's formulas in l_ki = lambda_ki - i + 1 (here i is 0-based):
    # E_k,k+1 moves lambda_ki up, E_k+1,k moves it down.  The moved
    # patterns of one column are distinct, and the numerator vanishes
    # only where the move breaks interlacing, so each column is its
    # targets with nonzero entries, sorted
    for k in range(1, n):
        up, down = [], []
        for p in patterns:
            l = [[x - i for i, x in enumerate(row)] for row in p]
            up_col, down_col = [], []
            for i, x in enumerate(l[k]):
                den = prod(x - y for j, y in enumerate(l[k]) if j != i)
                target = index.get(_moved(p, k, i, 1))
                if target is not None:
                    num = -prod(x - y for y in l[k + 1])
                    up_col.append((target, GaussRat(Fraction(num, den))))
                target = index.get(_moved(p, k, i, -1))
                if target is not None:
                    num = prod(x - y for y in l[k - 1])
                    down_col.append((target, GaussRat(Fraction(num, den))))
            up.append(sorted(up_col))
            down.append(sorted(down_col))
        E[k - 1][k], E[k][k - 1] = up, down

    # E_ij = [E_i,j-1, E_j-1,j] for j > i+1, and its mirror for i > j+1
    def bracket(a: Columns, b: Columns) -> Columns:
        return to_columns(
            sparse_sum(product_entries(a, b), product_entries(b, a)), d)

    for gap in range(2, n):
        for i in range(n - gap):
            j = i + gap
            E[i][j] = bracket(E[i][j - 1], E[j - 1][j])
            E[j][i] = bracket(E[j][j - 1], E[j - 1][i])

    return Irrep(n, mu, c, d, E, hw_index=0)


def burnside_dim(mats: List[Mat]) -> int:
    """Dimension of the unital matrix algebra generated by mats."""
    if not mats:
        raise ValueError("need at least one matrix")
    d = len(mats[0])
    span = SpanBasis(d * d)

    def grows(m: Mat) -> bool:
        return span.insert({k: x for k, x in enumerate(chain(*m)) if x})

    frontier = [m for m in [identity(d), *mats] if grows(m)]
    while frontier:
        frontier = [p for p in (mat_mul(f, g) for f in frontier for g in mats)
                    if grows(p)]
    return span.dim


def highest_weight_theta(diagonals: Sequence[Columns], hw: int) -> Columns:
    """Norton's theta for a highest weight module, from the column views
    of the matrices by which E_11, ..., E_nn act, each up to an added
    scalar: sum_i (n - i) E_ii minus its diagonal entry at the highest
    weight vector hw times I.  Every positive root e_i - e_j (i < j)
    pairs to j - i > 0 with (n - 1, ..., 0), so on V(mu) the highest
    weight is the unique maximiser and ker theta is the one-dimensional
    highest weight space.  theta lies in the unital algebra the
    diagonals generate."""
    n, d = len(diagonals), len(diagonals[0])
    theta = sparse_sum((key, GaussRat(n - 1 - i) * x)
                       for i, m in enumerate(diagonals)
                       for key, x in entries(m))
    return hw_shifted(to_columns(theta, d), hw)


def hw_shifted(a: Columns, hw: int) -> Columns:
    """a minus its diagonal entry at the highest weight vector hw times I;
    a square column view.  A subspace is invariant under a exactly when
    it is invariant under a - cI, so both spin any vector alike."""
    top = dict(a[hw]).get(hw)
    if not top:
        return a
    d = len(a)
    return to_columns(sparse_sum(entries(a), (((k, k), top)
                                              for k in range(d))), d)


def norton_irreducible(mats: Sequence[Columns], theta: Columns) -> bool:
    """Norton's irreducibility test (Parker 1984; Holt and Rees, "Testing
    modules for irreducibility", 1994), for theta in the unital algebra A
    generated by mats; every matrix is a square column view.

    True proves that A is all of M_d(Q(i)), i.e. burnside_dim(mats) ==
    d^2: ker theta is one-dimensional, spanned by v; v spins to the whole
    space under mats; and a kernel vector of theta^T spins to the whole
    space under the transposes.  A nonzero proper submodule U either
    meets ker theta, and then contains v, or theta is invertible on U,
    and then the annihilator of U in the dual meets ker theta^T.  The
    endomorphism division algebra acts on the one-dimensional ker theta,
    so it is Q(i).  False decides nothing.

    Shifting each matrix by a scalar, m - cI, changes neither A, which
    is unital, nor any spin, so theta built from the unshifted matrices
    also lies in the unital algebra of the shifted ones (`hw_shifted`)."""
    d = len(theta)
    kernel = null_space(theta, d)
    if len(kernel) != 1 or spin(kernel[0], mats).dim != d:
        return False
    [co_vector] = null_space(transposed(theta, d), d)
    return spin(co_vector, mats, transpose=True).dim == d
