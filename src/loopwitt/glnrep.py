"""Finite dimensional irreducible gl(n) modules with explicit exact matrices.

The module V(mu, c) is built on its Gelfand-Tsetlin basis: one basis
vector per pattern with top row lambda = partition(mu), the highest
weight pattern first.  E_kk, E_k,k+1 and E_k+1,k act by the explicit
rational formulas of Molev, "Gelfand-Tsetlin bases for classical Lie
algebras" (arXiv:math/0211289, Thm 2.3); every other E_ij is a
commutator of those.  The diagonal part is shifted so the identity
matrix acts by the scalar c.

The construction runs in Gaussian integers: each of Molev's matrices
goes over its own least denominator, each commutator over the product
of its factors' denominators divided by the gcd, and every E_ij at last
over D, the lcm of them all.  An Irrep holds only that pair,
Irrep.int_view: D and every N_ij = D E_ij as a linalg.IntMatrix.  Every
check runs on it, over any common denominator.  The commutation
relations are sparse products of the N_ij in plain ints, the identity
scalar is their sparse sum, the weights and the highest-weight check
read the N_ii and N_i,i+1, and Norton's theta, its kernel and spins
take and return integer forms only.  A GaussRat is made only for a
nonzero residual entry and for the weight table.  The E_ij of V(mu) are
very sparse in this basis, about 1.5 % nonzero at d = 64.  Irrep.E
densifies one, for printing only.

Irreducibility is certified by Norton's test, `norton_irreducible`,
O(g d^3) for g generators; when it does not decide, the Burnside
closure `burnside_dim`, O(g d^6), gives the dimension of the algebra.
Both take the same IntMatrix generators, and the closure multiplies
them in plain ints too (linalg.mat_mul).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from typing import Dict, List, Sequence, Tuple

from .linalg import (Entries, IntMatrix, Mat, SpanBasis, dense,
                     gauss_entries, int_columns, int_entries_into,
                     int_spin, mat_mul, mat_product_into, null_space,
                     transposed)
from .scalars import GaussRat

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
    """V(mu, c): every N_ij = D E_ij as a Gaussian-integer matrix, ints,
    0-based, over one common denominator D, den; the scalar c and the
    index of the highest weight vector.  d comes from the matrices."""

    def __init__(self, n: int, mu: Tuple[int, ...], c: GaussRat, den: int,
                 ints: List[List[IntMatrix]], hw_index: int):
        self.n = n
        self.mu = mu
        self.c = c
        self.d = len(ints[0][0][0])
        self.hw_index = hw_index
        self._ints = den, ints

    def E(self, i: int, j: int) -> Mat:
        """E_ij as a dense matrix, for printing."""
        den, ints = self._ints
        return dense(ints[i - 1][j - 1], self.d, den)

    def int_view(self) -> Tuple[int, List[List[IntMatrix]]]:
        """D and every N_ij = D E_ij.  Every check works over any common
        denominator; build_irrep gives the least one."""
        return self._ints

    def relation_residual(self, i: int, j: int, k: int, l: int) -> Entries:
        """The nonzero entries of [E_ij, E_kl] - delta_jk E_il + delta_li
        E_kj; must be empty.  D^2 times it, N_ij N_kl - N_kl N_ij -
        delta_jk D N_il + delta_li D N_kj, is summed in plain ints, real
        and imaginary parts apart, and only a nonzero entry is divided
        back by D^2."""
        den, ints = self._ints
        a, b = ints[i - 1][j - 1], ints[k - 1][l - 1]
        re, im = {}, {}
        mat_product_into(re, im, a, b, 1)
        mat_product_into(re, im, b, a, -1)
        if j == k:
            int_entries_into(re, im, ints[i - 1][l - 1], -den)
        if l == i:
            int_entries_into(re, im, ints[k - 1][j - 1], den)
        return self._entries(re, im, den * den)

    def _entries(self, re: dict, im: dict, den: int) -> Entries:
        """The nonzero (re + im i) / den, keyed (row, col)."""
        return {divmod(key, self.d): x
                for key, x in gauss_entries(re, im, den).items()}

    def trace_part(self) -> Entries:
        """The nonzero entries of E_11 + ... + E_nn."""
        den, ints = self._ints
        re, im = {}, {}
        for k in range(self.n):
            int_entries_into(re, im, ints[k][k], 1)
        return self._entries(re, im, den)

    def weight_table(self) -> List[Tuple[Tuple[GaussRat, ...], int]]:
        """Joint diagonal eigenvalue tuples with multiplicities.

        The Gelfand-Tsetlin basis consists of joint eigenvectors of the
        E_ii, so the eigenvalues can be read off the diagonals of the N_ii:
        counted as integer tuples, then made GaussRat once per weight.
        """
        den, ints = self._ints
        counts = Counter(tuple(diagonal_entry(ints[i][i], k)
                               for i in range(self.n)) for k in range(self.d))
        table = [(tuple(GaussRat.from_parts(*x, den) for x in w), mult)
                 for w, mult in counts.items()]
        return sorted(table, key=lambda kv: [str(x) for x in kv[0]])


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


def _least(den: int, re: Dict[int, int], im: Dict[int, int]
           ) -> Tuple[int, Dict[int, int], Dict[int, int]]:
    """The matrix (re + im i) / den, keyed row * d + col, as (den, re, im)
    divided by the gcd of den and every entry, zero entries dropped."""
    g = gcd(den, *re.values(), *im.values())
    return (den // g, *({key: x // g for key, x in part.items() if x}
                        for part in (re, im)))


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
    # every E_ij as (q, re, im) over its least denominator q
    E: List[List[tuple]] = [[None] * n for _ in range(n)]

    # make the identity matrix act by c = (a + b i)/q instead of by
    # |lambda|: E_kk = sum p_k - sum p_k-1 + (c - |lambda|)/n, over nq
    c = GaussRat._coerce(c)
    a, b, q = c.parts()
    for k in range(1, n + 1):
        re = {col * (d + 1): (sum(p[k]) - sum(p[k - 1])) * n * q + a
              - sum(lam) * q for col, p in enumerate(patterns)}
        im = {col * (d + 1): b for col in range(d)}
        E[k - 1][k - 1] = _least(n * q, re, im)

    # Molev's formulas in l_ki = lambda_ki - i + 1 (here i is 0-based):
    # E_k,k+1 moves lambda_ki up, E_k+1,k moves it down.  The numerator
    # vanishes only where the move breaks interlacing, so every entry
    # is nonzero; the entries go over the lcm of their denominators
    for k in range(1, n):
        up, down = {}, {}
        for col, p in enumerate(patterns):
            l = [[x - i for i, x in enumerate(row)] for row in p]
            for i, x in enumerate(l[k]):
                den = prod(x - y for j, y in enumerate(l[k]) if j != i)
                target = index.get(_moved(p, k, i, 1))
                if target is not None:
                    up[target * d + col] = Fraction(
                        -prod(x - y for y in l[k + 1]), den)
                target = index.get(_moved(p, k, i, -1))
                if target is not None:
                    down[target * d + col] = Fraction(
                        prod(x - y for y in l[k - 1]), den)
        for (i, j), entries in (((k - 1, k), up), ((k, k - 1), down)):
            q = lcm(*(x.denominator for x in entries.values()))
            E[i][j] = q, {key: x.numerator * (q // x.denominator)
                          for key, x in entries.items()}, {}

    # E_ij = [E_i,j-1, E_j-1,j] for j > i+1, and its mirror for i > j+1;
    # both factors are real, and (x/p)(y/q) - (y/q)(x/p) = (xy - yx)/pq
    def bracket(x: tuple, y: tuple) -> tuple:
        (p, xr, _), (q, yr, _) = x, y
        xm, ym = int_columns(xr, {}, d), int_columns(yr, {}, d)
        acc = {}
        mat_product_into(acc, {}, xm, ym, 1)
        mat_product_into(acc, {}, ym, xm, -1)
        return _least(p * q, acc, {})

    for gap in range(2, n):
        for i in range(n - gap):
            j = i + gap
            E[i][j] = bracket(E[i][j - 1], E[j - 1][j])
            E[j][i] = bracket(E[j][j - 1], E[j - 1][i])

    # every N_ij over D, the lcm of all the q
    den = lcm(*(q for row in E for q, _, _ in row))
    ints = [[int_columns(*({key: x * (den // q) for key, x in part.items()}
                           for part in (re, im)), d)
             for q, re, im in row] for row in E]
    return Irrep(n, mu, c, den, ints, hw_index=0)


def burnside_dim(mats: Sequence[IntMatrix]) -> int:
    """Dimension of the unital matrix algebra generated by mats, square
    IntMatrix forms.  Nonzero multiples of the generators generate the
    same algebra, so each may stand over any denominator; every product
    is flattened, keyed row * d + col, into the span of the algebra."""
    if not mats:
        raise ValueError("need at least one matrix")
    d = len(mats[0][0])
    span = SpanBasis(d * d)

    def grows(m: IntMatrix) -> bool:
        re, im = {}, {}
        int_entries_into(re, im, m, 1)
        return span.insert((re, im))

    unit = ([[(k, 1)] for k in range(d)], None)
    frontier = [m for m in [unit, *mats] if grows(m)]
    while frontier:
        frontier = [p for p in (mat_mul(f, g) for f in frontier for g in mats)
                    if grows(p)]
    return span.dim


def highest_weight_theta(diagonals: Sequence[Tuple[int, IntMatrix]],
                         hw: int) -> Tuple[int, IntMatrix]:
    """Norton's theta for a highest weight module, from the matrices by
    which E_11, ..., E_nn act, each up to an added scalar and each given
    as (den, den times it): sum_i (n - i) E_ii minus its diagonal entry
    at the highest weight vector hw times I, as (L, L theta) for L the
    lcm of the dens.  Every positive root e_i - e_j (i < j) pairs to
    j - i > 0 with (n - 1, ..., 0), so on V(mu) the highest weight is the
    unique maximiser and ker theta is the one-dimensional highest weight
    space.  theta lies in the unital algebra the diagonals generate."""
    n, d = len(diagonals), len(diagonals[0][1][0])
    den = lcm(*(q for q, _ in diagonals))
    re, im = {}, {}
    for i, (q, m) in enumerate(diagonals):
        int_entries_into(re, im, m, (n - 1 - i) * (den // q))
    return den, hw_shifted(int_columns(re, im, d), hw)


def diagonal_entry(a: IntMatrix, k: int) -> Tuple[int, int]:
    """Entry (k, k) of a square IntMatrix as its (re, im) parts."""
    return tuple(dict(part[k]).get(k, 0) if part else 0 for part in a)


def hw_shifted(a: IntMatrix, hw: int) -> IntMatrix:
    """a minus its diagonal entry at the highest weight vector hw times I,
    for a square IntMatrix a; over any denominator, the entry is that
    of den a.  A subspace is invariant under a exactly when it is
    invariant under a - cI, so both spin any vector alike."""
    top = diagonal_entry(a, hw)
    if not any(top):
        return a
    d = len(a[0])
    re, im = {}, {}
    int_entries_into(re, im, a, 1)
    for acc, x in zip((re, im), top):
        for k in range(0, d * d, d + 1):
            acc[k] = acc.get(k, 0) - x
    return int_columns(re, im, d)


def norton_irreducible(mats: Sequence[IntMatrix], theta: IntMatrix) -> bool:
    """Norton's irreducibility test (Parker 1984; Holt and Rees, "Testing
    modules for irreducibility", 1994), for theta in the unital algebra A
    generated by mats; every matrix is a square IntMatrix, standing for
    any nonzero multiple of itself, theta too.

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
    d = len(theta[0])
    kernel = null_space(theta, d)
    if len(kernel) != 1 or int_spin(kernel[0], mats).dim != d:
        return False
    [co_vector] = null_space(transposed(theta), d)
    return int_spin(co_vector, mats, transpose=True).dim == d
