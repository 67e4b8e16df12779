"""Finite dimensional irreducible gl(n) modules with explicit exact matrices.

The module V(mu, c) is built inside a tensor power of the natural
representation: convert the fundamental-weight coordinates mu to a
partition, solve exactly for a singular vector of that weight, close
under the lowering operators while maintaining an echelon basis with
coordinate tracking, and read off every E_ij in the resulting basis.
Finally the diagonal part is shifted so the identity matrix acts by the
scalar c.  Everything stays in GaussRat arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import List, Sequence, Tuple

from .linalg import (Mat, SpanBasis, commutator, identity, mat_add, mat_mul,
                     mat_sub, mat_is_zero, zeros)
from .scalars import GaussRat, ONE, ZERO

DIM_CAP = 64
SIZE_CAP = 6  # cap on |lambda|, the tensor power used


def partition(mu: Sequence[int]) -> List[int]:
    """Fundamental-weight coordinates mu as a partition lambda with
    len(mu) + 1 parts; |lambda| is the tensor power V(mu) is built in."""
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
    """V(mu, c): dimension d, matrices E[i][j] (1-based via E(i, j)),
    scalar c and the index of the highest weight vector."""

    def __init__(self, n: int, mu: Tuple[int, ...], c: GaussRat, d: int,
                 matrices: List[List[Mat]], hw_index: int):
        self.n = n
        self.mu = mu
        self.c = c
        self.d = d
        self._E = matrices
        self.hw_index = hw_index

    def E(self, i: int, j: int) -> Mat:
        return self._E[i - 1][j - 1]

    def relation_residual(self, i: int, j: int, k: int, l: int) -> Mat:
        """[E_ij, E_kl] - delta_jk E_il + delta_li E_kj; must be zero."""
        res = commutator(self.E(i, j), self.E(k, l))
        if j == k:
            res = mat_sub(res, self.E(i, l))
        if l == i:
            res = mat_add(res, self.E(k, j))
        return res

    def all_relations_hold(self) -> bool:
        rng = range(1, self.n + 1)
        return all(mat_is_zero(self.relation_residual(i, j, k, l))
                   for i, j, k, l in product(rng, rng, rng, rng))

    def trace_part(self) -> Mat:
        out = zeros(self.d, self.d)
        for i in range(1, self.n + 1):
            out = mat_add(out, self.E(i, i))
        return out

    def weight_table(self) -> List[Tuple[Tuple[GaussRat, ...], int]]:
        """Joint diagonal eigenvalue tuples with multiplicities.

        The construction basis consists of joint eigenvectors of the
        E_ii, so the eigenvalues can be read off the diagonal matrices.
        """
        counts = {}
        for k in range(self.d):
            w = tuple(self.E(i, i)[k][k] for i in range(1, self.n + 1))
            counts[w] = counts.get(w, 0) + 1
        return sorted(counts.items(), key=lambda kv: [str(x) for x in kv[0]])


def _tensor_basis(n: int, k: int) -> List[Tuple[int, ...]]:
    return list(product(range(n), repeat=k))


def _apply_Eij(i: int, j: int, vec: List[GaussRat],
               basis: List[Tuple[int, ...]], index: dict) -> List[GaussRat]:
    """E_ij (0-based indices) acting on the k-fold tensor power of the
    natural representation, summed over tensor factors."""
    out = [ZERO] * len(vec)
    for pos, c in enumerate(vec):
        if not c:
            continue
        tup = basis[pos]
        for slot, a in enumerate(tup):
            if a == j:
                target = tup[:slot] + (i,) + tup[slot + 1:]
                t = index[target]
                out[t] = out[t] + c
    return out


def build_irrep(mu: Sequence[int], c: GaussRat, n: int) -> Irrep:
    mu = tuple(mu)
    d_expected = weyl_dim(mu, n)
    if d_expected > DIM_CAP:
        raise ValueError(f"dimension {d_expected} exceeds cap {DIM_CAP}")
    lam = partition(mu)
    k = sum(lam)
    if k > SIZE_CAP:
        raise ValueError(f"tensor power {k} exceeds cap {SIZE_CAP}")

    basis = _tensor_basis(n, k)
    index = {tup: pos for pos, tup in enumerate(basis)}
    N = len(basis)

    def weight(tup: Tuple[int, ...]) -> List[int]:
        w = [0] * n
        for a in tup:
            w[a] += 1
        return w

    # weight-lambda slots, in lexicographic tuple order
    slots = [pos for pos, tup in enumerate(basis) if weight(tup) == lam]
    if not slots:
        raise AssertionError("empty weight space for the highest weight")

    # rows of the raising-operator system restricted to the lambda slots
    hw_coords = _solve_singular_vector(n, lam, basis, index, slots)
    hw_vec = [ZERO] * N
    for pos, coeff in zip(slots, hw_coords):
        hw_vec[pos] = coeff

    # close under lowering operators, tracking coordinates so the E_ij
    # can be expressed in the generated (insertion-order) basis
    span = SpanBasis(N, track_coords=True)
    span.insert(hw_vec)
    generated = [hw_vec]
    frontier = [hw_vec]
    while frontier:
        new_frontier = []
        for v in frontier:
            for i in range(n - 1):
                w = _apply_Eij(i + 1, i, v, basis, index)
                if any(w) and span.insert(w):
                    generated.append(w)
                    new_frontier.append(w)
        frontier = new_frontier
    d = len(generated)
    if d != d_expected:
        raise AssertionError(
            f"closure dimension {d} != Weyl dimension {d_expected}")

    matrices: List[List[Mat]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            m = zeros(d, d)
            for col, v in enumerate(generated):
                w = _apply_Eij(i, j, v, basis, index)
                coords = span.coords(w)
                for row in range(d):
                    m[row][col] = coords[row]
            matrices[i][j] = m

    # make the identity matrix act by c instead of by |lambda|
    shift = (GaussRat._coerce(c) - k) * GaussRat(Fraction(1, n))
    for i in range(n):
        for r in range(d):
            matrices[i][i][r][r] = matrices[i][i][r][r] + shift

    return Irrep(n, mu, GaussRat._coerce(c), d, matrices, hw_index=0)


def _solve_singular_vector(n, lam, basis, index, slots) -> List[GaussRat]:
    """Exact solution of E_{i,i+1} v = 0 on the lambda weight space; the
    deterministic choice is the null-space vector whose leading free
    coordinate comes first in lexicographic slot order."""
    N = len(basis)
    rows = []
    for i in range(n - 1):
        # image coordinates of E_{i,i+1} applied to each slot
        images = []
        support = set()
        for pos in slots:
            e = [ZERO] * N
            e[pos] = ONE
            img = _apply_Eij(i, i + 1, e, basis, index)
            images.append(img)
            support.update(p for p, x in enumerate(img) if x)
        for p in sorted(support):
            rows.append([img[p] for img in images])
    if not rows:
        return [ONE] + [ZERO] * (len(slots) - 1)

    # null space via echelon form of the constraint matrix
    m = len(slots)
    span = SpanBasis(m)
    for r in rows:
        span.insert(r)
    pivots = set(span.pivots)
    free = [j for j in range(m) if j not in pivots]
    if not free:
        raise AssertionError("no singular vector in the weight space")
    # back-substitute for the first free variable
    f = free[0]
    sol = [ZERO] * m
    sol[f] = ONE
    for row, piv in sorted(zip(span.rows, span.pivots),
                           key=lambda rp: -rp[1]):
        s = ZERO
        for j in range(piv + 1, m):
            if row[j] and sol[j]:
                s = s + row[j] * sol[j]
        sol[piv] = -s
    return sol


def burnside_dim(mats: List[Mat]) -> int:
    """Dimension of the unital matrix algebra generated by mats."""
    if not mats:
        raise ValueError("need at least one matrix")
    d = len(mats[0])
    span = SpanBasis(d * d)

    def flat(m: Mat) -> List[GaussRat]:
        return [x for row in m for x in row]

    members: List[Mat] = []

    def insert(m: Mat) -> bool:
        if span.insert(flat(m)):
            members.append(m)
            return True
        return False

    insert(identity(d))
    for m in mats:
        insert(m)
    frontier = list(members)
    while frontier:
        new_frontier = []
        for f in frontier:
            for g in mats:
                p = mat_mul(f, g)
                if insert(p):
                    new_frontier.append(p)
        frontier = new_frontier
    return span.dim
