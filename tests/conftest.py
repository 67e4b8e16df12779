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
    highest weight vector is a's.  The columns of b follow those of a,
    with their rows offset by a.d."""
    from loopwitt.glnrep import Irrep
    rng = range(1, a.n + 1)
    E = [[a.columns(i, j) + [[(r + a.d, x) for r, x in col]
                             for col in b.columns(i, j)]
          for j in rng] for i in rng]
    return Irrep(a.n, a.mu, a.c, a.d + b.d, E, a.hw_index)


# -- oracles the library itself does not need --------------------------


def rank(vectors):
    """Rank of a list of equal-length GaussRat vectors."""
    from loopwitt.linalg import SpanBasis
    vectors = list(vectors)
    if not vectors:
        return 0
    basis = SpanBasis(len(vectors[0]))
    for v in vectors:
        basis.insert(v)
    return basis.dim


def all_relations_hold(rep):
    """[E_ij, E_kl] = delta_jk E_il - delta_li E_kj for all i, j, k, l."""
    from itertools import product
    rng = range(1, rep.n + 1)
    return not any(rep.relation_residual(i, j, k, l)
                   for i, j, k, l in product(rng, rng, rng, rng))


def mat_vec(a, v):
    from loopwitt.scalars import ZERO
    return [sum((x * y for x, y in zip(row, v)), ZERO) for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def columns(a):
    """The Columns of a dense matrix: the oracle of linalg.dense."""
    return [[(row, x) for row, x in enumerate(col) if x] for col in zip(*a)]


def mat_is_zero(a):
    return all(not x for row in a for x in row)


def dense_relation_residual(rep, i, j, k, l):
    """[E_ij, E_kl] - delta_jk E_il + delta_li E_kj from the dense E_ij,
    by dense products; the oracle of Irrep.relation_residual."""
    from loopwitt.linalg import mat_mul
    a, b = rep.E(i, j), rep.E(k, l)
    res = mat_sub(mat_mul(a, b), mat_mul(b, a))
    if j == k:
        res = mat_sub(res, rep.E(i, l))
    if l == i:
        res = mat_add(res, rep.E(k, j))
    return res


def reference_bracket(x, y):
    """The bracket term pair by term pair: each product b b' is a reduced
    B element, scaled by its structure constant and added to its output
    key as it comes; the oracle of LoopElem.bracket."""
    from loopwitt.loop import LoopElem
    x._check(y)
    acc = {}

    def put(key, coeff):
        acc[key] = acc[key] + coeff if key in acc else coeff

    for (k1, i, r), b1 in x.terms.items():
        for (k2, j, s), b2 in y.terms.items():
            bb = b1 * b2
            if bb.is_zero():
                continue
            rs = tuple(a + b for a, b in zip(r, s))
            if k1 == "d" and k2 == "d":
                # [D(e_i,r), D(e_j,s)] = s_i D(e_j,r+s) - r_j D(e_i,r+s)
                if s[i - 1]:
                    put(("d", j, rs), bb * s[i - 1])
                if r[j - 1]:
                    put(("d", i, rs), bb * (-r[j - 1]))
            elif k1 == "d" and k2 == "t":
                if s[i - 1]:
                    put(("t", 0, rs), bb * s[i - 1])
            elif k1 == "t" and k2 == "d":
                if r[j - 1]:
                    put(("t", 0, rs), bb * (-r[j - 1]))
            # [t^r, t^s] = 0
    return LoopElem(x.n, x.pres, acc)


def reference_jacobi(x, y, z):
    """[x, [y, z]] + [y, [z, x]] + [z, [x, y]] as a sum of three
    reference brackets; the oracle of LoopElem.jacobi_residual."""
    return (reference_bracket(x, reference_bracket(y, z))
            + reference_bracket(y, reference_bracket(z, x))
            + reference_bracket(z, reference_bracket(x, y)))


def cartan_eigenvalue(module, i, m):
    """Eigenvalue of D(e_i, 0) on the degree-m slice: alpha_i + m_i."""
    return module.alpha[i - 1] + m[i - 1]


def ad_weight(x):
    """Common degree of a homogeneous loop element, checked against the
    defining bracket with the zero-mode basis derivations."""
    from loopwitt.loop import LoopElem
    if x.is_zero():
        raise ValueError("zero element has no ad-weight")
    degrees = {key[2] for key in x.terms}
    if len(degrees) != 1:
        raise ValueError("element is not homogeneous")
    (m,) = degrees
    for i in range(1, x.n + 1):
        h = LoopElem.d_part(x.n, x.pres, i, (0,) * x.n)
        if h.bracket(x) != x.scale(m[i - 1]):
            raise AssertionError("ad-weight check failed")
    return m


def shift_difference_generators(module):
    """The d * (slices - 1) generators v_k(x)t^m - v_k(x)t^0, m != 0, of
    the shift-difference subspace, as module vectors."""
    zero = (0,) * module.n
    return [module.basis_vector(m, k) - module.basis_vector(zero, k)
            for m in module.window.slices() if m != zero
            for k in range(module.d)]


def window_coords(v):
    """Coordinates of a module vector over every window slice, in slice
    order."""
    from loopwitt.scalars import ZERO
    d = v.module.d
    return [x for m in v.module.window.slices()
            for x in v.data.get(m, [ZERO] * d)]


def reference_act(x, v):
    """The action term by term, straight from the formula: each term of
    x on each source slice, psi(b) read per term and E_ji per entry.
    Raises OutOfWindowError on any single term that leaves the window."""
    from loopwitt.scalars import ZERO
    from loopwitt.tensmod import ModVector, OutOfWindowError
    module = v.module
    if x.n != module.n:
        raise ValueError("rank mismatch")
    if x.pres != module.pres:
        raise ValueError("B presentation mismatch")
    rep = module.rep
    acc = {}

    def put(m, vec):
        if not any(vec):
            return
        if not module.window.contains(m):
            raise OutOfWindowError(f"action leaves the window at {m}")
        if m in acc:
            acc[m] = [a + b for a, b in zip(acc[m], vec)]
        else:
            acc[m] = vec

    d = module.d
    for (kind, i, r), b in x.terms.items():
        pb = b.psi()
        if not pb:
            continue
        for m, vec in v.data.items():
            target = tuple(a + b2 for a, b2 in zip(m, r))
            if kind == "t":
                put(target, [pb * c if c else ZERO for c in vec])
                continue
            scal = pb * (module.alpha[i - 1] + m[i - 1])
            out = [scal * c if c else ZERO for c in vec]
            nonzero = [(k, c) for k, c in enumerate(vec) if c]
            for j in range(1, module.n + 1):
                rj = r[j - 1]
                if not rj:
                    continue
                mat = rep.E(j, i)
                for k, c in nonzero:
                    w = pb * rj * c
                    for row in range(d):
                        e = mat[row][k]
                        if e:
                            out[row] = out[row] + e * w
            put(target, out)
    return ModVector(module, acc)


def reference_op_matrix(op, module, src, dst=None):
    """Columns of op applied to each basis vector of the src slices, one
    call per column: the oracle of tensmod.op_matrix, which applies op
    once per slice to its basis block."""
    from loopwitt.tensmod import OutOfWindowError
    d = module.d
    images = [op(module.basis_vector(m, k)) for m in src for k in range(d)]
    if dst is None:
        dst = sorted({m for w in images for m in w.data})
    offset = {tuple(m): k * d for k, m in enumerate(dst)}
    out = []
    for w in images:
        for m in w.data:
            if m not in offset:
                raise OutOfWindowError(
                    f"operator maps into slice {m}, outside the destination")
        out.append([(offset[m] + row, x)
                    for m in sorted(w.data, key=offset.__getitem__)
                    for row, x in enumerate(w.data[m]) if x])
    return out


def block_column(v, k):
    """Column k of a block of module vectors, as a module vector."""
    from loopwitt.tensmod import ModVector
    d = v.module.d
    return ModVector(v.module, {m: vec[k * d:(k + 1) * d]
                                for m, vec in v.data.items()}, 1)
