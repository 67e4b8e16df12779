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


def sparse_sum(plus, minus=()):
    """The terms (key, GaussRat) of plus minus those of minus, collected
    by key, with the entries that cancel dropped: a Vec for int keys,
    entries for (row, col) keys."""
    out = {}
    for key, x in plus:
        out[key] = out[key] + x if key in out else x
    for key, x in minus:
        out[key] = out[key] - x if key in out else -x
    return {key: x for key, x in out.items() if x}


def mod_vector(module, data=None):
    """The ModVector of a GaussRat block, degree -> Vec: its denominators
    cleared to their least common multiple, zero entries and empty
    slices dropped.  A nonzero slice outside the window raises
    OutOfWindowError."""
    from math import lcm
    from loopwitt.tensmod import ModVector, OutOfWindowError
    data = data or {}
    den = lcm(*{x.parts()[2] for vec in data.values() for x in vec.values()})
    ints = {}
    for m, vec in data.items():
        re, im = {}, {}
        for j, x in vec.items():
            a, b, q = x.parts()
            if a:
                re[j] = a * (den // q)
            if b:
                im[j] = b * (den // q)
        if re or im:
            if not module.window.contains(m):
                raise OutOfWindowError(f"degree {m} outside window")
            ints[m] = (re, im)
    return ModVector(module, den if ints else 1, ints)


def reference_sample_interior_vector(rng, module, margin):
    """suites.sample_interior_vector as it drew in GaussRat: each
    coordinate rng.choice(suites._SCALAR_POOL), a slice drawn twice
    summed by sparse_sum.  The oracle of the integer sampler."""
    from itertools import chain
    from loopwitt.suites import _SCALAR_POOL
    window = module.window
    data = {}
    for _ in range(rng.choice((1, 2))):
        m = window.interior_slice(
            margin, rng.choice(range(window.interior_count(margin))))
        vec = [(k, rng.choice(_SCALAR_POOL)) for k in range(module.d)]
        data[m] = sparse_sum(chain(data.get(m, {}).items(), vec))
    return mod_vector(module, data)


def irrep_of(rep, mats):
    """An Irrep labelled like rep whose E_ij is the dense matrix
    mats[i - 1][j - 1], over the least common denominator of them all:
    the way a test plants a changed gl(n) module."""
    from loopwitt.glnrep import Irrep
    den, ints = reference_int_view([[columns(m) for m in row]
                                    for row in mats])
    return Irrep(rep.n, rep.mu, rep.c, den, ints, rep.hw_index)


def changed_irrep(rep, change):
    """rep with every E_ij replaced by change(i, j, E_ij), for 1-based i
    and j and dense matrices."""
    rng = range(1, rep.n + 1)
    return irrep_of(rep, [[change(i, j, rep.E(i, j)) for j in rng]
                          for i in rng])


def reference_build_irrep(mu, c, n):
    """Every E_ij of V(mu, c) as Columns over Q(i), 0-based, built in
    GaussRat arithmetic from Molev's formulas and sparse commutators: the
    construction of glnrep.build_irrep before it ran in Gaussian
    integers, kept as its oracle."""
    from fractions import Fraction
    from math import prod
    from loopwitt.glnrep import gt_patterns, partition
    lam = partition(mu)
    patterns = gt_patterns(lam)
    d = len(patterns)
    index = {p: col for col, p in enumerate(patterns)}

    def moved(p, k, i, step):
        row = list(p[k])
        row[i] += step
        return index.get(p[:k] + (tuple(row),) + p[k + 1:])

    shift = (c - sum(lam)) * GaussRat(Fraction(1, n))
    E = [[None] * n for _ in range(n)]
    for k in range(1, n + 1):
        diagonal = (GaussRat(sum(p[k]) - sum(p[k - 1])) + shift
                    for p in patterns)
        E[k - 1][k - 1] = [[(col, x)] if x else []
                           for col, x in enumerate(diagonal)]
    for k in range(1, n):
        up, down = [], []
        for p in patterns:
            l = [[x - i for i, x in enumerate(row)] for row in p]
            up_col, down_col = [], []
            for i, x in enumerate(l[k]):
                den = prod(x - y for j, y in enumerate(l[k]) if j != i)
                target = moved(p, k, i, 1)
                if target is not None:
                    num = -prod(x - y for y in l[k + 1])
                    up_col.append((target, GaussRat(Fraction(num, den))))
                target = moved(p, k, i, -1)
                if target is not None:
                    num = prod(x - y for y in l[k - 1])
                    down_col.append((target, GaussRat(Fraction(num, den))))
            up.append(sorted(up_col))
            down.append(sorted(down_col))
        E[k - 1][k], E[k][k - 1] = up, down

    def bracket(a, b):
        return to_columns(
            sparse_sum(product_entries(a, b), product_entries(b, a)), d)

    for gap in range(2, n):
        for i in range(n - gap):
            j = i + gap
            E[i][j] = bracket(E[i][j - 1], E[j - 1][j])
            E[j][i] = bracket(E[j][j - 1], E[j - 1][i])
    return E


def reference_int_view(E):
    """D and every D E_ij as an IntMatrix, for Columns E_ij and D the
    least common denominator of them all: the oracle of Irrep.int_view."""
    den = denominator(x for row in E for a in row for col in a
                      for _, x in col)
    return den, [[int_matrix(a, den) for a in row] for row in E]


def direct_sum_irrep(a, b):
    """The block-diagonal gl(n) module a (+) b, labelled like a; its
    highest weight vector is a's.  The columns of b follow those of a,
    with their rows offset by a.d."""
    from loopwitt.scalars import ZERO
    rng = range(1, a.n + 1)
    return irrep_of(a, [[[row + [ZERO] * b.d for row in a.E(i, j)]
                         + [[ZERO] * a.d + row for row in b.E(i, j)]
                         for j in rng] for i in rng])


# -- oracles the library itself does not need --------------------------


def sparse(v):
    """The sparse Vec of a dense list: its nonzero entries by index."""
    return {j: x for j, x in enumerate(v) if x}


def monic(v, piv):
    """An IntVec v divided by its entry at piv, as a Vec:
    x / p = x conj(p) / |p|^2."""
    re, im = v
    pr, pi = re.get(piv, 0), im.get(piv, 0)
    norm = pr * pr + pi * pi
    out = {}
    for j in sorted(re.keys() | im.keys()):
        x, y = re.get(j, 0), im.get(j, 0)
        out[j] = GaussRat.from_parts(x * pr + y * pi, y * pr - x * pi, norm)
    return out


def monic_rows(span):
    """The echelon rows of a linalg.SpanBasis as Vecs with leading
    coefficient 1."""
    return [monic(row, piv) for row, piv in zip(span.int_rows, span.pivots)]


def monic_vecs(vectors):
    """IntVecs, such as linalg.null_space's kernel vectors, each as the
    Vec with entry 1 at its lowest index."""
    return [monic(v, min(v[0].keys() | v[1].keys())) for v in vectors]


def int_of(v):
    """A Vec cleared to a Gaussian-integer IntVec."""
    from loopwitt.linalg import int_vec
    return int_vec(v)[0]


def entries(a):
    """The nonzero entries of Columns a, keyed (row, col)."""
    for col, pairs in enumerate(a):
        for row, x in pairs:
            yield (row, col), x


def denominator(xs):
    """The least D > 0 with every D x a Gaussian integer."""
    from math import lcm
    return lcm(*{x.parts()[2] for x in xs})


def int_matrix(a, den):
    """den a as a Gaussian-integer matrix, for Columns a and den a
    multiple of the denominator of each entry of a."""
    re, im = [], []
    for col in a:
        re_col, im_col = [], []
        for row, x in col:
            p, q, r = x.parts()
            if p:
                re_col.append((row, p * (den // r)))
            if q:
                im_col.append((row, q * (den // r)))
        re.append(re_col)
        im.append(im_col)
    return re, im if any(im) else None


def int_form(a):
    """(D, D a) for Columns a, D the least common denominator of its
    entries: the (den, IntMatrix) form the checks read."""
    den = denominator(x for col in a for _, x in col)
    return den, int_matrix(a, den)


def to_columns(a, cols):
    """The Columns of the matrix whose nonzero entries are a, keyed
    (row, col)."""
    out = [[] for _ in range(cols)]
    for row, col in sorted(a):
        out[col].append((row, a[row, col]))
    return out


def product_entries(a, b):
    """The terms of the product a b of Columns, keyed (row, col).  Column
    c of a b is sum_t b[t][c] (column t of a)."""
    for col, b_col in enumerate(b):
        for t, x in b_col:
            for row, y in a[t]:
                yield (row, col), y * x


def int_mat(a):
    """A dense matrix over Q(i) as an IntMatrix, a nonzero multiple of
    it: what Norton's test and the spins take."""
    return int_form(columns(a))[1]


def dense_of(a, rows):
    """The dense matrix of Columns a, which has `rows` rows."""
    from loopwitt.scalars import ZERO
    out = [[ZERO] * len(a) for _ in range(rows)]
    for col, pairs in enumerate(a):
        for row, x in pairs:
            out[row][col] = x
    return out


def rational_columns(form):
    """The Columns over Q(i) of (den, den a), for a square: a itself."""
    from loopwitt.linalg import dense
    den, a = form
    return columns(dense(a, len(a[0]), den))


def to_sympy(x):
    """A GaussRat as an exact sympy number."""
    import sympy
    return (sympy.Rational(x.re.numerator, x.re.denominator) + sympy.I
            * sympy.Rational(x.im.numerator, x.im.denominator))


def domain_matrix(vectors, length):
    """The sympy DomainMatrix over Q(i) whose rows are the given vectors,
    sparse Vecs or dense lists, each of the given length."""
    import sympy
    from sympy import QQ_I
    from sympy.polys.matrices import DomainMatrix
    rows = [v if isinstance(v, dict) else sparse(v) for v in vectors]
    return DomainMatrix.from_Matrix(sympy.Matrix(
        len(rows), length, lambda r, c: to_sympy(rows[r][c])
        if c in rows[r] else 0)).convert_to(QQ_I)


def rank(vectors):
    """Rank of a list of GaussRat vectors, sparse Vecs or dense lists, by
    sympy's exact elimination over Q(i), which shares no code with
    linalg."""
    rows = [v if isinstance(v, dict) else sparse(v) for v in vectors]
    length = 1 + max((j for v in rows for j in v), default=-1)
    return domain_matrix(rows, length).rank() if length else 0


class RationalSpanBasis:
    """Echelon rows over Q(i) by GaussRat elimination, each row scaled to
    leading coefficient 1: the elimination that linalg.SpanBasis ran
    before it moved to the Gaussian integers, kept as the oracle of its
    ranks, pivots, rows and coordinates."""

    def __init__(self, length):
        self.length = length
        self.rows = []
        self.pivots = []

    @property
    def dim(self):
        return len(self.rows)

    def _reduce(self, v, coeffs=None):
        v = dict(v)
        for row, piv in zip(self.rows, self.pivots):
            c = v.get(piv)
            if c is None:
                continue
            if coeffs is not None:
                coeffs[piv] = c
            for j, x in row.items():
                y = v.get(j, 0) - c * x
                if y:
                    v[j] = y
                else:
                    v.pop(j, None)
        return v

    def insert(self, v):
        red = self._reduce(v)
        if not red:
            return False
        piv = min(red)
        inv = red[piv].inverse()
        self.rows.append({j: inv * x for j, x in sorted(red.items())})
        self.pivots.append(piv)
        return True

    def coords(self, v):
        coeffs = {}
        if self._reduce(v, coeffs):
            raise ValueError("vector is not in the span")
        return {k: coeffs[piv] for k, piv in enumerate(self.pivots)
                if piv in coeffs}


def rational_hw_shifted(a, hw):
    """a minus its diagonal entry at the highest weight vector hw times I;
    a square column view.  A subspace is invariant under a exactly when
    it is invariant under a - cI, so both spin any vector alike.  The
    GaussRat oracle of glnrep.hw_shifted."""
    top = dict(a[hw]).get(hw)
    if not top:
        return a
    d = len(a)
    return to_columns(sparse_sum(entries(a), (((k, k), top)
                                              for k in range(d))), d)


def rational_highest_weight_theta(diagonals, hw):
    """Norton's theta for a highest weight module, from the column views
    of the matrices by which E_11, ..., E_nn act, each up to an added
    scalar: sum_i (n - i) E_ii minus its diagonal entry at the highest
    weight vector hw times I.  The GaussRat oracle of
    glnrep.highest_weight_theta."""
    n, d = len(diagonals), len(diagonals[0])
    theta = sparse_sum((key, GaussRat(n - 1 - i) * x)
                       for i, m in enumerate(diagonals)
                       for key, x in entries(m))
    return rational_hw_shifted(to_columns(theta, d), hw)


def rational_null_space(a, rows):
    """The kernel basis linalg.null_space returns, by RationalSpanBasis:
    the unit parts of the echelon rows of the columns (column j, e_j)."""
    from loopwitt.scalars import ONE
    span = RationalSpanBasis(rows + len(a))
    for j, col in enumerate(a):
        span.insert(dict([*col, (rows + j, ONE)]))
    return [{j - rows: x for j, x in row.items()}
            for row, piv in zip(span.rows, span.pivots) if piv >= rows]


def all_relations_hold(rep):
    """[E_ij, E_kl] = delta_jk E_il - delta_li E_kj for all i, j, k, l."""
    from itertools import product
    rng = range(1, rep.n + 1)
    return not any(rep.relation_residual(i, j, k, l)
                   for i, j, k, l in product(rng, rng, rng, rng))


def mat_vec(a, v):
    from loopwitt.scalars import ZERO
    return [sum((x * y for x, y in zip(row, v)), ZERO) for row in a]


def col_apply(a, v):
    """a v for Columns a and a Vec v, by GaussRat products and sums."""
    return sparse_sum((row, e * x) for c, x in v.items() for row, e in a[c])


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


def identity(n):
    from loopwitt.scalars import ONE, ZERO
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """The product of dense matrices, by GaussRat products and sums, row
    by row, skipping every zero factor: the oracle of linalg.mat_mul."""
    from loopwitt.scalars import ZERO
    out = []
    for arow in a:
        orow = [ZERO] * len(b[0])
        for c, brow in zip(arow, b):
            if c:
                for j, x in enumerate(brow):
                    if x:
                        orow[j] = orow[j] + c * x
        out.append(orow)
    return out


def reference_burnside_dim(mats):
    """Dimension of the unital algebra generated by dense matrices over
    Q(i), by the closure glnrep.burnside_dim ran before it moved to
    IntMatrix forms: dense GaussRat products, each flattened row by row
    and cleared of its denominators.  The oracle of burnside_dim."""
    from itertools import chain
    from loopwitt.linalg import SpanBasis
    d = len(mats[0])
    span = SpanBasis(d * d)

    def grows(m):
        return span.insert(int_of(sparse(list(chain(*m)))))

    frontier = [m for m in [identity(d), *mats] if grows(m)]
    while frontier:
        frontier = [p for p in (mat_mul(f, g) for f in frontier for g in mats)
                    if grows(p)]
    return span.dim


def dense_relation_residual(rep, i, j, k, l):
    """[E_ij, E_kl] - delta_jk E_il + delta_li E_kj from the dense E_ij,
    by dense products; the oracle of Irrep.relation_residual."""
    a, b = rep.E(i, j), rep.E(k, l)
    res = mat_sub(mat_mul(a, b), mat_mul(b, a))
    if j == k:
        res = mat_sub(res, rep.E(i, l))
    if l == i:
        res = mat_add(res, rep.E(k, j))
    return res


def rational_reduce(modulus, p):
    """p, exponent -> GaussRat, modulo the monic modulus (p itself for
    None), in place: a term c x^e with e >= 2 deg m adds c (x^e mod m),
    found by square-and-multiply, and the rest is reduced one degree at a
    time, from the top.  BPresentation.reduce as it ran in GaussRat
    before B moved to the Gaussian integers, kept as its oracle."""
    from loopwitt.scalars import ONE, ZERO
    if modulus is None:
        return p
    d = len(modulus) - 1

    def reduce_low(p):
        for top in range(max(p, default=0), d - 1, -1):
            c = p.pop(top, ZERO)
            if c:
                for k in range(d):
                    if modulus[k]:
                        p[top - d + k] = (p.get(top - d + k, ZERO)
                                          - c * modulus[k])
        return p

    def power(e):
        out = {0: ONE}
        for bit in bin(e)[2:]:
            sq = {}
            for e1, c1 in out.items():
                for e2, c2 in out.items():
                    sq[e1 + e2] = sq.get(e1 + e2, ZERO) + c1 * c2
            if bit == "1":
                sq = {k + 1: c for k, c in sq.items()}
            out = {k: c for k, c in reduce_low(sq).items() if c}
        return out

    for e in [e for e in p if e >= 2 * d]:
        c = p.pop(e)
        for k, x in power(e).items():
            p[k] = p.get(k, ZERO) + c * x
    return reduce_low(p)


class RationalB:
    """A B element as BElem held it before it moved to the Gaussian
    integers: rep maps exponent to nonzero GaussRat, and +, -, *, scale,
    psi and str run in GaussRat.  The oracle of BElem."""

    def __init__(self, pres, rep):
        self.pres = pres
        self.rep = {e: c for e, c in rep.items() if c}

    @classmethod
    def of(cls, b):
        return cls(b.pres, b.rep)

    @classmethod
    def from_poly(cls, pres, coeffs):
        return cls(pres, rational_reduce(
            pres.modulus, {e: GaussRat._coerce(c) for e, c in coeffs.items()}))

    def belem(self):
        """The BElem of the same value, cleared to its least common
        denominator without BElem arithmetic."""
        from loopwitt.coeff import BElem
        from loopwitt.linalg import int_vec
        (re, im), den = int_vec(self.rep)
        return BElem(self.pres, den, re, im)

    def is_zero(self):
        return not self.rep

    def __add__(self, other):
        out = dict(self.rep)
        for e, c in other.rep.items():
            out[e] = out[e] + c if e in out else c
        return RationalB(self.pres, out)

    def __neg__(self):
        return RationalB(self.pres, {e: -c for e, c in self.rep.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RationalB):
            return self.scale(GaussRat._coerce(other))
        out = {}
        for e1, c1 in self.rep.items():
            for e2, c2 in other.rep.items():
                out[e1 + e2] = out.get(e1 + e2, GaussRat(0)) + c1 * c2
        return RationalB(self.pres, rational_reduce(self.pres.modulus, out))

    def scale(self, c):
        return RationalB(self.pres, {e: c * x for e, x in self.rep.items()})

    def psi(self):
        """The sum of c a^e, each power by |e| products with a or a^-1."""
        a = self.pres.eval_point
        acc = GaussRat(0)
        for e, c in self.rep.items():
            p = a if e >= 0 else a.inverse()
            for _ in range(abs(e)):
                c = c * p
            acc = acc + c
        return acc

    def __str__(self):
        def scalar(c):
            if c.im == 0:
                f = c.re
                return str(f.numerator) if f.denominator == 1 else f"{f}"
            return f"({c})"

        items = sorted(self.rep.items(), reverse=self.pres.kind == "laurent")
        if not items:
            return "0"
        if len(items) == 1 and items[0][0] == 0:
            return scalar(items[0][1])
        parts = []
        for e, c in items:
            mono = "" if e == 0 else ("x" if e == 1 else f"x^{e}")
            cs = scalar(c)
            if mono and cs == "1":
                piece = mono
            elif mono and cs == "-1":
                piece = f"-{mono}"
            elif mono:
                piece = f"{cs}*{mono}"
            else:
                piece = cs
            parts.append(piece)
        out = parts[0]
        for piece in parts[1:]:
            out += piece if piece.startswith("-") else f"+{piece}"
        return f"({out})"


def _rational_loop_elem(n, pres, acc):
    """The LoopElem of key -> RationalB."""
    from loopwitt.loop import LoopElem
    return LoopElem(n, pres, {key: b.belem() for key, b in acc.items()})


def rational_bracket_sum(pairs):
    """The sum of [a, b] over the pairs in one GaussRat accumulator, key
    -> exponent -> coefficient, each product b b' formed once, unreduced,
    and each output coefficient reduced once at the end: loop.bracket_sum
    as it ran before B moved to the Gaussian integers, kept as its
    oracle."""
    acc = {}
    for x, y in pairs:
        x._check(y)
        for (k1, i, r), b1 in x.terms.items():
            for (k2, j, s), b2 in y.terms.items():
                if k1 == "d":
                    outs = ((("d", j, s[i - 1]), ("d", i, -r[j - 1]))
                            if k2 == "d" else (("t", 0, s[i - 1]),))
                elif k2 == "d":
                    outs = (("t", 0, -r[j - 1]),)
                else:
                    continue
                prod = [(e1 + e2, c1 * c2) for e1, c1 in b1.rep.items()
                        for e2, c2 in b2.rep.items()]
                rs = tuple(a + b for a, b in zip(r, s))
                for kind, idx, k in outs:
                    p = acc.setdefault((kind, idx, rs), {})
                    for e, c in prod:
                        p[e] = p[e] + c * k if e in p else c * k
    first = pairs[0][0]
    return _rational_loop_elem(first.n, first.pres, {
        key: RationalB(first.pres, rational_reduce(first.pres.modulus, p))
        for key, p in acc.items()})


def reference_bracket(x, y):
    """The bracket term pair by term pair: each product b b' is a reduced
    RationalB, scaled by its structure constant and added to its output
    key as it comes; the oracle of LoopElem.bracket, run in GaussRat
    with no BElem arithmetic."""
    x._check(y)
    acc = {}

    def put(key, coeff):
        acc[key] = acc[key] + coeff if key in acc else coeff

    for (k1, i, r), b1 in x.terms.items():
        for (k2, j, s), b2 in y.terms.items():
            bb = RationalB.of(b1) * RationalB.of(b2)
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
    return _rational_loop_elem(x.n, x.pres, acc)


def reference_jacobi(x, y, z):
    """[x, [y, z]] + [y, [z, x]] + [z, [x, y]]: the three outer brackets
    of reference brackets summed by rational_bracket_sum; the oracle of
    LoopElem.jacobi_residual."""
    return rational_bracket_sum([(x, reference_bracket(y, z)),
                                 (y, reference_bracket(z, x)),
                                 (z, reference_bracket(x, y))])


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
    """Coordinates of a module vector, a block whose only column is
    column 0, over every window slice, in slice order, as a sparse Vec."""
    d = v.module.d
    assert all(j < d for vec in v.data.values() for j in vec)
    return {s * d + j: x for s, m in enumerate(v.module.window.slices())
            for j, x in v.data.get(m, {}).items()}


def reference_act(x, v):
    """The action term by term, straight from the formula: each term of
    x on each source slice, psi(b) read per term and the dense E_ji per
    entry.  Raises OutOfWindowError on any single term that leaves the
    window."""
    from loopwitt.scalars import ZERO
    from loopwitt.tensmod import OutOfWindowError
    module = v.module
    if x.n != module.n:
        raise ValueError("rank mismatch")
    if x.pres != module.pres:
        raise ValueError("B presentation mismatch")
    rep = module.rep
    acc = {}

    def put(m, vec):
        if not any(vec.values()):
            return
        if not module.window.contains(m):
            raise OutOfWindowError(f"action leaves the window at {m}")
        out = acc.setdefault(m, {})
        for j, c in vec.items():
            out[j] = out.get(j, ZERO) + c

    d = module.d
    for (kind, i, r), b in x.terms.items():
        pb = b.psi()
        if not pb:
            continue
        for m, vec in v.data.items():
            target = tuple(a + b2 for a, b2 in zip(m, r))
            if kind == "t":
                put(target, {j: pb * c for j, c in vec.items()})
                continue
            scal = pb * (module.alpha[i - 1] + m[i - 1])
            out = {j: scal * c for j, c in vec.items()}
            for j in range(1, module.n + 1):
                rj = r[j - 1]
                if not rj:
                    continue
                mat = rep.E(j, i)
                # entry idx is coordinate k of column idx // d
                for idx, c in vec.items():
                    k = idx % d
                    w = pb * rj * c
                    for row in range(d):
                        e = mat[row][k]
                        if e:
                            key = idx - k + row
                            out[key] = out.get(key, ZERO) + e * w
            put(target, out)
    return mod_vector(module, acc)


def as_operator(family, spec, module):
    """The operator of ``family`` on module vectors: the terms of the
    table of (spec, spec) summed."""
    from loopwitt.opcheck import OperatorTable
    from loopwitt.tensmod import signed_sum
    table = OperatorTable(spec, spec, module)
    return lambda v: signed_sum(module, table.terms(family, v))


def reference_evaluated(spec, module):
    """The evaluated operator Q(u,r,b1,b2) = psi(b1) D(u,r)b2 - D(u,0)b1b2
    as two actions, a scale and a subtraction: the oracle of
    as_operator("evaluated"), which acts once with one loop element."""
    from loopwitt.loop import LoopElem
    from loopwitt.tensmod import act
    n, pres = module.n, module.pres
    d_elem = LoopElem.d_vec(n, pres, spec.u, spec.r, spec.b2)
    zero_mode = LoopElem.d_vec(n, pres, spec.u, (0,) * n, spec.b1 * spec.b2)
    p1 = spec.b1.psi()
    return lambda v: act(d_elem, v).scale(p1) - act(zero_mode, v)


def reference_block(op, module, m):
    """op applied to each basis vector of slice m, one call per column,
    the images put together as one block: the oracle of op applied once
    to module.basis_block(m)."""
    d = module.d
    data = {}
    for k in range(d):
        for p, vec in op(module.basis_vector(m, k)).data.items():
            data.setdefault(p, {}).update(
                (k * d + j, x) for j, x in vec.items())
    return mod_vector(module, data)


def reference_preserves_differences(spec, module):
    """The shift-difference sweep one slice at a time: the slice sums of
    the evaluated operator Q on the basis block of each interior slice
    m != 0 against those on the bottom slice's basis block.  By
    linearity this is Q(e_k t^m - e_k t^0) having slice sum zero for
    every k: the oracle of opcheck.evaluated_preserves_differences, which
    acts once on one block of all the differences."""
    op = as_operator("evaluated", spec, module)
    margin = tuple(abs(a) for a in spec.r)
    zero = (0,) * module.n
    bottom = op(module.basis_block(zero)).slice_sum()
    return all(op(module.basis_block(m)).slice_sum() == bottom
               for m in module.window.interior(margin) if m != zero)


def reference_slice_sum(v):
    """The slice sum of a block, slice by slice: the Gaussian integers of
    every slice added onto slice 0 over v's denominator, then collected.
    The oracle of the folded signed sum, tensmod.signed_sum(..., fold=True),
    which adds each image onto slice 0 as it is made."""
    from loopwitt.tensmod import collect
    re, im = {}, {}
    for vr, vi in v.ints.values():
        for j, y in vr.items():
            re[j] = re.get(j, 0) + y
        for j, y in vi.items():
            im[j] = im.get(j, 0) + y
    return collect(v.module, {v.den: {(0,) * v.module.n: (re, im)}})


def reference_op_matrix(op, module, m):
    """Columns of op applied to each basis vector of slice m, one call
    per column: the oracle of tensmod.op_matrix, which applies op once
    to the slice's basis block.  An image off slice m raises
    OutOfWindowError."""
    from loopwitt.tensmod import OutOfWindowError
    out = []
    for k in range(module.d):
        w = op(module.basis_vector(m, k))
        if set(w.data) - {m}:
            raise OutOfWindowError(f"operator maps slice {m} elsewhere")
        out.append(sorted(w.data.get(m, {}).items()))
    return out


def block_column(v, k):
    """Column k of a block of module vectors, as a module vector."""
    d = v.module.d
    return mod_vector(v.module, {m: {j - k * d: x for j, x in vec.items()
                                     if j // d == k}
                                 for m, vec in v.data.items()})


# -- the residuals in ModVector arithmetic --------------------------------
#
# Every residual below is built the way tensmod and opcheck built it
# before their signed sums: each action a separate ModVector, from
# reference_act, combined by ModVector +, - and scale.  They are the
# oracles of the signed-sum residuals.


def reference_module_axiom(x, y, v):
    """[x,y] . v - x . (y . v) + y . (x . v)."""
    act = reference_act
    return (act(reference_bracket(x, y), v) - act(x, act(y, v))
            + act(y, act(x, v)))


def reference_assoc_unital(r, s, b, b2, v):
    """t^r b . (t^s b2 . v) - t^(r+s) b b2 . v, and t^0 . v - v."""
    from loopwitt.loop import LoopElem
    act = reference_act
    module = v.module
    n, pres = module.n, module.pres
    rs = tuple(a + c for a, c in zip(r, s))
    assoc = (act(LoopElem.t_part(n, pres, r, b),
                 act(LoopElem.t_part(n, pres, s, b2), v))
             - act(LoopElem.t_part(n, pres, rs, b * b2), v))
    unit = act(LoopElem.t_part(n, pres, (0,) * n), v) - v
    return assoc, unit


def doubled_off_diagonal(rep):
    """rep with every off-diagonal E_ij doubled: no representation for
    n >= 2, so the identities give nonzero residuals on it."""
    return changed_irrep(rep, lambda i, j, m: m if i == j else mat_add(m, m))


def reference_operator(family, spec, module):
    """The product, reduced or evaluated operator as separate actions:
    P = t^(-r) b1 . (D(u,r)b2 . v), R = P - D(u,0)b1b2 . v and
    Q = psi(b1) D(u,r)b2 . v - D(u,0)b1b2 . v."""
    from loopwitt.loop import LoopElem
    act = reference_act
    n, pres = module.n, module.pres
    d_elem = LoopElem.d_vec(n, pres, spec.u, spec.r, spec.b2)
    zero_mode = LoopElem.d_vec(n, pres, spec.u, (0,) * n, spec.b1 * spec.b2)
    shift_back = LoopElem.t_part(n, pres, tuple(-a for a in spec.r), spec.b1)
    if family == "evaluated":
        return lambda v: (act(d_elem, v).scale(spec.b1.psi())
                          - act(zero_mode, v))
    if family == "product":
        return lambda v: act(shift_back, act(d_elem, v))
    return lambda v: act(shift_back, act(d_elem, v)) - act(zero_mode, v)


# The scaled-product row as BRACKET_ROWS held it before it read the
# case's own table: the pair rows' X placements and every Y at
# (b1 b3, b2 b4).  On the pair ((u2,r2,1,b1), (u1,r1,1,b2)) of a case
# ((u1,r1,b1,b2), (u2,r2,b3,b4)) it is [P(u2,r2,1,b1), P(u1,r1,1,b2)]
# with every Y at (1, b1 b2).
OLD_SCALED_ROW = ("product", "product", (("1", "2"), ("3", "4")),
                  (("13", "24"),) * 3)


def reference_bracket_identity(row, s1, s2, module):
    """[X(u1,r1), X(u2,r2)] - Y(w, r1+r2) + (u1,r2) Y(u2,r2)
    - (u2,r1) Y(u1,r1) on the bottom slice, one basis vector at a time,
    for the row of BRACKET_ROWS named ``row``, or the row ``row`` itself:
    digit k of a placement is b_k of (s1, s2), and digit "0" is 1."""
    from functools import reduce
    from operator import mul
    from loopwitt.opcheck import BRACKET_ROWS, OpSpec
    from loopwitt.scalars import ZERO
    if isinstance(row, str):
        row = BRACKET_ROWS[row]
    x_family, y_family, x_places, y_places = row

    def pair(u, s):
        return sum((a * b for a, b in zip(u, s)), ZERO)

    c12, c21 = pair(s1.u, s2.r), pair(s2.u, s1.r)
    w = tuple(c12 * b - c21 * a for a, b in zip(s1.u, s2.u))
    rs = tuple(a + b for a, b in zip(s1.r, s2.r))
    bs = {"0": module.pres.one(), "1": s1.b1, "2": s1.b2, "3": s2.b1,
          "4": s2.b2}

    def operator(family, u, r, places):
        b1, b2 = (reduce(mul, (bs[k] for k in p)) for p in places)
        return reference_operator(family, OpSpec(u, r, b1, b2), module)

    x1, x2 = (operator(x_family, s.u, s.r, p)
              for s, p in zip((s1, s2), x_places))
    ys = [(c, operator(y_family, u, r, places))
          for (c, u, r), places in zip(
              [(-1, w, rs), (c12, s2.u, s2.r), (-c21, s1.u, s1.r)],
              y_places)]

    def residual(v):
        out = x1(x2(v)) - x2(x1(v))
        for c, y in ys:
            out = out + y(v).scale(c)
        return out

    return reference_block(residual, module, (0,) * module.n)
