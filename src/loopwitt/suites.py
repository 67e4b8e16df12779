"""Suite orchestration: configuration, deterministic sampling, reports.

Each suite runner takes a RunConfig, runs its checks under the
configured seed and returns its case count and failures; run_suites
times each runner and wraps the result in an IdentityReport.  All
sampling goes through one random.Random instance seeded per suite, so
identical configs produce identical reports (up to the wall-time field).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from . import opcheck
from .coeff import BElem, BPresentation
from .glnrep import (DIM_CAP, Irrep, build_irrep, burnside_dim,
                     highest_weight_theta, norton_irreducible, weyl_dim)
from .linalg import IntVec, null_space
from .loop import (Degree, Key, LoopElem, bracket_sum,
                   diff_derivation_bracket_residual,
                   poly_derivation_bracket_residual)
from .parsing import format_loop_elem
from .scalars import GaussRat, parse_gauss
# act is unused here; perfbench's test checks its trace wrapper binds here
from .tensmod import (WINDOW_CAP, ModVector, TensorModule, Window,
                      act,  # noqa: F401
                      assoc_unital_residuals, collect,
                      module_axiom_residual, op_matrix)


class ConfigError(ValueError):
    pass


# bound on |r_i| of every degree the module suites sample
SHIFT_BOUND = 1

# Smallest window radius each suite runs in.  module-axiom and
# assoc-unital move a vector by two sampled degrees r and s, and the
# operator suite composes two operators of such degrees, so each needs
# room for |r_i| + |s_i| <= 2 * SHIFT_BOUND.  rank-one (n = 1 only)
# reaches degree -4 in its commutation check and keeps its bound of 5.
MIN_RADIUS = {
    "bracket-soundness": 1,
    "gl-relations": 1,
    "module-axiom": 2 * SHIFT_BOUND,
    "assoc-unital": 2 * SHIFT_BOUND,
    "operator-suite": 2 * SHIFT_BOUND,
    "rank-one": 5,
    "irreducibility": 1,
}


# Bound on ((2R+1)^n - 1) d^2, the size of the operator suite's
# shift-difference sweep at margin 0: Q acts at once on d columns for
# each interior slice, and each column's folded slice sum holds up to d
# entries.  The sweep's peak memory grows with it: 382 MB at n = 4,
# mu = (1, 1, 1), radius 4 (26.9 million); radius 7 (207 million) ran
# out of a 3 GB address space before the fold.  n = 6, mu = (1, 0, 0, 0,
# 0), radius 4 (19.1 million) peaks at 1.2 GB, as a third of each d^2
# group is nonzero at d = 6, 6 % at d = 64, and the block adds its
# per-slice dicts (peak RSS of the run, 2-core Xeon VM, Python 3.11.7).
SWEEP_CAP = 3 * 10 ** 7


def _window_ruled_out(n: int, radius: int) -> Optional[str]:
    """Why the window of this radius cannot be built at rank n, or None.
    Its (2R+1)^n slices are counted one factor at a time, 2R+1 >= 3, so
    a rank above 12 is refused after at most 13 products."""
    if radius < 1:
        return "window_radius must be >= 1"
    slices = 1
    for _ in range(n):
        slices *= 2 * radius + 1
        if slices > WINDOW_CAP:
            return (f"window_radius {radius} at n = {n} gives (2R+1)^n "
                    f"slices, above the cap {WINDOW_CAP}")
    return None


def _ruled_out(suite: str, n: int, radius: int, d: int) -> Optional[str]:
    """Why the suite cannot run at rank n and dimension d in this window,
    or None."""
    if radius < MIN_RADIUS[suite]:
        return f"{suite} suite requires window_radius >= {MIN_RADIUS[suite]}"
    if suite == "rank-one" and n != 1:
        return "rank-one suite requires n = 1"
    sweep = ((2 * radius + 1) ** n - 1) * d * d
    if suite == "operator-suite" and sweep > SWEEP_CAP:
        return (f"operator-suite at n = {n}, d = {d}, window_radius "
                f"{radius} sweeps ((2R+1)^n - 1) d^2 = {sweep} entries, "
                f"above the cap {SWEEP_CAP}")
    return None


@dataclass
class RunConfig:
    n: int = 2
    mu: Tuple[int, ...] = (1,)
    c: GaussRat = field(default_factory=lambda: GaussRat(1))
    alpha: Tuple[GaussRat, ...] = ()
    bpres: BPresentation = field(default_factory=lambda: BPresentation("trivial"))
    window_radius: int = 3
    seed: int = 42
    suites: Tuple[str, ...] = ()
    cases_per_suite: int = 200
    # (mu, c, n) and its irrep, built on first use; dataclasses.replace
    # starts the copy without one
    _irrep: Optional[Tuple] = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("rank n must be >= 1")
        if len(self.mu) != self.n - 1:
            raise ConfigError("mu must have length n-1")
        if any(m < 0 for m in self.mu):
            raise ConfigError("mu entries must be nonnegative")
        # the window cap bounds n by 12 (3^13 > WINDOW_CAP), in at most
        # 13 products, before the Weyl formula's O(n^2) products run;
        # from_dict checks it before it builds the default mu
        if reason := _window_ruled_out(self.n, self.window_radius):
            raise ConfigError(reason)
        d = weyl_dim(self.mu, self.n)
        if d > DIM_CAP:
            raise ConfigError(f"mu {list(self.mu)} gives dimension {d}, "
                              f"above the cap {DIM_CAP}")
        if not self.alpha:
            self.alpha = tuple(GaussRat(Fraction(1, 2)) for _ in range(self.n))
        if len(self.alpha) != self.n:
            raise ConfigError("alpha must have length n")
        if not self.suites:
            self.suites = tuple(self.default_suites())
        for s in self.suites:
            if s not in RUNNERS:
                raise ConfigError(f"unknown suite {s!r}")
            if reason := _ruled_out(s, self.n, self.window_radius, d):
                raise ConfigError(reason)
        if self.cases_per_suite < 1:
            raise ConfigError("cases_per_suite must be >= 1")

    def default_suites(self) -> List[str]:
        """Every suite the rank, the dimension and the window radius
        allow."""
        d = weyl_dim(self.mu, self.n)
        return [s for s in RUNNERS
                if _ruled_out(s, self.n, self.window_radius, d) is None]

    # -- serialization ------------------------------------------------

    @staticmethod
    def from_dict(doc: Dict) -> "RunConfig":
        b = doc.get("B", {}) if isinstance(doc, dict) else None
        if not isinstance(b, dict):
            raise ConfigError("the config and its 'B' must be JSON objects")
        for obj, key in ((doc, "mu"), (doc, "alpha"), (doc, "suites"),
                         (b, "modulus")):
            if not isinstance(obj.get(key, []), list):
                raise ConfigError(f"{key!r} must be a JSON array")
        ints = [(k, doc[k]) for k in ("n", "window_radius", "seed",
                                      "cases_per_suite") if k in doc]
        for key, x in ints + [("mu", x) for x in doc.get("mu", [])]:
            if type(x) is not int:  # JSON true and false load as bool
                raise ConfigError(f"{key!r} must hold JSON integers, "
                                  f"got {json.dumps(x)}")
        try:
            n = doc.get("n", 2)
            radius = doc.get("window_radius", 3)
            # bounds n before mu's default of n - 1 ones is built
            if reason := _window_ruled_out(n, radius):
                raise ConfigError(reason)
            mu = tuple(doc.get("mu", [1] * max(0, n - 1)))
            c = parse_gauss(str(doc.get("c", "1/1")))
            alpha = tuple(parse_gauss(str(a)) for a in doc.get("alpha", []))
            kind = b.get("kind", "trivial")
            modulus = ([parse_gauss(str(x)) for x in b["modulus"]]
                       if "modulus" in b else None)
            eval_point = (parse_gauss(str(b["eval_point"]))
                          if "eval_point" in b else None)
            pres = BPresentation(kind, modulus=modulus, eval_point=eval_point)
            return RunConfig(
                n=n, mu=mu, c=c, alpha=alpha, bpres=pres,
                window_radius=radius,
                seed=doc.get("seed", 42),
                suites=tuple(doc.get("suites", [])),
                cases_per_suite=doc.get("cases_per_suite", 200),
            )
        except ConfigError:
            raise
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> Dict:
        b: Dict = {"kind": self.bpres.kind}
        if self.bpres.modulus is not None:
            b["modulus"] = [str(x) for x in self.bpres.modulus]
        if self.bpres.kind != "trivial":
            b["eval_point"] = str(self.bpres.eval_point)
        return {
            "n": self.n,
            "mu": list(self.mu),
            "c": str(self.c),
            "alpha": [str(a) for a in self.alpha],
            "B": b,
            "window_radius": self.window_radius,
            "seed": self.seed,
            "suites": list(self.suites),
            "cases_per_suite": self.cases_per_suite,
        }

    # -- derived objects ----------------------------------------------

    def irrep(self) -> Irrep:
        """V(mu, c), built once through this module's build_irrep binding
        and shared by every suite of the config."""
        key = (self.mu, self.c, self.n)
        if self._irrep is None or self._irrep[0] != key:
            self._irrep = (key, build_irrep(*key))
        return self._irrep[1]

    def build_module(self) -> TensorModule:
        return TensorModule(self.irrep(), self.alpha, self.bpres,
                            Window(self.n, self.window_radius))


@dataclass
class IdentityReport:
    suite: str
    config: Dict
    cases: int
    failures: List[Dict]
    seed: int
    wall_time: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict:
        return {"suite": self.suite, "config": self.config,
                "cases": self.cases, "failures": self.failures,
                "seed": self.seed, "wall_time": self.wall_time}


# -- deterministic sampling -------------------------------------------


_SCALAR_POOL = [GaussRat(1), GaussRat(-1), GaussRat(2),
                GaussRat(Fraction(1, 2)), GaussRat(0, 1)]


def coefficient_pool(pres: BPresentation) -> List[BElem]:
    """Small pool of B elements covering units and ideal members."""
    if pres.kind == "trivial":
        return [pres.one(), pres.from_scalar(GaussRat(2)),
                pres.from_scalar(GaussRat(-1)),
                pres.from_scalar(GaussRat(Fraction(1, 2))),
                pres.from_scalar(GaussRat(0, 1))]
    x = pres.generator()
    a = pres.from_scalar(pres.eval_point)
    pool = [pres.one(), x, x - a, x * x,
            x * pres.from_scalar(GaussRat(2)) + pres.one()]
    if pres.kind == "laurent":
        pool.append(pres.from_poly({-1: GaussRat(1)}))
    return pool


# Every draw is rng.choice(seq), which is seq[_randbelow(len(seq))]: the
# draw of seq[rng.randrange(len(seq))], and with seq = range(a, b + 1) the
# draw of rng.randint(a, b).  Reports at a fixed seed depend on these
# streams; tests/test_suites.py pins their first draws.


def sample_b(rng: random.Random, pool: Sequence[BElem]) -> BElem:
    return rng.choice(pool)


def sample_u(rng: random.Random, n: int) -> Tuple[GaussRat, ...]:
    while True:
        u = tuple(rng.choice(_SCALAR_POOL) for _ in range(n))
        if any(u):
            return u


def sample_deg(rng: random.Random, n: int, bound: int) -> Tuple[int, ...]:
    shifts = range(-bound, bound + 1)
    return tuple(rng.choice(shifts) for _ in range(n))


def sample_loop_elem(rng: random.Random, n: int, pres: BPresentation,
                     pool: Sequence[BElem]) -> LoopElem:
    """One to three terms, each of degree |r_i| <= 3, added in one dict;
    a key whose coefficients cancel is dropped, and drawn again it goes
    last."""
    terms: Dict[Key, BElem] = {}
    for _ in range(rng.choice((1, 2, 3))):
        deg = sample_deg(rng, n, 3)
        b = sample_b(rng, pool)
        if rng.random() < 0.5:
            key = ("t", 0, deg)
        else:
            key = ("d", rng.choice(range(1, n + 1)), deg)
        b = terms[key] + b if key in terms else b
        if b.is_zero():
            terms.pop(key, None)
        else:
            terms[key] = b
    return LoopElem(n, pres, terms)


def sample_homogeneous(rng: random.Random, n: int, pres: BPresentation,
                       pool: Sequence[BElem]
                       ) -> Tuple[LoopElem, Tuple[int, ...]]:
    deg = sample_deg(rng, n, SHIFT_BOUND)
    b = sample_b(rng, pool)
    if rng.random() < 0.4:
        return LoopElem.t_part(n, pres, deg, b), deg
    return LoopElem.d_part(n, pres, rng.randint(1, n), deg, b), deg


# twice each scalar of _SCALAR_POOL, in its place, as a Gaussian integer
# (re, im): every denominator in the pool divides 2
_DOUBLED_POOL = [(2 * a // q, 2 * b // q)
                 for a, b, q in (x.parts() for x in _SCALAR_POOL)]


def sample_interior_vector(rng: random.Random, module: TensorModule,
                           margin: Sequence[int]) -> ModVector:
    """One column on one or two slices of window.interior(margin), each
    slice's d coordinates drawn from _SCALAR_POOL and a slice drawn twice
    holding the sum.  Each coordinate is drawn by its index, as twice
    the scalar from _DOUBLED_POOL, so the block is collected over 2."""
    window = module.window
    sums: Dict[Degree, IntVec] = {}
    for _ in range(rng.choice((1, 2))):
        m = window.interior_slice(
            margin, rng.choice(range(window.interior_count(margin))))
        re, im = sums.setdefault(m, ({}, {}))
        for k in range(module.d):
            a, b = rng.choice(_DOUBLED_POOL)
            re[k] = re.get(k, 0) + a
            im[k] = im.get(k, 0) + b
    return collect(module, {2: sums})


# -- suite runners ----------------------------------------------------

Outcome = Tuple[int, List[Dict]]  # the case count and the failures of a run


def run_bracket_soundness(cfg: RunConfig) -> Outcome:
    rng = random.Random(cfg.seed)
    pool = coefficient_pool(cfg.bpres)
    failures = []
    for case in range(cfg.cases_per_suite):
        x = sample_loop_elem(rng, cfg.n, cfg.bpres, pool)
        y = sample_loop_elem(rng, cfg.n, cfg.bpres, pool)
        z = sample_loop_elem(rng, cfg.n, cfg.bpres, pool)
        xy = x.bracket(y)
        anti = bracket_sum([(y, x)], xy)
        jac = x.jacobi_residual(y, z, xy)
        if not anti.is_zero():
            failures.append({"case": case, "check": "antisymmetry",
                             "witness": format_loop_elem(anti)})
        if not jac.is_zero():
            failures.append({"case": case, "check": "jacobi",
                             "witness": format_loop_elem(jac)})
    return cfg.cases_per_suite, failures


def run_gl_relations(cfg: RunConfig) -> Outcome:
    """The n^4 commutation relations, one case each, then the Weyl
    dimension, the identity scalar, irreducibility and the highest
    weight.  The (k, l, i, j) relation residual is minus the (i, j, k, l)
    one, so the (i, j, i, j) residual is zero for any matrices and each
    pair of distinct generators is evaluated once; a nonzero residual
    fails both orders, reported in lexicographic order of (i, j, k, l).
    Norton's test spins under the E_ij themselves, which are already
    weight-homogeneous, as the D E_ij of the irrep's integer view, and
    Burnside, when Norton does not certify, multiplies the same D E_ij."""
    rep = cfg.irrep()
    rng4 = range(1, cfg.n + 1)
    gens = list(product(rng4, rng4))
    failed = set()
    for a, p in enumerate(gens):
        for q in gens[a + 1:]:
            if rep.relation_residual(*p, *q):
                failed |= {p + q, q + p}
    failures = [{"check": "gl-relation", "indices": list(p + q)}
                for p in gens for q in gens if p + q in failed]
    cases = len(gens) ** 2
    cases += 1
    if rep.d != weyl_dim(cfg.mu, cfg.n):
        failures.append({"check": "weyl-dimension", "got": rep.d})
    cases += 1
    want = {(k, k): cfg.c for k in range(rep.d)} if cfg.c else {}
    if rep.trace_part() != want:
        failures.append({"check": "identity-scalar"})
    cases += 1
    den, ints = rep.int_view()
    mats = [ints[i - 1][j - 1] for i, j in gens]
    _, theta = highest_weight_theta([(den, ints[k][k]) for k in range(cfg.n)],
                                    rep.hw_index)
    bd = (rep.d * rep.d if norton_irreducible(mats, theta)
          else burnside_dim(mats))
    if bd != rep.d * rep.d:
        failures.append({"check": "burnside", "got": bd,
                         "want": rep.d * rep.d})
    cases += 1
    for i in range(1, cfg.n):
        re, im = ints[i - 1][i]
        if re[rep.hw_index] or im and im[rep.hw_index]:
            failures.append({"check": "highest-weight", "raising": i})
    return cases, failures


def run_module_axiom(cfg: RunConfig) -> Outcome:
    rng = random.Random(cfg.seed + 1)
    pool = coefficient_pool(cfg.bpres)
    module = cfg.build_module()
    failures = []
    for case in range(cfg.cases_per_suite):
        x, r = sample_homogeneous(rng, cfg.n, cfg.bpres, pool)
        y, s = sample_homogeneous(rng, cfg.n, cfg.bpres, pool)
        margin = tuple(abs(a) + abs(b) for a, b in zip(r, s))
        v = sample_interior_vector(rng, module, margin)
        res = module_axiom_residual(x, y, v)
        if not res.is_zero():
            failures.append({"case": case, "check": "module-axiom",
                             "x": format_loop_elem(x),
                             "y": format_loop_elem(y)})
    return cfg.cases_per_suite, failures


def run_assoc_unital(cfg: RunConfig) -> Outcome:
    rng = random.Random(cfg.seed + 2)
    pool = coefficient_pool(cfg.bpres)
    module = cfg.build_module()
    failures = []
    for case in range(cfg.cases_per_suite):
        r = sample_deg(rng, cfg.n, SHIFT_BOUND)
        s = sample_deg(rng, cfg.n, SHIFT_BOUND)
        b = sample_b(rng, pool)
        b2 = sample_b(rng, pool)
        margin = tuple(abs(a) + abs(c) for a, c in zip(r, s))
        v = sample_interior_vector(rng, module, margin)
        assoc, unit = assoc_unital_residuals(r, s, b, b2, v)
        if not assoc.is_zero():
            failures.append({"case": case, "check": "associativity"})
        if not unit.is_zero():
            failures.append({"case": case, "check": "unit"})
    return cfg.cases_per_suite, failures


def run_operator_suite(cfg: RunConfig) -> Outcome:
    rng = random.Random(cfg.seed + 3)
    pool = coefficient_pool(cfg.bpres)
    module = cfg.build_module()
    failures = []
    cases = 0

    def record(check: str, res: ModVector, case: int):
        if not res.is_zero():
            failures.append({"case": case, "check": check})

    for case in range(cfg.cases_per_suite):
        u = sample_u(rng, cfg.n)
        v = sample_u(rng, cfg.n)
        r = sample_deg(rng, cfg.n, SHIFT_BOUND)
        s = sample_deg(rng, cfg.n, SHIFT_BOUND)
        b1, b2, b3, b4 = (sample_b(rng, pool) for _ in range(4))
        # every check of the case reads its elements from its pair's table
        table = opcheck.OperatorTable(opcheck.OpSpec(u, r, b1, b2),
                                      opcheck.OpSpec(v, s, b3, b4), module)
        record("product-bracket",
               opcheck.product_bracket_residual(table), case)
        record("reduced-bracket",
               opcheck.reduced_bracket_residual(table), case)
        record("evaluated-bracket",
               opcheck.evaluated_bracket_residual(table), case)
        record("product-to-reduced",
               opcheck.product_to_reduced_residual(table), case)
        record("scaled-product-bracket",
               opcheck.scaled_product_bracket_residual(table), case)
        record("zero-mode-scalar",
               opcheck.zero_mode_scalar_residual(table), case)
        record("coefficient-collapse",
               opcheck.coefficient_collapse_residual(table), case)
        cases += 7

    # subspace-level checks on a smaller sample; the bottom slice must
    # map onto the d-dimensional quotient by the shift differences
    cases += 1
    zero = (0,) * cfg.n
    _, image = op_matrix(lambda v: v.slice_sum(), module, zero)
    got = module.d - len(null_space(image, module.d))
    if got != module.d:
        failures.append({"check": "difference-codimension", "got": got})
    # the sweep and the intertwining share each sampled spec's table
    specs = (opcheck.OpSpec(sample_u(rng, cfg.n),
                            sample_deg(rng, cfg.n, SHIFT_BOUND),
                            sample_b(rng, pool), sample_b(rng, pool))
             for _ in range(5))
    tables = [opcheck.OperatorTable(spec, spec, module) for spec in specs]
    for k, table in enumerate(tables):
        cases += 1
        if not opcheck.evaluated_preserves_differences(table):
            failures.append({"check": "difference-submodule", "spec": k})
    cases += 1
    if not opcheck.quotient_intertwining_check(tables):
        failures.append({"check": "quotient-intertwiner"})
    return cases, failures


def run_rank_one(cfg: RunConfig) -> Outcome:
    failures = []
    cases = 0
    pres = cfg.bpres
    for r in range(-5, 6):
        for s in range(-5, 6):
            cases += 1
            if not diff_derivation_bracket_residual(pres, r, s).is_zero():
                failures.append({"check": "shift-derivation-bracket",
                                 "r": r, "s": s})
    for k in range(5):
        for l in range(5):
            for i in range(-3, 4):
                for j in range(-3, 4):
                    cases += 1
                    if not poly_derivation_bracket_residual(
                            pres, k, l, i, j).is_zero():
                        failures.append({"check": "poly-derivation-bracket",
                                         "k": k, "l": l, "i": i, "j": j})
    module = cfg.build_module()
    for msg in opcheck.rank_one_scalar_shift_check(module):
        failures.append({"check": "scalar-shift", "witness": msg})
    cases += 7
    for msg in opcheck.rank_one_commutation_check(module):
        failures.append({"check": "commutation", "witness": msg})
    cases += 9
    for msg in opcheck.rank_one_quotient_annihilation_check(module):
        failures.append({"check": "quotient-annihilation", "witness": msg})
    cases += 3
    return cases, failures


def run_irreducibility(cfg: RunConfig) -> Outcome:
    failures = []
    module = cfg.build_module()
    dim = opcheck.bottom_slice_algebra_dim(module)
    if dim != module.d ** 2:
        failures.append({"check": "bottom-slice-burnside", "got": dim,
                         "want": module.d ** 2})
    return 1, failures


# every suite, in the order a config without "suites" runs them
RUNNERS = {
    "bracket-soundness": run_bracket_soundness,
    "gl-relations": run_gl_relations,
    "module-axiom": run_module_axiom,
    "assoc-unital": run_assoc_unital,
    "operator-suite": run_operator_suite,
    "rank-one": run_rank_one,
    "irreducibility": run_irreducibility,
}


def run_suites(cfg: RunConfig) -> List[IdentityReport]:
    """Run the configured suites, which RunConfig has validated, and
    report each with the wall time of its runner; the reports share one
    config dict."""
    config = cfg.to_dict()
    reports = []
    for name in cfg.suites:
        t0 = time.perf_counter()
        cases, failures = RUNNERS[name](cfg)
        reports.append(IdentityReport(name, config, cases, failures,
                                      cfg.seed, time.perf_counter() - t0))
    return reports
