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
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import chain, product
from typing import Dict, List, Optional, Sequence, Tuple

from . import opcheck
from .coeff import BElem, BPresentation
from .glnrep import (DIM_CAP, build_irrep, burnside_dim, highest_weight_theta,
                     norton_irreducible, weyl_dim)
from .linalg import SpanBasis, sparse_sum, to_columns
from .loop import (LoopElem, diff_derivation_bracket_residual,
                   poly_derivation_bracket_residual)
from .parsing import format_loop_elem
from .scalars import GaussRat, parse_gauss
# act is unused here; perfbench's test checks its trace wrapper binds here
from .tensmod import (WINDOW_CAP, ModVector, TensorModule, Window,
                      act,  # noqa: F401
                      assoc_unital_residuals, module_axiom_residual)


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


def _ruled_out(suite: str, n: int, radius: int) -> Optional[str]:
    """Why the suite cannot run at rank n in this window, or None."""
    if radius < MIN_RADIUS[suite]:
        return f"{suite} suite requires window_radius >= {MIN_RADIUS[suite]}"
    if suite == "rank-one" and n != 1:
        return "rank-one suite requires n = 1"
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

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("rank n must be >= 1")
        if len(self.mu) != self.n - 1:
            raise ConfigError("mu must have length n-1")
        if any(m < 0 for m in self.mu):
            raise ConfigError("mu entries must be nonnegative")
        d = weyl_dim(self.mu, self.n)
        if d > DIM_CAP:
            raise ConfigError(f"mu {list(self.mu)} gives dimension {d}, "
                              f"above the cap {DIM_CAP}")
        if not self.alpha:
            self.alpha = tuple(GaussRat(Fraction(1, 2)) for _ in range(self.n))
        if len(self.alpha) != self.n:
            raise ConfigError("alpha must have length n")
        if self.window_radius < 1:
            raise ConfigError("window_radius must be >= 1")
        if (2 * self.window_radius + 1) ** self.n > WINDOW_CAP:
            raise ConfigError(f"window_radius {self.window_radius} at n = "
                              f"{self.n} gives (2R+1)^n slices, above the "
                              f"cap {WINDOW_CAP}")
        if not self.suites:
            self.suites = tuple(self.default_suites())
        for s in self.suites:
            if s not in RUNNERS:
                raise ConfigError(f"unknown suite {s!r}")
            if reason := _ruled_out(s, self.n, self.window_radius):
                raise ConfigError(reason)
        if self.cases_per_suite < 1:
            raise ConfigError("cases_per_suite must be >= 1")

    def default_suites(self) -> List[str]:
        """Every suite the rank and the window radius allow."""
        return [s for s in RUNNERS
                if _ruled_out(s, self.n, self.window_radius) is None]

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
                window_radius=doc.get("window_radius", 3),
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

    def build_module(self) -> TensorModule:
        rep = build_irrep(self.mu, self.c, self.n)
        return TensorModule(rep, self.alpha, self.bpres,
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
        return asdict(self)


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


def sample_b(rng: random.Random, pool: Sequence[BElem]) -> BElem:
    return pool[rng.randrange(len(pool))]


def sample_u(rng: random.Random, n: int) -> Tuple[GaussRat, ...]:
    while True:
        u = tuple(_SCALAR_POOL[rng.randrange(len(_SCALAR_POOL))]
                  for _ in range(n))
        if any(u):
            return u


def sample_deg(rng: random.Random, n: int, bound: int) -> Tuple[int, ...]:
    return tuple(rng.randint(-bound, bound) for _ in range(n))


def sample_loop_elem(rng: random.Random, n: int, pres: BPresentation,
                     pool: Sequence[BElem]) -> LoopElem:
    """One to three terms, each of degree |r_i| <= 3."""
    out = LoopElem.zero(n, pres)
    for _ in range(rng.randint(1, 3)):
        deg = sample_deg(rng, n, 3)
        b = sample_b(rng, pool)
        if rng.random() < 0.5:
            out = out + LoopElem.t_part(n, pres, deg, b)
        else:
            out = out + LoopElem.d_part(n, pres, rng.randint(1, n), deg, b)
    return out


def sample_homogeneous(rng: random.Random, n: int, pres: BPresentation,
                       pool: Sequence[BElem]
                       ) -> Tuple[LoopElem, Tuple[int, ...]]:
    deg = sample_deg(rng, n, SHIFT_BOUND)
    b = sample_b(rng, pool)
    if rng.random() < 0.4:
        return LoopElem.t_part(n, pres, deg, b), deg
    return LoopElem.d_part(n, pres, rng.randint(1, n), deg, b), deg


def sample_interior_vector(rng: random.Random, module: TensorModule,
                           margin: Sequence[int]) -> ModVector:
    window = module.window
    data = {}
    for _ in range(rng.randint(1, 2)):
        m = window.interior_slice(
            margin, rng.randrange(window.interior_count(margin)))
        vec = [(k, _SCALAR_POOL[rng.randrange(len(_SCALAR_POOL))])
               for k in range(module.d)]
        data[m] = sparse_sum(chain(data.get(m, {}).items(), vec))
    return ModVector(module, data)


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
        anti = xy + y.bracket(x)
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
    one, so each unordered pair of generators is evaluated once and a
    nonzero residual fails both orders, reported in lexicographic order
    of (i, j, k, l).  Norton's test spins under the E_ij themselves,
    which are already weight-homogeneous."""
    rep = build_irrep(cfg.mu, cfg.c, cfg.n)
    rng4 = range(1, cfg.n + 1)
    gens = list(product(rng4, rng4))
    failed = set()
    for a, p in enumerate(gens):
        for q in gens[a:]:
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
    mats = [rep.columns(*g) for g in gens]
    theta = highest_weight_theta([rep.columns(i, i) for i in rng4],
                                 rep.hw_index)
    bd = (rep.d * rep.d if norton_irreducible(mats, theta)
          else burnside_dim([rep.E(*g) for g in gens]))
    if bd != rep.d * rep.d:
        failures.append({"check": "burnside", "got": bd,
                         "want": rep.d * rep.d})
    cases += 1
    for i in range(1, cfg.n):
        if rep.columns(i, i + 1)[rep.hw_index]:
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

    def record(check: str, cols, case: int):
        if any(cols):
            failures.append({"case": case, "check": check})

    for case in range(cfg.cases_per_suite):
        u = sample_u(rng, cfg.n)
        v = sample_u(rng, cfg.n)
        r = sample_deg(rng, cfg.n, SHIFT_BOUND)
        s = sample_deg(rng, cfg.n, SHIFT_BOUND)
        b1, b2, b3, b4 = (sample_b(rng, pool) for _ in range(4))
        s1 = opcheck.OpSpec(u, r, b1, b2)
        s2 = opcheck.OpSpec(v, s, b3, b4)
        record("product-bracket",
               opcheck.product_bracket_residual(s1, s2, module), case)
        record("reduced-bracket",
               opcheck.reduced_bracket_residual(s1, s2, module), case)
        record("evaluated-bracket",
               opcheck.evaluated_bracket_residual(s1, s2, module), case)
        record("product-to-reduced",
               opcheck.product_to_reduced_residual(s1, s2, module), case)
        record("scaled-product-bracket",
               opcheck.scaled_product_bracket_residual(
                   v, s, b1, u, r, b2, module), case)
        record("zero-mode-scalar",
               opcheck.zero_mode_scalar_residual(u, b1, module), case)
        record("coefficient-collapse",
               opcheck.coefficient_collapse_residual(u, r, b1, module), case)
        cases += 7

    # subspace-level checks on a smaller sample; the bottom slice must
    # map onto the d-dimensional quotient by the shift differences
    cases += 1
    d = module.d
    quotient = SpanBasis(d)
    sums = module.basis_block((0,) * cfg.n).slice_sum()
    for col in to_columns({(j % d, j // d): x for j, x in sums.items()}, d):
        quotient.insert(dict(col))
    if quotient.dim != module.d:
        failures.append({"check": "difference-codimension",
                         "got": quotient.dim})
    sub_specs = [opcheck.OpSpec(sample_u(rng, cfg.n),
                                sample_deg(rng, cfg.n, SHIFT_BOUND),
                                sample_b(rng, pool), sample_b(rng, pool))
                 for _ in range(5)]
    for k, spec in enumerate(sub_specs):
        cases += 1
        if not opcheck.evaluated_preserves_differences(spec, module):
            failures.append({"check": "difference-submodule", "spec": k})
    cases += 1
    if not opcheck.quotient_intertwining_check(sub_specs, module):
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
    report each with the wall time of its runner."""
    reports = []
    for name in cfg.suites:
        t0 = time.perf_counter()
        cases, failures = RUNNERS[name](cfg)
        reports.append(IdentityReport(name, cfg.to_dict(), cases, failures,
                                      cfg.seed, time.perf_counter() - t0))
    return reports
