"""Suite orchestration: configuration, deterministic sampling, reports.

Each suite takes a RunConfig, runs its checks under the configured seed
and returns an IdentityReport.  All sampling goes through one
random.Random instance seeded per suite, so identical configs produce
identical reports (up to the wall-time field).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import opcheck
from .coeff import BElem, BPresentation
from .glnrep import build_irrep, burnside_dim, weyl_dim
from .linalg import mat_is_zero
from .loop import (LoopElem, diff_derivation_bracket_residual,
                   poly_derivation_bracket_residual)
from .scalars import GaussRat, parse_gauss
# act is unused here; perfbench's test checks its trace wrapper binds here
from .tensmod import (ModVector, TensorModule, Window, act,  # noqa: F401
                      assoc_unital_residuals, module_axiom_residual)


class ConfigError(ValueError):
    pass


SUITE_NAMES = [
    "bracket-soundness",
    "gl-relations",
    "module-axiom",
    "assoc-unital",
    "operator-suite",
    "rank-one",
    "irreducibility",
]


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
        if not self.alpha:
            self.alpha = tuple(GaussRat(Fraction(1, 2)) for _ in range(self.n))
        if len(self.alpha) != self.n:
            raise ConfigError("alpha must have length n")
        if self.window_radius < 1:
            raise ConfigError("window_radius must be >= 1")
        if not self.suites:
            self.suites = tuple(self.default_suites())
        for s in self.suites:
            if s not in SUITE_NAMES:
                raise ConfigError(f"unknown suite {s!r}")
        if "rank-one" in self.suites:
            if self.n != 1:
                raise ConfigError("rank-one suite requires n = 1")
            if self.window_radius < 5:
                raise ConfigError("rank-one suite requires window_radius >= 5")
        if self.cases_per_suite < 1:
            raise ConfigError("cases_per_suite must be >= 1")

    def default_suites(self) -> List[str]:
        out = ["bracket-soundness", "gl-relations", "module-axiom",
               "assoc-unital", "operator-suite", "irreducibility"]
        if self.n == 1 and self.window_radius >= 5:
            out.insert(5, "rank-one")
        return out

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
        try:
            n = int(doc.get("n", 2))
            mu = tuple(int(x) for x in doc.get("mu", [1] * max(0, n - 1)))
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
                window_radius=int(doc.get("window_radius", 3)),
                seed=int(doc.get("seed", 42)),
                suites=tuple(doc.get("suites", [])),
                cases_per_suite=int(doc.get("cases_per_suite", 200)),
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
        return {
            "suite": self.suite,
            "config": self.config,
            "cases": self.cases,
            "failures": self.failures,
            "seed": self.seed,
            "wall_time": self.wall_time,
        }


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
                     pool: Sequence[BElem], max_terms: int = 3,
                     bound: int = 3) -> LoopElem:
    out = LoopElem.zero(n, pres)
    for _ in range(rng.randint(1, max_terms)):
        deg = sample_deg(rng, n, bound)
        b = sample_b(rng, pool)
        if rng.random() < 0.5:
            out = out + LoopElem.t_part(n, pres, deg, b)
        else:
            out = out + LoopElem.d_part(n, pres, rng.randint(1, n), deg, b)
    return out


def sample_homogeneous(rng: random.Random, n: int, pres: BPresentation,
                       pool: Sequence[BElem],
                       bound: int = 1) -> Tuple[LoopElem, Tuple[int, ...]]:
    deg = sample_deg(rng, n, bound)
    b = sample_b(rng, pool)
    if rng.random() < 0.4:
        return LoopElem.t_part(n, pres, deg, b), deg
    return LoopElem.d_part(n, pres, rng.randint(1, n), deg, b), deg


def sample_interior_vector(rng: random.Random, module: TensorModule,
                           margin: Sequence[int]) -> ModVector:
    interior = module.window.interior(tuple(margin))
    data = {}
    for _ in range(rng.randint(1, 2)):
        m = interior[rng.randrange(len(interior))]
        vec = [_SCALAR_POOL[rng.randrange(len(_SCALAR_POOL))]
               for _ in range(module.d)]
        data[m] = [a + b for a, b in zip(data.get(m, [GaussRat(0)] * module.d), vec)]
    return ModVector(module, data)


def _describe_loop(x: LoopElem) -> str:
    from .parsing import format_loop_elem
    return format_loop_elem(x)


# -- suite runners ----------------------------------------------------


def run_bracket_soundness(cfg: RunConfig) -> IdentityReport:
    t0 = time.perf_counter()
    rng = random.Random(cfg.seed)
    pool = coefficient_pool(cfg.bpres)
    failures = []
    for case in range(cfg.cases_per_suite):
        x = sample_loop_elem(rng, cfg.n, cfg.bpres, pool)
        y = sample_loop_elem(rng, cfg.n, cfg.bpres, pool)
        z = sample_loop_elem(rng, cfg.n, cfg.bpres, pool)
        anti = x.bracket(y) + y.bracket(x)
        jac = x.jacobi_residual(y, z)
        if not anti.is_zero():
            failures.append({"case": case, "check": "antisymmetry",
                             "witness": _describe_loop(anti)})
        if not jac.is_zero():
            failures.append({"case": case, "check": "jacobi",
                             "witness": _describe_loop(jac)})
    return IdentityReport("bracket-soundness", cfg.to_dict(),
                          cfg.cases_per_suite, failures, cfg.seed,
                          time.perf_counter() - t0)


def run_gl_relations(cfg: RunConfig) -> IdentityReport:
    t0 = time.perf_counter()
    failures = []
    rep = build_irrep(cfg.mu, cfg.c, cfg.n)
    cases = 0
    rng4 = range(1, cfg.n + 1)
    for i in rng4:
        for j in rng4:
            for k in rng4:
                for l in rng4:
                    cases += 1
                    if not mat_is_zero(rep.relation_residual(i, j, k, l)):
                        failures.append({"check": "gl-relation",
                                         "indices": [i, j, k, l]})
    cases += 1
    if rep.d != weyl_dim(cfg.mu, cfg.n):
        failures.append({"check": "weyl-dimension", "got": rep.d})
    cases += 1
    tp = rep.trace_part()
    want = [[cfg.c if i == j else GaussRat(0) for j in range(rep.d)]
            for i in range(rep.d)]
    if tp != want:
        failures.append({"check": "identity-scalar"})
    cases += 1
    bd = burnside_dim([rep.E(i, j) for i in rng4 for j in rng4])
    if bd != rep.d * rep.d:
        failures.append({"check": "burnside", "got": bd,
                         "want": rep.d * rep.d})
    cases += 1
    hw = rep.hw_index
    for i in range(1, cfg.n):
        col = [rep.E(i, i + 1)[row][hw] for row in range(rep.d)]
        if any(col):
            failures.append({"check": "highest-weight", "raising": i})
    return IdentityReport("gl-relations", cfg.to_dict(), cases, failures,
                          cfg.seed, time.perf_counter() - t0)


def run_module_axiom(cfg: RunConfig) -> IdentityReport:
    t0 = time.perf_counter()
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
                             "x": _describe_loop(x), "y": _describe_loop(y)})
    return IdentityReport("module-axiom", cfg.to_dict(), cfg.cases_per_suite,
                          failures, cfg.seed, time.perf_counter() - t0)


def run_assoc_unital(cfg: RunConfig) -> IdentityReport:
    t0 = time.perf_counter()
    rng = random.Random(cfg.seed + 2)
    pool = coefficient_pool(cfg.bpres)
    module = cfg.build_module()
    failures = []
    for case in range(cfg.cases_per_suite):
        r = sample_deg(rng, cfg.n, 1)
        s = sample_deg(rng, cfg.n, 1)
        b = sample_b(rng, pool)
        b2 = sample_b(rng, pool)
        margin = tuple(abs(a) + abs(c) for a, c in zip(r, s))
        v = sample_interior_vector(rng, module, margin)
        assoc, unit = assoc_unital_residuals(r, s, b, b2, v)
        if not assoc.is_zero():
            failures.append({"case": case, "check": "associativity"})
        if not unit.is_zero():
            failures.append({"case": case, "check": "unit"})
    return IdentityReport("assoc-unital", cfg.to_dict(), cfg.cases_per_suite,
                          failures, cfg.seed, time.perf_counter() - t0)


def run_operator_suite(cfg: RunConfig) -> IdentityReport:
    t0 = time.perf_counter()
    rng = random.Random(cfg.seed + 3)
    pool = coefficient_pool(cfg.bpres)
    module = cfg.build_module()
    failures = []
    cases = 0

    def record(check: str, mat, case: int, extra: Dict = None):
        if not mat_is_zero(mat):
            entry = {"case": case, "check": check}
            if extra:
                entry.update(extra)
            failures.append(entry)

    for case in range(cfg.cases_per_suite):
        u = sample_u(rng, cfg.n)
        v = sample_u(rng, cfg.n)
        r = sample_deg(rng, cfg.n, 1)
        s = sample_deg(rng, cfg.n, 1)
        b1, b2, b3, b4 = (sample_b(rng, pool) for _ in range(4))
        s1 = opcheck.OpSpec("product", u, r, b1, b2)
        s2 = opcheck.OpSpec("product", v, s, b3, b4)
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

    # subspace-level checks on a smaller sample
    W = opcheck.ShiftDifferenceBasis(module)
    cases += 1
    if W.codim != module.d:
        failures.append({"check": "difference-codimension", "got": W.codim})
    sub_specs = []
    for _ in range(5):
        sub_specs.append(opcheck.OpSpec(
            "evaluated", sample_u(rng, cfg.n), sample_deg(rng, cfg.n, 1),
            sample_b(rng, pool), sample_b(rng, pool)))
    for k, spec in enumerate(sub_specs):
        cases += 1
        if not opcheck.evaluated_preserves_differences(spec, module, W):
            failures.append({"check": "difference-submodule", "spec": k})
    cases += 1
    inter = [opcheck.OpSpec("product", sp.u, sp.r, sp.b1, sp.b2)
             for sp in sub_specs]
    if not opcheck.quotient_intertwining_check(inter, module):
        failures.append({"check": "quotient-intertwiner"})
    return IdentityReport("operator-suite", cfg.to_dict(), cases, failures,
                          cfg.seed, time.perf_counter() - t0)


def run_rank_one(cfg: RunConfig) -> IdentityReport:
    t0 = time.perf_counter()
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
    for msg in opcheck.rank_one_scalar_shift_check(module, range(-3, 4)):
        failures.append({"check": "scalar-shift", "witness": msg})
    cases += 7
    for msg in opcheck.rank_one_commutation_check(module):
        failures.append({"check": "commutation", "witness": msg})
    cases += 9
    for msg in opcheck.rank_one_quotient_annihilation_check(module):
        failures.append({"check": "quotient-annihilation", "witness": msg})
    cases += 3
    return IdentityReport("rank-one", cfg.to_dict(), cases, failures,
                          cfg.seed, time.perf_counter() - t0)


def run_irreducibility(cfg: RunConfig) -> IdentityReport:
    t0 = time.perf_counter()
    failures = []
    module = cfg.build_module()
    specs = opcheck.default_irreducibility_specs(module)
    dim = opcheck.bottom_slice_algebra_dim(module, specs)
    generic = all(a.re.denominator != 1 or a.im for a in module.alpha)
    if dim != module.d ** 2:
        entry = {"check": "bottom-slice-burnside", "got": dim,
                 "want": module.d ** 2}
        if generic:
            failures.append(entry)
        else:
            # integral alpha may genuinely reduce the algebra; reported,
            # not failed
            entry["note"] = "non-generic alpha"
    return IdentityReport("irreducibility", cfg.to_dict(), 1, failures,
                          cfg.seed, time.perf_counter() - t0)


RUNNERS = {
    "bracket-soundness": run_bracket_soundness,
    "gl-relations": run_gl_relations,
    "module-axiom": run_module_axiom,
    "assoc-unital": run_assoc_unital,
    "operator-suite": run_operator_suite,
    "rank-one": run_rank_one,
    "irreducibility": run_irreducibility,
}


def run_suites(cfg: RunConfig,
               names: Optional[Sequence[str]] = None) -> List[IdentityReport]:
    names = list(names) if names else list(cfg.suites)
    for name in names:
        if name not in RUNNERS:
            raise ConfigError(f"unknown suite {name!r}")
    return [RUNNERS[name](cfg) for name in names]
