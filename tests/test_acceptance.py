"""Acceptance gate: one test per acceptance criterion, each printing a
single pass/fail line.  All residual checks are exact (zero tolerance);
every scalar involved is a Gaussian rational."""

import json
import time

from loopwitt.glnrep import DIM_CAP, build_irrep
from loopwitt.scalars import parse_gauss
from loopwitt.suites import RunConfig, run_suites

MU = {1: [], 2: [1], 3: [1, 0]}

B_SPECS = [
    {"kind": "trivial"},
    # F[x]/((x-2)^3), evaluation at 2 (nilpotent maximal ideal)
    {"kind": "polyquot", "modulus": ["-8/1", "12/1", "-6/1", "1/1"],
     "eval_point": "2/1"},
    # Laurent polynomials, evaluation at 3 (no nilpotent power)
    {"kind": "laurent", "eval_point": "3/1"},
]

GL_CONFIGS = [((1,), 2, 2), ((2,), 2, 3), ((1, 0), 3, 3), ((1, 1), 3, 8)]
C_VALUES = ["0/1", "1/1", "5/2"]


def emit(num, label, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {label} "
          f"({elapsed:.1f}s, budget {budget}s)")
    assert ok, f"criterion {num} failed"
    assert elapsed < budget, (
        f"criterion {num} exceeded its {budget}s budget: {elapsed:.1f}s")


def base_config(n, b_spec, suites, cases):
    return RunConfig.from_dict({
        "n": n, "mu": MU[n], "c": "1/1", "B": b_spec,
        "window_radius": 3, "seed": 42,
        "suites": suites, "cases_per_suite": cases,
    })


def run_over_grid(suites, cases):
    reports = []
    for n in (1, 2, 3):
        for b_spec in B_SPECS:
            cfg = base_config(n, b_spec, suites, cases)
            reports.extend(run_suites(cfg))
    return reports


def test_criterion_1_bracket_soundness():
    t0 = time.perf_counter()
    reports = run_over_grid(["bracket-soundness"], 200)
    elapsed = time.perf_counter() - t0
    ok = (len(reports) == 9
          and all(r.passed and r.cases >= 200 for r in reports))
    emit(1, "bracket antisymmetry and Jacobi, 9 configurations x 200 cases",
         ok, elapsed, 10)


def test_criterion_2_gl_certification():
    t0 = time.perf_counter()
    ok = True
    for mu, n, dim in GL_CONFIGS:
        for c in C_VALUES:
            rep = build_irrep(mu, parse_gauss(c), n)
            ok = ok and rep.d == dim
            cfg = RunConfig.from_dict({
                "n": n, "mu": list(mu), "c": c, "B": {"kind": "trivial"},
                "suites": ["gl-relations"]})
            (report,) = run_suites(cfg)
            ok = ok and report.passed
    elapsed = time.perf_counter() - t0
    emit(2, "gl(n) relations, dimensions, scalar trace and irreducibility "
            "over 4 weights x 3 scalars", ok, elapsed, 30)


def test_criterion_2_at_dim_cap():
    # the largest module the config accepts, d = 64 = DIM_CAP
    t0 = time.perf_counter()
    cfg = RunConfig.from_dict({
        "n": 4, "mu": [1, 1, 1], "c": "1/1", "B": {"kind": "trivial"},
        "suites": ["gl-relations", "irreducibility"]})
    reports = run_suites(cfg)
    elapsed = time.perf_counter() - t0
    ok = (cfg.build_module().d == DIM_CAP
          and [r.suite for r in reports] == ["gl-relations", "irreducibility"]
          and all(r.passed for r in reports))
    emit(2, f"gl(n) relations and irreducibility at d = {DIM_CAP}",
         ok, elapsed, 30)


def test_criterion_3_module_axiom():
    t0 = time.perf_counter()
    reports = run_over_grid(["module-axiom", "assoc-unital"], 200)
    elapsed = time.perf_counter() - t0
    ok = (len(reports) == 18
          and all(r.passed and r.cases >= 100 for r in reports)
          and all(r.cases >= 200 for r in reports
                  if r.suite == "module-axiom"))
    emit(3, "module axiom (200 cases) and associative/unital function "
            "action (>=100 cases), 9 configurations", ok, elapsed, 60)


def test_criterion_4_operator_suite():
    t0 = time.perf_counter()
    reports = run_over_grid(["operator-suite"], 50)
    elapsed = time.perf_counter() - t0
    # 7 residual checks per sampled case plus the subspace-level checks
    ok = (len(reports) == 9
          and all(r.passed and r.cases >= 50 * 7 for r in reports))
    emit(4, "derived-operator bracket/scalar/collapse/subspace identities, "
            "9 configurations x 50 cases", ok, elapsed, 60)


def test_criterion_5_rank_one():
    t0 = time.perf_counter()
    ok = True
    for c in ["0/1", "1/1", "3/2"]:
        cfg = RunConfig.from_dict({
            "n": 1, "mu": [], "c": c, "B": {"kind": "trivial"},
            "window_radius": 5, "suites": ["rank-one"]})
        (report,) = run_suites(cfg)
        ok = ok and report.passed
    elapsed = time.perf_counter() - t0
    emit(5, "rank-one closed-form brackets (|r|,|s|<=5; k,l<=4; |i|,|j|<=3) "
            "and window checks for three central scalars", ok, elapsed, 30)


def test_criterion_6_irreducibility():
    t0 = time.perf_counter()
    ok = True
    for mu, n, _ in GL_CONFIGS:
        for c in C_VALUES:
            cfg = RunConfig.from_dict({
                "n": n, "mu": list(mu), "c": c, "B": {"kind": "trivial"},
                "alpha": ["1/2"] * n, "suites": ["irreducibility"]})
            (report,) = run_suites(cfg)
            ok = ok and report.passed
    elapsed = time.perf_counter() - t0
    emit(6, "bottom-slice operator algebra has full dimension d^2 at "
            "alpha = (1/2,...,1/2)", ok, elapsed, 30)


def test_criterion_7_determinism():
    t0 = time.perf_counter()

    def run_once():
        cfg = RunConfig.from_dict({
            "n": 2, "mu": [1], "c": "1/1",
            "B": B_SPECS[1], "seed": 42,
            "suites": ["bracket-soundness", "gl-relations", "module-axiom",
                       "assoc-unital", "operator-suite", "irreducibility"],
            "cases_per_suite": 10,
        })
        docs = [r.to_dict() for r in run_suites(cfg)]
        for doc in docs:
            doc.pop("wall_time")
        return json.dumps(docs, sort_keys=True)

    first, second = run_once(), run_once()
    elapsed = time.perf_counter() - t0
    emit(7, "identical config and seed give byte-identical reports "
            "(timing fields excluded)", first == second, elapsed, 60)
