"""Seeded workload generator and the benchmark's own oracles.

A workload is a list of CLI calls, each with one generated JSON config
and the result the benchmark expects from it.  The workload seed picks
every config's ``seed``, ``c`` and ``alpha`` from the fixed pools below;
the program only ever sees the written config files.

The pools hold values of one shape each (``c`` has denominator 2, every
``alpha`` entry denominator 3) so that the size of the exact arithmetic,
and with it the run time, does not depend on the seed.  For the same
reason operator-grid keeps the config seed at 42: the operator suite
spends most of its time on a sweep whose cost depends on the five
operators it samples (a sampled coefficient with psi(b) = 0 makes the
sweep cheap), and with free config seeds one pass took from 6.6 s to
9.2 s depending on the workload seed (2-core shared VM, Python 3.11.7).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Sequence

WORKLOADS = ("operator-grid", "bracket-grid", "gl-cert", "gl-build")
SIZES = ("full", "tiny")

C_POOL = ["1/2", "3/2", "5/2", "7/2", "-1/2", "-3/2"]
ALPHA_POOL = ["1/3", "2/3", "4/3", "5/3", "-1/3", "-2/3"]
SEED_POOL = [7, 11, 23, 42, 57, 64, 99, 101]
OPERATOR_GRID_SEED = 42

GRID_MU = {1: [], 2: [1], 3: [1, 0]}
B_SPECS = [
    {"kind": "trivial"},
    # F[x]/((x-2)^3), evaluation at 2
    {"kind": "polyquot", "modulus": ["-8/1", "12/1", "-6/1", "1/1"],
     "eval_point": "2/1"},
    # Laurent polynomials, evaluation at 3
    {"kind": "laurent", "eval_point": "3/1"},
]
BRACKET_SUITES = ["bracket-soundness", "module-axiom", "assoc-unital"]

# (n, mu, run irreducibility too); d <= 15 throughout.  Irreducibility
# stops at d = 10: at d = 15 one call takes about 9 s on the same VM,
# more than a run can spend on one rung.
GL_CERT_LADDER = [
    (3, [1, 0], True), (3, [2, 0], True), (3, [1, 1], True),
    (3, [3, 0], True), (3, [2, 1], False),
    (4, [1, 0, 0], True), (4, [2, 0, 0], True), (4, [1, 0, 1], False),
]
# d = 27, 35, 45, 64, 40
GL_BUILD_MODULES = [(3, [2, 2]), (3, [4, 1]), (4, [2, 1, 0]),
                    (4, [1, 1, 1]), (5, [1, 1, 0, 0])]

SIZING = {
    "full": {"grid_ranks": (1, 2, 3), "operator_cases": 4,
             "bracket_cases": 100, "cert_ladder": GL_CERT_LADDER,
             "build_modules": GL_BUILD_MODULES},
    "tiny": {"grid_ranks": (1, 2), "operator_cases": 1,
             "bracket_cases": 5, "cert_ladder": GL_CERT_LADDER[:2],
             "build_modules": [(3, [2, 0]), (4, [1, 0, 0])]},
}


def partition(mu: Sequence[int]) -> List[int]:
    """Fundamental-weight coordinates mu as a partition with n parts."""
    return [sum(mu[i:]) for i in range(len(mu))] + [0]


def hook_length_dim(mu: Sequence[int], n: int) -> int:
    """dim V(mu) for gl(n) by the hook-content formula:
    the product over the cells (i, j) of the partition of
    (n + j - i) / hook(i, j)."""
    lam = partition(mu)
    if len(lam) != n:
        raise ValueError("mu must have n-1 entries")
    conj = [sum(1 for part in lam if part > j) for j in range(lam[0])]
    out = Fraction(1)
    for i, row in enumerate(lam):
        for j in range(row):
            hook = (row - j - 1) + (conj[j] - i - 1) + 1
            out *= Fraction(n + j - i, hook)
    if out.denominator != 1:
        raise ArithmeticError("hook-content product is not an integer")
    return int(out)


def expected_cases(suite: str, n: int, cases: int) -> int:
    """Number of checks a passing report of this suite must count."""
    if suite == "operator-suite":
        return 7 * cases + 7
    if suite == "gl-relations":
        return n ** 4 + 4
    if suite == "irreducibility":
        return 1
    return cases


def _config(n: int, mu: List[int], rng: random.Random, seed: int,
            b_spec: Dict, suites: List[str], cases: int) -> Dict:
    return {
        "n": n, "mu": mu,
        "c": rng.choice(C_POOL),
        "alpha": [rng.choice(ALPHA_POOL) for _ in range(n)],
        "B": b_spec, "window_radius": 3, "seed": seed,
        "suites": suites, "cases_per_suite": cases,
    }


def _grid(rng: random.Random, ranks, suites: List[str], cases: int,
          fixed_seed: int = None):
    for n in ranks:
        for b_spec in B_SPECS:
            seed = fixed_seed or rng.choice(SEED_POOL)
            yield _config(n, GRID_MU[n], rng, seed, b_spec, suites, cases)


def generate(workload: str, seed: int, size: str = "full") -> List[Dict]:
    """The workload's calls: each a dict with the CLI subcommand, the
    config document and what a correct answer holds."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    sizing = SIZING[size]
    rng = random.Random(f"{workload}/{seed}")
    calls = []
    if workload in ("operator-grid", "bracket-grid"):
        if workload == "operator-grid":
            suites, cases = ["operator-suite"], sizing["operator_cases"]
            fixed_seed = OPERATOR_GRID_SEED
        else:
            suites, cases = BRACKET_SUITES, sizing["bracket_cases"]
            fixed_seed = None
        for doc in _grid(rng, sizing["grid_ranks"], suites, cases,
                         fixed_seed):
            calls.append({"command": "verify-all", "config": doc, "expect": {
                "suites": suites,
                "cases": [expected_cases(s, doc["n"], cases) for s in suites]}})
    elif workload == "gl-cert":
        for n, mu, irreducibility in sizing["cert_ladder"]:
            suites = ["gl-relations"] + (["irreducibility"] if irreducibility
                                         else [])
            doc = _config(n, mu, rng, rng.choice(SEED_POOL),
                          {"kind": "trivial"}, suites, 1)
            calls.append({"command": "verify-all", "config": doc, "expect": {
                "suites": suites,
                "cases": [expected_cases(s, n, 1) for s in suites]}})
    else:
        for n, mu in sizing["build_modules"]:
            doc = _config(n, mu, rng, rng.choice(SEED_POOL),
                          {"kind": "trivial"}, [], 1)
            del doc["suites"]
            calls.append({"command": "irrep-info", "config": doc, "expect": {
                "dim": hook_length_dim(mu, n), "c": doc["c"]}})
    return calls


def write(workdir: Path, workload: str, seed: int, size: str = "full") -> Path:
    """Write every config and a manifest naming them; returns the manifest."""
    workdir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for k, call in enumerate(generate(workload, seed, size)):
        name = f"{k:02d}-{call['command']}.json"
        (workdir / name).write_text(json.dumps(call["config"], indent=2) + "\n")
        manifest.append({"command": call["command"], "config": name,
                         "expect": call["expect"]})
    path = workdir / "manifest.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed,
                                "size": size, "calls": manifest}, indent=2))
    return path
