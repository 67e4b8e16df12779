"""Byte-identity of the CLI output between two revisions.

    python3 tests/identity.py --base REV

extracts REV's src/ into a temporary directory (`git archive REV src`,
which writes nothing under .git), runs one fixed corpus of CLI calls
once against REV's src/ and once against the working tree's src/, each
side in its own subprocess, and deletes the directory.  It strips
`wall_time` from every verify-all report, hashes stdout and stderr
apart, prints the sha256 digest of each call's stdout, names every call
whose stdout, stderr or exit code differs, and exits 1 if any call
differs, 0 if none does.

The corpus is `test_reports_pinned._calls()`, the calls whose digests
are pinned, plus these, all at seed 7:
* `verify-all --json` on the 9-config grid (n in {1, 2, 3} x {trivial,
  polyquot, laurent}, default suites, 5 cases);
* `verify-all --json` at n = 1, radius 5, on the three grid B (default
  suites, 5 cases), the only calls that run rank-one, whose smallest
  radius is 5;
* `verify-all --json` on two gl(4) configs (mu = (1, 0, 0), radius 2,
  default suites, 3 cases), the only calls whose operator suite runs at
  n = 4: laurent with real c and alpha, polyquot with non-real ones;
* `verify-all --json --suite module-axiom --suite assoc-unital` (20
  cases) at gl(4), mu = (1, 1, 1), radius 2, on laurent with
  c = 1/2 + i and non-real alpha, the widest sampled vector (d = 64),
  and at n = 1, radius 2, on the three grid B, where margin 2 leaves
  one interior slice, so a second draw adds onto the first;
* `bracket` on the expressions of test_src_reach, at n = 2 on the three
  grid B; trivial B rejects every one of them, as each holds x;
* one `bracket` call and one `verify-all --json` call (bracket-soundness,
  module-axiom, assoc-unital and operator-suite, 10 cases) at n = 2,
  mu = (1), on each of two B that no other call reaches: polyquot
  (x - (1/2+i))^2 at 1/2 + i, whose modulus is not integral, and
  laurent at 2/3 + i, whose negative powers are non-real and not
  integral;
* `irrep-info --json`, `irrep-info --matrices --json` and `verify-all
  --json --suite gl-relations --suite irreducibility` (1 case) at c = 0
  and at c = 1/2 + i, on gl(1) with mu = (), the five gl-cert modules
  and gl(5) with mu = (1, 0, 0, 0): the pinned irrep-info calls all run
  at c = 3/2, so only these reach a zero entry of the integer diagonal
  shift or an imaginary part of the E_ii.
`extract_src(rev, dest)` and `compare(base_src, head_src, calls)` are
the two steps.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

# Runs in a subprocess whose PYTHONPATH is one src/ directory: reads the
# calls, name -> [CLI arguments without --config, config document], from
# stdin and prints name -> [exit code, sha256 of stdout, sha256 of
# stderr] as one JSON line.  A verify-all report is hashed without its
# wall_time fields, as test_reports_pinned hashes it.
RUNNER = r"""
import contextlib, hashlib, io, json, os, sys, tempfile
from loopwitt.cli import main
calls = json.load(sys.stdin)
out = {}
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "config.json")
    for name, (args, doc) in sorted(calls.items()):
        with open(path, "w") as f:
            json.dump(doc, f)
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = main(args + ["--config", path])
        text = buf.getvalue()
        if args[0] == "verify-all" and "--json" in args and text:
            body = [{k: v for k, v in r.items() if k != "wall_time"}
                    for r in json.loads(text)]
            text = json.dumps(body, sort_keys=True, indent=2)
        out[name] = [code] + [hashlib.sha256(t.encode()).hexdigest()
                              for t in (text, err.getvalue())]
print(json.dumps(out))
"""

Call = Tuple[List[str], Dict]


def corpus() -> Dict[str, Call]:
    """The pinned calls and the calls at seed 7."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from test_reports_pinned import B_SPECS, GL_CERT_MODULES, GRID_MU, _calls
    from test_src_reach import BRACKETS
    calls = _calls()
    for n, mu in GRID_MU.items():
        for kind, b in B_SPECS.items():
            calls[f"seed7/verify-all/{n}/{kind}"] = (
                ["verify-all", "--json"],
                {"n": n, "mu": mu, "B": b, "seed": 7, "cases_per_suite": 5})
    for kind, c, alpha in (
            ("laurent", "3/2", ["1/3", "-1", "2", "1/2"]),
            ("polyquot", "3/2+1 i", ["1/3+1/2 i", "-1 i", "2", "1/2"])):
        calls[f"n4/verify-all/{kind}"] = (
            ["verify-all", "--json"],
            {"n": 4, "mu": [1, 0, 0], "c": c, "alpha": alpha,
             "B": B_SPECS[kind], "window_radius": 2, "cases_per_suite": 3})
    module_suites = ["verify-all", "--json", "--suite", "module-axiom",
                     "--suite", "assoc-unital"]
    calls["n4/module-suites/laurent"] = (
        module_suites,
        {"n": 4, "mu": [1, 1, 1], "c": "1/2+1 i",
         "alpha": ["1/3+1/2 i", "-1 i", "2", "1/2"],
         "B": B_SPECS["laurent"], "window_radius": 2, "seed": 7,
         "cases_per_suite": 20})
    for kind, b in B_SPECS.items():
        calls[f"radius2/module-suites/1/{kind}"] = (
            module_suites,
            {"n": 1, "mu": [], "B": b, "seed": 7, "window_radius": 2,
             "cases_per_suite": 20})
        calls[f"radius5/verify-all/1/{kind}"] = (
            ["verify-all", "--json"],
            {"n": 1, "mu": [], "B": b, "seed": 7, "window_radius": 5,
             "cases_per_suite": 5})
        for k, pair in enumerate(BRACKETS):
            calls[f"bracket/{kind}/{k}"] = (
                ["bracket", *pair], {"n": 2, "mu": [1], "B": b, "seed": 7})
    for kind, b, pair in (
            ("polyquot", {"kind": "polyquot",
                          "modulus": ["-3/4+1 i", "-1-2 i", "1"],
                          "eval_point": "1/2+1 i"},
             ("D(1,0;1,0)*(x^3 - 1/2)", "t(1,0)*x^7 + D(0,1;1,0)*(1+1 i)*x")),
            ("laurent", {"kind": "laurent", "eval_point": "2/3+1 i"},
             ("D(1,0;1,0)*(x^-2 - 1/2)",
              "t(0,1)*(3*x^-1 + x) + D(0,1;-1,0)*(1/2+1 i)*x^-3"))):
        doc = {"n": 2, "mu": [1], "B": b, "seed": 7}
        calls[f"non-real-point/bracket/{kind}"] = (["bracket", *pair], doc)
        calls[f"non-real-point/verify-all/{kind}"] = (
            ["verify-all", "--json", "--suite", "bracket-soundness",
             "--suite", "module-axiom", "--suite", "assoc-unital",
             "--suite", "operator-suite"], dict(doc, cases_per_suite=10))
    gl_calls = {"irrep-info": ["irrep-info", "--json"],
                "matrices": ["irrep-info", "--matrices", "--json"],
                "verify-all": ["verify-all", "--json", "--suite",
                               "gl-relations", "--suite", "irreducibility"]}
    for c in ("0", "1/2+1 i"):
        for n, mu in [(1, []), *GL_CERT_MODULES, (5, [1, 0, 0, 0])]:
            for label, args in gl_calls.items():
                calls[f"c={c}/{label}/{n}/{mu}"] = (
                    args, {"n": n, "mu": mu, "c": c, "seed": 7,
                           "cases_per_suite": 1})
    return calls


def run_calls(src: Path, calls: Dict[str, Call]) -> Dict[str, List]:
    """name -> [exit code, stdout digest, stderr digest] for each call,
    run against the loopwitt package in the directory src."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run([sys.executable, "-c", RUNNER],
                              input=json.dumps(calls), env=env, cwd=cwd,
                              capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"corpus run against {src} failed:\n"
                           f"{done.stderr}")
    return json.loads(done.stdout)


def extract_src(rev: str, dest: Path) -> Path:
    """Extract the src/ of revision rev under dest and return its path;
    `git archive` reads the repository and writes nothing under .git."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return Path(dest) / "src"


def compare(base_src: Path, head_src: Path, calls: Dict[str, Call],
            out=None) -> List[str]:
    """Run the calls against both src/ directories, print the stdout
    digest of each call, and return the names of the calls whose exit
    code, stdout or stderr differ."""
    base, head = run_calls(base_src, calls), run_calls(head_src, calls)
    differ = []
    for name in sorted(calls):
        (code, digest, err), got = base[name], head[name]
        if [code, digest, err] == got:
            print(f"{digest} exit {code} {name}", file=out)
        else:
            differ.append(name)
            print(f"DIFFERS {name}: base {digest} stderr {err} exit {code}, "
                  f"head {got[1]} stderr {got[2]} exit {got[0]}", file=out)
    print(f"{len(calls)} calls, {len(differ)} differ", file=out)
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True,
                        help="the revision to compare the working tree to")
    args = parser.parse_args(argv)
    calls = corpus()
    with tempfile.TemporaryDirectory() as tmp:
        differ = compare(extract_src(args.base, Path(tmp)), ROOT / "src",
                         calls)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
