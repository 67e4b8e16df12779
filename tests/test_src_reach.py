"""Every function in src/loopwitt is reached by the CLI, or is listed here.

The library should hold only code that its command line runs: a helper
that only tests use belongs in tests/.  This test runs ``cli.main`` in
process on a small fixed set of commands under ``sys.setprofile``,
collects every loopwitt function entered, and compares the functions
never entered with ``NOT_REACHED``, one reason per entry.  A new
function that the CLI never runs fails the test until it is listed with
its reason or moved out of src/.
"""

import inspect
import json
import sys
from pathlib import Path

import pytest

import loopwitt
from loopwitt.cli import build_parser, main

SRC = Path(loopwitt.__file__).parent

NOT_REACHED = {
    "glnrep.burnside_dim":
        "the fallback when Norton's test does not certify; only reducible "
        "modules reach it, and the benchmark tracer binds it by name",
    "glnrep.burnside_dim.<locals>.grows": "inside burnside_dim",
    "linalg.SpanBasis.coords":
        "the benchmark tracer wraps it by name; tests use it as an oracle",
    "linalg.mat_mul":
        "only burnside_dim calls it, and the benchmark tracer counts it by "
        "name",
    "loop.LoopElem.__eq__": "value equality for library users",
    "scalars.GaussRat.__rsub__": "field API: a number minus a GaussRat",
    "scalars.GaussRat.__setattr__":
        "guards immutability; runs only on a forbidden assignment",
    "scalars.GaussRat.__reduce__": "copy and pickle support",
    "scalars.GaussRat.__repr__": "interactive display",
    "coeff.BPresentation.__repr__": "interactive display",
    "coeff.BElem.__repr__": "interactive display",
    "scalars.GaussRat.__hash__":
        "lets scalars key dicts and sets; the weight table counts integer "
        "tuples, and no other src/ code hashes a GaussRat",
    "tensmod.ModVector.data":
        "the one GaussRat view of a block, for library users and the "
        "tests' oracles; the benchmark tracer reads it "
        "(perfbench/tracing.py _in_slices)",
}

CONFIG = {"n": 2, "mu": [1], "B": {"kind": "polyquot",
                                   "modulus": ["-8", "12", "-6", "1"],
                                   "eval_point": "2"},
          "cases_per_suite": 2, "seed": 42}
RANK_ONE = {"n": 1, "mu": [], "window_radius": 5, "cases_per_suite": 1,
            "suites": ["rank-one"]}
# BPresentation.eval_power inverts the evaluation point for a negative
# exponent
LAURENT = {"n": 2, "mu": [1], "B": {"kind": "laurent", "eval_point": "3"},
           "cases_per_suite": 2}
# at n >= 3 build_irrep makes the E_ij with |i - j| >= 2 as sparse
# integer commutators, by linalg.mat_product_into; a non-real c makes
# the E_ii, and so gl-relations' spins, non-real
GL3 = {"n": 3, "mu": [1, 0], "c": "1/2+1 i", "suites": ["gl-relations"]}
# the bracket runs' expression pairs: the first two over CONFIG's B, the
# third over LAURENT's
BRACKETS = [
    ("D(1,0;1,0)*(x-2)", "t(0,1)*(2*x^2 - 1/2) + D(0,1;-1,0)*1"),
    # x^7 is at least twice the modulus degree: square-and-multiply
    ("t(1,0)*x^7", "D(0,1;0,1)*x"),
    ("D(1,0;1,0)*(x^2 - 3)", "(1/2+1 i)*t(0,1)*x + t(1,0)*(1/2+1 i)"),
]


def defined_functions():
    """module.qualname of every function, method and nested function in
    src/loopwitt, skipping lambdas, comprehensions and class bodies."""
    out = set()

    def walk(code, module):
        for const in code.co_consts:
            if inspect.iscode(const):
                if (const.co_flags & inspect.CO_NEWLOCALS
                        and "<" not in const.co_qualname.split(".")[-1]):
                    out.add(f"{module}.{const.co_qualname}")
                walk(const, module)

    for path in sorted(SRC.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.stem)
    return out


def entered_functions(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    rank_one = tmp_path / "rank_one.json"
    rank_one.write_text(json.dumps(RANK_ONE))
    laurent = tmp_path / "laurent.json"
    laurent.write_text(json.dumps(LAURENT))
    gl3 = tmp_path / "gl3.json"
    gl3.write_text(json.dumps(GL3))
    runs = [
        ["verify-all", "--config", str(cfg)],
        ["verify-all", "--config", str(rank_one)],
        ["bracket", "--config", str(cfg), *BRACKETS[0]],
        ["bracket", "--config", str(cfg), *BRACKETS[1]],
        ["bracket", "--config", str(laurent), *BRACKETS[2]],
        ["verify-all", "--config", str(laurent)],
        ["irrep-info", "--config", str(cfg), "--matrices"],
        ["irrep-info", "--config", str(gl3)],
        ["verify-all", "--config", str(gl3)],
        ["module-info", "--config", str(cfg)],
        ["export", "--config", str(cfg), "--out", str(tmp_path / "out")],
    ]
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        # main builds its parser on the first call of a process only
        build_parser.cache_clear()
        codes = [main(argv) for argv in runs]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(runs)
    src = SRC.resolve()
    return {f"{path.stem}.{code.co_qualname}" for code in seen
            for path in [Path(code.co_filename).resolve()]
            if path.parent == src
            and "<" not in code.co_qualname.split(".")[-1]}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="needs co_qualname")
def test_every_src_function_is_reached_or_listed(tmp_path, capsys):
    defined = defined_functions()
    entered = entered_functions(tmp_path, capsys)
    assert entered <= defined
    assert defined - entered == set(NOT_REACHED)
