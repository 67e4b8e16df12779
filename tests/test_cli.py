import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import loopwitt
from loopwitt import suites
from loopwitt.cli import (EXIT_CONFIG_ERROR, EXIT_INTERNAL_ERROR, EXIT_OK,
                          EXIT_SUITE_FAILURE, build_parser, main)
from loopwitt.glnrep import DIM_CAP
from loopwitt.parsing import EXPONENT_CAP
from loopwitt.tensmod import WINDOW_CAP


def write_config(tmp_path, name="config.json", **over):
    doc = {
        "n": 2, "mu": [1], "c": "1/1",
        "B": {"kind": "trivial"},
        "window_radius": 3, "seed": 42,
        "suites": ["bracket-soundness"],
        "cases_per_suite": 10,
    }
    doc.update(over)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def strip_times(reports):
    for rep in reports:
        rep.pop("wall_time", None)
    return reports


class TestBracketCommand:
    def test_rank_one_witt_example(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n=1, mu=[])
        code = main(["bracket", "--config", cfg, "D(1;1)*1", "D(1;-1)*1"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "-2*D(1;0)*1"

    def test_function_parts_commute(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n=1, mu=[])
        code = main(["bracket", "--config", cfg, "t(1)*1", "t(2)*1"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "0"

    def test_coefficient_syntax(self, tmp_path, capsys):
        cfg = write_config(tmp_path, B={"kind": "laurent",
                                        "eval_point": "3/1"})
        code = main(["bracket", "--config", cfg,
                     "D(1,0;1,0)*x", "t(1,0)*x"])
        assert code == EXIT_OK
        assert "t(2,0)" in capsys.readouterr().out

    @pytest.mark.parametrize("b,x,y,want", [
        ({"kind": "polyquot", "modulus": ["-8", "12", "-6", "1"],
          "eval_point": "2"},
         "D(1;1)*(x^2 - 3)", "(1/2+1 i)*t(2)*x + D(1;-1)*(x-2)",
         "D(1;0)*(-28+30*x-8*x^2) + t(3)*((8/1+16/1 i)+(-15/1-30/1 i)*x"
         "+(6/1+12/1 i)*x^2)"),
        ({"kind": "laurent", "eval_point": "3"},
         "D(1;1)*(2*x - 1/3)", "t(2)*(x^3+x)",
         "t(3)*(4*x^4-2/3*x^3+4*x^2-2/3*x)"),
        ({"kind": "trivial"}, "D(1;2)*(1/2+1 i)", "-3/2*D(1;-1)*1 + t(1)*1",
         "D(1;1)*(9/4+9/2 i) + t(3)*(1/2+1/1 i)"),
        ({"kind": "trivial"}, "D(1;2)*1", "-3/2*D(1;-1)*1 + t(-1)*1",
         "9/2*D(1;1)*1 -t(1)*1"),
    ])
    def test_printed_coefficients(self, tmp_path, capsys, b, x, y, want):
        cfg = write_config(tmp_path, n=1, mu=[], B=b)
        assert main(["bracket", "--config", cfg, x, y]) == EXIT_OK
        assert capsys.readouterr().out == want + "\n"

    def test_negative_exponent_syntax(self, tmp_path, capsys):
        cfg = write_config(tmp_path, B={"kind": "laurent", "eval_point": "3"})
        code = main(["bracket", "--config", cfg,
                     "D(1,0;1,0)*x^-1", "t(1,0)*(x^-2 + 3)"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "t(2,0)*(3*x^-1+x^-3)\n"

    @pytest.mark.parametrize("b,x", [
        ({"kind": "trivial"}, "D(1,0;1,0)*x"),
        ({"kind": "polyquot", "modulus": ["-8", "12", "-6", "1"],
          "eval_point": "2"}, "D(1,0;1,0)*x^-1"),
    ], ids=["x-in-trivial", "inverse-in-polyquot"])
    def test_coefficient_outside_b_is_config_error(self, tmp_path, capsys,
                                                    b, x):
        cfg = write_config(tmp_path, B=b)
        code = main(["bracket", "--config", cfg, x, "t(1,0)*1"])
        assert code == EXIT_CONFIG_ERROR
        assert "expression error" in capsys.readouterr().err

    @pytest.mark.parametrize("b", [
        {"kind": "polyquot", "modulus": ["-8", "12", "-6", "1"],
         "eval_point": "2"},
        {"kind": "laurent", "eval_point": "3"}], ids=["polyquot", "laurent"])
    @pytest.mark.parametrize("x", [
        "t(0)*x^99999999999", f"t(0)*x^{EXPONENT_CAP + 1}",
        f"t(0)*(x^{EXPONENT_CAP}*x)", f"t(0)*x^{'9' * 5000}"],
        ids=["huge", "cap-plus-one", "cap-by-product", "too-many-digits"])
    def test_exponent_beyond_cap_is_config_error(self, tmp_path, capsys,
                                                 b, x):
        # once a polyquot run that never finished
        cfg = write_config(tmp_path, n=1, mu=[], B=b)
        code = main(["bracket", "--config", cfg, x, "D(1;1)*1"])
        assert code == EXIT_CONFIG_ERROR
        assert "beyond the cap" in capsys.readouterr().err

    @pytest.mark.parametrize("b,want", [
        ({"kind": "polyquot", "modulus": ["0", "-1", "1"],
          "eval_point": "1"}, "t(1)*(-x)\n"),
        ({"kind": "laurent", "eval_point": "3"},
         f"t(1)*(-x^{EXPONENT_CAP})\n"),
    ], ids=["polyquot", "laurent"])
    def test_exponent_at_cap_runs(self, tmp_path, capsys, b, want):
        # in F[x]/(x^2 - x), x^k = x for every k >= 1
        cfg = write_config(tmp_path, n=1, mu=[], B=b)
        code = main(["bracket", "--config", cfg, f"t(1)*x^{EXPONENT_CAP}",
                     "D(1;0)*1"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("x", ["garbage", "D(a;0)*1", "", "   "],
                             ids=["garbage", "non-numeric-direction",
                                  "empty", "blank"])
    def test_parse_error_is_config_error(self, tmp_path, capsys, x):
        cfg = write_config(tmp_path, n=1, mu=[])
        code = main(["bracket", "--config", cfg, x, "D(1;0)*1"])
        assert code == EXIT_CONFIG_ERROR
        assert "error" in capsys.readouterr().err


class TestInfoCommands:
    def test_irrep_info_dimension(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n=3, mu=[1, 1])
        code = main(["irrep-info", "--config", cfg, "--json"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["dim"] == 8
        assert doc["mu"] == [1, 1]

    def test_irrep_info_matrices(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(["irrep-info", "--config", cfg, "--json", "--matrices"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["matrices"]) == {"E_11", "E_12", "E_21", "E_22"}
        assert doc["matrices"]["E_21"] == [["0/1", "0/1"], ["1/1", "0/1"]]

    def test_module_info(self, tmp_path, capsys):
        cfg = write_config(tmp_path, window_radius=2)
        code = main(["module-info", "--config", cfg, "--json"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["slices"]) == 25
        assert all(s["dim"] == 2 for s in doc["slices"])
        assert doc["alpha"] == ["1/2", "1/2"]


class TestVerifyAll:
    def test_small_run_passes(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, suites=["bracket-soundness", "module-axiom"],
            cases_per_suite=5)
        code = main(["verify-all", "--config", cfg])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 2

    def test_suite_flag_filters(self, tmp_path, capsys):
        cfg = write_config(tmp_path, cases_per_suite=5)
        code = main(["verify-all", "--config", cfg, "--json",
                     "--suite", "gl-relations"])
        assert code == EXIT_OK
        docs = json.loads(capsys.readouterr().out)
        assert [d["suite"] for d in docs] == ["gl-relations"]
        # the report echoes the suites that ran, not the config's list
        assert docs[0]["config"]["suites"] == ["gl-relations"]

    @pytest.mark.parametrize("over,suite,message", [
        ({"window_radius": 5}, "rank-one", "rank-one suite requires n = 1"),
        ({"window_radius": 1}, "module-axiom",
         "module-axiom suite requires window_radius >= 2"),
        ({}, "nope", "unknown suite 'nope'"),
    ])
    def test_suite_flag_is_validated_like_the_config(self, tmp_path, capsys,
                                                      over, suite, message):
        cfg = write_config(tmp_path, **over)
        code = main(["verify-all", "--config", cfg, "--suite", suite])
        assert code == EXIT_CONFIG_ERROR
        assert message in capsys.readouterr().err

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        code = main(["verify-all", "--config", str(tmp_path / "nope.json")])
        assert code == EXIT_CONFIG_ERROR

    def test_directory_config_is_config_error(self, tmp_path, capsys):
        code = main(["verify-all", "--config", str(tmp_path)])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith(
            f"config error: cannot read config file {tmp_path}")

    def test_undecodable_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff{}")
        code = main(["verify-all", "--config", str(path)])
        assert code == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config file {path}")
        assert "can't decode byte 0xff" in err

    def test_invalid_json_reports_location(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["verify-all", "--config", str(path)])
        assert code == EXIT_CONFIG_ERROR
        assert "line" in capsys.readouterr().err

    def test_invalid_suite_name(self, tmp_path, capsys):
        cfg = write_config(tmp_path, suites=["no-such-suite"])
        code = main(["verify-all", "--config", cfg])
        assert code == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("doc,message", [
        ([1, 2], "JSON objects"),
        ({"B": "trivial"}, "JSON objects"),
        ({"suites": "module-axiom"}, "'suites' must be a JSON array"),
        ({"c": "1/0"}, "cannot parse rational: '1/0'"),
        ({"mu": "1"}, "'mu' must be a JSON array"),
        ({"alpha": "1/2"}, "'alpha' must be a JSON array"),
        ({"B": {"kind": "polyquot", "modulus": "1", "eval_point": "0"}},
         "'modulus' must be a JSON array"),
        ({"B": {"kind": "polyquot", "modulus": ["0", "0"]}},
         "modulus of degree >= 1"),
        ({"n": 2.9}, "'n' must hold JSON integers, got 2.9"),
        ({"n": 2.0}, "'n' must hold JSON integers, got 2.0"),
        ({"mu": [1.5]}, "'mu' must hold JSON integers, got 1.5"),
        ({"window_radius": 2.5},
         "'window_radius' must hold JSON integers, got 2.5"),
        ({"seed": True}, "'seed' must hold JSON integers, got true"),
        ({"cases_per_suite": "3"},
         "'cases_per_suite' must hold JSON integers, got \"3\""),
    ])
    def test_config_shape_errors_are_config_errors(self, tmp_path, capsys,
                                                   doc, message):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(doc))
        code = main(["verify-all", "--config", str(path)])
        assert code == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err

    def test_seed_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path, cases_per_suite=5)
        code = main(["verify-all", "--config", cfg, "--json", "--seed", "7"])
        assert code == EXIT_OK
        docs = json.loads(capsys.readouterr().out)
        assert all(d["seed"] == 7 for d in docs)


class TestExportAndDeterminism:
    def test_export_writes_one_file_per_suite(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, suites=["bracket-soundness", "gl-relations"],
            cases_per_suite=5)
        out_dir = tmp_path / "reports"
        code = main(["export", "--config", cfg, "--out", str(out_dir)])
        assert code == EXIT_OK
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["bracket-soundness.json", "gl-relations.json"]
        doc = json.loads((out_dir / "bracket-soundness.json").read_text())
        assert doc["failures"] == []

    def test_out_naming_a_file_fails_before_the_run(self, tmp_path, capsys,
                                                     monkeypatch):
        def never(cfg):
            raise AssertionError("a suite ran")

        monkeypatch.setitem(suites.RUNNERS, "bracket-soundness", never)
        cfg = write_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("")
        code = main(["export", "--config", cfg, "--out", str(taken)])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith(
            f"config error: cannot create report directory {taken}")

    def test_identical_runs_identical_reports(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, suites=["bracket-soundness", "module-axiom"],
            cases_per_suite=5)

        def run_once():
            code = main(["verify-all", "--config", cfg, "--json"])
            assert code == EXIT_OK
            docs = strip_times(json.loads(capsys.readouterr().out))
            return json.dumps(docs, sort_keys=True)

        assert run_once() == run_once()


def _comparable(argv, code, out, err):
    """Exit code and output of one call, with the report wall times
    stripped: the only part of a report that may differ between runs."""
    if argv[0] == "verify-all" and code in (EXIT_OK, EXIT_SUITE_FAILURE):
        out = json.dumps(strip_times(json.loads(out)), sort_keys=True)
    return code, out, err


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code
    return _comparable(argv, code, out.getvalue(), err.getvalue())


def _python(*args):
    """Run a fresh Python process that imports this loopwitt."""
    src = str(Path(loopwitt.__file__).parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def _fresh_process(argv):
    run = _python("-m", "loopwitt.cli", *argv)
    return _comparable(argv, run.returncode, run.stdout, run.stderr)


class TestParserReuse:
    """main builds its parser once per process; back-to-back calls in one
    process print what each call prints in a process of its own."""

    def calls(self, tmp_path):
        cfg = write_config(tmp_path, cases_per_suite=2,
                           suites=["bracket-soundness", "module-axiom"])
        return {
            "mixed": [
                ["irrep-info", "--config", cfg, "--json"],
                ["bracket", "--config", cfg, "D(1,0;1,0)*1", "t(0,1)*1"],
                ["verify-all", "--config", cfg, "--json", "--seed", "7"],
                ["module-info", "--config", cfg],
                ["export", "--config", cfg, "--out",
                 str(tmp_path / "out")],
                ["irrep-info", "--config", cfg, "--matrices"],
            ],
            # --suite must not leak into the next call
            "suite-then-plain": [
                ["verify-all", "--config", cfg, "--json",
                 "--suite", "gl-relations"],
                ["verify-all", "--config", cfg, "--json"],
            ],
            "usage-error-then-valid": [
                ["verify-all", "--config", cfg, "--bogus"],
                ["verify-all", "--config", cfg, "--json"],
            ],
        }

    @pytest.mark.parametrize("sequence", ["mixed", "suite-then-plain",
                                          "usage-error-then-valid"])
    def test_back_to_back_calls_match_fresh_processes(self, tmp_path,
                                                      sequence):
        argvs = self.calls(tmp_path)[sequence]
        got = [_in_process(argv) for argv in argvs]
        assert got == [_fresh_process(argv) for argv in argvs]
        codes = [code for code, _, _ in got]
        if sequence == "usage-error-then-valid":
            assert codes == [EXIT_CONFIG_ERROR, EXIT_OK]
        else:
            assert codes == [EXIT_OK] * len(argvs)
        if sequence == "suite-then-plain":
            suites_run = [[r["suite"] for r in json.loads(out)]
                          for _, out, _ in got]
            assert suites_run == [["gl-relations"],
                                  ["bracket-soundness", "module-axiom"]]

    def test_parser_is_built_on_the_first_call_only(self, tmp_path):
        build_parser.cache_clear()
        for argv in self.calls(tmp_path)["usage-error-then-valid"]:
            _in_process(argv)
        info = build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_import_builds_no_parser(self):
        run = _python("-c", "import loopwitt.cli as c; "
                            "print(c.build_parser.cache_info().misses)")
        assert (run.returncode, run.stdout) == (0, "0\n")


# flags that no command reads, or (verify-all --out) that did the
# same as export
@pytest.mark.parametrize("argv", [
    ["bracket", "--seed", "1", "t(1,0)*1", "t(0,1)*1"],
    ["bracket", "--json", "t(1,0)*1", "t(0,1)*1"],
    ["irrep-info", "--seed", "1"],
    ["module-info", "--seed", "1"],
    ["export", "--json", "--out", "d"],
    ["verify-all", "--out", "d"],
])
def test_flag_a_command_does_not_read_is_usage_error(tmp_path, capsys,
                                                     monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG_ERROR
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


class TestConfigLimits:
    def test_mu_with_large_partition_runs(self, tmp_path, capsys):
        # |lambda| = 9, d = 10: only the dimension is capped
        cfg = write_config(tmp_path, mu=[9])
        assert main(["verify-all", "--config", cfg,
                     "--suite", "gl-relations"]) == EXIT_OK

    def test_mu_above_dim_cap_is_config_error(self, tmp_path, capsys):
        # the fourth exterior power of C^8: dimension 70, tensor power 4;
        # radius 1 keeps the window (3^8 slices) below its cap, which is
        # checked first
        cfg = write_config(tmp_path, n=8, mu=[0, 0, 0, 1, 0, 0, 0],
                           window_radius=1)
        code = main(["irrep-info", "--config", cfg])
        assert code == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "dimension 70" in err and f"cap {DIM_CAP}" in err

    @pytest.mark.parametrize("command", [["verify-all"], ["module-info"]])
    @pytest.mark.parametrize("doc", [
        {"n": 12, "mu": [0] * 11, "cases_per_suite": 1},  # 7^12 slices
        {"n": 3, "mu": [1, 0], "window_radius": 100000},
        # mu defaults to 4999 ones, whose Weyl dimension has thousands
        # of digits
        {"n": 5000},
        # refused before the power (2R+1)^n or mu's default of n - 1
        # ones is built, neither of which fits in memory
        {"n": 10 ** 18, "mu": []},
        {"n": 10 ** 19}])
    def test_window_above_cap_is_config_error(self, tmp_path, capsys,
                                              monkeypatch, command, doc):
        # rejected before any irrep or window is built, and before the
        # Weyl dimension is computed
        def never(*args):
            raise AssertionError("built past the config check")

        monkeypatch.setattr(suites, "build_irrep", never)
        monkeypatch.setattr(suites, "Window", never)
        monkeypatch.setattr(suites, "weyl_dim", never)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        assert main(command + ["--config", str(path)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert f"above the cap {WINDOW_CAP}" in err

    @pytest.mark.parametrize("n,radius", [(1, 499999), (3, 49)])
    def test_window_cap_is_on_the_slice_count(self, n, radius):
        # (2R+1)^n = 999999 and 970299 are accepted, the next radius not
        doc = {"n": n, "mu": [0] * (n - 1), "suites": ["gl-relations"]}
        assert suites.RunConfig.from_dict(dict(doc, window_radius=radius))
        with pytest.raises(suites.ConfigError, match="above the cap"):
            suites.RunConfig.from_dict(dict(doc, window_radius=radius + 1))

    @pytest.mark.parametrize("flag", [False, True])
    def test_operator_suite_over_the_sweep_cap_is_config_error(
            self, tmp_path, capsys, monkeypatch, flag):
        # n = 4, mu = (1, 1, 1), radius 7 ran out of memory in the sweep;
        # it is refused from n, d and the radius, before anything is built
        def never(*args):
            raise AssertionError("built past the config check")

        monkeypatch.setattr(suites, "build_irrep", never)
        monkeypatch.setattr(suites, "Window", never)
        doc = {"n": 4, "mu": [1, 1, 1], "window_radius": 7}
        argv = ["--suite", "operator-suite"] if flag else []
        if not flag:
            doc["suites"] = ["operator-suite"]
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc))
        assert main(["verify-all", "--config", str(path)] + argv) == (
            EXIT_CONFIG_ERROR)
        err = capsys.readouterr().err
        assert f"above the cap {suites.SWEEP_CAP}" in err

    @pytest.mark.parametrize("suite",
                             ["module-axiom", "assoc-unital", "operator-suite"])
    def test_radius_below_suite_minimum_is_config_error(self, tmp_path,
                                                        capsys, suite):
        cfg = write_config(tmp_path, window_radius=1, suites=[suite],
                           cases_per_suite=50)
        code = main(["verify-all", "--config", cfg])
        assert code == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert f"{suite} suite requires window_radius >= 2" in err

    @pytest.mark.parametrize("suite",
                             ["module-axiom", "assoc-unital", "operator-suite"])
    def test_suite_runs_at_its_minimum_radius(self, tmp_path, capsys, suite):
        cfg = write_config(tmp_path, window_radius=2, suites=[suite],
                           cases_per_suite=3)
        assert main(["verify-all", "--config", cfg]) == EXIT_OK

    def test_default_suites_follow_the_radius(self, tmp_path, capsys):
        path = tmp_path / "no-suites.json"
        path.write_text(json.dumps({"n": 2, "mu": [1], "window_radius": 1,
                                    "cases_per_suite": 2}))
        code = main(["verify-all", "--config", str(path), "--json"])
        assert code == EXIT_OK
        docs = json.loads(capsys.readouterr().out)
        assert [d["suite"] for d in docs] == [
            "bracket-soundness", "gl-relations", "irreducibility"]


class TestInternalErrors:
    def test_crash_exits_3_without_traceback(self, tmp_path, capsys,
                                             monkeypatch):
        def broken(cfg):
            raise RuntimeError("planted\nfault")

        monkeypatch.setitem(suites.RUNNERS, "bracket-soundness", broken)
        cfg = write_config(tmp_path)
        code = main(["verify-all", "--config", cfg])
        assert code == EXIT_INTERNAL_ERROR == 3
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: planted fault\n"


# random small config documents: every one must run or be rejected
# up front, never crash.  n is drawn first, so that mu and alpha match
# it, and about one document in four then takes one invalid field.
_SCALARS = ["0", "1", "-1", "1/2", "3/2", "-2/3", "2", "i", "1/2-1/3 i"]
_BAD_SCALARS = ["1/0", "x"]
_B_DOCS = st.one_of(
    st.just({"kind": "trivial"}),
    st.sampled_from([
        {"kind": "polyquot", "modulus": ["-8", "12", "-6", "1"],
         "eval_point": "2"},
        {"kind": "polyquot", "modulus": ["1", "0", "1"], "eval_point": "i"},
        {"kind": "polyquot", "modulus": ["0", "0", "1"]},
        # degree 1: the coefficient pool holds 0 (x - 2 at 2)
        {"kind": "polyquot", "modulus": ["-2", "1"], "eval_point": "2"}]),
    st.fixed_dictionaries({"kind": st.just("laurent"),
                           "eval_point": st.sampled_from(_SCALARS[1:])}),
)
_BAD_B_DOCS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("polyquot")}, optional={
        "modulus": st.lists(st.sampled_from(_SCALARS + _BAD_SCALARS),
                            max_size=4),
        "eval_point": st.sampled_from(_SCALARS + _BAD_SCALARS)}),
    st.fixed_dictionaries({"kind": st.just("laurent")}, optional={
        "eval_point": st.sampled_from(["0"] + _BAD_SCALARS)}),
    st.just({"kind": "cyclic"}),
)
# JSON values that an integer field must reject
_NON_INTEGERS = [2.0, 2.5, -0.5, True, False, "2"]
_INT_FIELDS = ("n", "window_radius", "seed", "cases_per_suite")


def _one_invalid_field(n):
    """A dict that makes a valid config document of rank n invalid."""
    field = st.fixed_dictionaries
    return st.one_of(
        st.sampled_from(_INT_FIELDS).flatmap(
            lambda k: field({k: st.sampled_from(_NON_INTEGERS)})),
        field({"n": st.integers(-1, 0)}),
        field({"window_radius": st.just(0)}),
        # radius over the cap: (2R+1)^n > WINDOW_CAP already at n = 1
        field({"window_radius": st.integers(WINDOW_CAP // 2, WINDOW_CAP)}),
        field({"cases_per_suite": st.just(0)}),
        field({"mu": st.lists(st.integers(-1, 9), max_size=2).filter(
            lambda mu: len(mu) != n - 1 or -1 in mu)}),
        field({"mu": st.lists(st.sampled_from(_NON_INTEGERS),
                              min_size=1, max_size=1)}),
        field({"alpha": st.lists(st.sampled_from(_SCALARS), min_size=1,
                                 max_size=3).filter(lambda a: len(a) != n)}),
        field({"alpha": st.just(_BAD_SCALARS[:1] * n)}),
        field({"c": st.sampled_from(_BAD_SCALARS)}),
        field({"B": _BAD_B_DOCS}),
        field({"suites": st.just(["rank-one"])}),  # needs n = 1, radius 5
    )


@st.composite
def _config_docs(draw):
    # at n = 3 build_irrep makes E_13 and E_31 as commutators, and a
    # complex c or alpha meets them; mu stays small there (d <= 8)
    n = draw(st.integers(1, 3))
    radius = draw(st.integers(1, 3))
    runnable = [s for s in suites.RUNNERS
                if s != "rank-one" and suites.MIN_RADIUS[s] <= radius]
    doc = {"n": n, "window_radius": radius,
           # kept small: a config without it runs 200 cases per suite
           "cases_per_suite": draw(st.integers(1, 2))}
    doc.update(draw(st.fixed_dictionaries({}, optional={
        "mu": st.lists(st.integers(0, 9 if n < 3 else 1), min_size=n - 1,
                       max_size=n - 1),
        "c": st.sampled_from(_SCALARS),
        "alpha": st.lists(st.sampled_from(_SCALARS), min_size=n,
                          max_size=n),
        "B": _B_DOCS,
        "seed": st.integers(0, 10 ** 6),
        "suites": st.lists(st.sampled_from(runnable), max_size=3,
                           unique=True),
    })))
    if draw(st.integers(0, 3)) == 0:
        doc.update(draw(_one_invalid_field(n)))
    return doc


# a command and its flags; verify-all may select suites with --suite
_COMMANDS = (st.sampled_from([["module-info"], ["irrep-info"]])
             | st.lists(st.sampled_from(list(suites.RUNNERS) + ["nope"]),
                        max_size=2).map(lambda names: ["verify-all"] + [
                            a for name in names for a in ("--suite", name)]))


# most documents are valid configs, and a --suite flag is checked
# against the config only on those
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_config_docs(), command=_COMMANDS)
def test_config_fuzz_never_crashes(tmp_path, capsys, doc, command):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    code = main(command + ["--config", str(path)])
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_SUITE_FAILURE, EXIT_CONFIG_ERROR), err
    assert "Traceback" not in err
    values = [doc[k] for k in _INT_FIELDS if k in doc] + doc.get("mu", [])
    if (any(type(x) is not int for x in values)
            or (2 * doc["window_radius"] + 1) ** doc["n"] > WINDOW_CAP):
        assert code == EXIT_CONFIG_ERROR, (doc, err)
