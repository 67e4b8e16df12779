import json

import pytest

from loopwitt.cli import (EXIT_CONFIG_ERROR, EXIT_OK, EXIT_SUITE_FAILURE,
                          main)


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

    def test_parse_error_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n=1, mu=[])
        code = main(["bracket", "--config", cfg, "garbage", "D(1;0)*1"])
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

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        code = main(["verify-all", "--config", str(tmp_path / "nope.json")])
        assert code == EXIT_CONFIG_ERROR

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
