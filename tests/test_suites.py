import dataclasses
import json

import pytest

from loopwitt.suites import (MIN_RADIUS, RUNNERS, ConfigError, RunConfig,
                             run_suites)


def small_config(**over):
    doc = {
        "n": 2, "mu": [1], "c": "1/1",
        "B": {"kind": "trivial"},
        "window_radius": 3, "seed": 42,
        "suites": ["bracket-soundness", "module-axiom"],
        "cases_per_suite": 20,
    }
    doc.update(over)
    return RunConfig.from_dict(doc)


class TestConfigValidation:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.n == 2
        assert cfg.window_radius == 3
        assert cfg.seed == 42
        assert cfg.cases_per_suite == 200
        assert all(s in RUNNERS for s in cfg.suites)
        assert len(cfg.alpha) == cfg.n

    def test_one_suite_table(self):
        # RUNNERS orders the default suites; every suite has a radius
        assert list(RUNNERS) == list(MIN_RADIUS)

    def test_bad_rank(self):
        with pytest.raises(ConfigError):
            RunConfig(n=0, mu=())

    def test_weight_length_must_match_rank(self):
        with pytest.raises(ConfigError):
            small_config(n=3, mu=[1])

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            small_config(mu=[-1])

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError):
            small_config(suites=["nonsense"])

    def test_rank_one_suite_needs_rank_one(self):
        with pytest.raises(ConfigError):
            small_config(suites=["rank-one"])

    def test_rank_one_suite_needs_wide_window(self):
        with pytest.raises(ConfigError):
            small_config(n=1, mu=[], suites=["rank-one"], window_radius=3)

    def test_alpha_length_checked(self):
        with pytest.raises(ConfigError):
            small_config(alpha=["1/2"])

    def test_malformed_document(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"n": 2, "mu": [1], "c": "not a number"})

    def test_roundtrip_through_dict(self):
        cfg = small_config(B={"kind": "laurent", "eval_point": "3/1"})
        again = RunConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_polyquot_roundtrip(self):
        cfg = small_config(B={"kind": "polyquot",
                              "modulus": ["-8/1", "12/1", "-6/1", "1/1"],
                              "eval_point": "2/1"})
        again = RunConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()


class TestSuiteRuns:
    def test_each_suite_passes_on_small_config(self):
        cfg = small_config(suites=[
            "bracket-soundness", "gl-relations", "module-axiom",
            "assoc-unital", "irreducibility"], cases_per_suite=10)
        for rep in run_suites(cfg):
            assert rep.passed, rep.failures

    def test_operator_suite_passes(self):
        cfg = small_config(suites=["operator-suite"], cases_per_suite=5)
        (rep,) = run_suites(cfg)
        assert rep.passed, rep.failures
        assert rep.cases >= 5 * 7

    def test_rank_one_suite_passes(self):
        cfg = small_config(n=1, mu=[], suites=["rank-one"],
                           window_radius=5, c="3/2")
        (rep,) = run_suites(cfg)
        assert rep.passed, rep.failures

    def test_bracket_soundness_brackets_x_and_y_once(self, monkeypatch):
        # [x, y] and [y, x] for antisymmetry, then [y, z] and [z, x]: the
        # Jacobi residual reuses [x, y]
        from loopwitt.loop import LoopElem
        bracket = LoopElem.bracket
        calls = []

        def counted(self, other):
            calls.append(1)
            return bracket(self, other)

        monkeypatch.setattr(LoopElem, "bracket", counted)
        cfg = small_config(suites=["bracket-soundness"], cases_per_suite=7)
        (rep,) = run_suites(cfg)
        assert rep.passed and len(calls) == 4 * 7

    def test_unknown_suite_name_rejected_at_run(self):
        # verify-all --suite rebuilds the config, so it is validated
        cfg = small_config()
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg, suites=("nope",))

    def test_report_shape(self):
        cfg = small_config(suites=["bracket-soundness"], cases_per_suite=5)
        (rep,) = run_suites(cfg)
        doc = rep.to_dict()
        assert doc["suite"] == "bracket-soundness"
        assert doc["cases"] == 5
        assert doc["failures"] == []
        assert doc["seed"] == 42
        assert doc["config"]["n"] == 2
        assert isinstance(doc["wall_time"], float)


class TestDeterminism:
    def test_identical_config_gives_identical_reports(self):
        def run_once():
            cfg = small_config(suites=["bracket-soundness", "module-axiom",
                                       "operator-suite"], cases_per_suite=5)
            docs = [r.to_dict() for r in run_suites(cfg)]
            for d in docs:
                d.pop("wall_time")
            return json.dumps(docs, sort_keys=True)

        assert run_once() == run_once()

    def test_seed_changes_sampling_but_not_outcome(self):
        base = small_config(suites=["bracket-soundness"], cases_per_suite=10)
        other = small_config(suites=["bracket-soundness"],
                             cases_per_suite=10, seed=7)
        (a,) = run_suites(base)
        (b,) = run_suites(other)
        assert a.passed and b.passed
        assert a.seed != b.seed
