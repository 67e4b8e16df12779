import dataclasses
import itertools
import json
import random

import pytest

from conftest import (make_laurent, make_polyquot_cube,
                      reference_sample_interior_vector)
from loopwitt import suites
from loopwitt.coeff import BPresentation
from loopwitt.loop import LoopElem
from loopwitt.parsing import format_loop_elem
from loopwitt.scalars import GaussRat
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

    # the two widest operator-suite runs that reached a report, and the
    # radius 7 run that ran out of memory: ((2R+1)^n - 1) d^2 is 26.9
    # million, 19.1 million and 207 million
    @pytest.mark.parametrize("mu,radius,accepted", [
        ((1, 1, 1), 4, True), ((1, 0, 0, 0, 0), 4, True),
        ((1, 1, 1), 5, False), ((1, 1, 1), 7, False)])
    def test_operator_suite_sweep_is_capped(self, mu, radius, accepted):
        n = len(mu) + 1
        if accepted:
            RunConfig(n=n, mu=mu, window_radius=radius,
                      suites=("operator-suite",))
        else:
            with pytest.raises(ConfigError,
                               match=f"above the cap {suites.SWEEP_CAP}"):
                RunConfig(n=n, mu=mu, window_radius=radius,
                          suites=("operator-suite",))
        # the default suites leave out an operator suite over the cap
        default = RunConfig(n=n, mu=mu, window_radius=radius).suites
        assert ("operator-suite" in default) == accepted
        assert "module-axiom" in default

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
        # [x, y], [y, z] and [z, x], each once: the Jacobi residual reuses
        # [x, y], and antisymmetry adds the pairs of [y, x] to it in one
        # accumulator without collecting [y, x]
        from loopwitt.loop import LoopElem
        bracket = LoopElem.bracket
        calls = []

        def counted(self, other):
            calls.append(1)
            return bracket(self, other)

        monkeypatch.setattr(LoopElem, "bracket", counted)
        cfg = small_config(suites=["bracket-soundness"], cases_per_suite=7)
        (rep,) = run_suites(cfg)
        assert rep.passed and len(calls) == 3 * 7

    def test_one_assoc_unital_run_compiles_the_unit_plan_once(
            self, monkeypatch):
        # 40 cases act with 120 other elements, and t^0 . v - v reuses
        # the one plan kept on the module's t^0
        from loopwitt.tensmod import TensorModule
        compile_ = TensorModule._compile
        units = []

        def counted(self, x):
            units.append(x is self.unit)
            return compile_(self, x)

        monkeypatch.setattr(TensorModule, "_compile", counted)
        cfg = small_config(suites=["assoc-unital"], cases_per_suite=40)
        (rep,) = run_suites(cfg)
        assert rep.passed
        assert sum(units) == 1

    def test_one_module_axiom_case_acts_five_times_and_prunes_once(
            self, monkeypatch):
        # act_into for [x, y], x and y on the built y . v and x . v, and
        # the two act calls that build them; only the residual and those
        # two inner images become ModVectors
        from loopwitt import tensmod
        calls = {"act_into": 0, "act": 0, "signed_sum": 0, "ModVector": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name in ("act_into", "act", "signed_sum"):
            monkeypatch.setattr(tensmod, name,
                                counting(name, getattr(tensmod, name)))
        monkeypatch.setattr(tensmod.ModVector, "__init__", counting(
            "ModVector", tensmod.ModVector.__init__))
        cfg = small_config(suites=["module-axiom"], cases_per_suite=1)
        module = cfg.build_module()
        rng = random.Random(5)
        pool = suites.coefficient_pool(cfg.bpres)
        x, r = suites.sample_homogeneous(rng, 2, cfg.bpres, pool)
        y, s = suites.sample_homogeneous(rng, 2, cfg.bpres, pool)
        v = module.basis_vector((0, 0), 1)
        calls["ModVector"] = 0
        assert tensmod.module_axiom_residual(x, y, v).is_zero()
        assert calls == {"act_into": 5, "act": 2, "signed_sum": 1,
                         "ModVector": 3}

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


class TestOneIrrepPerConfig:
    """A RunConfig builds V(mu, c) once, through suites.build_irrep (the
    binding that tests and the benchmark tracer patch), and its suites
    share it."""

    @pytest.fixture
    def builds(self, monkeypatch):
        build = suites.build_irrep
        calls = []

        def counted(mu, c, n):
            calls.append((mu, c, n))
            return build(mu, c, n)

        monkeypatch.setattr(suites, "build_irrep", counted)
        return calls

    def test_bindings(self):
        from loopwitt import cli, glnrep
        assert suites.build_irrep is cli.build_irrep is glnrep.build_irrep

    @pytest.mark.parametrize("flags", [[], ["--suite", "gl-relations",
                                            "--suite", "irreducibility"]])
    def test_gl_certificate_builds_one_irrep(self, builds, tmp_path, capsys,
                                             flags):
        from loopwitt.cli import main
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "n": 3, "mu": [1, 0], "cases_per_suite": 1,
            "suites": ["gl-relations", "irreducibility"]}))
        assert main(["verify-all", "--config", str(path)] + flags) == 0
        assert len(builds) == 1

    def test_default_suites_at_rank_one_build_one_irrep(self, builds):
        cfg = small_config(n=1, mu=[], suites=[], cases_per_suite=1)
        assert len(run_suites(cfg)) == 6
        assert len(builds) == 1

    def test_replaced_config_builds_its_own(self, builds):
        cfg = small_config()
        rep = cfg.irrep()
        other = dataclasses.replace(cfg, suites=("gl-relations",))
        assert cfg.irrep() is rep
        assert other.irrep() is not rep
        assert len(builds) == 2

    def test_changed_module_parameters_rebuild(self, builds):
        cfg = small_config()
        rep = cfg.irrep()
        cfg.mu = (2,)
        assert cfg.irrep().d == 3 and rep.d == 2
        assert len(builds) == 2


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


PRESENTATIONS = {
    "trivial": lambda: BPresentation("trivial"),
    "polyquot": make_polyquot_cube,
    "laurent": make_laurent,
    # F[x]/(x^2) at 0 and F[x]/(x - 2) at 2: their pools hold 0
    "x^2": lambda: BPresentation("polyquot", eval_point=GaussRat(0),
                                 modulus=[GaussRat(0), GaussRat(0),
                                          GaussRat(1)]),
    "x-2": lambda: BPresentation("polyquot", eval_point=GaussRat(2),
                                 modulus=[GaussRat(-2), GaussRat(1)]),
}


def chained_loop_elem(rng, n, pres, pool):
    """sample_loop_elem as a chain of LoopElem sums, its draws made with
    randint and randrange: the reference for the one-dict sampler, term
    order included."""
    out = LoopElem.zero(n, pres)
    for _ in range(rng.randint(1, 3)):
        deg = tuple(rng.randint(-3, 3) for _ in range(n))
        b = pool[rng.randrange(len(pool))]
        if rng.random() < 0.5:
            out = out + LoopElem.t_part(n, pres, deg, b)
        else:
            out = out + LoopElem.d_part(n, pres, rng.randint(1, n), deg, b)
    return out


class TestSamplerStream:
    """The samplers draw with rng.choice; the draws, and so every report
    at a fixed seed, are pinned here."""

    PINNED = {
        42: {"b": ["1", "1", "(-2+x)", "(x)"],
             "u": ["-1/1 -1/1", "1/1 0/1+1/1 i", "1/1 0/1+1/1 i"],
             "deg": ["(0, -3)", "(-3, -3)", "(-2, -2)"],
             "vector": ["(1, 0):0=-1/1 (1, 0):1=0/1+1/1 i",
                        "(-1, 0):0=1/2 (-1, 0):1=0/1+1/1 i "
                        "(-1, 1):0=1/1 (-1, 1):1=-1/1"],
             "loop_elem": ["D(1,0;-3,-1)*(-2+x) + t(0,-1)*(-2+x) "
                           "+ t(3,-1)*1",
                           "D(0,1;-3,1)*(-2+x) + D(0,1;0,1)*1 + t(1,-2)*1",
                           "D(1,0;3,-1)*1"]},
        7: {"b": ["(-2+x)", "(x)", "(x^2)", "1"],
            "u": ["1/1 0/1+1/1 i", "1/1 2/1", "0/1+1/1 i 1/1"],
            "deg": ["(1, -2)", "(-3, -3)", "(0, 0)"],
            "vector": ["(-1, 0):0=1/1 (-1, 0):1=0/1+1/1 i",
                       "(-2, -1):0=0/1+1/1 i (-2, -1):1=1/1 "
                       "(-1, 0):0=0/1+1/1 i (-1, 0):1=1/1"],
            "loop_elem": ["D(1,0;-2,1)*1 + D(1,0;1,0)*1 + t(1,3)*(x)",
                          "t(1,1)*(x)",
                          "D(0,1;-1,0)*(1+2*x) + t(-2,0)*(1+2*x) "
                          "+ t(2,-3)*(1+2*x)"]},
    }

    @pytest.mark.parametrize("seed", [42, 7])
    def test_first_draws_are_pinned(self, seed, polyquot):
        module = RunConfig(n=2, mu=(1,), bpres=polyquot,
                           window_radius=3).build_module()
        pool = suites.coefficient_pool(polyquot)
        rng = random.Random(seed)
        got = {
            "b": [str(suites.sample_b(rng, pool)) for _ in range(4)],
            "u": [" ".join(map(str, suites.sample_u(rng, 2)))
                  for _ in range(3)],
            "deg": [str(suites.sample_deg(rng, 2, 3)) for _ in range(3)],
            "vector": [" ".join(
                f"{m}:{j}={x}" for m, vec in sorted(
                    suites.sample_interior_vector(
                        rng, module, (1, 1)).data.items())
                for j, x in sorted(vec.items())) for _ in range(2)],
            "loop_elem": [format_loop_elem(suites.sample_loop_elem(
                rng, 2, polyquot, pool)) for _ in range(3)],
        }
        assert got == self.PINNED[seed]

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("kind", list(PRESENTATIONS))
    def test_loop_elem_matches_the_chained_sum(self, n, kind):
        # with the trivial pool 1 + (-1) cancels, so some keys are dropped
        # and drawn again; the term order must still match.  The x^2 and
        # x-2 pools hold 0, drawn for keys not yet seen too
        pres = PRESENTATIONS[kind]()
        pool = suites.coefficient_pool(pres)
        for seed in range(300):
            got = suites.sample_loop_elem(random.Random(seed), n, pres, pool)
            want = chained_loop_elem(random.Random(seed), n, pres, pool)
            assert list(got.terms.items()) == list(want.terms.items())

    # every margin (|r_i| + |s_i|) the module suites draw, at radius 2
    @pytest.mark.parametrize("n,mu", [(1, ()), (2, (1,)), (3, (1, 0)),
                                      (4, (1, 0, 0))])
    def test_interior_vector_matches_the_gauss_rat_draw(self, n, mu):
        module = RunConfig(n=n, mu=mu, window_radius=2).build_module()
        for margin in itertools.product(range(2 * suites.SHIFT_BOUND + 1),
                                        repeat=n):
            for seed in range(200):
                rng, ref = random.Random(seed), random.Random(seed)
                got = suites.sample_interior_vector(rng, module, margin)
                want = reference_sample_interior_vector(ref, module, margin)
                assert got.data == want.data, (margin, seed)
                assert rng.getstate() == ref.getstate()

    def test_interior_vector_makes_no_gauss_rat(self, monkeypatch):
        # every GaussRat is made by scalars._norm
        from loopwitt import scalars
        calls = []
        norm = scalars._norm

        def counted(*args):
            calls.append(args)
            return norm(*args)

        module = RunConfig(n=4, mu=(1, 1, 1),
                           window_radius=2).build_module()
        monkeypatch.setattr(scalars, "_norm", counted)
        rng = random.Random(7)
        # margin 2 leaves one slice, so a second draw adds onto it
        for margin in [(0, 0, 0, 0), (2, 1, 0, 2)] + [(2, 2, 2, 2)] * 8:
            suites.sample_interior_vector(rng, module, margin)
        assert calls == []
