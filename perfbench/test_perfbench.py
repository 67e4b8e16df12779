"""Tests of the benchmark itself: metric names and units, output checks
with teeth, and transparent trace wrappers.

    python3 -m pytest -q perfbench
"""

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import refclock  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric(workload, trace):
    assert workload in [w["name"] for w in SPEC["workloads"]]
    out = _run(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    want = {m["name"]: m["unit"]
            for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    assert got == want
    if not trace:
        assert all(out["metrics"][m]["value"] == 1.0
                   for m in ("check_pass_ratio", "call_ok_ratio"))


def _pass(tmp_path, workload, refs=None):
    workloads.write(tmp_path, workload, 3, "tiny")
    _, manifest, argvs = worker.setup(tmp_path)
    refs = [] if refs is None else refs
    return worker.run_pass(manifest, argvs, refs)[1], refs


def test_bracket_sign_flip_fails_checks(tmp_path, monkeypatch):
    from loopwitt.loop import LoopElem
    bracket = LoopElem.bracket
    monkeypatch.setattr(LoopElem, "bracket",
                        lambda self, other: bracket(self, other).scale(-1))
    tally, _ = _pass(tmp_path, "bracket-grid")
    assert tally.call_errors == 0
    assert tally.failed_checks > 0


def test_wrong_dimension_fails_check(tmp_path, monkeypatch):
    from loopwitt import glnrep
    build = glnrep.build_irrep

    def shrunk(mu, c, n):
        rep = build(mu, c, n)
        rep.d -= 1
        return rep
    monkeypatch.setattr(sys.modules["loopwitt.cli"], "build_irrep", shrunk)
    tally, _ = _pass(tmp_path, "gl-build")
    assert tally.failed_checks == tally.checks


def test_changed_report_fails_digest(tmp_path):
    _, refs = _pass(tmp_path, "gl-cert")
    tally, _ = _pass(tmp_path, "gl-cert", ["0" * 64] * len(refs))
    assert tally.failed_checks == len(refs)


def test_crash_is_counted_not_raised(tmp_path, monkeypatch):
    from loopwitt import suites

    def boom(cfg):
        raise RuntimeError("planted")
    monkeypatch.setitem(suites.RUNNERS, "operator-suite", boom)
    tally, _ = _pass(tmp_path, "operator-grid")
    assert tally.call_errors == tally.calls
    assert tally.failed == tally.checks


def test_wrappers_reach_every_binding_site():
    from loopwitt import cli, glnrep, opcheck, suites, tensmod
    from loopwitt.scalars import GaussRat
    originals = {(m.__name__, a): getattr(m, a) for m, a in [
        (opcheck, "act"), (suites, "act"), (tensmod, "act"),
        (opcheck, "burnside_dim"), (suites, "burnside_dim"),
        (suites, "build_irrep"), (cli, "build_irrep")]}
    patches = tracing.install_spans(tracing.Tracer())
    try:
        for (mod, attr), fn in originals.items():
            assert getattr(sys.modules[mod], attr) is not fn, (mod, attr)
        assert all(getattr(f, "__wrapped__", None) for f in
                   suites.RUNNERS.values())
    finally:
        patches.undo()
    for (mod, attr), fn in originals.items():
        assert getattr(sys.modules[mod], attr) is fn

    counts = tracing.Tracer()
    patches = tracing.install_counts(counts)
    try:
        _ = 1 + GaussRat(2)
        _ = 3 * GaussRat(2)
    finally:
        patches.undo()
    assert counts.stat("scalars.add").calls == 1
    assert counts.stat("scalars.mul").calls == 1
    assert GaussRat.__radd__ is GaussRat.__add__


def test_trace_is_transparent_and_counts_repeat(tmp_path):
    workloads.write(tmp_path, "bracket-grid", 3, "tiny")
    _, manifest, argvs = worker.setup(tmp_path)
    first = worker.trace(manifest, argvs)
    second = worker.trace(manifest, argvs)
    # trace() fails a check for any digest that differs from the
    # untraced pass
    assert first["tally"].failed == 0 and second["tally"].failed == 0
    for name, (value, unit) in first["metrics"].items():
        if unit == "count":
            assert second["metrics"][name][0] == value, name


def test_refclock_leaves_out_samples_and_restores_alarm():
    handler = signal.getsignal(signal.SIGALRM)
    clock = refclock.RefClock()
    t0, w0 = time.perf_counter(), refclock.work_clock()
    clock.start()
    while time.perf_counter() - t0 < 0.3:
        pass
    ref_s, wall_s = clock.stop()
    elapsed = time.perf_counter() - t0
    assert clock.samples >= 5
    assert 0 < wall_s < elapsed and ref_s > 0
    assert refclock.work_clock() - w0 < elapsed
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


@pytest.mark.parametrize("mu,n,d", [
    ([2, 2], 3, 27), ([4, 1], 3, 35), ([2, 1, 0], 4, 45),
    ([1, 1, 1], 4, 64), ([1, 1, 0, 0], 5, 40), ([1, 0], 3, 3),
    ([2, 1], 3, 15), ([1, 0, 1], 4, 15)])
def test_hook_length_dimension(mu, n, d):
    assert workloads.hook_length_dim(mu, n) == d


def test_same_seed_same_inputs():
    for w in workloads.WORKLOADS:
        assert workloads.generate(w, 5) == workloads.generate(w, 5)
        assert workloads.generate(w, 5) != workloads.generate(w, 6)


def test_no_result_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gl-build",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
