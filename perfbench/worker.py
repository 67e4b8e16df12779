"""Benchmark worker: one single-threaded process per workload.

It imports loopwitt from the checkout's ``src/``, loads the generated
configs, then drives ``loopwitt.cli.main`` in process with stdout
captured, one call after the other (a closed loop with one caller), and
checks every output.  It prints one JSON object on stdout.

Times are reported in reference-core seconds (see ``refclock.py``):
wall time corrected for the speed of the shared machine's core, which is
sampled all through the timed work.

Run by ``run.py``; by hand::

    python3 perfbench/worker.py --workdir DIR --seconds 20 --trace 0
    python3 perfbench/worker.py --workdir DIR --setup-only
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

import tracing  # noqa: E402  (the script directory is on sys.path)
from refclock import REFERENCE_UNIT_S, RefClock  # noqa: E402

def setup(workdir: Path):
    """Import loopwitt and load the workload's configs; returns the
    reference-core seconds it took, the manifest and the calls as CLI
    argument lists."""
    clock = RefClock()
    clock.start()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import loopwitt.cli  # noqa: F401
    from loopwitt.suites import RunConfig
    manifest = json.loads((workdir / "manifest.json").read_text())
    argvs = []
    for call in manifest["calls"]:
        path = workdir / call["config"]
        RunConfig.from_dict(json.loads(path.read_text()))
        argvs.append([call["command"], "--config", str(path), "--json"])
    return clock.stop()[0], manifest, argvs


class Tally:
    """Checks and calls of one or more passes."""

    def __init__(self):
        self.checks = 0
        self.failed_checks = 0
        self.calls = 0
        self.call_errors = 0
        self.errored_checks = 0

    def add(self, other: "Tally"):
        for key in vars(self):
            setattr(self, key, getattr(self, key) + getattr(other, key))

    @property
    def failed(self) -> int:
        return self.failed_checks + self.errored_checks


def _digest(doc) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _parse_rational(s: str):
    from fractions import Fraction
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        return None


def check_verify_all(code: int, doc, expect: Dict):
    """Failed checks and the report digest; None when the output is not
    the report list asked for (a call error)."""
    suites = expect["suites"]
    if (not isinstance(doc, list) or len(doc) != len(suites)
            or not all(isinstance(r, dict) for r in doc)
            or [r.get("suite") for r in doc] != suites
            or not all(isinstance(r.get("failures"), list)
                       and isinstance(r.get("cases"), int) for r in doc)):
        return None
    failed = 0
    for rep, want in zip(doc, expect["cases"]):
        failed += len(rep["failures"])
        if rep["cases"] != want:
            failed += 1
    if (code == 0) != (failed == 0):
        failed += 1  # exit code disagrees with the reports
    body = [{k: v for k, v in r.items() if k != "wall_time"} for r in doc]
    return failed, _digest(body)


def check_irrep_info(code: int, doc, expect: Dict):
    """One check: dimension and weight table against the benchmark's
    hook-length dimension, multiplicity total and trace c."""
    if not isinstance(doc, dict) or not isinstance(doc.get("weights"), list):
        return None
    c = _parse_rational(expect["c"])
    ok = code == 0 and doc.get("dim") == expect["dim"]
    total = 0
    for w in doc["weights"]:
        try:
            values = [_parse_rational(x) for x in w["eigenvalues"]]
            total += w["dim"]
        except (KeyError, TypeError):
            return None
        if None in values or sum(values) != c:
            ok = False
    ok = ok and total == expect["dim"]
    return (0 if ok else 1), _digest(doc)


CHECKERS = {"verify-all": check_verify_all, "irrep-info": check_irrep_info}


def _expected_checks(call: Dict) -> int:
    return sum(call["expect"]["cases"]) if "cases" in call["expect"] else 1


def run_pass(manifest: Dict, argvs: List[List[str]], refs: List[str]):
    """One pass over every call.  ``refs`` holds the report digests of
    the first pass and is filled by it; a later pass whose digest
    differs fails that call's check.  Returns the reference-core seconds
    of each ``cli.main`` call, a Tally, and the wall seconds of each
    call."""
    from loopwitt import cli
    tally = Tally()
    times, wall_times = [], []
    clock = RefClock()
    for k, (call, argv) in enumerate(zip(manifest["calls"], argvs)):
        checks = _expected_checks(call)
        tally.calls += 1
        tally.checks += checks
        out = io.StringIO()
        clock.start()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(argv)
                finally:
                    ref_s, wall_s = clock.stop()
                    times.append(ref_s)
                    wall_times.append(wall_s)
            verdict = (CHECKERS[call["command"]](
                code, json.loads(out.getvalue()), call["expect"])
                if code in (0, 1) else None)
        except SystemExit as exc:
            print(f"perfbench: {argv[0]} exited with {exc.code}",
                  file=sys.stderr)
            verdict = None
        except Exception:
            print(f"perfbench: {argv[0]} {call['config']} raised:\n"
                  f"{traceback.format_exc(limit=3)}", file=sys.stderr)
            verdict = None
        if verdict is None:
            tally.call_errors += 1
            tally.errored_checks += checks
            if k == len(refs):
                refs.append(None)
            continue
        failed, digest = verdict
        if k == len(refs):
            refs.append(digest)
        elif refs[k] != digest:
            failed += 1
        tally.failed_checks += min(failed, checks)
    return times, tally, wall_times


def _ratio_ok(bad: int, total: int) -> float:
    return 1.0 - bad / total if total else 0.0


def measure(manifest: Dict, argvs: List[List[str]], seconds: float) -> Dict:
    """Untraced passes for about ``seconds``: a new pass starts while at
    least half of one, as long as the last, still fits.

    ``pass_s`` is the median pass put together call by call: the sum
    over calls of each call's median time in reference-core seconds.
    A per-call median drops a call whose calibration missed a slow
    stretch, where the median of two or three whole passes cannot.
    """
    refs: List[str] = []
    per_call: List[List[float]] = [[] for _ in argvs]
    completed, tally = [], Tally()
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        times, t, _ = run_pass(manifest, argvs, refs)
        for k, dt in enumerate(times):
            per_call[k].append(dt)
        completed.append(t.checks - t.errored_checks)
        tally.add(t)
        now = time.perf_counter()
        if now - start + (now - pass_start) / 2 > seconds:
            break
    pass_s = sum(statistics.median(ts) for ts in per_call)
    metrics = {
        "pass_s": (pass_s, "s"),
        "checks_per_s": (statistics.median(completed) / pass_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "check_pass_ratio": (_ratio_ok(tally.failed_checks,
                                       tally.checks - tally.errored_checks),
                             "ratio"),
        "call_ok_ratio": (_ratio_ok(tally.call_errors, tally.calls), "ratio"),
    }
    return {"metrics": metrics, "tally": tally, "passes": len(completed)}


def trace(manifest: Dict, argvs: List[List[str]]) -> Dict:
    """One untraced, one traced and one count-only pass; the traced and
    counted passes must give the untraced pass's report digests."""
    refs: List[str] = []
    tally = Tally()
    times, t, wall_times = run_pass(manifest, argvs, refs)
    tally.add(t)

    spans = tracing.Tracer()
    patches = tracing.install_spans(spans)
    try:
        traced_times, t, _ = run_pass(manifest, argvs, refs)
    finally:
        patches.undo()
    tally.add(t)

    counts = tracing.Tracer()
    patches = tracing.install_counts(counts)
    try:
        _, t, _ = run_pass(manifest, argvs, refs)
    finally:
        patches.undo()
    tally.add(t)
    metrics = layer_metrics(spans, counts, sum(traced_times) / sum(times))
    metrics["run.pass_wall_s"] = (sum(wall_times), "s")
    metrics["run.calibration_unit_s"] = (
        sum(wall_times) * REFERENCE_UNIT_S / sum(times), "s")
    return {"metrics": metrics, "tally": tally, "passes": 3}


TRACED_SUITES = ["bracket-soundness", "gl-relations", "module-axiom",
                 "assoc-unital", "operator-suite", "irreducibility"]


def layer_metrics(spans: tracing.Tracer, counts: tracing.Tracer,
                  overhead: float) -> Dict:
    s, c = spans.stat, counts.stat
    m = {}
    for suite in TRACED_SUITES:
        m[f"suites.{suite}.s"] = (s(f"suites.{suite}").total_s, "s")
    m["suites.self_s"] = (sum(st.self_s for name, st in spans.stats.items()
                              if name.startswith("suites.")), "s")
    for name in tracing.OPCHECK_SPANS:
        st = s(f"opcheck.{name}")
        m[f"opcheck.{name}.s"] = (st.total_s, "s")
        m[f"opcheck.{name}.calls"] = (st.calls, "count")
    m["opcheck.self_s"] = (sum(st.self_s for name, st in spans.stats.items()
                               if name.startswith("opcheck.")), "s")
    act = s("tensmod.act")
    m["tensmod.act.calls"] = (act.calls, "count")
    m["tensmod.act.self_s"] = (act.self_s, "s")
    m["tensmod.act.in_slices"] = (act.work, "count")
    m["tensmod.act.us_per_slice"] = (
        act.self_s * 1e6 / act.work if act.work else 0.0, "us")
    m["tensmod.module_axiom_residual.s"] = (
        s("tensmod.module_axiom_residual").total_s, "s")
    br = s("loop.bracket")
    m["loop.bracket.calls"] = (br.calls, "count")
    m["loop.bracket.term_pairs"] = (br.work, "count")
    m["loop.bracket.self_s"] = (br.self_s, "s")
    m["coeff.mul.count"] = (c("coeff.mul").calls, "count")
    m["coeff.psi.count"] = (c("coeff.psi").calls, "count")
    m["glnrep.build_irrep.s"] = (s("glnrep.build_irrep").total_s, "s")
    m["glnrep.burnside_dim.s"] = (s("glnrep.burnside_dim").total_s, "s")
    m["glnrep.burnside_dim.calls"] = (s("glnrep.burnside_dim").calls, "count")
    ins = s("linalg.span_insert")
    m["linalg.span_insert.calls"] = (ins.calls, "count")
    m["linalg.span_insert.accept_ratio"] = (
        ins.work / ins.calls if ins.calls else 0.0, "ratio")
    m["linalg.span_coords.calls"] = (s("linalg.span_coords").calls, "count")
    m["linalg.mat_mul.calls"] = (s("linalg.mat_mul").calls, "count")
    ops = 0
    for name in tracing.SCALAR_OPS:
        m[f"{name}.count"] = (c(name).calls, "count")
        ops += c(name).calls
    m["scalars.ops_per_leaf_s"] = (
        ops / spans.leaf_self_s if spans.leaf_self_s else 0.0, "1/s")
    m["cli.main.self_s"] = (s("cli.main").self_s, "s")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workdir", required=True, type=Path)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    setup_s, manifest, argvs = setup(args.workdir)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    out = (trace(manifest, argvs) if args.trace
           else measure(manifest, argvs, args.seconds))
    tally = out["tally"]
    print(json.dumps({
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in out["metrics"].items()},
        "attempted": tally.checks, "failed": tally.failed,
        "correct": tally.failed == 0 and tally.call_errors == 0,
        "passes": out["passes"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
