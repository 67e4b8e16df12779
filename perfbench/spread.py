"""Run the benchmark over several seeds and summarise each end-to-end
metric by its median, quartiles and spread (quartile distance ÷ median).

    python3 perfbench/spread.py --seeds 1-10 [--workload gl-cert] [--out set.json]

This is how ``baseline.json`` was made: two invocations over the same
seeds, one after the other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    p.add_argument("--workload", action="append",
                   help="repeatable; default every workload")
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    out = {}
    for name in names:
        runs = []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{name} seed {seed}: incorrect output", file=sys.stderr)
                return 1
            runs.append({k: v["value"] for k, v in res["metrics"].items()})
        out[name] = {m["name"]: summarise([r[m["name"]] for r in runs])
                     for m in spec["end_to_end"]}
        for metric, s in out[name].items():
            bound = next(m["bound"] for m in spec["end_to_end"]
                         if m["name"] == metric)
            print(f"{name:14s} {metric:17s} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.4f} (bound {bound})")
    if args.out:
        args.out.write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
