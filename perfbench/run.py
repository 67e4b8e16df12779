"""loopwitt benchmark: time ``loopwitt.cli.main`` on seeded workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload operator-grid --seed 1 --seconds 20 --trace 0

The workloads and their metrics are listed in ``BENCHMARK.json`` and
described in ``perfbench/README.md``.  The run writes the generated
configs under ``.perfbench/`` in the checkout and removes them at the
end.  With ``--trace 0`` it starts fresh processes that only import
loopwitt and load the configs (``setup_s``), then one worker process
that runs passes of the workload for about ``--seconds`` seconds.  With
``--trace 1`` the worker runs one untraced, one traced and one
count-only pass and reports the per-layer metrics.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Exit code 0 means the run completed, whether or not
the outputs were correct; anything else means no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SETUP_SAMPLES = 11
TIME_LIMIT_S = 170  # the whole run, set-up included


def _worker(workdir: Path, extra, deadline: float) -> dict:
    """Run worker.py to completion and return its JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for the worker")
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workdir", str(workdir), *extra],
        stdout=subprocess.PIPE, timeout=timeout, check=True, cwd=ROOT)
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def measure_setup(workdir: Path, deadline: float) -> float:
    """Median set-up time over fresh processes; the first one, which
    also writes the bytecode caches, is not counted."""
    samples = [_worker(workdir, ["--setup-only"], deadline)["setup_s"]
               for _ in range(SETUP_SAMPLES + 1)]
    return statistics.median(samples[1:])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="loopwitt benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="tiny runs a few small configs, for the tests")
    args = p.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "loopwitt" / "__init__.py").is_file():
        print(f"perfbench: no loopwitt sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workdir = (ROOT / ".perfbench"
               / f"{args.workload}-{args.seed}-{args.size}-{os.getpid()}")
    try:
        workloads.write(workdir, args.workload, args.seed, args.size)
        setup_s = None if args.trace else measure_setup(workdir, deadline)
        out = _worker(workdir, ["--seconds", str(args.seconds),
                                "--trace", str(args.trace)], deadline)
    except (subprocess.SubprocessError, TimeoutError, OSError,
            ValueError) as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    metrics = out["metrics"]
    if setup_s is not None:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    print(f"perfbench: {args.workload} seed {args.seed}: "
          f"{out['passes']} passes", file=sys.stderr)
    print(json.dumps({"correct": out["correct"],
                      "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
