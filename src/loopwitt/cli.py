"""Command line interface.

Subcommands:

* verify-all  -- run the configured identity suites; exit 0 only if all pass
* bracket     -- bracket of two loop-algebra expressions
* irrep-info  -- dimension and weight table of the configured gl(n) module
* module-info -- weight table of the truncated tensor-field module
* export      -- write every suite report as JSON into a directory

Exit codes: 0 success, 1 suite failure, 2 configuration error, 3
internal error (an unexpected exception, reported on one stderr line, so
that a crash never reads as a suite failure).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path
from typing import List, Optional

from .glnrep import build_irrep
from .parsing import ParseError, format_loop_elem, parse_loop_expr
from .suites import ConfigError, RunConfig, run_suites

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_INTERNAL_ERROR = 3


def _load_config(path: Optional[str], seed: Optional[int] = None) -> RunConfig:
    if path is None:
        cfg = RunConfig()
    else:
        try:
            doc = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config parse error at line {exc.lineno}, column {exc.colno}: "
                f"{exc.msg}")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}")
        cfg = RunConfig.from_dict(doc)
    if seed is not None:
        cfg.seed = seed
    return cfg


def cmd_verify_all(args) -> int:
    cfg = _load_config(args.config, args.seed)
    if args.suite:
        # rebuilt, so that the suites are validated with the rest
        cfg = replace(cfg, suites=tuple(args.suite))
    reports = run_suites(cfg)
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], sort_keys=True,
                         indent=2))
    else:
        for rep in reports:
            status = "PASS" if rep.passed else "FAIL"
            print(f"[{status}] {rep.suite}: {rep.cases} cases, "
                  f"{len(rep.failures)} failures ({rep.wall_time:.2f}s)")
            for f in rep.failures[:10]:
                print(f"    failure: {json.dumps(f, sort_keys=True)}")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_SUITE_FAILURE


def cmd_bracket(args) -> int:
    cfg = _load_config(args.config)
    try:
        x = parse_loop_expr(args.x, cfg.n, cfg.bpres)
        y = parse_loop_expr(args.y, cfg.n, cfg.bpres)
    except ParseError as exc:
        raise ConfigError(f"expression error: {exc}")
    print(format_loop_elem(x.bracket(y)))
    return EXIT_OK


def cmd_irrep_info(args) -> int:
    cfg = _load_config(args.config)
    rep = build_irrep(cfg.mu, cfg.c, cfg.n)
    doc = {
        "n": cfg.n,
        "mu": list(cfg.mu),
        "c": str(cfg.c),
        "dim": rep.d,
        "weights": [{"eigenvalues": [str(x) for x in w], "dim": m}
                    for w, m in rep.weight_table()],
    }
    if args.matrices:
        doc["matrices"] = {
            f"E_{i}{j}": [[str(x) for x in row] for row in rep.E(i, j)]
            for i in range(1, cfg.n + 1) for j in range(1, cfg.n + 1)}
    if args.json:
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(f"V(mu={list(cfg.mu)}, c={cfg.c}) for gl_{cfg.n}: dim {rep.d}")
        for w in doc["weights"]:
            print(f"  weight ({', '.join(w['eigenvalues'])}): dim {w['dim']}")
        if args.matrices:
            for name, m in doc["matrices"].items():
                print(f"  {name}: {m}")
    return EXIT_OK


def cmd_module_info(args) -> int:
    cfg = _load_config(args.config)
    module = cfg.build_module()
    doc = {
        "slices": [{"m": list(m), "dim": module.d}
                   for m in module.window.slices()],
        "alpha": [str(a) for a in cfg.alpha],
        "mu": list(cfg.mu),
        "c": str(cfg.c),
        "B": cfg.to_dict()["B"],
    }
    if args.json:
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(f"F^alpha(mu, c) on window radius {cfg.window_radius}: "
              f"{len(doc['slices'])} slices of dim {module.d}")
        print(f"  alpha = ({', '.join(doc['alpha'])}), c = {doc['c']}, "
              f"B kind = {doc['B']['kind']}")
    return EXIT_OK


def cmd_export(args) -> int:
    cfg = _load_config(args.config, args.seed)
    out_dir = Path(args.out)
    try:  # before the run, so that a bad --out costs no suite time
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create report directory {args.out}: {exc}")
    reports = run_suites(cfg)
    for rep in reports:
        (out_dir / f"{rep.suite}.json").write_text(
            json.dumps(rep.to_dict(), sort_keys=True, indent=2) + "\n")
    print(f"wrote {len(reports)} reports to {args.out}")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_SUITE_FAILURE


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first main call (not
    at import) and reused: parse_args keeps no state between calls."""
    p = argparse.ArgumentParser(
        prog="loopwitt",
        description="Exact identity checks for loop algebras of the "
                    "semidirect product of Laurent functions and their "
                    "derivations, and their tensor-field modules.")
    sub = p.add_subparsers(dest="command", required=True)

    flags = {
        "--seed": dict(type=int, help="override the config seed"),
        "--json": dict(action="store_true", help="emit machine-readable JSON"),
    }

    def command(name, func, summary, *shared):
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--config", help="JSON config path")
        for flag in shared:
            sp.add_argument(flag, **flags[flag])
        sp.set_defaults(func=func)
        return sp

    sp = command("verify-all", cmd_verify_all, "run identity suites",
                 "--seed", "--json")
    sp.add_argument("--suite", action="append",
                    help="run only this suite (repeatable)")

    sp = command("bracket", cmd_bracket, "bracket of two elements")
    sp.add_argument("x")
    sp.add_argument("y")

    sp = command("irrep-info", cmd_irrep_info, "inspect the gl(n) module",
                 "--json")
    sp.add_argument("--matrices", action="store_true",
                    help="include the E_ij matrices")

    command("module-info", cmd_module_info, "inspect the tensor-field module",
            "--json")

    sp = command("export", cmd_export, "write all reports to a directory",
                 "--seed")
    sp.add_argument("--out", required=True)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except Exception as exc:
        msg = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
