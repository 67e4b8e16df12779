"""Command line interface.

Subcommands:

* verify-all  -- run the configured identity suites; exit 0 only if all pass
* bracket     -- bracket of two loop-algebra expressions
* irrep-info  -- dimension and weight table of the configured gl(n) module
* module-info -- weight table of the truncated tensor-field module
* export      -- write every suite report as JSON into a directory

Exit codes: 0 success, 1 suite failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .glnrep import build_irrep
from .parsing import ParseError, format_loop_elem, parse_loop_expr
from .suites import ConfigError, IdentityReport, RunConfig, run_suites

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_CONFIG_ERROR = 2


def _load_config(path: Optional[str], seed: Optional[int]) -> RunConfig:
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
        cfg = RunConfig.from_dict(doc)
    if seed is not None:
        cfg.seed = seed
    return cfg


def _report_json(rep: IdentityReport) -> str:
    return json.dumps(rep.to_dict(), sort_keys=True, indent=2)


def _print_reports(reports: List[IdentityReport], as_json: bool):
    if as_json:
        print(json.dumps([r.to_dict() for r in reports], sort_keys=True,
                         indent=2))
        return
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"[{status}] {rep.suite}: {rep.cases} cases, "
              f"{len(rep.failures)} failures ({rep.wall_time:.2f}s)")
        for f in rep.failures[:10]:
            print(f"    failure: {json.dumps(f, sort_keys=True)}")


def cmd_verify_all(args) -> int:
    cfg = _load_config(args.config, args.seed)
    names = args.suite if args.suite else None
    reports = run_suites(cfg, names)
    _print_reports(reports, args.json)
    if args.out:
        _write_reports(reports, Path(args.out))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_SUITE_FAILURE


def cmd_bracket(args) -> int:
    cfg = _load_config(args.config, args.seed)
    try:
        x = parse_loop_expr(args.x, cfg.n, cfg.bpres)
        y = parse_loop_expr(args.y, cfg.n, cfg.bpres)
    except ParseError as exc:
        raise ConfigError(f"expression error: {exc}")
    print(format_loop_elem(x.bracket(y)))
    return EXIT_OK


def cmd_irrep_info(args) -> int:
    cfg = _load_config(args.config, args.seed)
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
    cfg = _load_config(args.config, args.seed)
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


def _write_reports(reports: List[IdentityReport], out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    for rep in reports:
        (out_dir / f"{rep.suite}.json").write_text(_report_json(rep) + "\n")


def cmd_export(args) -> int:
    cfg = _load_config(args.config, args.seed)
    reports = run_suites(cfg)
    _write_reports(reports, Path(args.out))
    print(f"wrote {len(reports)} reports to {args.out}")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_SUITE_FAILURE


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="loopwitt",
        description="Exact identity checks for loop algebras of the "
                    "semidirect product of Laurent functions and their "
                    "derivations, and their tensor-field modules.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config path")
        sp.add_argument("--seed", type=int, help="override the config seed")
        sp.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")

    sp = sub.add_parser("verify-all", help="run identity suites")
    common(sp)
    sp.add_argument("--suite", action="append",
                    help="run only this suite (repeatable)")
    sp.add_argument("--out", help="also write reports to this directory")
    sp.set_defaults(func=cmd_verify_all)

    sp = sub.add_parser("bracket", help="bracket of two elements")
    common(sp)
    sp.add_argument("x")
    sp.add_argument("y")
    sp.set_defaults(func=cmd_bracket)

    sp = sub.add_parser("irrep-info", help="inspect the gl(n) module")
    common(sp)
    sp.add_argument("--matrices", action="store_true",
                    help="include the E_ij matrices")
    sp.set_defaults(func=cmd_irrep_info)

    sp = sub.add_parser("module-info", help="inspect the tensor-field module")
    common(sp)
    sp.set_defaults(func=cmd_module_info)

    sp = sub.add_parser("export", help="write all reports to a directory")
    common(sp)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_export)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
