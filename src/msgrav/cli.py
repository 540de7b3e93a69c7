"""Command-line entry point.

Subcommands:
  check    run a model's full check suite on a metric and emit a report
  catalog  list the built-in metrics
  jets     dump the jet coordinates of a metric at a point (debugging)

Exit codes: 0 all checks pass, 1 a constraint family failed, 2 usage or
configuration error, 3 numeric domain error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import catalog
from .errors import ConfigError, DomainError, MsgravError
from .indexing import DERIVS, DIM, PAIRS
from .report import CheckConfig, emit_report, run_check
from .version import VERSION


def _load_spec(source: str, params: dict) -> catalog.MetricSpec:
    if os.path.sep in source or source.endswith(".ini") or \
            os.path.exists(source):
        if params:
            raise ConfigError("--param applies to builtin metrics only; "
                              "set parameters in the file's [params]")
        return catalog.load_metric_file(source)
    return catalog.builtin(source, **params)


def _assignments(items, key_name, numeric=False):
    """KEY=VALUE items as a dict. A value is a float where it parses as
    one; otherwise it is kept as a string, or rejected when `numeric`."""
    out = {}
    for item in items or []:
        key, sep, val = item.partition("=")
        if not sep:
            raise ConfigError(f"expected {key_name}=value, got {item!r}")
        try:
            out[key.strip()] = float(val)
        except ValueError:
            if numeric:
                raise ConfigError(f"tolerance {item!r} is not a number")
            out[key.strip()] = val.strip()
    return out


def _cmd_check(args) -> int:
    spec = _load_spec(args.metric, _assignments(args.param, "name"))
    cfg = CheckConfig(model=args.model, spec=spec, points=args.points,
                      seed=args.seed,
                      tolerances=_assignments(args.tol, "family", True))
    report = run_check(cfg)
    text = emit_report(report, fmt=args.format, path=args.out)
    if args.out is None:
        sys.stdout.write(text)
    return 0 if report.verdict == "pass" else 1


def _cmd_catalog(args) -> int:
    for name in catalog.list_builtins():
        spec = catalog.builtin(name)
        box = ", ".join(f"x{i}:[{lo:g}, {hi:g}]"
                        for i, (lo, hi) in enumerate(spec.domain))
        print(f"{name:16s} vacuum={spec.vacuum:8s} {box}")
    return 0


def _cmd_jets(args) -> int:
    try:
        x = tuple(float(v) for v in args.at.split(","))
    except ValueError:
        raise ConfigError(f"bad point {args.at!r}")
    if len(x) != DIM:
        raise ConfigError("the point needs exactly 4 coordinates")
    spec = _load_spec(args.metric, _assignments(args.param, "name"))
    with catalog.quiet():
        p = catalog.eh_point_at(spec, x)
    print(f"metric {spec.name!r} at x = {x}")
    for i, (a, b) in enumerate(PAIRS):
        print(f"g[{a}{b}] = {p.g[i]:.12g}")
    for order, name in enumerate(("dg", "d2g", "d3g"), start=1):
        block = getattr(p, name)
        for i, (a, b) in enumerate(PAIRS):
            nz = {"d" + "".join(map(str, c)): block[i, j]
                  for j, c in enumerate(DERIVS[order])
                  if abs(block[i, j]) > 1e-15}
            if nz:
                print(f"{name}[{a}{b}] = " + ", ".join(
                    f"{k}:{v:.12g}" for k, v in nz.items()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="msgrav",
        description="Multisymplectic verification checks for the "
                    "second-order metric and first-order metric-affine "
                    "gravity models.")
    ap.add_argument("--version", action="version", version=VERSION)
    sub = ap.add_subparsers(dest="command", required=True)

    chk = sub.add_parser("check", help="run the check suite on a metric")
    chk.add_argument("--model", required=True, choices=("eh", "ep"))
    chk.add_argument("--metric", required=True,
                     help="builtin name or metric definition file")
    chk.add_argument("--points", type=int, default=20)
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--tol", action="append", metavar="FAMILY=VAL")
    chk.add_argument("--param", action="append", metavar="NAME=VAL",
                     help="builtin metric parameter override")
    chk.add_argument("--format", choices=("json", "csv"), default="json")
    chk.add_argument("--out", default=None)
    chk.set_defaults(func=_cmd_check)

    cat = sub.add_parser("catalog", help="inspect the builtin metrics")
    cat.add_argument("action", choices=("list",))
    cat.set_defaults(func=_cmd_catalog)

    jets = sub.add_parser("jets", help="dump jet coordinates at a point")
    jets.add_argument("--metric", required=True)
    jets.add_argument("--at", required=True, metavar="x0,x1,x2,x3")
    jets.add_argument("--param", action="append", metavar="NAME=VAL")
    jets.set_defaults(func=_cmd_jets)
    return ap


# built once: parsing leaves the parser unchanged, so every call shares it
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DomainError as e:
        print(f"domain error: {e}", file=sys.stderr)
        return 3
    except MsgravError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
