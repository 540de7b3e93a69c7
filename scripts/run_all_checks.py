#!/usr/bin/env python3
"""Run both models' full check suites over every builtin metric and the
two metric files `msbench/inputs/bumpy.metric` and `torsion.metric`
(read only), which override a connection component.

Prints one summary row per (model, metric) pair, then whether every
family passed or failed as its kind expects, and on its last line the
total wall time of all the checks. The rule, per family of a report:

- an identity must pass on every metric;
- a vacuum family must pass when the metric's vacuum flag is "yes" and
  fail when it is "no"; on "unknown" nothing is expected;
- a levi-civita family must pass when the metric overrides no connection
  component; under an override nothing is expected.

Exits nonzero when a family breaks the rule.

    PYTHONPATH=src python3 scripts/run_all_checks.py --points 20
"""

import argparse
import sys
import time
from pathlib import Path

from msgrav import catalog
from msgrav.report import FAMILIES, CheckConfig, run_check

INPUTS = Path(__file__).resolve().parent.parent / "msbench" / "inputs"
FILES = ("bumpy.metric", "torsion.metric")


def specs():
    """The swept metrics: every builtin, then each file of FILES."""
    return ([catalog.builtin(name) for name in catalog.list_builtins()]
            + [catalog.load_metric_file(str(INPUTS / f)) for f in FILES])


def expected_pass(kind, spec):
    """Whether a family of this kind must pass on spec (True), must fail
    (False), or may do either (None)."""
    if kind == "identity":
        return True
    if kind == "vacuum":
        return {"yes": True, "no": False}.get(spec.vacuum)
    return None if spec.connection else True  # levi-civita


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    rows, unexpected = [], []
    start = time.perf_counter()
    swept = specs()
    for model in ("eh", "ep"):
        kinds = {fam: kind for fam, kind, _ in FAMILIES[model]}
        for spec in swept:
            name = spec.name
            t0 = time.perf_counter()
            report = run_check(CheckConfig(
                model=model, spec=spec, points=args.points, seed=args.seed))
            dt = time.perf_counter() - t0
            worst = max(f["max_resid"] for f in report.families)
            bad = [f["family"] for f in report.families if not f["pass"]]
            for f in report.families:
                kind = kinds[f["family"]]
                want = expected_pass(kind, spec)
                if want is not None and f["pass"] != want:
                    unexpected.append(f"{model} {name} {f['family']} ({kind}) "
                                      + ("passed" if f["pass"] else "failed"))
            rows.append((model, name, report.verdict, worst, dt,
                         ", ".join(bad) or "-"))
    total = time.perf_counter() - start

    width = max(len(row[1]) for row in rows)
    print(f"{'model':5s} {'metric':{width}s} {'verdict':7s} "
          f"{'max resid':>10s} {'time':>6s}  failing families")
    for model, name, verdict, worst, dt, bad in rows:
        print(f"{model:5s} {name:{width}s} {verdict:7s} "
              f"{worst:10.2e} {dt:5.1f}s  {bad}")

    if unexpected:
        print("unexpected family outcomes:")
        for line in unexpected:
            print("  " + line)
    else:
        print("every family passed or failed as its kind expects")
    print(f"total wall time {total:.2f}s for {len(rows)} checks of "
          f"{args.points} points")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
