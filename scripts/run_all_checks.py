#!/usr/bin/env python3
"""Run both models' full check suites over every builtin metric.

Prints one summary row per (model, metric) pair, then whether every
verdict is as expected, and on its last line the total wall time of all
the checks. Exits nonzero on an unexpected verdict.

    PYTHONPATH=src python3 scripts/run_all_checks.py --points 20
"""

import argparse
import sys
import time

from msgrav import catalog
from msgrav.report import CheckConfig, run_check


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    rows = []
    start = time.perf_counter()
    for model in ("eh", "ep"):
        for name in catalog.list_builtins():
            spec = catalog.builtin(name)
            t0 = time.perf_counter()
            report = run_check(CheckConfig(
                model=model, spec=spec, points=args.points, seed=args.seed))
            dt = time.perf_counter() - t0
            worst = max(f["max_resid"] for f in report.families)
            bad = [f["family"] for f in report.families if not f["pass"]]
            rows.append((model, name, report.verdict, worst, dt,
                         ", ".join(bad) or "-"))
    total = time.perf_counter() - start

    print(f"{'model':5s} {'metric':16s} {'verdict':7s} "
          f"{'max resid':>10s} {'time':>6s}  failing families")
    for model, name, verdict, worst, dt, bad in rows:
        print(f"{model:5s} {name:16s} {verdict:7s} "
              f"{worst:10.2e} {dt:5.1f}s  {bad}")

    # flrw and desitter carry stress-energy, so their vacuum families are
    # expected to fail; everything else must pass
    expected_fail = {"flrw", "desitter"}
    unexpected = [(m, n) for m, n, v, *_ in rows
                  if (v != "pass") != (n in expected_fail)]
    if unexpected:
        print("unexpected verdicts:", unexpected)
    else:
        print("all verdicts as expected "
              "(vacuum metrics pass, sourced metrics fail)")
    print(f"total wall time {total:.2f}s for {len(rows)} checks of "
          f"{args.points} points")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
