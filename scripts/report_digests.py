#!/usr/bin/env python3
"""Print a digest of each report over a fixed set of check runs.

One line per report, `model metric seed sha256`, where the digest is taken
over the report's JSON text. The runs cover the metrics that
`run_all_checks.py` sweeps (the 7 builtins, then the two metric files
`msbench/inputs/bumpy.metric` and `torsion.metric`, read only), both
models, seeds 0 and 1, 10 points each. Two trees produce byte-identical
reports exactly when their outputs are equal:

    PYTHONPATH=src python3 scripts/report_digests.py > after.txt
    diff before.txt after.txt
"""

import hashlib
import sys

from msgrav.report import CheckConfig, report_json, run_check
from run_all_checks import specs


def main() -> int:
    swept = specs()
    for model in ("eh", "ep"):
        for spec in swept:
            for seed in (0, 1):
                cfg = CheckConfig(model=model, spec=spec, points=10,
                                  seed=seed)
                text = report_json(run_check(cfg))
                digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
                print(f"{model} {spec.name} {seed} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
