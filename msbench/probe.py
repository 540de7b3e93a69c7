"""Time one fresh-process set-up of a workload.

Set-up is what a new process pays before its first timed call: import
msgrav, build and validate every spec the workload uses, and run one
warm-up point per model (which fills the series tables). Prints the set-up
wall time and then the reference-kernel time measured right after it (see
``speed.py``), both in seconds, on one line.

    python3 msbench/probe.py <workload>
"""

import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

if __name__ == "__main__":
    t0 = perf_counter()
    from msbench import workloads

    wl = workloads.WORKLOADS[sys.argv[1]]
    workloads.set_threads(wl)
    workloads.warm_up(wl, workloads.build_specs(wl))
    wall = perf_counter() - t0
    print(repr(wall), repr(workloads.speed.settled_kernel_seconds()))
