#!/usr/bin/env python3
"""Run msbench on two checkouts in alternating pairs and compare them.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --seed-base S \
        --out BENCH_N.json [--trace-workload W]

Every workload of BENCHMARK.json runs in ten pairs, each pair running
`msbench/run.py --trace 0` once in each checkout for the benchmark's run
length, with the same seed; the side that runs first alternates (the
parent first on even pairs). Pair k of a workload uses seed
S + 20 w + k, w the workload's position; take a fresh S for each change,
so that a claim is read on seeds not used while the change was written.
With `--trace-workload W`, one `--trace 1` run of W per side, seed S + 99,
follows the pairs.

The output file holds every run and, per (workload, end-to-end metric),
each side's median and quartiles (numpy's linear 25th and 75th
percentiles), the change in percent and the pairs the change won. One line
per row is printed with its verdict by the rule of the benchmark guide:
"gain" when the change wins at least nine tenths of the pairs and its
median beats the parent's by more than the parent's interquartile range,
"worse" when its median is worse than the parent's by more than the
metric's bound in BENCHMARK.json, "unresolved" when the parent's
interquartile range is wider than that bound times its median (the runs
spread too widely to tell) unless every change run beats every parent
run, and "holds" otherwise. A verdict is a reading of these runs, not a
claim: the claim is written by hand.

Only process-local measurement is used: each run measures itself
(msbench/run.py); this script only starts the runs and reads their last
output line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = SPEC["run_seconds"]
PAIRS = 10


def run_bench(tree, workload, seed, trace):
    """The last JSON line of one msbench run in `tree` (and, when traced,
    its layers line)."""
    cmd = [sys.executable, "msbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                         check=True, timeout=10 * SECONDS + 300).stdout
    lines = [json.loads(x) for x in out.splitlines() if x.startswith("{")]
    layers = next((x["layers"] for x in lines if "layers" in x), None)
    return lines[-1], layers


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(x.split(":", 1)[1].strip() for x in fh
                       if x.startswith("model name"))
    except (OSError, StopIteration):
        pass
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20
    return {"nproc": os.cpu_count(), "cpu": cpu, "mem_total_mib": mem,
            "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "note": "shared host; other tenants' load is not controlled"}


def quartiles(xs):
    return [round(float(q), 6) for q in np.percentile(xs, [25, 75])]


def compare(runs, workload, name):
    """The summary row of one (workload, metric) and its verdict."""
    better = METRICS[name]["better"]
    sides = {s: {r["pair"]: r["metrics"][name] for r in runs
                 if r["workload"] == workload and r["side"] == s}
             for s in ("parent", "change")}
    pairs = sorted(set(sides["parent"]) & set(sides["change"]))
    par = [sides["parent"][k] for k in pairs]
    chg = [sides["change"][k] for k in pairs]
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
    pm, cm = float(np.median(par)), float(np.median(chg))
    iqr = float(np.subtract(*np.percentile(par, [75, 25])))
    bound = METRICS[name]["bound"] * abs(pm)
    if wins >= math.ceil(0.9 * len(pairs)) and sign * (cm - pm) > iqr:
        verdict = "gain"
    elif sign * (pm - cm) > bound:
        verdict = "worse"
    elif iqr > bound and not all(sign * (c - p) > 0 for c in chg
                                 for p in par):
        verdict = "unresolved"
    else:
        verdict = "holds"
    return {"parent_median": round(pm, 6), "parent_quartiles": quartiles(par),
            "change_median": round(cm, 6), "change_quartiles": quartiles(chg),
            "change_pct": round(100.0 * (cm - pm) / pm, 2) if pm else None,
            "change_better_pairs": wins, "pairs": len(pairs),
            "verdict": verdict}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seed-base", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace-workload", choices=WORKLOADS)
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "msbench" / "run.py").is_file():
            ap.error(f"{tree} is not a checkout with msbench/run.py")

    runs, traces = [], []
    for w, workload in enumerate(WORKLOADS):
        for k in range(PAIRS):
            seed = args.seed_base + 20 * w + k
            order = ["parent", "change"] if k % 2 == 0 else [
                "change", "parent"]
            for side in order:
                last, _ = run_bench(trees[side], workload, seed, 0)
                runs.append({
                    "workload": workload, "pair": k, "side": side,
                    "seed": seed, "first": side == order[0],
                    "correct": last["correct"],
                    "attempted": last["attempted"], "failed": last["failed"],
                    "metrics": {n: m["value"]
                                for n, m in last["metrics"].items()}})
                print(f"{workload} pair {k} {side}: " + ", ".join(
                    f"{n} {v:.6g}" for n, v in runs[-1]["metrics"].items()),
                    flush=True)
    if args.trace_workload:
        for side, tree in trees.items():
            last, layers = run_bench(tree, args.trace_workload,
                                     args.seed_base + 99, 1)
            traces.append({"workload": args.trace_workload, "side": side,
                           "seed": args.seed_base + 99,
                           "correct": last["correct"], "layers": layers})

    summary = {}
    for workload in WORKLOADS:
        mine = [r for r in runs if r["workload"] == workload]
        summary[workload] = {
            "failed": {s: sum(r["failed"] for r in mine if r["side"] == s)
                       for s in trees},
            "attempted": {s: sum(r["attempted"] for r in mine
                                 if r["side"] == s) for s in trees},
            **{name: compare(runs, workload, name) for name in METRICS}}
        for name in METRICS:
            row = summary[workload][name]
            print(f"{workload:10s} {name:12s} parent "
                  f"{row['parent_median']:<12.6g} change "
                  f"{row['change_median']:<12.6g} ({row['change_pct']:+.2f}%,"
                  f" {row['change_better_pairs']}/{row['pairs']} pairs) "
                  f"{row['verdict']}")
    args.out.write_text(json.dumps({
        "what": (f"msbench end-to-end runs (python3 msbench/run.py "
                 f"--workload W --seed S --seconds {SECONDS:g} --trace "
                 f"0), {PAIRS} pairs per workload, the checkout "
                 f"{trees['parent'].name!r} (parent) against "
                 f"{trees['change'].name!r} (change), each run from its own "
                 f"copy of the tree; pair k of the w-th "
                 f"workload uses seed {args.seed_base} + 20 w + k on both "
                 f"sides, and the side that runs first alternates (parent "
                 f"first on even pairs). Quartiles are numpy's linear 25th "
                 f"and 75th percentiles."),
        "measurement": (
            "process-local tools only: time.perf_counter and "
            "resource.getrusage inside each benchmark process (timings in "
            "msbench reference seconds, see msbench/speed.py); no "
            "system-wide tracing, no hardware counters, no machine-setting "
            "changes"),
        "machine": machine(), "summary": summary, "runs": runs,
        "traces": traces}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
