"""The msgrav benchmark: one workload, one seed, one JSON result line.

    python3 msbench/run.py --workload ep-sweep --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; msgrav is imported from ``src/``.
With ``--trace 0`` it measures the end-to-end metrics: set-up time (median
of several fresh processes), then a closed loop of check calls for
``--seconds`` seconds. Their times are given in reference seconds: each
wall time is rescaled by a reference kernel timed around it, which cancels
the drift of a shared host's speed (see ``speed.py``); the raw wall times
are printed beside them. With ``--trace 1`` it runs the same loop with spans
on the public msgrav functions, replays its first calls traced and
untraced in pairs to price the tracing, and counts AD and series
operations in a separate pass; it prints the per-layer metrics and writes
the spans under ``.bench_out/``.

Every call passes through a correctness gate (see ``workloads.py``). The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; an operation is one sample point.

Only process-local measurement is used: ``time.perf_counter`` and
``resource.getrusage``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the metric lists a run must print; a traced run prints only the
# per-layer metrics named here on its result line
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 60
MEASUREMENT_NOTE = (
    "process-local tools only: time.perf_counter and resource.getrusage; "
    "no system-wide tracing, no hardware counters, no machine-setting "
    "changes")


def tail(walls):
    """(value, percentile) at the highest percentile with at least ten
    samples above it; the maximum when there are ten or fewer samples."""
    walls = sorted(walls)
    n = len(walls)
    k = n - 10 if n > 10 else n
    return walls[k - 1], 100.0 * k / n


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args) -> dict:
    import msgrav
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": nproc, "machine": platform.machine(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "msgrav": msgrav.__version__, "commit": git_commit(),
        "measurement": MEASUREMENT_NOTE,
    }


def setup_seconds(workload: str, probes: int) -> list:
    """(set-up wall, kernel time) of `probes` fresh processes, one after
    another."""
    out = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "msbench" / "probe.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        wall, kernel_s = proc.stdout.strip().splitlines()[-1].split()
        out.append((float(wall), float(kernel_s)))
    return out


def tally(outcomes):
    attempted = sum(o.call.points for o in outcomes)
    failed = sum(o.failed_points for o in outcomes)
    return attempted, failed


def report_problems(outcomes):
    bad = [o for o in outcomes if o.problem]
    for o in bad[:10]:
        print(f"gate: {o.call}: {o.problem}", file=sys.stderr)
    if len(bad) > 10:
        print(f"gate: ... and {len(bad) - 10} more failed calls",
              file=sys.stderr)


def measure(args, wl, workloads) -> tuple[dict, list]:
    """End-to-end metrics, tracing off, in reference seconds (speed.py)."""
    from msbench import speed

    # half the set-up probes run before the loop and half after it, so that
    # they sample two stretches of the machine's background load
    probes = setup_seconds(wl.name, SETUP_PROBES // 2)
    specs = workloads.build_specs(wl)
    workloads.warm_up(wl, specs)
    with workloads.scratch_dir(ROOT) as tmp:
        runner = workloads.Runner(wl, specs, workloads.load_expected(),
                                  Path(tmp))
        outcomes, wall = workloads.drive(
            runner, workloads.calls(wl, args.seed), args.seconds, gauge=True)
    probes += setup_seconds(wl.name, SETUP_PROBES - SETUP_PROBES // 2)
    attempted, failed = tally(outcomes)
    raw = [o.wall for o in outcomes]
    ref = [speed.rescale(o.wall, o.kernel_s) for o in outcomes]
    setups = [speed.rescale(w, k) for w, k in probes]
    tail_s, tail_pct = tail(ref)
    metrics = {
        "points_per_s": ((attempted - failed) / sum(ref), "points/s"),
        "call_s_p50": (statistics.median(ref), "s"),
        "call_s_tail": (tail_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    kernels = [o.kernel_s for o in outcomes]
    notes = {
        "points_per_s": f"{attempted - failed} points in {sum(ref):.3f} "
                        f"reference s; raw {sum(raw):.3f} s in calls, "
                        f"{wall:.3f} s in the phase",
        "call_s_p50": f"n={len(ref)} calls; raw {statistics.median(raw):.4g}",
        "call_s_tail": f"p{tail_pct:.1f}, n={len(ref)} calls; raw "
                       f"{tail(raw)[0]:.4g}",
        "peak_rss_mb": "ru_maxrss of the benchmark process",
        "setup_s": f"median of {len(setups)} fresh processes; raw "
                   + ", ".join(f"{w:.4f}" for w, _ in probes),
    }
    print(f"  speed gauge: kernel {1e3 * min(kernels):.3f}-"
          f"{1e3 * max(kernels):.3f} ms over the calls (median "
          f"{1e3 * statistics.median(kernels):.3f}), reference "
          f"{1e3 * speed.REFERENCE_S:g} ms; times below are in reference s")
    print(f"  {'failed_frac':22s} {failed / attempted:<14.6g} ratio      "
          f"({failed} of {attempted} points)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:22s} {value:<14.6g} {unit:10s} ({notes[name]})")
    return metrics, outcomes


def measure_traced(args, wl, workloads, prov) -> tuple[dict, list]:
    """Per-layer metrics: a traced loop, a paired traced/untraced replay of
    its first calls to price the tracing, and a counting pass over one
    round."""
    from msbench import trace

    tracer = trace.Tracer()
    with trace.traced(tracer):
        specs = workloads.build_specs(wl)
    workloads.warm_up(wl, specs)
    with workloads.scratch_dir(ROOT) as tmp:
        runner = workloads.Runner(wl, specs, workloads.load_expected(),
                                  Path(tmp))
        with trace.traced(tracer):
            outcomes, _ = workloads.drive(
                runner, workloads.calls(wl, args.seed), args.seconds)
        # price the tracing: replay the run's calls once traced and once
        # untraced, in alternating order, until a quarter of the run is
        # spent; pairing the two cancels slow drifts in the machine's load
        walls = {True: 0.0, False: 0.0}
        again = []
        for i, o in enumerate(outcomes):
            if again and sum(walls.values()) > args.seconds / 4:
                break
            for on in (i % 2 == 0, i % 2 == 1):
                with trace.traced(trace.Tracer()) if on else nullcontext():
                    again.append(runner.run(o.call))
                walls[on] += again[-1].wall
        overhead = walls[True] / walls[False] - 1.0
        # counts from one round of the workload's calls, in their own pass;
        # one point per call suffices, as every point does the same work
        per_round = sum(len(menu) for menu in wl.calls.values())
        counted_calls = [replace(o.call, points=1)
                         for o in outcomes[:per_round]]
        with trace.counting() as counts:
            counted = [runner.run(c) for c in counted_calls]
        tallies = counts.snapshot()
    attempted, _ = tally(outcomes)
    layers = trace.layer_metrics(
        tracer.spans, attempted, tallies, tally(counted)[0],
        sum(o.skipped for o in outcomes), overhead)
    tracked = [m["name"] for m in SPEC["per_layer"]]
    for name, value in layers.items():
        mark = "" if name in tracked else "  (layers line only)"
        print(f"  {name:48s} {value:<14.6g} {trace.layer_unit(name)}{mark}")
    print(json.dumps({"layers": {n: {"value": v, "unit": trace.layer_unit(n)}
                                 for n, v in layers.items()}}))
    out = ROOT / ".bench_out" / f"trace-{wl.name}-seed{args.seed}.json"
    out.write_text(json.dumps({
        "provenance": prov, "layers": layers,
        "spans": [[s.id, s.name, s.parent, s.start, s.end, s.thread, s.attrs]
                  for s in tracer.spans]}))
    print(f"  spans written to {out.relative_to(ROOT)}")
    metrics = {n: (layers[n], trace.layer_unit(n)) for n in tracked}
    return metrics, outcomes + again + counted


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind normally: subprocess.run kills and waits for a
    # running set-up probe, and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src = ROOT / "src"
    if not (src / "msgrav" / "__init__.py").is_file():
        print(f"error: no msgrav sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import msgrav

    if Path(msgrav.__file__).resolve().parent != (src / "msgrav").resolve():
        print(f"error: imported msgrav from {msgrav.__file__}, not from "
              f"{src}", file=sys.stderr)
        return 2
    from msbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    workloads.set_threads(wl)
    prov = provenance(args)
    why = {w["name"]: w["why"] for w in SPEC["workloads"]}
    print(f"msbench {wl.name}: {why[wl.name]}")
    if args.trace:
        metrics, outcomes = measure_traced(args, wl, workloads, prov)
    else:
        metrics, outcomes = measure(args, wl, workloads)
    report_problems(outcomes)
    attempted, failed = tally(outcomes)
    print(json.dumps({"provenance": prov}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
