"""Workloads, seeded inputs, the correctness gate and the closed loop.

Each workload is one client issuing check calls back to back (closed
loop): the next call starts when the previous one has returned. Inputs
come only from the workload seed; msgrav receives the generated calls.

A timed call is `report.run_check` followed by `report.emit_report` to a
string (the sweeps), or one in-process `cli.main(["check", ...])` that
writes its report to a file (cli-burst). The gate then fails a call whose
verdict or family pass flags differ from `inputs/expected.json`, whose
residuals are not finite, whose report is not valid JSON, whose CLI exit
code is not the expected 0 or 1, or that raised; in cli-burst it also
fails a report that differs from the first report of the same call.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

from msbench import speed
from msgrav import catalog, cli, report

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
SPEC_FILES = {"bumpy": INPUTS / "bumpy.metric",
              "torsion": INPUTS / "torsion.metric"}
EXPECTED_FILE = INPUTS / "expected.json"


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str          # "run_check" or "cli"
    calls: dict         # model -> {spec key: points per call}
    threads: str | None  # MSGR_THREADS in the benchmark process

    def spec_keys(self):
        return sorted({k for menu in self.calls.values() for k in menu})


# Why each workload exists is recorded beside its name in BENCHMARK.json.
# A spec key is a builtin name or a key of SPEC_FILES. Points per call are
# fixed per (model, spec), so every seed gets the same mix of call costs.
# Points per call are chosen so that a 30 s run makes well over 20 calls:
# the tail percentile needs ten calls beyond it to lie above the median.
# cli-burst's mix puts the median call in the middle of the 2-point ep
# calls (five cheaper 1-point ep calls below them, five eh calls above) and
# the tail percentile inside the 2-point eh calls: a median near the
# boundary between two cost classes jumps with the run's call count.
WORKLOADS = {w.name: w for w in (
    Workload(
        "eh-sweep", "run_check",
        {"eh": {"schwarzschild": 2, "kasner": 2, "ppwave": 2, "flrw": 2}},
        None),
    Workload(
        "ep-sweep", "run_check",
        {"ep": {"schwarzschild": 8, "kasner": 8, "desitter": 8, "bumpy": 8,
                "torsion": 8}},
        None),
    Workload(
        "cli-burst", "cli",
        {"eh": {"schwarzschild": 2, "kasner": 2, "flrw": 2, "bumpy": 2,
                "torsion": 1},
         "ep": {"schwarzschild": 2, "kasner": 1, "desitter": 1, "ppwave": 2,
                "flrw": 1, "bumpy": 1, "torsion": 1}},
        "2"),
)}


# cli-burst makes about six rounds in a 30 s run; with three seeds per
# (model, spec), each of its calls recurs within a run
CLI_SEED_CYCLE = 3


@dataclass(frozen=True)
class Call:
    model: str
    spec: str
    points: int
    seed: int


@dataclass(frozen=True)
class Outcome:
    call: Call
    wall: float                # seconds inside the timed entry point
    problem: str | None        # why the gate failed the call, or None
    skipped: int               # points the report skipped
    kernel_s: float | None = None  # speed gauge around the call, if run

    @property
    def failed_points(self) -> int:
        return self.call.points if self.problem else self.skipped


def load_expected() -> dict:
    with open(EXPECTED_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def spec_source(key: str) -> str:
    return str(SPEC_FILES[key]) if key in SPEC_FILES else key


def build_specs(wl: Workload) -> dict:
    """Every spec the workload uses, validated as the CLI would build it."""
    return {k: catalog.load_metric_file(str(SPEC_FILES[k])) if k in SPEC_FILES
            else catalog.builtin(k) for k in wl.spec_keys()}


def set_threads(wl: Workload):
    if wl.threads is None:
        os.environ.pop("MSGR_THREADS", None)
    else:
        os.environ["MSGR_THREADS"] = wl.threads


def warm_up(wl: Workload, specs: dict):
    """One point per model, so first-use tables are built before timing."""
    for model, menu in wl.calls.items():
        first = next(iter(menu))
        report.run_check(report.CheckConfig(model=model, spec=specs[first],
                                            points=1, seed=0))


def calls(wl: Workload, seed: int):
    """The workload's endless call sequence for one seed.

    Each round visits every (model, spec) once in a seeded order, models
    alternating while both have calls left. Sweeps draw a fresh check seed
    per call. cli-burst draws CLI_SEED_CYCLE check seeds per (model, spec)
    and round r uses the (r mod CLI_SEED_CYCLE)-th, so every call recurs
    and repeated calls test that reports are byte-identical, while a run
    still samples several points per (model, spec): with a single seed, the
    median call would be one particular call of the seed's menu.
    """
    rng = random.Random(seed)
    menus = [[[Call(model, k, p, rng.randrange(1000)) for k, p in m.items()]
              for model, m in wl.calls.items()]
             for _ in range(CLI_SEED_CYCLE)]
    for r in itertools.count():
        rounds = [rng.sample(m, len(m)) for m in menus[r % CLI_SEED_CYCLE]]
        for group in itertools.zip_longest(*rounds):
            for call in group:
                if call is None:
                    continue
                if wl.entry == "run_check":
                    call = replace(call, seed=rng.randrange(2 ** 31))
                yield call


# -- the correctness gate ----------------------------------------------------

def check_report(call: Call, rep: dict, expected: dict) -> str | None:
    """Compare a report (as its JSON object) with the recorded verdicts."""
    exp = expected[call.model][call.spec]
    if rep["model"] != call.model or rep["points"] != call.points:
        return f"report is for {rep['model']} with {rep['points']} points"
    if rep["verdict"] != exp["verdict"]:
        return f"verdict {rep['verdict']}, expected {exp['verdict']}"
    flags = {f["family"]: f["pass"] for f in rep["families"]}
    if flags != exp["families"]:
        diff = sorted(k for k in flags.keys() | exp["families"].keys()
                      if flags.get(k) != exp["families"].get(k))
        return f"family pass flags differ from expectation: {diff}"
    for f in rep["families"]:
        if not (math.isfinite(f["max_resid"]) and
                math.isfinite(f["mean_resid"])):
            return f"non-finite residual in {f['family']}"
    return None


class Runner:
    """Executes calls through the workload's entry point and gates them."""

    def __init__(self, wl: Workload, specs: dict, expected: dict,
                 workdir: Path):
        self.wl = wl
        self.specs = specs
        self.expected = expected
        self.workdir = workdir
        self.first_report = {}   # cli: call -> bytes of its first report

    def run(self, call: Call) -> Outcome:
        if self.wl.entry == "run_check":
            return self._run_api(call)
        return self._run_cli(call)

    def _run_api(self, call: Call) -> Outcome:
        cfg = report.CheckConfig(model=call.model, spec=self.specs[call.spec],
                                 points=call.points, seed=call.seed)
        t0 = perf_counter()
        try:
            rep = report.run_check(cfg)
            text = report.emit_report(rep)
        except Exception as e:  # a raising call is a failed operation
            return Outcome(call, perf_counter() - t0,
                           f"raised {type(e).__name__}: {e}", 0)
        return self._judge(call, perf_counter() - t0, text)

    def _run_cli(self, call: Call) -> Outcome:
        out = self.workdir / "report.json"
        argv = ["check", "--model", call.model,
                "--metric", spec_source(call.spec),
                "--points", str(call.points), "--seed", str(call.seed),
                "--out", str(out)]
        want = 0 if self.expected[call.model][call.spec]["verdict"] == "pass" \
            else 1
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as e:  # counted, not propagated
            return Outcome(call, perf_counter() - t0,
                           f"raised {type(e).__name__}: {e}", 0)
        wall = perf_counter() - t0
        if code != want:
            return Outcome(call, wall, f"exit code {code}, expected {want}", 0)
        data = out.read_bytes()
        out.unlink()
        first = self.first_report.setdefault(call, data)
        if data != first:
            return Outcome(call, wall, "report differs from the first report "
                           "of the same call", 0)
        return self._judge(call, wall, data)

    def _judge(self, call: Call, wall: float, text) -> Outcome:
        try:
            obj = json.loads(text)
        except ValueError as e:
            return Outcome(call, wall, f"report is not JSON: {e}", 0)
        return Outcome(call, wall, check_report(call, obj, self.expected),
                       obj["skipped"])


def drive(runner: Runner, inputs, seconds: float, gauge: bool = False):
    """Closed loop: issue calls until `seconds` have passed; at least one.

    With `gauge`, the reference kernel of `speed` runs before the first
    call and after every call, and each outcome carries the mean of the two
    kernel times around it. Returns the outcomes and the wall time of the
    whole phase.
    """
    outcomes = []
    start = perf_counter()
    deadline = start + seconds
    before = speed.kernel_seconds() if gauge else None
    while True:
        outcome = runner.run(next(inputs))
        if gauge:
            after = speed.kernel_seconds()
            outcome = replace(outcome, kernel_s=(before + after) / 2)
            before = after
        outcomes.append(outcome)
        if perf_counter() >= deadline:
            break
    return outcomes, perf_counter() - start


def scratch_dir(root: Path):
    """A temporary directory inside the checkout's benchmark output dir."""
    base = root / ".bench_out"
    base.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=base)
