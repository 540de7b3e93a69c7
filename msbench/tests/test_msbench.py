"""Self-tests of the benchmark: workloads, gate, tracing arithmetic, and the
output contract. Run with ``python3 -m pytest msbench/tests -q``."""

import copy
import itertools
import json
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import ROOT
from msbench import speed, trace, workloads

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def expected():
    return workloads.load_expected()


@pytest.fixture(autouse=True)
def _restore_threads(monkeypatch):
    # workloads.set_threads writes MSGR_THREADS; undo it after each test
    monkeypatch.delenv("MSGR_THREADS", raising=False)


def _drive_once(name, expected, tmp_path, seed=3):
    wl = workloads.WORKLOADS[name]
    workloads.set_threads(wl)
    runner = workloads.Runner(wl, workloads.build_specs(wl), expected,
                              tmp_path)
    outcomes, wall = workloads.drive(runner, workloads.calls(wl, seed), 0)
    return outcomes, wall


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_of_each_workload(name, expected, tmp_path):
    outcomes, wall = _drive_once(name, expected, tmp_path)
    assert len(outcomes) == 1 and wall > 0
    assert [o.problem for o in outcomes] == [None]
    assert sum(o.failed_points for o in outcomes) == 0


def test_workloads_match_benchmark_json():
    assert sorted(workloads.WORKLOADS) == \
        sorted(w["name"] for w in BENCHMARK["workloads"])


def test_every_call_has_an_expectation(expected):
    for wl in workloads.WORKLOADS.values():
        for model, menu in wl.calls.items():
            for key in menu:
                assert key in expected[model], (wl.name, model, key)


def test_flipped_pass_flag_fails_the_call(expected, tmp_path):
    wl = workloads.WORKLOADS["ep-sweep"]
    first = next(workloads.calls(wl, 3))
    wrong = copy.deepcopy(expected)
    fams = wrong["ep"][first.spec]["families"]
    fams["torsion"] = not fams["torsion"]
    outcomes, _ = _drive_once("ep-sweep", wrong, tmp_path)
    failed = sum(o.failed_points for o in outcomes)
    attempted = sum(o.call.points for o in outcomes)
    assert failed / attempted > 0
    assert "torsion" in outcomes[0].problem


def test_gate_rejects_a_non_finite_mean(expected):
    call = workloads.Call("eh", "schwarzschild", 2, 0)
    fams = [{"family": f, "max_resid": 0.0, "mean_resid": 0.0, "pass": p}
            for f, p in expected["eh"]["schwarzschild"]["families"].items()]
    rep = {"model": "eh", "points": 2, "verdict": "pass", "families": fams}
    assert workloads.check_report(call, rep, expected) is None
    fams[3]["mean_resid"] = float("nan")
    assert "non-finite" in workloads.check_report(call, rep, expected)


def test_cli_burst_repeats_calls():
    wl = workloads.WORKLOADS["cli-burst"]
    per_round = sum(len(m) for m in wl.calls.values())
    cycle = workloads.CLI_SEED_CYCLE
    seq = list(itertools.islice(workloads.calls(wl, 5),
                                (cycle + 1) * per_round))
    first, again = seq[:per_round], seq[cycle * per_round:]
    assert sorted(map(repr, first)) == sorted(map(repr, again))
    assert first != again  # reshuffled each round
    # the rounds in between use other check seeds
    assert not set(first) & set(seq[per_round:cycle * per_round])


def test_same_seed_same_inputs():
    for wl in workloads.WORKLOADS.values():
        a = list(itertools.islice(workloads.calls(wl, 9), 20))
        b = list(itertools.islice(workloads.calls(wl, 9), 20))
        c = list(itertools.islice(workloads.calls(wl, 10), 20))
        assert a == b and a != c


# -- the speed gauge ---------------------------------------------------------

def test_rescale_cancels_a_uniform_slowdown():
    # a machine half as fast doubles both the call and the kernel
    fast = speed.rescale(0.8, speed.REFERENCE_S)
    assert fast == pytest.approx(0.8)
    assert speed.rescale(1.6, 2 * speed.REFERENCE_S) == pytest.approx(fast)


def test_gauged_drive_brackets_every_call(monkeypatch):
    ticks = iter([0.01, 0.03])
    monkeypatch.setattr(speed, "kernel_seconds", lambda: next(ticks))

    class Runner:
        def run(self, call):
            return workloads.Outcome(call, 0.5, None, 0)

    calls = itertools.repeat(workloads.Call("ep", "kasner", 1, 0))
    plain, _ = workloads.drive(Runner(), calls, 0)
    assert plain[0].kernel_s is None
    gauged, _ = workloads.drive(Runner(), calls, 0, gauge=True)
    assert [o.kernel_s for o in gauged] == [pytest.approx(0.02)]


# -- self-time arithmetic -----------------------------------------------------

def _span(sid, name, parent, start, end, thread=1, attrs=None):
    return trace.Span(sid, name, parent, start, end, thread, attrs)


def test_self_times_on_a_nested_threaded_tree():
    spans = [
        _span(1, "report.run_check", None, 0.0, 10.0, attrs={"workers": 2}),
        _span(2, "report._eh_point_checks", 1, 1.0, 6.0),
        _span(3, "eh.momenta_and_hamiltonian", 2, 1.5, 4.0),
        _span(4, "fieldspace.fiber_gradient", 3, 2.0, 3.0),
        _span(5, "eh.projectability_check", 4, 2.25, 2.75),
        # a pool worker on another thread, overlapping span 2
        _span(6, "report._eh_point_checks", 1, 2.0, 8.0, thread=2),
    ]
    own, layer_own = trace.self_times(spans)
    assert own == {1: 3.0, 2: 2.5, 3: 1.5, 4: 0.5, 5: 0.5, 6: 6.0}
    # same-layer descendants are subtracted even through other layers;
    # lower layers stay with their caller
    assert layer_own == {1: 3.0, 2: 5.0, 3: 2.0, 4: 1.0, 5: 0.5, 6: 6.0}
    m = trace.layer_metrics(spans, points=2,
                            counts={"tan": 10, "jet2": 4, "series": 6},
                            count_points=2, skipped=0, overhead_frac=0.1)
    assert m["report.busy_ratio"] == pytest.approx((5.0 + 6.0) / (10.0 * 2))
    assert m["report.run_check.self_ms_per_call"] == pytest.approx(3000.0)
    assert m["eh.momenta_and_hamiltonian.ms_per_point"] == \
        pytest.approx(1000.0)
    assert m["fieldspace.fiber_gradient.ms_per_point"] == pytest.approx(500.0)
    assert m["tangents.tan_created_per_point"] == 5.0


def test_covered_merges_and_clips():
    assert trace.covered([(1, 3), (2, 5), (7, 12)], 0, 10) == 7
    assert trace.covered([], 0, 10) == 0


def test_pool_workers_nest_under_the_submitting_span():
    tracer = trace.Tracer()
    pool_cls = tracer.pool_class(ThreadPoolExecutor)
    leaf = tracer.wrap(lambda: threading.get_ident(), "geometry.leaf")

    def fan_out():
        with pool_cls(max_workers=2) as pool:
            return [f.result() for f in [pool.submit(leaf) for _ in range(4)]]

    traced_fan_out = tracer.wrap(fan_out, "report.fan_out")
    traced_fan_out()
    root, = [s for s in tracer.spans if s.name == "report.fan_out"]
    leaves = [s for s in tracer.spans if s.name == "geometry.leaf"]
    assert len(leaves) == 4
    assert {s.parent for s in leaves} == {root.id}
    assert all(s.thread != root.thread for s in leaves)


def test_traced_rebinds_and_restores():
    from msgrav import eh, fieldspace, report

    before = (eh.fiber_gradient, fieldspace.fiber_gradient,
              report.ThreadPoolExecutor)
    with trace.traced(trace.Tracer()):
        assert eh.fiber_gradient is not before[0]
        assert eh.fiber_gradient is fieldspace.fiber_gradient
        assert report.ThreadPoolExecutor is not before[2]
    assert (eh.fiber_gradient, fieldspace.fiber_gradient,
            report.ThreadPoolExecutor) == before


def test_counting_restores_the_classes():
    from msgrav.series import JetScalar
    from msgrav.tangents import Tan

    init, mul = Tan.__init__, JetScalar.__mul__
    with trace.counting() as counts:
        Tan.seed(1.0, 3, 0) * 2.0
        JetScalar.constant(1.0, (0, 0, 0, 0)) * 3.0
    assert counts.snapshot() == {"tan": 2, "jet2": 0, "series": 1}
    assert Tan.__init__ is init and JetScalar.__mul__ is mul


# -- the output contract ----------------------------------------------------

def _run_bench(cwd, *args):
    return subprocess.run([sys.executable, "msbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace_flag, section", [("0", "end_to_end"),
                                                 ("1", "per_layer")])
def test_result_line_names_every_metric(trace_flag, section):
    proc = _run_bench(ROOT, "--workload", "ep-sweep", "--seed", "4",
                      "--seconds", "0", "--trace", trace_flag)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want
    if trace_flag == "1":
        assert last["metrics"]["exterior.form_terms_per_point"]["value"] == 257


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "ep-sweep", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
