"""The benchmark harness under msbench/ reaches into msgrav by name: its
traced mode wraps functions listed in `msbench/trace.py` and counts
`JetScalar` operations. Renaming any of them breaks the traced run, so
this guard runs with the package's own tests."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACE = Path(__file__).resolve().parents[1] / "msbench" / "trace.py"


def _load_trace(monkeypatch):
    spec = importlib.util.spec_from_file_location("msbench_trace", TRACE)
    trace = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the module executes
    monkeypatch.setitem(sys.modules, spec.name, trace)
    spec.loader.exec_module(trace)
    return trace


def test_benchmark_names_resolve_in_msgrav(monkeypatch):
    import dataclasses

    from msgrav import report
    from msgrav.series import JetScalar
    from msgrav.tangents import Jet2, Tan
    trace = _load_trace(monkeypatch)
    missing = [f"{layer}.{name}" for layer, names in trace.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"msgrav.{layer}"), name, None))]
    assert missing == []
    assert [op for op in trace.SERIES_OPS
            if op not in JetScalar.__dict__] == []
    assert hasattr(report, "ThreadPoolExecutor")
    # outside TRACED: the counting pass patches each class's own __init__,
    # the pool span reads CheckConfig.threads, and msbench's own tests
    # build a Tan seed and an order-less JetScalar constant
    assert "__init__" in Tan.__dict__ and "__init__" in Jet2.__dict__
    assert callable(Tan.seed)
    assert "threads" in {f.name for f in dataclasses.fields(
        report.CheckConfig)}
    assert (JetScalar.constant(1.0, (0, 0, 0, 0)) * 3.0).value() == 3.0


@pytest.mark.parametrize("model", ["eh", "ep"])
def test_one_chunk_reaches_every_traced_model_name(monkeypatch, model):
    # msbench's per-layer figures of a model are the spans of these names;
    # a fused path that stopped calling one would read as zero time there
    from msgrav import catalog, report
    trace = _load_trace(monkeypatch)
    spec = catalog.builtin("schwarzschild")
    xs = report.sample_points(spec, 2, seed=1)
    tracer = trace.Tracer()
    with trace.traced(tracer):
        checks = getattr(report, f"_{model}_point_checks")
        kept, _ = checks(spec, xs, [0, 1])
    assert kept == [0, 1]
    called = {s.name for s in tracer.spans}
    assert [n for n in trace.TRACED[model]
            if f"{model}.{n}" not in called] == []
