"""The benchmark harness under msbench/ reaches into msgrav by name: its
traced mode wraps functions listed in `msbench/trace.py` and counts
`JetScalar` operations. Renaming any of them breaks the traced run, so
this guard runs with the package's own tests."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACE = Path(__file__).resolve().parents[1] / "msbench" / "trace.py"


def test_benchmark_names_resolve_in_msgrav(monkeypatch):
    from msgrav import report
    from msgrav.series import JetScalar
    spec = importlib.util.spec_from_file_location("msbench_trace", TRACE)
    trace = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the module executes
    monkeypatch.setitem(sys.modules, spec.name, trace)
    spec.loader.exec_module(trace)
    missing = [f"{layer}.{name}" for layer, names in trace.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"msgrav.{layer}"), name, None))]
    assert missing == []
    assert [op for op in trace.SERIES_OPS
            if op not in JetScalar.__dict__] == []
    assert hasattr(report, "ThreadPoolExecutor")
