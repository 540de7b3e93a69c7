"""`scripts/run_all_checks.py` judges every family of every builtin report,
and of the two connection-overriding metric files under `msbench/inputs`,
by its kind and the metric's vacuum flag, so a family whose residual or
kind is wrong fails the sweep."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_all_checks.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("run_all_checks", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_every_builtin_family_meets_its_kind(capsys):
    assert _load_script().main(["--points", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == "every family passed or failed as its kind expects"
    assert lines[-1].startswith("total wall time")
