"""`scripts/mutants.py` mutates the source by exact text. Each mutant's old
text must occur exactly once in its file, so a change that moves a mutated
line fails here instead of leaving the slow full run unable to apply it;
likewise each mutant's named first killer must be a test function of an
existing test file."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "mutants.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_every_mutant_old_text_occurs_exactly_once():
    script = _load_script()
    assert script.unmatched() == []
    names = [m.name for m in script.MUTANTS]
    assert len(set(names)) == len(names)
    assert set(script.KNOWN_SURVIVORS) <= set(names)
    assert all(m.old != m.new for m in script.MUTANTS)


def test_every_mutant_names_an_existing_first_killer():
    script = _load_script()
    assert script.missing_killers() == []
    assert all(m.killer.startswith("tests/test_") for m in script.MUTANTS)
