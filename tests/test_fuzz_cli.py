"""Hostile metric files through the command line: whatever a file holds, a
check exits 0 to 3 with no traceback and no numpy warning, and a report
that is written holds only finite numbers.

Each seeded file adds 0.1 times a random expression tree to one or two
diagonal components of the flat metric, over the default box [-1, 1]^4.
The trees reach overflow, cancellation, singular functions and huge
powers; about 3 in 10 files also override a connection component. A
wider corpus perturbs one or two off-diagonal components (in half its
files one diagonal component too), always overrides a random
`Gamma l m n`, and in about half its files moves one box axis to start
at 0, 1e-300 or 0.999 and end at 1, 2 or 1e300. A corpus of malformed
keys and boxes must each exit 2.
"""

import json
import math
import random
import warnings

import pytest

from msgrav import cli
from msgrav.indexing import PAIRS

FILES = 300
WIDE_FILES = 150
BINARY = "+-*/"
FUNCTIONS = ("sin", "cos", "exp", "sqrt", "ln")
POWERS = (2, 3, -1, -2, 40)
LEAVES = ("x0", "x1", "x2", "x3", "1e300", "1e-300", "0", "k")
PARAMS = (0.5, 1e308, -3.0)
LOWS = (0.0, 1e-300, 0.999)
HIGHS = (1.0, 2.0, 1e300)


def tree(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(LEAVES)
    pick = rng.random()
    if pick < 0.45:
        return (f"({tree(rng, depth - 1)} {rng.choice(BINARY)} "
                f"{tree(rng, depth - 1)})")
    if pick < 0.75:
        return f"{rng.choice(FUNCTIONS)}({tree(rng, depth - 1)})"
    return f"({tree(rng, depth - 1)})^{rng.choice(POWERS)}"


def metric_file(seed: int) -> str:
    """The metric file of one seed."""
    rng = random.Random(seed)
    diag = ["-1", "1", "1", "1"]
    for mu in rng.sample(range(4), rng.choice((1, 2))):
        diag[mu] += f" + 0.1*{tree(rng, 4)}"
    lines = ["[metric]", *(f"g {mu} {mu} = {d}" for mu, d in enumerate(diag)),
             "[params]", f"k = {rng.choice(PARAMS)!r}"]
    if rng.random() < 0.3:
        lines += ["[connection]", f"Gamma 1 0 0 = {tree(rng, 3)}"]
    return "\n".join(lines) + "\n"


# indices outside 0..3, and sample box intervals beyond float range
BAD_INDICES = (-1, 4, 9)
BAD_BOXES = ("-1e308..1e308", "-1.7e308..1e308", "-inf..inf", "0..inf",
             "-inf..0", "nan..1", "0..nan")
FLAT = "[metric]\ng 0 0 = -1\ng 1 1 = 1\ng 2 2 = 1\ng 3 3 = 1\n"


def malformed_files():
    """Flat metric files with one bad line: each bad index in each place
    of `g a b`, `Gamma l m n` and `xN`, and each bad box interval."""
    for i in BAD_INDICES:
        yield FLAT + f"g {i} 1 = 0.1\n"
        yield FLAT + f"g 1 {i} = 0.1\n"
        for pos in range(3):
            lmn = ["1", "0", "0"]
            lmn[pos] = str(i)
            yield FLAT + f"[connection]\nGamma {' '.join(lmn)} = 0.1\n"
        yield FLAT + f"[domain]\nx{i} = 0..1\n"
    for box in BAD_BOXES:
        yield FLAT + f"[domain]\nx1 = {box}\n"


def wide_metric_file(seed: int) -> str:
    """The metric file of one seed of the wider corpus."""
    rng = random.Random(seed)
    comps = {(a, b): ("-1" if a == b == 0 else "1" if a == b else "0")
             for a, b in PAIRS}
    diag = [(a, b) for a, b in PAIRS if a == b]
    off = [(a, b) for a, b in PAIRS if a != b]
    for pair in (rng.sample(diag, rng.choice((0, 1)))
                 + rng.sample(off, rng.choice((1, 2)))):
        comps[pair] += f" + 0.1*{tree(rng, 4)}"
    l, m, n = (rng.randrange(4) for _ in range(3))
    lines = ["[metric]", *(f"g {a} {b} = {c}" for (a, b), c in comps.items()),
             "[params]", f"k = {rng.choice(PARAMS)!r}",
             "[connection]", f"Gamma {l} {m} {n} = {tree(rng, 3)}"]
    if rng.random() < 0.5:
        lines += ["[domain]", f"x{rng.randrange(4)} = "
                  f"{rng.choice(LOWS)!r}..{rng.choice(HIGHS)!r}"]
    return "\n".join(lines) + "\n"


def _assert_finite(value, where):
    if isinstance(value, dict):
        for v in value.values():
            _assert_finite(v, where)
    elif isinstance(value, list):
        for v in value:
            _assert_finite(v, where)
    else:
        assert value is not None, where
        if isinstance(value, float):
            assert math.isfinite(value), where


def _no_constant(name):
    raise AssertionError(f"report holds {name}")


def _exit_cleanly(tmp_path, capsys, model, files):
    """Check each seed's file of the generator `files` through the CLI."""
    path = tmp_path / "fuzz.ini"
    for seed, text in enumerate(files):
        path.write_text(text, encoding="utf-8")
        where = (model, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["check", "--model", model, "--metric",
                             str(path), "--points", "4"])
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3), where
        assert "Traceback" not in err, where
        if code in (0, 1):
            report = json.loads(out, parse_constant=_no_constant)
            _assert_finite(report, where)
            assert (code == 0) == (report["verdict"] == "pass"), where
        else:
            assert out == "" and err, where


@pytest.mark.parametrize("model", ["eh", "ep"])
def test_random_metric_files_exit_cleanly(tmp_path, capsys, model):
    _exit_cleanly(tmp_path, capsys, model, map(metric_file, range(FILES)))


@pytest.mark.parametrize("model", ["eh", "ep"])
def test_wide_random_metric_files_exit_cleanly(tmp_path, capsys, model):
    _exit_cleanly(tmp_path, capsys, model,
                  map(wide_metric_file, range(WIDE_FILES)))


@pytest.mark.parametrize("model", ["eh", "ep"])
def test_malformed_keys_and_boxes_exit_two(tmp_path, capsys, model):
    path = tmp_path / "bad.ini"
    for text in malformed_files():
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["check", "--model", model, "--metric",
                             str(path), "--points", "4"])
        out, err = capsys.readouterr()
        assert code == 2 and out == "", (model, text)
        assert err.startswith("error: ") and "Traceback" not in err, text
