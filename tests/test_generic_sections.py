"""Seeded generic sections: off-shell inputs for every identity family.

Each section is a metric file whose components are the Minkowski metric
plus eps times three random terms, drawn from x_i x_j, sin(c x_i + x_j),
exp(c x_k) x_i, x_i^3 and cos(x_i - x_j) with normal coefficients, over the
box [-0.5, 0.5]^4. It is loaded through `catalog.load_metric_file`, so the
parser is on the path. Such a section is Lorentzian and sourced: every
identity and Levi-Civita family must pass on it, and every vacuum family
must fail.
"""

import numpy as np
import pytest

from msgrav import catalog, report
from msgrav.indexing import PAIRS

SEEDS = range(20)


def _num(c):
    # a Python float's repr round-trips; numpy 2's reads np.float64(...)
    return f"({float(c)!r})"


def _term(rng):
    i, j = (int(k) for k in rng.choice(4, 2, replace=False))
    k, c = int(rng.integers(4)), rng.normal()
    return _num(rng.normal()) + "*" + (
        f"x{i}*x{j}",
        f"sin({_num(c)}*x{i} + x{j})",
        f"exp({_num(c)}*x{k})*x{i}",
        f"x{i}^3",
        f"cos(x{i} - x{j})",
    )[int(rng.integers(5))]


def generic_metric_text(seed, eps):
    """The metric file of the seeded generic section at amplitude eps."""
    rng = np.random.default_rng(seed)
    lines = ["[metric]", f"name = generic-{seed}", "vacuum = no"]
    for a, b in PAIRS:
        eta = (-1.0 if a == 0 else 1.0) if a == b else 0.0
        terms = " + ".join(_term(rng) for _ in range(3))
        lines.append(f"g {a} {b} = {eta!r} + {_num(eps)}*({terms})")
    lines += ["[domain]"] + [f"x{i} = -0.5..0.5" for i in range(4)]
    return "\n".join(lines) + "\n"


def generic_section(tmp_path, seed, eps):
    path = tmp_path / f"generic-{seed}.metric"
    path.write_text(generic_metric_text(seed, eps), encoding="utf-8")
    return catalog.load_metric_file(str(path))


@pytest.mark.parametrize("eps", [0.1, 1e-6])
@pytest.mark.parametrize("model", ["eh", "ep"])
def test_identities_hold_and_vacuum_fails_on_generic_sections(tmp_path,
                                                              model, eps):
    kinds = {fam: kind for fam, kind, _ in report.FAMILIES[model]}
    for seed in SEEDS:
        spec = generic_section(tmp_path, seed, eps)
        r = report.run_check(report.CheckConfig(model=model, spec=spec,
                                                points=4, seed=seed))
        assert r.skipped == 0, (seed, r)
        for f in r.families:
            assert f["pass"] == (kinds[f["family"]] != "vacuum"), (seed, f)
