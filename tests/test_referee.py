"""An exact referee for the metric jets: sympy differentiates each
component's own syntax tree, sharing nothing with the truncated series,
derivative tables and prolongation that build the jets in `catalog`.

Each component tree is rendered to sympy (`^` is `**`, `ln` is `log`,
numbers and parameters are the exact rationals of their floats),
differentiated to order 3, each order from the one below, and lambdified
once per spec. At 4 interior points, eh's g, dg, d2g and d3g and ep's g,
dg and d2g must match it within 1e-13 relative to 1 + max|ref| of each
block.
"""

import operator
from pathlib import Path

import numpy as np
import pytest
import sympy

from conftest import interior_points
from msgrav import catalog
from msgrav.exprparse import Call, Name, Neg, Num, Pow
from msgrav.indexing import DERIVS, DIM
from test_generic_sections import generic_section

INPUTS = Path(__file__).resolve().parents[1] / "msbench" / "inputs"
BOUND = 1e-13
X = sympy.symbols(f"x0:{DIM}")
FUNCTIONS = {"sin": sympy.sin, "cos": sympy.cos, "exp": sympy.exp,
             "sqrt": sympy.sqrt, "ln": sympy.log}
OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
       "/": operator.truediv}


def to_sympy(node, env):
    """The sympy expression of a syntax tree; env maps names to symbols or
    exact values."""
    if isinstance(node, Num):
        return sympy.Rational(node.value)
    if isinstance(node, Name):
        return env[node.ident]
    if isinstance(node, Neg):
        return -to_sympy(node.arg, env)
    if isinstance(node, Pow):
        return to_sympy(node.base, env) ** node.exponent
    if isinstance(node, Call):
        return FUNCTIONS[node.func](to_sympy(node.arg, env))
    return OPS[node.op](to_sympy(node.left, env), to_sympy(node.right, env))


def referee_jets(spec):
    """A function of one point (4,) giving the exact g (10,), dg (10, 4),
    d2g (10, 10) and d3g (10, 20) of the spec's components."""
    env = dict(zip((f"x{i}" for i in range(DIM)), X))
    env |= {k: sympy.Rational(v) for k, v in spec.params.items()}
    blocks = [[{(): to_sympy(tree, env)} for tree in spec.components]]
    for combos in DERIVS[1:]:
        blocks.append([{c: sympy.diff(d[c[:-1]], X[c[-1]]) for c in combos}
                       for d in blocks[-1]])
    flat = [e for block in blocks for d in block for e in d.values()]
    fn = sympy.lambdify(X, flat, modules="math")
    sizes = [len(spec.components) * len(c) for c in DERIVS]
    shapes = [(len(spec.components), len(c)) for c in DERIVS]

    def at(x):
        vals = np.array(fn(*map(float, x)), dtype=float)
        parts = np.split(vals, np.cumsum(sizes)[:-1])
        g, dg, d2g, d3g = (p.reshape(s) for p, s in zip(parts, shapes))
        return g[:, 0], dg, d2g, d3g
    return at


def _spec(name, tmp_path):
    if name.startswith("generic-"):
        return generic_section(tmp_path, int(name.split("-")[1]), 0.1)
    if name.endswith(".metric"):
        return catalog.load_metric_file(str(INPUTS / name))
    return catalog.builtin(name)


def _deviation(got, ref):
    return np.abs(got - ref).max() / (1.0 + np.abs(ref).max())


@pytest.mark.parametrize("name", catalog.list_builtins()
                         + ["bumpy.metric", "torsion.metric"]
                         + [f"generic-{seed}" for seed in range(3)])
def test_jets_match_the_exact_derivatives_of_the_metric_text(name,
                                                             tmp_path):
    spec = _spec(name, tmp_path)
    xs = np.array(interior_points(spec, 4, seed=101))
    ref = [np.stack(b) for b in zip(*map(referee_jets(spec), xs))]
    eh, ep = catalog.eh_point_at(spec, xs), catalog.ep_point_at(spec, xs)
    for point, names in ((eh, ("g", "dg", "d2g", "d3g")),
                         (ep, ("g", "dg", "d2g"))):
        for block, want in zip(names, ref):
            dev = _deviation(getattr(point, block), want)
            assert dev <= BOUND, (name, type(point).__name__, block, dev)
