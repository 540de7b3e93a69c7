"""An exact referee: sympy differentiates each metric component's own
syntax tree, sharing nothing with the jet program and prolongation that
build the jets in `catalog`, and the first-order Lagrangian's own
formula, sharing nothing with `ep`'s momenta.

Each component tree is rendered to sympy (`^` is `**`, `ln` is `log`,
numbers and parameters are the exact rationals of their floats),
differentiated to order 3, each order from the one below, and lambdified
once per spec. At 4 interior points, eh's g, dg, d2g and d3g and ep's g,
dg and d2g must match it within 1e-13 relative to 1 + max|ref| of each
block, and so must each differentiation rule of the jet program on a text
of its own. At two rational non-diagonal metrics, both routes of ep's momenta
must match the exact derivative of L by dGamma within the same bound.
"""

import operator
from pathlib import Path

import numpy as np
import pytest
import sympy

from conftest import interior_points
from msgrav import catalog, ep
from msgrav.exprparse import Call, Name, Neg, Num, Pow, parse_expression
from msgrav.fieldspace import EPJetPoint
from msgrav.indexing import DERIVS, DIM, PAIRS
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


# one text per rule of `exprparse.jet_program`, each with mixed partials
RULE_TEXTS = {
    "quotient": "x1/(2 + x2*x3)",
    "sqrt": "sqrt(3 + x1*x2 - x0)",
    "ln": "ln(3 + x1 - x0*x3)",
    "power": "(2 + x1*x3)^3 + (2 + x2 - x0)^-2",
    "sin": "sin(x0*x1 + x3)",
    "cos": "cos(x2*x3 - x1)",
    "exp": "exp(0.3*x1*x0 + x2)",
}


@pytest.mark.parametrize("rule", RULE_TEXTS)
def test_each_jet_rule_matches_the_exact_derivatives(rule):
    # the jet program's partials of one text to order 3, run as the ten
    # components of a spec, against sympy's
    spec = catalog.MetricSpec(name=rule, components=(parse_expression(
        RULE_TEXTS[rule]),) * len(PAIRS))
    xs = np.array(interior_points(spec, 4, seed=103))
    ref = [np.stack(b) for b in zip(*map(referee_jets(spec), xs))]
    for k, (got, want) in enumerate(zip(catalog.metric_jet_at(spec, xs, 3),
                                        ref)):
        dev = _deviation(got, want)
        assert dev <= BOUND, (rule, k, dev)


# two Lorentzian metrics with every entry of g and g^-1 nonzero, over
# ordered pairs
RATIONAL_METRICS = {
    "a": ("-2", "1/3", "1/5", "1/7", "3", "1/4", "1/6", "2", "1/8", "5"),
    "b": ("-1", "1/2", "-1/3", "1/5", "2", "2/7", "-1/9", "3/2", "1/4",
          "4/3"),
}


def exact_ep_momenta(g10):
    """dL/dGamma^a_{bc,s} (4, 4, 4, 4) of L = rho g^{ab} (Gamma^c_{ba,c} -
    Gamma^c_{ca,b}) over 256 symbolic dGamma, exact at the metric g10.
    These are the only dGamma terms of L = rho g^{ab} R_ab: its Gamma
    Gamma terms never reach the momenta."""
    pos = dict(zip(PAIRS, g10))
    g = sympy.Matrix(DIM, DIM, lambda a, b: sympy.Rational(
        pos[min(a, b), max(a, b)]))
    ginv, rho = g.inv(), sympy.sqrt(abs(g.det()))
    d = sympy.symbols(f"d0:{DIM ** 4}")
    dgam = np.array(d, dtype=object).reshape((DIM,) * 4)  # [a, b, c, s]
    L = rho * sum(ginv[a, b] * sum(dgam[c, b, a, c] - dgam[c, c, a, b]
                                   for c in range(DIM))
                  for a in range(DIM) for b in range(DIM))
    return np.array([sympy.diff(L, v) for v in d],
                    dtype=object).reshape((DIM,) * 4)


@pytest.mark.parametrize("metric", list(RATIONAL_METRICS))
def test_ep_momenta_match_the_exact_derivative_of_the_lagrangian(metric):
    g10 = RATIONAL_METRICS[metric]
    exact = exact_ep_momenta(g10)
    ref = exact.astype(float)
    rng = np.random.default_rng(7)
    p = EPJetPoint(x=np.zeros(DIM), g=np.array([float(sympy.Rational(v))
                                                for v in g10]),
                   Gamma=rng.normal(size=(DIM,) * 3),
                   dg=rng.normal(size=(len(PAIRS), DIM)),
                   dGamma=rng.normal(size=(DIM,) * 4),
                   d2g=np.zeros((len(PAIRS),) * 2))
    for route in (ep.closed_forms_ep(p).Lmom.v, ep.momenta_ep(p).Lmom_ad):
        dev = _deviation(route, ref)
        assert dev <= BOUND, (metric, dev)
    # the exactly-zero momenta are the 160 zero rows of `ep._MOMENTA`:
    # s != a and b != a, or a = b = s
    zero = {k for k in np.ndindex(exact.shape) if exact[k] == 0}
    assert zero == {k for k in np.ndindex(exact.shape)
                    if not ep._MOMENTA[k].any()}
    assert zero == {(a, b, c, s) for a, b, c, s in np.ndindex(exact.shape)
                    if a != s and a != b or a == b == s}
    assert len(zero) == 160
