from dataclasses import dataclass

import numpy as np
import pytest

from msgrav import catalog
from msgrav.exprparse import compile_program, run_program
from msgrav.fieldspace import EPJetPoint
from msgrav.geometry import curvature_bundle
from msgrav.indexing import DERIVS, DIM, PAIR_FULL, PAIR_ROWS
from msgrav.series import JetScalar


def evaluate(tree, env):
    """One syntax tree's value: `run_program` of its one-tree program."""
    return run_program(compile_program((tree,)), env)[0]


def series_blocks(values, xs, order, top=None):
    """The jet blocks of per-tree series about the points xs, a float
    value standing for a constant series: block k, for k up to `top`
    (default the order), read entry by entry with `JetScalar.derivative`
    and shaped as `catalog.metric_jet_at` gives it."""
    series = [v if isinstance(v, JetScalar)
              else JetScalar.constant(v, xs, order=order) for v in values]
    blocks = [np.stack([np.stack(
        [s.derivative([c.count(mu) for mu in range(DIM)]) for c in combos],
        axis=-1) for s in series], axis=-2)
        for combos in DERIVS[:(order if top is None else top) + 1]]
    return [blocks[0][..., 0]] + blocks[1:]


def tree_blocks(spec, trees, xs, order, top=None):
    """`series_blocks` of each tree's series, evaluated alone."""
    env = {f"x{i}": JetScalar.variable(i, xs, order=order)
           for i in range(DIM)} | spec.params
    return series_blocks([evaluate(t, env) for t in trees], xs, order, top)


def interior_points(spec, n, seed, margin=0.05):
    """Seeded sample points strictly inside a metric's domain box."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        out.append(tuple(
            lo + (margin + (1 - 2 * margin) * rng.uniform()) * (hi - lo)
            for lo, hi in spec.domain))
    return out


def random_jet(seed, n=3):
    """n random points of an ordered metric 2-jet, (g, dg, d2g) shaped
    (n, 10), (n, 10, 4) and (n, 10, 10): g a symmetric perturbation of the
    Minkowski metric, dg and d2g of order one, with no symmetry assumed
    beyond the ordered storage."""
    rng = np.random.default_rng(seed)
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])[PAIR_ROWS]
    return (eta + rng.uniform(-0.3, 0.3, (n, 10)),
            rng.normal(size=(n, 10, DIM)), rng.normal(size=(n, 10, 10)))


@dataclass(frozen=True)
class CurvatureSuite:
    """Curvature data of a metric 2-jet with its Levi-Civita connection."""

    ginv: np.ndarray        # 10 ordered components of the inverse metric
    rho: float              # sqrt(|det g|)
    gamma: np.ndarray       # (4, 10): symmetric lower pair
    ricci: np.ndarray       # (4, 4)
    scalar: float
    einstein_lower: np.ndarray  # 10 ordered
    einstein_upper: np.ndarray  # 10 ordered


def einstein_suite(g10, dg, d2g) -> CurvatureSuite:
    """Full Levi-Civita curvature suite of one point's metric 2-jet,
    read off `geometry.curvature_bundle`."""
    g10 = np.asarray(g10, dtype=float)
    ginv, rho, gam, ric, scal = curvature_bundle(
        g10, np.asarray(dg, dtype=float), np.asarray(d2g, dtype=float))
    e_low = ric - 0.5 * g10[PAIR_FULL] * scal
    e_up = ginv @ e_low @ ginv
    return CurvatureSuite(
        ginv=ginv[PAIR_ROWS], rho=float(rho),
        gamma=gam[:, PAIR_ROWS[0], PAIR_ROWS[1]], ricci=ric,
        scalar=float(scal), einstein_lower=e_low[PAIR_ROWS],
        einstein_upper=e_up[PAIR_ROWS])


@pytest.fixture(scope="session")
def all_specs():
    return {name: catalog.builtin(name) for name in catalog.list_builtins()}


@pytest.fixture(scope="session")
def vacuum_specs(all_specs):
    return {k: v for k, v in all_specs.items() if v.vacuum == "yes"}


def projective_shift(p, A, dA=None):
    """p with its connection shifted along the projective gauge direction,
    Gamma^a_{bc} + delta^a_c A_b; the metric's d2g block rides along
    unchanged."""
    A = np.asarray(A, dtype=float)
    dA = np.zeros((DIM, DIM)) if dA is None else np.asarray(dA, dtype=float)
    gam = p.Gamma.copy()
    dgam = p.dGamma.copy()
    for c in range(DIM):
        gam[..., c, :, c] += A
        dgam[..., c, :, c, :] += dA
    return EPJetPoint(x=p.x, g=p.g, Gamma=gam, dg=p.dg, dGamma=dgam,
                      d2g=p.d2g)
