"""Independent curvature reference pipeline for cross-checking.

Everything here is deliberately different from the production route:
derivatives come from central finite differences with one Richardson
extrapolation, the inverse metric from numpy's solver, and the tensor
contractions from einsum over textbook formulas. Agreement is a genuine
two-pipeline check, so nothing from msgrav's geometry module is imported.
The tests import it as `oracle`; no product path reads it.
"""

from __future__ import annotations

import numpy as np

from msgrav.exprparse import run_program
from msgrav.indexing import DIM, PAIR_FULL

STEP = 1e-4


def metric_at(spec, x) -> np.ndarray:
    """The metric as a plain 4x4 matrix at a point, no series involved."""
    env = {f"x{i}": float(x[i]) for i in range(DIM)} | spec.params
    return np.array(run_program(spec.program, env), dtype=float)[PAIR_FULL]


def _richardson(f, x, mu, h):
    """d f / d x^mu by central differences, Richardson-extrapolated once."""
    def central(step):
        xp, xm = np.array(x, dtype=float), np.array(x, dtype=float)
        xp[mu] += step
        xm[mu] -= step
        return (f(xp) - f(xm)) / (2.0 * step)
    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def fd_dmetric(spec, x, h=STEP) -> np.ndarray:
    """d g_{ab} / d x^mu, shape (4, 4, 4) with mu last."""
    return np.stack([_richardson(lambda y: metric_at(spec, y), x, mu, h)
                     for mu in range(DIM)], axis=-1)


def christoffel_of(spec, x, h=STEP) -> np.ndarray:
    """Gamma^r_{mn} = g^{rs} (g_{sn,m} + g_{sm,n} - g_{mn,s}) / 2."""
    g = metric_at(spec, x)
    dg = fd_dmetric(spec, x, h)
    ginv = np.linalg.inv(g)
    bracket = (dg.transpose(0, 2, 1)   # [s, m, n] = g_{sn,m}
               + dg                    # [s, m, n] = g_{sm,n}
               - dg.transpose(2, 0, 1))  # [s, m, n] = g_{mn,s}
    return 0.5 * np.einsum("rs,smn->rmn", ginv, bracket)


def ricci_of(spec, x, h=STEP) -> np.ndarray:
    """R_mn = G^r_{mn,r} - G^r_{rm,n} + G^r_{rl} G^l_{mn} - G^r_{nl} G^l_{rm}."""
    dgam = np.stack([_richardson(lambda y: christoffel_of(spec, y, h),
                                 x, mu, h) for mu in range(DIM)], axis=-1)
    gam = christoffel_of(spec, x, h)
    return (np.einsum("rmnr->mn", dgam)
            - np.einsum("rrmn->mn", dgam)
            + np.einsum("rrl,lmn->mn", gam, gam)
            - np.einsum("rnl,lrm->mn", gam, gam))


def curvature_oracle(spec, x, h=STEP):
    """(ginv, rho, gamma, ricci, scalar, einstein_lower) by the reference
    pipeline."""
    g = metric_at(spec, x)
    ginv = np.linalg.inv(g)
    rho = float(np.sqrt(abs(np.linalg.det(g))))
    gam = christoffel_of(spec, x, h)
    ric = ricci_of(spec, x, h)
    scal = float(np.einsum("ab,ab->", ginv, ric))
    einstein = ric - 0.5 * g * scal
    return ginv, rho, gam, ric, scal, einstein
