"""Curvature and connection kernels over full 4x4 index arrays.

Each quantity is one kernel of tensor contractions: the inverse metric and
density, the Levi-Civita connection, the derivative terms of its Ricci
tensor, the Ricci tensor of any connection, and the scalar curvature. The
kernels are written with `tangents.einsum`, `inv` and `sqrt`, so the same
code runs on plain arrays and on Tan/Jet2 duals (fiber and total
derivatives), for one point or a stack of points on leading axes (the
leading-axis rule of `tangents`). Ordered symmetric storage is expanded on
entry through `indexing.PAIR_FULL`.

The Ricci convention is fixed by the first-order Lagrangian display:
R_ab = G^c_{ba,c} - G^c_{ca,b} + G^c_{ba} G^s_{sc} - G^c_{bs} G^s_{ca},
which reduces to the usual Levi-Civita Ricci for symmetric connections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetricError
from .indexing import APAIR_ROWS, PAIR_FULL, PAIR_ROWS
from .tangents import einsum, inv, sqrt


# -- kernels: arrays, Tan or Jet2 -------------------------------------------

def metric_inverse_density(gm):
    """(g^{ab}, rho = sqrt(|det g|)) of a full 4x4 metric."""
    if np.any(np.abs(np.linalg.det(getattr(gm, "v", gm))) < 1e-14):
        raise DegenerateMetricError("metric is degenerate at this point")
    ginv, det = inv(gm)
    return ginv, sqrt(abs(det))


def christoffel(ginv, dgm):
    """G^r_{mn} = g^{rs} (g_{sn,m} + g_{sm,n} - g_{mn,s}) / 2, with
    dgm[a, b, m] = g_{ab,m}."""
    bracket = einsum("snm->smn", dgm) + dgm - einsum("mns->smn", dgm)
    return 0.5 * einsum("rs,smn->rmn", ginv, bracket)


def ricci_derivative_terms(ginv, dgm, d2gm, gam):
    """G^c_{ba,c} - G^c_{ca,b} of the Levi-Civita connection, (4, 4).

    The two traces of dGamma that the Ricci tensor reads are contracted
    directly from d(g^-1) = -g^-1 dg g^-1 and the second metric
    derivatives d2gm[a, b, m, n] = g_{ab,mn}, so the full dGamma never
    forms (in a mixed second-order pass it would carry 256 x n1 x n2
    entries).
    """
    h = (einsum("sabr->rsab", d2gm) + einsum("sbar->rsab", d2gm)
         - einsum("absr->rsab", d2gm) - d2gm)
    return (0.5 * einsum("rs,rsab->ab", ginv, h)
            - einsum("rk,klr,lba->ab", ginv, dgm, gam)
            + 0.5 * einsum("rk,klb,ls,rsa->ab", ginv, dgm, ginv, dgm))


def ricci(gam, dterms):
    """The Ricci polynomial from Gamma and its derivative terms."""
    trace = einsum("ssc->c", gam)
    return (dterms + einsum("cba,c->ab", gam, trace)
            - einsum("cbs,sca->ab", gam, gam))


def ricci_from_connection(Gamma, dGamma):
    """Ricci of an arbitrary connection; Gamma (4,4,4), dGamma (4,4,4,4)
    with the derivative direction last."""
    return ricci(Gamma, einsum("cbac->ab", dGamma)
                 - einsum("ccab->ab", dGamma))


def scalar_curvature(ginv, ric):
    return einsum("ab,ab->", ginv, ric)


def curvature_bundle(g10, dg, d2g):
    """ginv, rho, Gamma, Ricci, R of the Levi-Civita connection, from the
    ordered metric 2-jet; all results over full index ranges."""
    gm, dgm = g10[..., PAIR_FULL], dg[..., PAIR_FULL, :]
    d2gm = d2g[..., PAIR_FULL, :][..., PAIR_FULL]
    ginv, rho = metric_inverse_density(gm)
    gam = christoffel(ginv, dgm)
    ric = ricci(gam, ricci_derivative_terms(ginv, dgm, d2gm, gam))
    return ginv, rho, gam, ric, scalar_curvature(ginv, ric)


# -- public float-level operations -----------------------------------------

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
    """Full Levi-Civita curvature suite from a metric 2-jet."""
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


def torsion(Gamma):
    """T^a_{bc} = G^a_{bc} - G^a_{cb}, stored over the 6 pairs b < c."""
    t = torsion_full(np.asarray(Gamma, dtype=float))
    return t[..., APAIR_ROWS[0], APAIR_ROWS[1]]


def torsion_full(Gamma):
    """T^a_{bc} = G^a_{bc} - G^a_{cb} over full index ranges; any leading
    axes are batch axes."""
    gam = np.asarray(Gamma)
    return gam - np.swapaxes(gam, -1, -2)
