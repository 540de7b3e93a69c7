"""Curvature and connection kernels over full 4x4 index arrays.

Each quantity is one kernel of tensor contractions: the inverse metric and
density, the Levi-Civita connection and its curvature bundle, the Ricci
tensor of any connection, and the scalar curvature density. The
kernels are written with `tangents.einsum`, `inv` and `sqrt`, so the same
code runs on plain arrays and on Tan/Jet2 duals (fiber and total
derivatives), for one point or a stack of points on leading axes (the
leading-axis rule of `tangents`). Ordered symmetric storage is expanded on
entry through `indexing.PAIR_FULL`, or contracted through its one-hot form.

The Ricci convention is fixed by the first-order Lagrangian display:
R_ab = G^c_{ba,c} - G^c_{ca,b} + G^c_{ba} G^s_{sc} - G^c_{bs} G^s_{ca},
which reduces to the usual Levi-Civita Ricci for symmetric connections.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateMetricError
from .indexing import PAIR_FULL
from .tangents import einsum, inv, sqrt

_EXPAND = (PAIR_FULL[..., None] == np.arange(PAIR_FULL.max() + 1)) * 1.0


# -- kernels: arrays, Tan or Jet2 -------------------------------------------

def metric_inverse_density(gm):
    """(g^{ab}, rho = sqrt(|det g|)) of a full 4x4 metric."""
    try:
        ginv, det = inv(gm)
    except np.linalg.LinAlgError:
        raise DegenerateMetricError("metric is singular") from None
    if np.any(np.abs(getattr(det, "v", det)) < 1e-14):
        raise DegenerateMetricError("metric is degenerate at this point")
    return ginv, sqrt(abs(det))


def _bracket(dgm):
    """B_smn = g_{sn,m} + g_{sm,n} - g_{mn,s}, with dgm[a, b, m] = g_{ab,m}."""
    return einsum("snm->smn", dgm) + dgm - einsum("mns->smn", dgm)


def christoffel(ginv, dgm):
    """G^r_{mn} = g^{rs} B_smn / 2."""
    return 0.5 * einsum("rs,smn->rmn", ginv, _bracket(dgm))


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


def curvature_bundle(g10, dg, d2g):
    """ginv, rho, Gamma, Ricci, R of the Levi-Civita connection, from the
    ordered metric 2-jet; all results over full index ranges. The Ricci
    derivative terms G^c_{ba,c} - G^c_{ca,b} are contracted from
    d(g^-1) = -g^-1 dg g^-1 and d2gm[a, b, m, n] = g_{ab,mn}, so dGamma
    never forms."""
    gm, dgm = g10[..., PAIR_FULL], dg[..., PAIR_FULL, :]
    d2gm = d2g[..., PAIR_FULL, :][..., PAIR_FULL]
    ginv, rho = metric_inverse_density(gm)
    gam = christoffel(ginv, dgm)
    h = (einsum("sabr->rsab", d2gm) + einsum("sbar->rsab", d2gm)
         - einsum("absr->rsab", d2gm) - d2gm)
    ric = ricci(gam, 0.5 * einsum("rs,rsab->ab", ginv, h)
                - einsum("rk,klr,lba->ab", ginv, dgm, gam)
                + 0.5 * einsum("rk,klb,ls,rsa->ab", ginv, dgm, ginv, dgm))
    return ginv, rho, gam, ric, einsum("ab,ab->", ginv, ric)


def scalar_density(g10, dg, d2g):
    """rho g^{ab} R_ab of the Levi-Civita connection from the ordered
    metric 2-jet, in einsums ending in scalars, so no block of a dual pass
    carries a tensor. The d2g term is k_pq d2g_pq in ordered storage, with
    k_pq = g^{ab} g^{cs} (E_sap E_bcq - E_csp E_abq) and E_abp = 1 iff
    PAIR_FULL[a, b] == p (`_EXPAND`), so a d2g seed block meets k in one
    matmul, unexpanded. The rest is quadratic in D_abc = g_{ab,c} (Landau &
    Lifshitz, *The Classical Theory of Fields*, 93): with B = `_bracket`,
    -T1/2 + T2/2 + T3/4 - T4/4 for T1 = g^ab g^ck g^ls D_klc B_sba, T2 =
    g^ab g^ck g^ls D_klb D_csa, T3 = g^ab g^ck g^sl B_kba D_slc and T4 =
    g^ab g^ck g^sl B_kbs B_lca. Let V_l = g^ab D_lab, U_l = g^ab D_abl,
    w = V - U/2; g^ab B_sba = 2 V_s - U_s gives -T1/2 + T3/4 = -g(w, w).
    T2 = J1 = g^ad g^be g^cf D_abc D_def; of T4's nine products of two
    D's, the three pairing derivative slots give -J1 and the six pairing a
    derivative slot with a metric slot 2 J2, J2 = g^ad g^bf g^ce D_abc
    D_def. So the quadratic part is -g(w, w) + 3 J1/4 - J2/2: fewer and
    smaller product-rule terms than the bracket's."""
    gm, dgm = g10[..., PAIR_FULL], dg[..., PAIR_FULL, :]
    ginv, rho = metric_inverse_density(gm)
    k = (einsum("ab,cs,sap,bcq->pq", ginv, ginv, _EXPAND, _EXPAND)
         - einsum("ab,cs,csp,abq->pq", ginv, ginv, _EXPAND, _EXPAND))
    w = einsum("ab,lab->l", ginv, dgm) - 0.5 * einsum("ab,abl->l", ginv, dgm)
    r = (einsum("pq,pq->", k, d2g) - einsum("ls,l,s->", ginv, w, w)
         + 0.75 * einsum("ad,be,cf,abc,def->", ginv, ginv, ginv, dgm, dgm)
         - 0.5 * einsum("ad,bf,ce,abc,def->", ginv, ginv, ginv, dgm, dgm))
    return rho * r


def torsion_full(Gamma):
    """T^a_{bc} = G^a_{bc} - G^a_{cb} over full index ranges; any leading
    axes are batch axes."""
    gam = np.asarray(Gamma)
    return gam - np.swapaxes(gam, -1, -2)
