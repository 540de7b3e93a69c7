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

# E[a, b, p] = 1 iff PAIR_FULL[a, b] == p
_EXPAND = (PAIR_FULL[..., None] == np.arange(PAIR_FULL.max() + 1)) * 1.0
# g^{rs} H_rsab,pq d2g_pq is the d2g part of the Ricci tensor, with
# H d2g = (g_{sa,br} + g_{sb,ar} - g_{ab,sr} - g_{rs,ab}) / 2
_RICCI_D2 = 0.5 * (np.einsum("sap,brq->rsabpq", _EXPAND, _EXPAND)
                   + np.einsum("sbp,arq->rsabpq", _EXPAND, _EXPAND)
                   - np.einsum("abp,srq->rsabpq", _EXPAND, _EXPAND)
                   - np.einsum("rsp,abq->rsabpq", _EXPAND, _EXPAND))


# -- kernels: arrays, Tan or Jet2 -------------------------------------------

def metric_inverse_density(gm):
    """(g^{ab}, rho = sqrt(|det g|)) of a full 4x4 Lorentzian metric."""
    try:
        ginv, det = inv(gm)
    except np.linalg.LinAlgError:
        raise DegenerateMetricError("metric is singular") from None
    return ginv, sqrt(abs(det))


def christoffel(ginv, dgm):
    """G^r_{mn} = g^{rs} B_smn / 2, with dgm[a, b, m] = g_{ab,m} and the
    bracket B_smn = g_{sn,m} + g_{sm,n} - g_{mn,s}."""
    return 0.5 * einsum("rs,smn->rmn", ginv, einsum("snm->smn", dgm) + dgm
                        - einsum("mns->smn", dgm))


def ricci(gam, dterms):
    """The Ricci polynomial from Gamma and its derivative terms."""
    trace = einsum("ssc->c", gam)
    return (dterms + einsum("cba,c->ab", gam, trace)
            - einsum("cbs,sca->ab", gam, gam))


def connection_traces(dGamma):
    """G^c_{ba,c} - G^c_{ca,b} from dGamma (4,4,4,4), derivative direction
    last: the derivative terms of an arbitrary connection's Ricci tensor,
    ricci(Gamma, connection_traces(dGamma))."""
    return einsum("cbac->ab", dGamma) - einsum("ccab->ab", dGamma)


def curvature_bundle(g10, dg, d2g):
    """ginv, rho, Gamma, Ricci, R of the Levi-Civita connection, from the
    ordered metric 2-jet; all results over full index ranges. The Ricci
    derivative terms G^c_{ba,c} - G^c_{ca,b} are contracted from
    d(g^-1) = -g^-1 dg g^-1 and, in ordered storage, g^{rs} H_rsab,pq
    d2g_pq (`_RICCI_D2`), so neither dGamma nor a full d2g forms."""
    gm, dgm = g10[..., PAIR_FULL], dg[..., PAIR_FULL, :]
    ginv, rho = metric_inverse_density(gm)
    gam = christoffel(ginv, dgm)
    ric = ricci(gam, einsum("rs,rsabpq,pq->ab", ginv, _RICCI_D2, d2g)
                - einsum("rk,klr,lba->ab", ginv, dgm, gam)
                + 0.5 * einsum("rk,klb,ls,rsa->ab", ginv, dgm, ginv, dgm))
    return ginv, rho, gam, ric, einsum("ab,ab->", ginv, ric)


def scalar_density(g10, dg, d2g):
    """rho g^{ab} R_ab of the Levi-Civita connection from the ordered
    metric 2-jet, in einsums ending in scalars, so no block of a dual pass
    carries a tensor. The d2g term is g^{ab} g^{rs} H_rsab,pq d2g_pq, the
    trace of curvature_bundle's (`_RICCI_D2`), so d2g is never expanded.
    The rest is quadratic in D_abc = g_{ab,c} (Landau & Lifshitz, *The
    Classical Theory of Fields*, 93): with B the bracket of `christoffel`,
    -T1/2 + T2/2 + T3/4 - T4/4 for T1 = g^ab g^ck g^ls D_klc B_sba, T2 =
    g^ab g^ck g^ls D_klb D_csa, T3 = g^ab g^ck g^sl B_kba D_slc and T4 =
    g^ab g^ck g^sl B_kbs B_lca. Let V_l = g^ab D_lab, U_l = g^ab D_abl and
    w = V - U/2 = g^ab (D_lab - D_abl/2), one contraction; g^ab B_sba =
    2 V_s - U_s gives -T1/2 + T3/4 = -g(w, w). T2 = J1 = g^ad g^be g^cf
    D_abc D_def; of T4's nine products of two D's, the three pairing
    derivative slots give -J1 and the six pairing a derivative slot with a
    metric slot 2 J2, J2 = g^ad g^bf g^ce D_abc D_def, which is g^ad g^be
    g^cf D_abc D_dfe once e and f are relabelled. So the quadratic part is
    -g(w, w) + g^ad g^be g^cf D_abc (3 D_def/4 - D_dfe/2), two
    contractions with fewer and smaller product-rule terms than the
    bracket's."""
    gm, dgm = g10[..., PAIR_FULL], dg[..., PAIR_FULL, :]
    ginv, rho = metric_inverse_density(gm)
    w = einsum("ab,lab->l", ginv, dgm - 0.5 * einsum("abl->lab", dgm))
    r = (einsum("ab,rs,rsabpq,pq->", ginv, ginv, _RICCI_D2, d2g)
         - einsum("ls,l,s->", ginv, w, w)
         + einsum("ad,be,cf,abc,def->", ginv, ginv, ginv, dgm,
                  0.75 * dgm - 0.5 * einsum("dfe->def", dgm)))
    return rho * r


def torsion_full(Gamma):
    """T^a_{bc} = G^a_{bc} - G^a_{cb} over full index ranges; any leading
    axes are batch axes."""
    gam = np.asarray(Gamma)
    return gam - np.swapaxes(gam, -1, -2)
