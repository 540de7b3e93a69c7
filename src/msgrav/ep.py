"""The first-order metric-affine model: Lagrangian, momenta, Hamiltonian,
Poincare-Cartan 5-form, the five constraint families and projectability
checks.

The connection is an independent field with no symmetry assumed; curvature
comes from the same Ricci kernel as the metric model, which is what makes
the torsionless-metric gauge comparison a genuine cross-check. A point's
checks take two AD passes of `legendre_fn` (L, H and rho g^-1), and no
plain call repeats one, since a dual pass's value is bitwise the plain
call's: `closed_forms_ep` over (g, Gamma) at the points feeds H, the
closed momenta and the metric equation to each operation that takes it as
`closed`; `momenta_ep` over dGamma, for the point and its projectability
trials stacked, feeds the AD momenta, L and the trials' H. Every operation
takes one point or a stack of points on leading axes; per-point results
are arrays of the leading shape, 0-d for one point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exterior import Form, cartan_form
from .fieldspace import (EP_OFF, EPJetPoint, fiber_gradient,
                         trial_deviation, trial_stack)
from .geometry import (connection_traces, metric_inverse_density, ricci,
                       torsion_full)
from .indexing import APAIR_ROWS, DIM, PAIR_FULL, PAIR_ROWS, PAIRS
from .tangents import Tan, einsum

NPAIR = len(PAIRS)

# rho g^{xy} K_abcs,xy is the closed momentum of Gamma^a_{bc,s}:
# K = d_cx (d_by d_sa - d_sy d_ba)
_MOMENTA = (np.einsum("cx,by,sa->abcsxy", *[np.eye(DIM)] * 3)
            - np.einsum("cx,sy,ba->abcsxy", *[np.eye(DIM)] * 3))


# -- fiber functions --------------------------------------------------------

def legendre_fn(pt):
    """(L, H, rho g^{xy}) from one g^-1, one rho and one Ricci tensor:
    L = rho g^{ab} R_ab(Gamma, dGamma), which never reads dg, and the
    Legendre combination H = Lmom . dGamma - L with the closed momenta
    contracted as the traces rho (g^{cb} dGamma^a_{bca} - g^{cs}
    dGamma^a_{acs}), so H = rho g^{ab} (traces_ab - R_ab) and the rank-4
    momenta never form. L is linear in dGamma, so H depends on (g, Gamma)
    alone. The traces are the Ricci tensor's derivative terms, formed once
    for both."""
    ginv, rho = metric_inverse_density(pt.g[..., PAIR_FULL])
    traces = connection_traces(pt.dGamma)
    ric = ricci(pt.Gamma, traces)
    return (rho * einsum("ab,ab->", ginv, ric),
            rho * einsum("ab,ab->", ginv, traces - ric),
            einsum(",xy->xy", rho, ginv))


@dataclass(frozen=True)
class EPClosed:
    """The (g, Gamma) pass: the closed forms and L, each with its lead."""

    Lmom: Tan    # closed momenta, (4, 4, 4, 4); g: by g
    H: Tan       # g: by (g, Gamma)
    L: Tan       # g: by (g, Gamma)


def closed_forms_ep(p: EPJetPoint) -> EPClosed:
    """One pass of `legendre_fn` over (g, Gamma). The closed momenta are
    `_MOMENTA` contracted with rho g^-1 and the g columns of its gradient,
    all that is nonzero, since rho g^-1 reads g alone."""
    L, H, rg = fiber_gradient(legendre_fn, p, ["g", "Gamma"])
    return EPClosed(Lmom=einsum("xy,abcsxy->abcs",
                                Tan(rg.v, rg.g[..., :NPAIR]), _MOMENTA),
                    H=H, L=L)


@dataclass(frozen=True)
class EPMomenta:
    """Each field has the point's leading shape in front."""

    L: np.ndarray
    H: np.ndarray
    Lmom_ad: np.ndarray      # (4, 4, 4, 4): d L / d Gamma^a_{bc,s}


def momenta_ep(p: EPJetPoint) -> EPMomenta:
    """L, H and the AD momenta from one pass of L over dGamma."""
    L, H, _ = fiber_gradient(legendre_fn, p, ["dGamma"])
    return EPMomenta(L=L.v, H=H.v, Lmom_ad=L.g.reshape(p.lead + (DIM,) * 4))


# -- constraint families ----------------------------------------------------

def constraint_c0(closed: EPClosed) -> np.ndarray:
    """The metric equation -dL/dg at fixed (Gamma, dGamma) over ordered
    metric pairs, dH/dg minus the variation of Lmom . dGamma: the g
    columns of L's gradient in `closed`, the (g, Gamma) pass."""
    return -closed.L.g[..., :NPAIR]


def trace_removal(T: np.ndarray) -> np.ndarray:
    """Remove the delta-trace part of a (1,2) tensor antisymmetric below;
    any leading axes are batch axes."""
    tr = np.einsum("...mmg->...g", T) / 3.0
    delta = np.eye(DIM)
    return (T - np.einsum("ab,...c->...abc", delta, tr)
            + np.einsum("ac,...b->...abc", delta, tr))


def _apairs_of(T3: np.ndarray) -> np.ndarray:
    """The antisymmetric lower pair (the last two axes) over APAIRS."""
    return T3[..., APAIR_ROWS[0], APAIR_ROWS[1]]


def constraint_premetricity(p: EPJetPoint) -> np.ndarray:
    """Compatibility of the metric derivative with the connection up to the
    projective trace part, (10, 4) over (ordered pair, direction)."""
    gm = p.g[..., PAIR_FULL]
    ttr = (np.einsum("...llm->...m", p.Gamma)
           - np.einsum("...lml->...m", p.Gamma))
    # gg[r, s, mu] = g_{s l} Gamma^l_{mu r}
    gg = np.einsum("...sl,...lmr->...rsm", gm, p.Gamma)
    full = (p.dg[..., PAIR_FULL, :] - gg - np.swapaxes(gg, -3, -2)
            - (2.0 / 3.0) * gm[..., None] * ttr[..., None, None, :])
    return full[..., PAIR_ROWS[0], PAIR_ROWS[1], :]


def constraint_torsion(p: EPJetPoint) -> np.ndarray:
    """Trace-removed torsion, (4, 6) over the antisymmetric lower pair."""
    return _apairs_of(trace_removal(torsion_full(p.Gamma)))


def constraint_torsion_deriv(p: EPJetPoint) -> np.ndarray:
    """Trace-removed torsion derivative, (4, 6, 4)."""
    # the derivative direction leads while the torsion is formed
    dgam = np.moveaxis(p.dGamma, -1, -4)
    return np.moveaxis(_apairs_of(trace_removal(torsion_full(dgam))), -3, -1)


def constraint_integrability(p: EPJetPoint) -> np.ndarray:
    """Antisymmetrized closure conditions, (10, 6) over (ordered metric
    pair, antisymmetric direction pair); each bracket is (f(mu,nu) -
    f(nu,mu))/2 on the two direction slots, and the r <-> s partner of
    each bracket is its transpose in the metric slots."""
    gm = p.g[..., PAIR_FULL]
    dttr = (np.einsum("...llmn->...mn", p.dGamma)
            - np.einsum("...lmln->...mn", p.dGamma))
    # f[r, s, mu, nu] = g_{r g} (Gamma^g_{nu l} Gamma^l_{mu s}
    #                            + dGamma^g_{mu s, nu})
    f = (einsum("rg,gnl,lms->rsmn", gm, p.Gamma, p.Gamma)
         + einsum("rg,gmsn->rsmn", gm, p.dGamma))
    f = 0.5 * (f - np.swapaxes(f, -1, -2))
    full = (f + np.swapaxes(f, -4, -3) + (1.0 / 3.0) * gm[..., None, None]
            * (dttr - np.swapaxes(dttr, -1, -2))[..., None, None, :, :])
    return full[..., PAIR_ROWS[0], PAIR_ROWS[1], :, :][
        ..., APAIR_ROWS[0], APAIR_ROWS[1]]


# -- projectability ---------------------------------------------------------

def projectability_check_ep(p: EPJetPoint, closed: EPClosed, trials, seed):
    """Randomize the first-order blocks; H and the AD momenta must hold
    still. p rides as row 0 in front of `trials` (at least one) randomized
    copies on a new leading axis: one momenta_ep pass covers the stack and
    gives every row's H. The trials keep (g, Gamma), so `closed`, p's
    closed forms, holds every row's closed momenta (projectable by
    construction, not compared) and H. A trial's H deviation is relative
    to 1 + the trial's sum |Lmom_ad dGamma| + |L|, the terms of the
    Legendre combination H, and the momenta to 1 + max |row 0|. `seed`
    seeds each point's trials (trial_stack). Returns (max deviation, max
    Lagrangian deviation as control, p's momenta), the first two of p's
    leading shape."""
    q = trial_stack(p, ("dg", "dGamma"), trials, seed)
    m = momenta_ep(q)
    base = EPMomenta(L=m.L[0], H=m.H[0], Lmom_ad=m.Lmom_ad[0])
    axes = (-4, -3, -2, -1)
    h_mag = (np.sum(np.abs(m.Lmom_ad[1:] * q.dGamma[1:]), axis=axes)
             + np.abs(m.L[1:]))
    dev = np.maximum(np.abs(m.H[1:] - closed.H.v) / (1.0 + h_mag),
                     trial_deviation(m.Lmom_ad[1:], base.Lmom_ad, axes))
    return dev.max(axis=0), np.abs(m.L[1:] - base.L).max(axis=0), base


# -- Poincare-Cartan form ---------------------------------------------------

def cartan_form_ep(p: EPJetPoint, closed: EPClosed) -> Form:
    """dH ^ d4x minus one momenta block per connection coordinate, laid
    out from `closed`, p's closed forms.

    Both dH and the momenta differentials are supported on (g, Gamma),
    which projectability_check_ep verifies independently; for the momenta
    the closed form shows the support is the metric block alone.
    """
    g0, gam0, dg0 = EP_OFF["g"], EP_OFF["Gamma"], EP_OFF["dg"]
    # the form lives on the (x, g, Gamma) coordinates
    dense = np.zeros(p.lead + (1 + DIM ** 4, dg0))
    dense[..., 0, g0:] = closed.H.g
    dense[..., 1:, g0:gam0] = closed.Lmom.g.reshape(p.lead + (-1, NPAIR))
    return cartan_form(dense, gam0)
