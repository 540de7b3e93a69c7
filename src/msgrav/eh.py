"""The second-order metric model: Lagrangian, momenta, Hamiltonian,
Poincare-Cartan 5-form, constraints, holonomy residuals, field-equation
contraction, and projectability checks.

Momenta are computed twice on purpose: once by differentiating the
Lagrangian (tangent passes through the array kernels) and once from the
closed forms, written as einsums; the two routes referee the
ordered-index multiplicity conventions against each other. One gradient
pass per evaluation point, dg and d2g seeded together, gives L and both
AD momenta; the closed forms read (g, dg) only, so they are computed once
per (g, dg) and shared by the projectability trials. The closed-form
Hamiltonian sums over full index ranges, the sum form over ordered ones.
Fiber functions read a point's ordered blocks, as arrays, Tan or Jet2,
and expand them through `indexing.PAIR_FULL`. Every operation takes one
point or a stack of points on leading axes; per-point results are arrays
of the leading shape, 0-d for one point.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError
from .exterior import Form, cartan_form, contract_terms
from .fieldspace import (EH_DIM_J3, EH_OFF, EHJetPoint, derivatives,
                         fiber_gradient, fiber_hessian, fiber_jacobian,
                         perturbed, tangent_lifts, total_derivatives_vec,
                         trial_rngs)
from .geometry import (curvature_bundle, metric_inverse_density,
                       scalar_density)
from .indexing import DERIVS, DIM, MULT, PAIR_FULL, PAIR_ROWS, PAIRS
from .tangents import Jet2, einsum

NPAIR = len(PAIRS)


# -- fiber functions --------------------------------------------------------

def lagrangian_fn(pt):
    """rho * g^{ab} R_ab; reaches the second-order coordinates only."""
    return scalar_density(pt.g, pt.dg, pt.d2g)


def momenta2_closed_fn(pt):
    """Closed-form second-order momenta over (ordered pair, ordered pair):
    (n(ab)/2) rho (g^{am} g^{bn} + g^{an} g^{bm} - 2 g^{ab} g^{mn})."""
    ginv, rho = metric_inverse_density(pt.g[..., PAIR_FULL])
    full = (einsum("am,bn->abmn", ginv, ginv)
            + einsum("an,bm->abmn", ginv, ginv)
            - 2.0 * einsum("ab,mn->abmn", ginv, ginv))
    a, b = PAIR_ROWS
    return einsum(",am->am", 0.5 * rho,
                  full[..., a, b, :, :][..., a, b]) * MULT[:, None]


def hamiltonian_closed_fn(pt):
    """rho g_{ab,m} g_{kl,n} H^{abklmn}, all six indices over full ranges,
    through C_m = g^-1 dg_m, E_m = C_m g^-1 and P_m = tr C_m."""
    ginv, rho = metric_inverse_density(pt.g[..., PAIR_FULL])
    c = einsum("ik,kjm->ijm", ginv, pt.dg[..., PAIR_FULL, :])
    e = einsum("ijm,jl->ilm", c, ginv)
    p = einsum("iim->m", c)
    h = (0.25 * (einsum("mn,m,n->", ginv, p, p)
                 - einsum("mn,ikm,kin->", ginv, c, c))
         + 0.5 * einsum("knm,mkn->", e, c) - 0.5 * einsum("m,mnn->", p, e))
    return rho * h


def constraint_einstein(pt):
    """The Einstein-equation constraints over ordered pairs,
    -rho n(ab) (R^{ab} - g^{ab} R / 2); also a fiber function."""
    ginv, rho, _, ric, scal = curvature_bundle(pt.g, pt.dg, pt.d2g)
    e_up = (einsum("ai,bj,ij->ab", ginv, ginv, ric)
            - einsum(",ab->ab", 0.5 * scal, ginv))
    return einsum(",a->a", -rho, e_up[..., PAIR_ROWS[0], PAIR_ROWS[1]]) * MULT


# -- public operations ------------------------------------------------------

def lagrangian_eh(p) -> np.ndarray:
    """L on any point that carries the g, dg and d2g blocks."""
    return np.asarray(lagrangian_fn(p))


@dataclass(frozen=True)
class EHMomenta:
    """Each field has the point's leading shape in front."""

    L: np.ndarray
    L2_ad: np.ndarray       # (10, 10): (1/n(mn)) dL/d g_{ab,mn}
    L2_closed: np.ndarray   # (10, 10): closed form
    L2_jac: np.ndarray      # (10, 10, 10): closed form by g
    L1: np.ndarray          # (10, 4)
    H_sum: np.ndarray
    H_closed: np.ndarray


def _momenta_ad(p: EHJetPoint, l2_closed, l2_jac, h_closed) -> EHMomenta:
    """The AD momenta at p from one gradient pass of L over (dg, d2g),
    completed by the closed forms of p's (g, dg). L1 is dL/d g_{ab,m} -
    sum_n D_n L^{ab,mn}; the total derivative only reaches the metric
    block because the closed second-order momenta depend on g alone."""
    grad = fiber_gradient(lagrangian_fn, p, ["dg", "d2g"])
    dldv = grad.g[..., :NPAIR * DIM].reshape(p.lead + (NPAIR, DIM))
    l2_ad = grad.g[..., NPAIR * DIM:].reshape(p.lead + (NPAIR, NPAIR)) / MULT
    # D_n L2[a, (mu nu)] = sum_b dL2/dg_b g_{b,n}, taken at n = nu
    dl2 = np.einsum("...amb,...bn->...amn", l2_jac, p.dg)[..., PAIR_FULL, :]
    l1 = dldv - np.einsum("...amnn->...am", dl2)
    lag = grad.v
    # The second-order sum runs over full derivative-index ranges, which in
    # ordered storage is a multiplicity weight per column.
    h_sum = (np.sum(l2_ad * p.d2g * MULT, axis=(-2, -1))
             + np.sum(l1 * p.dg, axis=(-2, -1)) - lag)
    return EHMomenta(L=lag, L2_ad=l2_ad, L2_closed=l2_closed, L2_jac=l2_jac,
                     L1=l1, H_sum=h_sum, H_closed=h_closed)


def momenta_and_hamiltonian(p: EHJetPoint) -> EHMomenta:
    l2_closed, l2_jac = fiber_jacobian(momenta2_closed_fn, p, ["g"])
    return _momenta_ad(p, l2_closed, l2_jac, hamiltonian_closed_fn(p))


def constraint_einstein_derivative(p: EHJetPoint) -> np.ndarray:
    """Total derivatives of the Einstein constraints, (10, 4)."""
    if p.d4g is None:
        raise ConfigError("constraint derivative needs the order-4 block")
    return total_derivatives_vec(constraint_einstein, p)


def holonomy_residuals(p: EHJetPoint, metric_series):
    """Residuals of the two holonomy equations against a section.

    The second equation's symmetrization, normalized per distinct ordering
    of the derivative pair, is the section's second derivative itself, so
    prolongations are exact zeros.
    """
    return (p.dg - derivatives(metric_series, DERIVS[1]),
            p.d2g - derivatives(metric_series, DERIVS[2]))


# -- Poincare-Cartan form and field equations -------------------------------

def _momenta1_differentials(p: EHJetPoint):
    """Differentials of the 40 first-order momenta over the (g, dg) block,
    (40, 50), and the g-Jacobian of the closed second-order momenta,
    (10, 10, 10).

    The remaining components vanish by the projectability of the form,
    which projectability_check verifies independently.
    """
    hessian = fiber_hessian(lagrangian_fn, p, ["dg"], ["g", "dg"])
    # d(D_n L2)/du: the closed momenta with g seeded in `a` and shifted
    # along each direction n in `b`, so `m` is the Hessian applied to dg
    l2 = momenta2_closed_fn(SimpleNamespace(g=Jet2(
        p.g, np.broadcast_to(np.eye(NPAIR), p.g.shape + (NPAIR,)), p.dg,
        None)))
    by_g = np.einsum("...amnbn->...amb", l2.m[..., PAIR_FULL, :, :])
    by_dg = np.einsum("...amnb->...ambn", l2.a[..., PAIR_FULL, :])
    rows = p.lead + (NPAIR * DIM, -1)
    return hessian - np.concatenate(
        [by_g.reshape(rows), by_dg.reshape(rows)], axis=-1), l2.a


def cartan_form_eh(p: EHJetPoint) -> Form:
    """The 5-form dH ^ d4x minus the two momenta blocks: the 40 first-order
    momenta L^{a mu}, wedged with the differential of g_a and
    i(d/dx^mu) d4x, then the 160 second-order ones L^{a, mu nu}, wedged
    with the differential of g_{a,mu} and i(d/dx^nu) d4x. Every dense
    covector is supported on the (x, g, dg) columns, so only those are
    stored."""
    g0, dg0, d2g0 = EH_OFF["g"], EH_OFF["dg"], EH_OFF["d2g"]
    dh = fiber_gradient(hamiltonian_closed_fn, p, ["g", "dg"]).g
    dl1, l2_jac = _momenta1_differentials(p)
    # allocated after the AD passes so their temporaries are already freed
    n1 = dl1.shape[-2]
    dense = np.zeros(p.lead + (1 + n1 * (1 + DIM), d2g0))
    dense[..., 0, g0:] = dh
    dense[..., 1:1 + n1, g0:] = dl1
    dense[..., 1 + n1:, :].reshape(p.lead + (NPAIR, DIM, DIM, -1))[
        ..., g0:dg0] = l2_jac[..., PAIR_FULL, :]
    return cartan_form(dense, g0, EH_DIM_J3)


def field_equation_covector(p: EHJetPoint) -> np.ndarray:
    """i(X0)...i(X3) of the 5-form, X_tau the section's tangent lifts."""
    lifts = tangent_lifts(p)
    return contract_terms(cartan_form_eh(p), lifts)


def verify_field_equation(p: EHJetPoint) -> np.ndarray:
    return np.abs(field_equation_covector(p)).max(axis=-1)


# -- projectability ---------------------------------------------------------

def projectability_check(p: EHJetPoint, base: EHMomenta, trials: int,
                         seed: int):
    """Randomize the order-2/3 blocks; the projectable data must not move.
    `base` is momenta_and_hamiltonian(p). L2_closed and H_closed read only
    (g, dg), which the trials keep: they are projectable by construction,
    so the trials reuse them and compare the AD momenta and H_sum.
    `seed` seeds each point's trials: an int, or an array of p's leading
    shape. The trials (at least one) share one pass, stacked on a new
    leading axis in front of p's. Returns (max deviation of H_sum/L2_ad/L1,
    max deviation of L itself), each of p's leading shape; the second is
    the control showing L is genuinely second order.
    """
    rngs = trial_rngs(seed, p.lead)
    d2g, d3g = map(np.stack, zip(*[
        (perturbed(rngs, p.d2g), perturbed(rngs, p.d3g))
        for _ in range(trials)]))
    x, g, dg = (np.broadcast_to(a, (trials,) + a.shape)
                for a in (p.x, p.g, p.dg))
    q = EHJetPoint(x=x, g=g, dg=dg, d2g=d2g, d3g=d3g)
    m = _momenta_ad(q, base.L2_closed, base.L2_jac, base.H_closed)
    dev = np.maximum.reduce([np.abs(m.H_sum - base.H_sum),
                             np.abs(m.L2_ad - base.L2_ad).max(axis=(-2, -1)),
                             np.abs(m.L1 - base.L1).max(axis=(-2, -1))])
    return dev.max(axis=0), np.abs(m.L - base.L).max(axis=0)
