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
and expand them through `indexing.PAIR_FULL`.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError
from .exterior import Form, cartan_form, contract_terms
from .fieldspace import (EH_DIM_J3, EH_OFF, EHJetPoint, derivatives,
                         fiber_gradient, fiber_hessian, fiber_jacobian,
                         perturbed, tangent_lifts, total_derivatives_vec)
from .geometry import curvature_bundle, metric_inverse_density
from .indexing import DERIVS, DIM, MULT, PAIR_FULL, PAIR_ROWS, PAIRS
from .tangents import Jet2, einsum

NPAIR = len(PAIRS)


# -- fiber functions --------------------------------------------------------

def lagrangian_fn(pt):
    """rho * g^{ab} R_ab; reaches the second-order coordinates only."""
    _, rho, _, _, scal = curvature_bundle(pt.g, pt.dg, pt.d2g)
    return rho * scal


def momenta2_closed_fn(pt):
    """Closed-form second-order momenta over (ordered pair, ordered pair):
    (n(ab)/2) rho (g^{am} g^{bn} + g^{an} g^{bm} - 2 g^{ab} g^{mn})."""
    ginv, rho = metric_inverse_density(pt.g[PAIR_FULL])
    full = (einsum("am,bn->abmn", ginv, ginv)
            + einsum("an,bm->abmn", ginv, ginv)
            - 2.0 * einsum("ab,mn->abmn", ginv, ginv))
    a, b = PAIR_ROWS
    return 0.5 * rho * full[a, b][:, a, b] * MULT[:, None]


def hamiltonian_closed_fn(pt):
    """rho g_{ab,m} g_{kl,n} H^{abklmn}, all six indices over full ranges,
    through C_m = g^-1 dg_m, E_m = C_m g^-1 and P_m = tr C_m."""
    ginv, rho = metric_inverse_density(pt.g[PAIR_FULL])
    c = einsum("ik,kjm->ijm", ginv, pt.dg[PAIR_FULL])
    e = einsum("ijm,jl->ilm", c, ginv)
    p = einsum("iim->m", c)
    h = (0.25 * (einsum("mn,m,n->", ginv, p, p)
                 - einsum("mn,ikm,kin->", ginv, c, c))
         + 0.5 * einsum("knm,mkn->", e, c) - 0.5 * einsum("m,mnn->", p, e))
    return rho * h


def hamiltonian_coefficient(pt, a, b, k, l, m, n):
    """H^{abklmn} evaluated on demand (full-range indices)."""
    ginv, _ = metric_inverse_density(pt.g[PAIR_FULL])
    return (0.25 * ginv[a, b] * ginv[k, l] * ginv[m, n]
            - 0.25 * ginv[a, k] * ginv[b, l] * ginv[m, n]
            + 0.5 * ginv[a, k] * ginv[l, m] * ginv[b, n]
            - 0.5 * ginv[a, b] * ginv[l, n] * ginv[k, m])


def constraint_einstein(pt):
    """The Einstein-equation constraints over ordered pairs,
    -rho n(ab) (R^{ab} - g^{ab} R / 2); also a fiber function."""
    ginv, rho, _, ric, scal = curvature_bundle(pt.g, pt.dg, pt.d2g)
    e_up = einsum("ai,bj,ij->ab", ginv, ginv, ric) - 0.5 * ginv * scal
    return -rho * e_up[PAIR_ROWS] * MULT


# -- public operations ------------------------------------------------------

def lagrangian_eh(p: EHJetPoint) -> float:
    return float(lagrangian_fn(p))


@dataclass(frozen=True)
class EHMomenta:
    L: float
    L2_ad: np.ndarray       # (10, 10): (1/n(mn)) dL/d g_{ab,mn}
    L2_closed: np.ndarray   # (10, 10): closed form
    L2_jac: np.ndarray      # (10, 10, 10): closed form by g
    L1: np.ndarray          # (10, 4)
    H_sum: float
    H_closed: float


def _momenta_ad(p: EHJetPoint, l2_closed, l2_jac, h_closed) -> EHMomenta:
    """The AD momenta at p from one gradient pass of L over (dg, d2g),
    completed by the closed forms of p's (g, dg). L1 is dL/d g_{ab,m} -
    sum_n D_n L^{ab,mn}; the total derivative only reaches the metric
    block because the closed second-order momenta depend on g alone."""
    grad = fiber_gradient(lagrangian_fn, p, ["dg", "d2g"])
    dldv = grad.g[:NPAIR * DIM].reshape(NPAIR, DIM)
    l2_ad = grad.g[NPAIR * DIM:].reshape(NPAIR, NPAIR) / MULT
    # D_n L2[a, (mu nu)] = sum_b dL2/dg_b g_{b,n}, taken at n = nu
    dl2 = np.einsum("amb,bn->amn", l2_jac, p.dg)[:, PAIR_FULL]
    l1 = dldv - np.einsum("amnn->am", dl2)
    lag = float(grad.v)
    # The second-order sum runs over full derivative-index ranges, which in
    # ordered storage is a multiplicity weight per column.
    h_sum = (float(np.sum(l2_ad * p.d2g * MULT))
             + float(np.sum(l1 * p.dg)) - lag)
    return EHMomenta(L=lag, L2_ad=l2_ad, L2_closed=l2_closed, L2_jac=l2_jac,
                     L1=l1, H_sum=h_sum, H_closed=h_closed)


def momenta_and_hamiltonian(p: EHJetPoint) -> EHMomenta:
    l2_closed, l2_jac = fiber_jacobian(momenta2_closed_fn, p, ["g"])
    return _momenta_ad(p, l2_closed, l2_jac,
                       float(hamiltonian_closed_fn(p)))


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
    """Dense differentials of the 40 first-order momenta, (40, 354), and
    the g-Jacobian of the closed second-order momenta, (10, 10, 10).

    Support is on the (g, dg) block: the remaining components vanish by
    the projectability of the form, which projectability_check verifies
    independently.
    """
    g0, dg0, d2g0 = EH_OFF["g"], EH_OFF["dg"], EH_OFF["d2g"]
    rows = np.zeros((NPAIR * DIM, EH_DIM_J3))
    rows[:, g0:d2g0] = fiber_hessian(lagrangian_fn, p, ["dg"], ["g", "dg"])
    # d(D_n L2)/du: the closed momenta with g seeded in `a` and shifted
    # along each direction n in `b`, so `m` is the Hessian applied to dg
    l2 = momenta2_closed_fn(SimpleNamespace(
        g=Jet2(p.g, np.eye(NPAIR), p.dg, None)))
    rows[:, g0:dg0] -= np.einsum("amnbn->amb",
                                 l2.m[:, PAIR_FULL]).reshape(-1, NPAIR)
    rows[:, dg0:d2g0] -= np.einsum("amnb->ambn",
                                   l2.a[:, PAIR_FULL]).reshape(-1, d2g0 - dg0)
    return rows, l2.a


def cartan_form_eh(p: EHJetPoint) -> Form:
    """The 5-form dH ^ d4x minus the two momenta blocks: the 40 first-order
    momenta L^{a mu}, wedged with the differential of g_a and
    i(d/dx^mu) d4x, then the 160 second-order ones L^{a, mu nu}, wedged
    with the differential of g_{a,mu} and i(d/dx^nu) d4x."""
    g0, dg0, d2g0 = EH_OFF["g"], EH_OFF["dg"], EH_OFF["d2g"]
    dh = fiber_gradient(hamiltonian_closed_fn, p, ["g", "dg"]).g
    dl1, l2_jac = _momenta1_differentials(p)
    # allocated after the AD passes so their temporaries are already freed
    n1 = len(dl1)
    dense = np.zeros((1 + n1 * (1 + DIM), EH_DIM_J3))
    dense[0, g0:d2g0] = dh
    dense[1:1 + n1] = dl1
    dense[1 + n1:].reshape(NPAIR, DIM, DIM, -1)[..., g0:dg0] = \
        l2_jac[:, PAIR_FULL]
    return cartan_form(dense, g0)


def field_equation_covector(p: EHJetPoint) -> np.ndarray:
    """i(X0)...i(X3) of the 5-form, X_tau the section's tangent lifts."""
    lifts = tangent_lifts(p)
    return contract_terms(cartan_form_eh(p), lifts)


def verify_field_equation(p: EHJetPoint) -> float:
    return float(np.abs(field_equation_covector(p)).max())


# -- projectability ---------------------------------------------------------

def projectability_check(p: EHJetPoint, base: EHMomenta, trials: int,
                         seed: int):
    """Randomize the order-2/3 blocks; the projectable data must not move.
    `base` is momenta_and_hamiltonian(p). L2_closed and H_closed read only
    (g, dg), which the trials keep: they are projectable by construction,
    so the trials reuse them and compare the AD momenta and H_sum.
    Returns (max deviation of H_sum/L2_ad/L1, max deviation of L itself);
    the second entry is the control showing L is genuinely second order.
    """
    rng = np.random.default_rng(seed)
    dev, control = 0.0, 0.0
    for _ in range(trials):
        q = EHJetPoint(x=p.x, g=p.g, dg=p.dg,
                       d2g=perturbed(rng, p.d2g), d3g=perturbed(rng, p.d3g),
                       d4g=p.d4g)
        m = _momenta_ad(q, base.L2_closed, base.L2_jac, base.H_closed)
        dev = max(dev, abs(m.H_sum - base.H_sum),
                  float(np.abs(m.L2_ad - base.L2_ad).max()),
                  float(np.abs(m.L1 - base.L1).max()))
        control = max(control, abs(m.L - base.L))
    return dev, control
