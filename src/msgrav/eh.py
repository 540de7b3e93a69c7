"""The second-order metric model: Lagrangian, momenta, Hamiltonian,
Poincare-Cartan 5-form, constraints and projectability checks. The form's
contraction with the section's tangent lifts
(`fieldspace.field_equation_covector`) is the field equation; its dg slots
are the first holonomy condition, which the field equation holds as an
output: they vanish at the section's own lifts.

Momenta are computed twice on purpose: by differentiating the Lagrangian
and from the closed forms; the two routes referee the ordered-index
multiplicity conventions against each other. A point's checks take six AD
passes, and no plain call repeats one, since a dual pass's value is bitwise
the plain call's: `closed_forms` (a Jet2 pass of the closed momenta, g
inner and its dg shift outer, and a gradient pass of the closed Hamiltonian
over (g, dg)), `projectability_check` (two gradient passes of L, one over
dg and one over d2g, each seeding only its own block, for the point and
its trials stacked together), `constraint_einstein_derivative` (the
Einstein constraints along the total derivatives, which reach the
second-order coordinates of an order-3 point) and `cartan_form_eh`
(the mixed Jet2 pass of L over (dg; g, dg)). The closed forms read
(g, dg) only; each operation that reads them takes them as `closed`, the
`closed_forms` of its point. The closed-form Hamiltonian sums over full
index ranges, the sum form over ordered ones. Fiber functions read a
point's ordered blocks, as arrays, Tan or Jet2, and expand them through
`indexing.PAIR_FULL`. Every operation takes one point or a stack of
points on leading axes; per-point results are arrays of the leading
shape, 0-d for one point.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .exterior import Form, cartan_form
from .fieldspace import (EH_OFF, EHJetPoint, _identity_seeds, fiber_gradient,
                         fiber_hessian, total_derivatives_vec,
                         trial_deviation, trial_stack)
from .geometry import (curvature_bundle, metric_inverse_density,
                       scalar_density)
from .indexing import DIM, MULT, PAIR_FULL, PAIR_ROWS, PAIRS
from .tangents import Jet2, Tan, einsum

NPAIR = len(PAIRS)

# rho g^{xy} g^{zw} K2_ij,xyzw is the closed momentum L^{i,j}, with
# K2 = (n(i)/2) (P_ixz (P_jyw + P_jwy) - 2 P_ixy P_jzw) and P_ixz = 1 iff
# PAIRS[i] == (x, z)
_P = np.eye(DIM)[PAIR_ROWS[0], :, None] * np.eye(DIM)[PAIR_ROWS[1], None, :]
_MOMENTA2 = (np.einsum("i,ixz,jyw->ijxyzw", MULT / 2, _P,
                       _P + _P.swapaxes(1, 2))
             - np.einsum("i,ixy,jzw->ijxyzw", MULT, _P, _P))


# -- fiber functions --------------------------------------------------------

def lagrangian_fn(pt):
    """rho * g^{ab} R_ab; reaches the second-order coordinates only."""
    return scalar_density(pt.g, pt.dg, pt.d2g)


def momenta2_closed_fn(pt):
    """Closed-form second-order momenta over (ordered pair, ordered pair):
    (n(ab)/2) rho (g^{am} g^{bn} + g^{an} g^{bm} - 2 g^{ab} g^{mn}), one
    contraction of rho g^{xy} g^{zw} with `_MOMENTA2`."""
    ginv, rho = metric_inverse_density(pt.g[..., PAIR_FULL])
    return einsum("xy,zw,ijxyzw->ij", einsum(",xy->xy", rho, ginv), ginv,
                  _MOMENTA2)


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

@dataclass(frozen=True)
class EHClosed:
    """The closed forms at a point's (g, dg) with the derivatives the
    checks read; each has the point's leading shape in front."""

    L2: Jet2  # momenta2_closed_fn; a: by g, b: D_n, m: D_n of a
    H: Tan    # hamiltonian_closed_fn; g: by (g, dg)


def closed_forms(p: EHJetPoint) -> EHClosed:
    """One Jet2 pass of the closed momenta, g seeded inner and its shift
    dg along each x^n outer, and one gradient pass of the closed
    Hamiltonian over (g, dg); their values are the plain calls' bitwise."""
    seed = _identity_seeds(p, ["g"])["g"]
    return EHClosed(
        L2=momenta2_closed_fn(SimpleNamespace(g=Jet2(p.g, seed, p.dg, None))),
        H=fiber_gradient(hamiltonian_closed_fn, p, ["g", "dg"]))


@dataclass(frozen=True)
class EHMomenta:
    """Each field has the point's leading shape in front; L2_ad and H_sum
    are compared with the `closed_forms` values L2.v and H.v."""

    L: np.ndarray
    L2_ad: np.ndarray       # (10, 10): (1/n(mn)) dL/d g_{ab,mn}
    L1: np.ndarray          # (10, 4)
    H_sum: np.ndarray
    H_mag: np.ndarray       # the sum of |terms| of H_sum, its rounding scale


def momenta_and_hamiltonian(p: EHJetPoint, closed: EHClosed) -> EHMomenta:
    """The AD momenta at p from two gradient passes of L, one per seeded
    block, dg and d2g, so neither block carries the other's zero columns;
    L is the dg pass's value. L1 is dL/d g_{ab,m} - sum_n D_n L^{ab,mn},
    with D_n L^{ab,mn} from the closed forms of p's (g, dg), which a stack
    that shares them broadcasts: the closed second-order momenta depend on
    g alone, so D_n reaches only g."""
    by_dg = fiber_gradient(lagrangian_fn, p, ["dg"])
    dldv = by_dg.g.reshape(p.lead + (NPAIR, DIM))
    l2_ad = fiber_gradient(lagrangian_fn, p, ["d2g"]).g.reshape(
        p.lead + (NPAIR, NPAIR)) / MULT
    # D_n L2[a, (mu nu)], taken at n = nu
    l1 = dldv - np.einsum("...amnn->...am", closed.L2.b[..., PAIR_FULL, :])
    lag = by_dg.v
    # The second-order sum runs over full derivative-index ranges, which in
    # ordered storage is a multiplicity weight per column.
    t2, t1 = l2_ad * p.d2g * MULT, l1 * p.dg
    h_sum = np.sum(t2, axis=(-2, -1)) + np.sum(t1, axis=(-2, -1)) - lag
    h_mag = (np.sum(np.abs(t2), axis=(-2, -1))
             + np.sum(np.abs(t1), axis=(-2, -1)) + np.abs(lag))
    return EHMomenta(L=lag, L2_ad=l2_ad, L1=l1, H_sum=h_sum, H_mag=h_mag)


def constraint_einstein_derivative(p: EHJetPoint):
    """(The Einstein constraints, (10,), their total derivatives, (10, 4))
    from one tangent pass; the constraints are the pass's value, bitwise
    constraint_einstein(p)."""
    d = total_derivatives_vec(constraint_einstein, p)
    return d.v, d.g


# -- Poincare-Cartan form ---------------------------------------------------

def cartan_form_eh(p: EHJetPoint, closed: EHClosed) -> Form:
    """The 5-form dH ^ d4x minus the two momenta blocks: the 40 first-order
    momenta L^{a mu}, wedged with the differential of g_a and
    i(d/dx^mu) d4x, then the 160 second-order ones L^{a, mu nu}, wedged
    with the differential of g_{a,mu} and i(d/dx^nu) d4x. Every dense
    covector is supported on the (x, g, dg) columns, so the form lives on
    those 54 coordinates. The first-order momenta are differentiated over
    (g, dg) only: the other components vanish by the projectability of the
    form, which projectability_check verifies independently."""
    g0, dg0, d2g0 = EH_OFF["g"], EH_OFF["dg"], EH_OFF["d2g"]
    # d(D_n L2)/du: the closed momenta's mixed block is their g-Jacobian
    # shifted along each direction n, so the Hessian applied to dg
    by_g = np.einsum("...amnbn->...amb", closed.L2.m[..., PAIR_FULL, :, :])
    by_dg = np.einsum("...amnb->...ambn", closed.L2.a[..., PAIR_FULL, :])
    rows = p.lead + (NPAIR * DIM, -1)
    hessian = fiber_hessian(lagrangian_fn, p, ["dg"], ["g", "dg"])
    dl1 = hessian - np.concatenate([by_g.reshape(rows), by_dg.reshape(rows)],
                                   axis=-1)
    # allocated after the AD passes so their temporaries are already freed
    n1 = dl1.shape[-2]
    dense = np.zeros(p.lead + (1 + n1 * (1 + DIM), d2g0))
    dense[..., 0, g0:] = closed.H.g
    dense[..., 1:1 + n1, g0:] = dl1
    dense[..., 1 + n1:, :].reshape(p.lead + (NPAIR, DIM, DIM, -1))[
        ..., g0:dg0] = closed.L2.a[..., PAIR_FULL, :]
    return cartan_form(dense, g0)


# -- projectability ---------------------------------------------------------

def projectability_check(p: EHJetPoint, closed: EHClosed, trials: int, seed):
    """Randomize the order-2/3 blocks; the projectable data must not move.
    p rides as row 0 in front of `trials` (at least one) randomized copies
    on a new leading axis, and one momenta_and_hamiltonian pass covers the
    stack. Every row shares `closed`, p's closed forms, which read only
    the (g, dg) the trials keep, and each trial's AD momenta and H_sum are
    compared with row 0's: H_sum relative to 1 + the two rows' larger
    H_mag, as its terms cancel, and the momenta to 1 + max |row 0|.
    `seed` seeds each point's trials (trial_stack). Returns (max
    deviation of H_sum/L2_ad/L1, max deviation of L itself, p's momenta),
    the first two of p's leading shape; the second is the control showing
    L is genuinely second order.
    """
    m = momenta_and_hamiltonian(
        trial_stack(p, ("d2g", "d3g"), trials, seed), closed)
    base = EHMomenta(L=m.L[0], L2_ad=m.L2_ad[0], L1=m.L1[0], H_sum=m.H_sum[0],
                     H_mag=m.H_mag[0])
    dev = np.maximum.reduce([
        np.abs(m.H_sum[1:] - base.H_sum)
        / (1.0 + np.maximum(m.H_mag[1:], base.H_mag)),
        trial_deviation(m.L2_ad[1:], base.L2_ad, (-2, -1)),
        trial_deviation(m.L1[1:], base.L1, (-2, -1))])
    return dev.max(axis=0), np.abs(m.L[1:] - base.L).max(axis=0), base
