"""Jet coordinates for the second-order metric bundle and the first-order
metric-affine bundle, plus fiber differentiation and total derivatives.

Fiber functions are plain callables on a namespace of a point's blocks in
their ordered storage. Differentiation seeds whole blocks at once: a
block becomes a Tan (or Jet2) whose seed axis runs over its ordered
coordinates, or over the total-derivative shifts, and the array kernels
carry the derivatives through. Never finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, DegenerateMetricError
from .indexing import (DIM, PAIR_FULL, PAIR_UP, PAIRS, QUADS, TRIPLE_UP,
                       TRIPLES)
from .series import derivative_table
from .tangents import Jet2, Tan

# Flat coordinate layout of the order-3 metric jet space:
# x(4), g(10), dg(10x4), d2g(10x10), d3g(10x20) -> 354 coordinates.
EH_NX = DIM
EH_NG = len(PAIRS)
EH_NDG = EH_NG * DIM
EH_ND2G = EH_NG * len(PAIRS)
EH_ND3G = EH_NG * len(TRIPLES)
EH_OFF = {"x": 0, "g": EH_NX, "dg": EH_NX + EH_NG,
          "d2g": EH_NX + EH_NG + EH_NDG,
          "d3g": EH_NX + EH_NG + EH_NDG + EH_ND2G}
EH_DIM_J3 = EH_NX + EH_NG + EH_NDG + EH_ND2G + EH_ND3G
EH_DIM_E = EH_NX + EH_NG

# First-order metric-affine bundle: x(4), g(10), Gamma(64), dg(40),
# dGamma(256) -> 374 coordinates; the underlying bundle has 78.
EP_NGAMMA = DIM ** 3
EP_OFF = {"x": 0, "g": EH_NX, "Gamma": EH_NX + EH_NG,
          "dg": EH_NX + EH_NG + EP_NGAMMA,
          "dGamma": EH_NX + EH_NG + EP_NGAMMA + EH_NDG}
EP_DIM_J1 = EH_NX + EH_NG + EP_NGAMMA + EH_NDG + EP_NGAMMA * DIM
EP_DIM_E = EH_NX + EH_NG + EP_NGAMMA


def _check_lorentzian(g10):
    m = g10[PAIR_FULL]
    det = np.linalg.det(m)
    if abs(det) < 1e-14:
        raise DegenerateMetricError(f"metric determinant {det} is degenerate")
    ev = np.linalg.eigvalsh(m)
    if not (ev[0] < 0 and ev[1] > 0):
        raise DegenerateMetricError(f"metric signature is not (-,+,+,+): {ev}")


def _frozen(a):
    a = np.asarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class EHJetPoint:
    """A point of the order-3 metric jet space, optionally extended to order 4.

    Symmetric blocks are stored over ordered index tuples; `dg[a, mu]` is the
    first-order coordinate for metric pair `PAIRS[a]`, `d2g[a, m]` the
    second-order one for derivative pair `PAIRS[m]`, and so on.
    """

    x: np.ndarray
    g: np.ndarray
    dg: np.ndarray
    d2g: np.ndarray
    d3g: np.ndarray
    d4g: np.ndarray | None = field(default=None)

    def __post_init__(self):
        shapes = {"x": (DIM,), "g": (EH_NG,), "dg": (EH_NG, DIM),
                  "d2g": (EH_NG, len(PAIRS)), "d3g": (EH_NG, len(TRIPLES))}
        for name, shape in shapes.items():
            arr = _frozen(getattr(self, name))
            if arr.shape != shape:
                raise ConfigError(f"{name} block has shape {arr.shape}, want {shape}")
            object.__setattr__(self, name, arr)
        if self.d4g is not None:
            arr = _frozen(self.d4g)
            if arr.shape != (EH_NG, len(QUADS)):
                raise ConfigError("order-4 block has wrong shape")
            object.__setattr__(self, "d4g", arr)
        _check_lorentzian(self.g)


@dataclass(frozen=True)
class EPJetPoint:
    """A point of the first-order metric-affine jet space.

    The connection carries no symmetry: all 64 components are independent.
    The optional second-derivative blocks extend a section for tangent lifts.
    """

    x: np.ndarray
    g: np.ndarray
    Gamma: np.ndarray
    dg: np.ndarray
    dGamma: np.ndarray
    d2g: np.ndarray | None = field(default=None)
    d2Gamma: np.ndarray | None = field(default=None)

    def __post_init__(self):
        shapes = {"x": (DIM,), "g": (EH_NG,), "Gamma": (DIM, DIM, DIM),
                  "dg": (EH_NG, DIM), "dGamma": (DIM, DIM, DIM, DIM)}
        for name, shape in shapes.items():
            arr = _frozen(getattr(self, name))
            if arr.shape != shape:
                raise ConfigError(f"{name} block has shape {arr.shape}, want {shape}")
            object.__setattr__(self, name, arr)
        for name, shape in (("d2g", (EH_NG, len(PAIRS))),
                            ("d2Gamma", (DIM, DIM, DIM, len(PAIRS)))):
            arr = getattr(self, name)
            if arr is not None:
                arr = _frozen(arr)
                if arr.shape != shape:
                    raise ConfigError(f"{name} extension has wrong shape")
                object.__setattr__(self, name, arr)
        _check_lorentzian(self.g)


# -- prolongation -----------------------------------------------------------

def derivatives(series, combos) -> np.ndarray:
    """Partial derivatives of each series at its base point, one column per
    index tuple of `combos`: m! times the Taylor coefficients."""
    orders = {s.order for s in series}
    if len(orders) != 1:
        raise ConfigError("series have mixed truncation orders")
    pos, weights = derivative_table(orders.pop(), tuple(combos))
    return np.stack([s.coeffs for s in series])[:, pos] * weights


def prolong(metric_series, order: int = 3) -> EHJetPoint:
    """Lift 10 metric component series to a holonomic order-3 (or 4) point.

    Jet coordinates are m! times the Taylor coefficients, so the holonomy
    relations hold by construction.
    """
    if order not in (3, 4):
        raise ConfigError("prolongation order must be 3 or 4")
    s0 = metric_series[0]
    if len(metric_series) != EH_NG:
        raise ConfigError("need the 10 ordered metric component series")
    if any(s.base != s0.base for s in metric_series):
        raise ConfigError("metric series have mixed base points")
    # mixed truncation orders are rejected by `derivatives`
    if min(s.order for s in metric_series) < order:
        raise ConfigError("metric series truncated below prolongation order")
    combos = ([()], [(mu,) for mu in range(DIM)], PAIRS, TRIPLES, QUADS)
    g, dg, d2g, d3g, *d4g = [derivatives(metric_series, c)
                             for c in combos[:order + 1]]
    return EHJetPoint(x=np.array(s0.base), g=g[:, 0], dg=dg, d2g=d2g,
                      d3g=d3g, d4g=d4g[0] if d4g else None)


def perturbed(rng, arr):
    """A random jet block near arr, for projectability trials."""
    u = rng.uniform(-0.1, 0.1, size=arr.shape)
    return arr + u * (1.0 + np.abs(arr))


# -- fiber differentiation --------------------------------------------------

def _view(p, duals):
    """The blocks of p as a namespace, with `duals` in place of some."""
    return SimpleNamespace(**{**vars(p), **duals})


def _identity_seeds(p, blocks):
    """One seed per ordered coordinate of `blocks`, in flat layout order,
    shaped block shape + (n,)."""
    sizes = [getattr(p, b).size for b in blocks]
    eye = np.eye(sum(sizes))
    ends = np.cumsum(sizes)
    return {b: eye[e - n:e].reshape(getattr(p, b).shape + (-1,))
            for b, n, e in zip(blocks, sizes, ends)}


def fiber_gradient(f, p, blocks) -> Tan:
    """Evaluate f with every coordinate of the named blocks seeded at once."""
    seeds = _identity_seeds(p, blocks)
    out = f(_view(p, {b: Tan(getattr(p, b), s) for b, s in seeds.items()}))
    if not isinstance(out, Tan):
        n = next(iter(seeds.values())).shape[-1]
        out = Tan(out, np.zeros(np.shape(out) + (n,)))
    return out


def fiber_jacobian(f, p, blocks):
    """Values and Jacobian of an array-valued fiber function; the Jacobian
    trails the value axes with one axis over the seeded coordinates."""
    out = fiber_gradient(f, p, blocks)
    return out.v, out.g


def fiber_hessian(f, p, inner, outer) -> np.ndarray:
    """Mixed second derivatives of a scalar f, (inner coords, outer coords):
    one Jet2 pass, inner blocks seeded in `a` and outer ones in `b`."""
    a, b = _identity_seeds(p, inner), _identity_seeds(p, outer)
    return f(_view(p, {k: Jet2(getattr(p, k), a.get(k), b.get(k), None)
                       for k in dict.fromkeys((*inner, *outer))})).m


def fiber_partial(f, cid, p) -> float:
    """Exact partial of f with respect to one ordered fiber coordinate."""
    block, idx = cid[0], cid[1:]
    g = fiber_gradient(f, p, [block]).g
    return float(g[np.ravel_multi_index(idx, getattr(p, block).shape)])


def eh_coords(p, *, max_order=3, include_x=True):
    """Coordinate ids of the order-3 jet space, in flat layout order."""
    out = []
    if include_x:
        out += [("x", mu) for mu in range(DIM)]
    out += [("g", a) for a in range(EH_NG)]
    if max_order >= 1:
        out += [("dg", a, mu) for a in range(EH_NG) for mu in range(DIM)]
    if max_order >= 2:
        out += [("d2g", a, m) for a in range(EH_NG) for m in range(len(PAIRS))]
    if max_order >= 3:
        out += [("d3g", a, m) for a in range(EH_NG) for m in range(len(TRIPLES))]
    return out


def ep_coords(include_x=True):
    out = []
    if include_x:
        out += [("x", mu) for mu in range(DIM)]
    out += [("g", a) for a in range(EH_NG)]
    out += [("Gamma", l, m, n) for l in range(DIM) for m in range(DIM)
            for n in range(DIM)]
    out += [("dg", a, mu) for a in range(EH_NG) for mu in range(DIM)]
    out += [("dGamma", l, m, n, r) for l in range(DIM) for m in range(DIM)
            for n in range(DIM) for r in range(DIM)]
    return out


def flat_index(cid) -> int:
    """Position of a coordinate id in the flat layout of its jet space."""
    block, idx = cid[0], cid[1:]
    if block == "x":
        return idx[0]
    if block == "g":
        return EH_OFF["g"] + idx[0]
    if block == "dg":
        return EH_OFF["dg"] + idx[0] * DIM + idx[1]
    if block == "d2g":
        return EH_OFF["d2g"] + idx[0] * len(PAIRS) + idx[1]
    if block == "d3g":
        return EH_OFF["d3g"] + idx[0] * len(TRIPLES) + idx[1]
    raise ConfigError(f"no flat slot for coordinate {cid}")


def ep_flat_index(cid) -> int:
    block, idx = cid[0], cid[1:]
    if block == "x":
        return idx[0]
    if block == "g":
        return EP_OFF["g"] + idx[0]
    if block == "Gamma":
        l, m, n = idx
        return EP_OFF["Gamma"] + (l * DIM + m) * DIM + n
    if block == "dg":
        return EP_OFF["dg"] + idx[0] * DIM + idx[1]
    if block == "dGamma":
        l, m, n, r = idx
        return EP_OFF["dGamma"] + ((l * DIM + m) * DIM + n) * DIM + r
    raise ConfigError(f"no flat slot for coordinate {cid}")


# -- total derivatives ------------------------------------------------------

def _shift_seeds(p, taus, max_order=3, with_first_order=True):
    """Total-derivative coordinate shifts by block, shaped block + (n,).

    The shift of a jet block along x^tau is the next block with tau added
    to its ordered derivative tuple. On an EH point `max_order` names the
    highest block shifted; on an EP point `with_first_order` adds the
    first-order blocks, read from the section's second derivatives.
    """
    t = list(taus)
    seeds = {"x": np.eye(DIM)[:, t], "g": p.dg[:, t]}
    if isinstance(p, EPJetPoint):
        seeds["Gamma"] = p.dGamma[..., t]
        if with_first_order:
            if p.d2g is None or p.d2Gamma is None:
                raise ConfigError(
                    "total derivative of first-order coordinates needs the "
                    "section's second-derivative extension")
            seeds["dg"] = p.d2g[:, PAIR_FULL][..., t]
            seeds["dGamma"] = p.d2Gamma[..., PAIR_FULL][..., t]
        return seeds
    if max_order >= 1:
        seeds["dg"] = p.d2g[:, PAIR_FULL][..., t]
    if max_order >= 2:
        seeds["d2g"] = p.d3g[:, PAIR_UP][..., t]
    if max_order >= 3:
        if p.d4g is None:
            raise ConfigError("total derivative of an order-3 coordinate "
                              "needs the order-4 block")
        seeds["d3g"] = p.d4g[:, TRIPLE_UP][..., t]
    return seeds


def total_derivatives(f, p, taus=range(DIM), *, max_order=3,
                      with_first_order=True):
    """All requested total derivatives of f in one tangent pass, as the
    seed axis trailing f's value axes.

    For an order-3 point the default shifts every coordinate, so the point
    must carry the order-4 block; pass max_order=2 when f only reaches the
    second-order coordinates.
    """
    seeds = _shift_seeds(p, taus, max_order, with_first_order)
    out = f(_view(p, {b: Tan(getattr(p, b), s) for b, s in seeds.items()}))
    if not isinstance(out, Tan):
        return np.zeros(np.shape(out) + (seeds["x"].shape[-1],))
    return out.g


def total_derivatives_vec(f, p, taus=range(DIM), **kw):
    """total_derivatives for an array-valued f; total_derivatives handles
    any value shape, and this name stays because msbench times it."""
    return total_derivatives(f, p, taus, **kw)


def total_derivative(f, tau: int, p, **kw) -> float:
    """D_tau f: the base derivative plus the jet-coordinate shift terms."""
    return float(total_derivatives(f, p, [tau], **kw)[0])


def tangent_lifts(p) -> np.ndarray:
    """The four tangent lifts of the prolonged section, (4, flat dim)."""
    if isinstance(p, EHJetPoint) and p.d4g is None:
        raise ConfigError("tangent lifts of an order-3 point need the "
                          "order-4 block")
    seeds = _shift_seeds(p, range(DIM))
    return np.concatenate([s.reshape(-1, DIM) for s in seeds.values()]).T
