"""Jet coordinates for the second-order metric bundle and the first-order
metric-affine bundle, plus fiber differentiation and total derivatives.

The block tables `EH_BLOCKS` and `EP_BLOCKS` are the one source of each
jet space's coordinate layout: its blocks in flat order, with the shape
of each block's ordered storage. The offsets and dimensions, the shape
checks of the point classes, `flat_index` and the tangent lifts are all
read off them; `EH_EXTENSIONS` and `EP_EXTENSIONS` declare the optional
higher blocks a point may carry for total derivatives.

A point may carry leading batch axes, one per stacked sample point: every
block then has the same leading shape in front of its table shape. A
stack of points comes from prolonging a stack of series.

Fiber functions are plain callables on a namespace of a point's blocks in
their ordered storage. Differentiation seeds whole blocks at once: a
block becomes a Tan (or Jet2) whose seed axis runs over its ordered
coordinates, or over the total-derivative shifts, and the array kernels
carry the derivatives through. Never finite differences.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, DegenerateMetricError
from .indexing import DERIVS, DIM, PAIR_FULL, PAIRS, QUADS, TRIPLES, UP
from .series import derivative_table
from .tangents import Jet2, Tan

# Order-3 metric jets: x(4), g(10), dg(10x4), d2g(10x10), d3g(10x20),
# 354 coordinates over a 14-dimensional bundle.
EH_BLOCKS = {"x": (DIM,), "g": (len(PAIRS),), "dg": (len(PAIRS), DIM),
             "d2g": (len(PAIRS), len(PAIRS)),
             "d3g": (len(PAIRS), len(TRIPLES))}
EH_EXTENSIONS = {"d4g": (len(PAIRS), len(QUADS))}
# Metric-affine 1-jets: x(4), g(10), Gamma(64), dg(40), dGamma(256),
# 374 coordinates over a 78-dimensional bundle.
EP_BLOCKS = {"x": (DIM,), "g": (len(PAIRS),), "Gamma": (DIM,) * 3,
             "dg": (len(PAIRS), DIM), "dGamma": (DIM,) * 4}
EP_EXTENSIONS = {"d2g": (len(PAIRS), len(PAIRS)),
                 "d2Gamma": (DIM,) * 3 + (len(PAIRS),)}

# Each chain lists one field's blocks by derivative order; a block's
# total-derivative shift is read off the next block of its chain.
_CHAINS = (("g", "dg", "d2g", "d3g", "d4g"), ("Gamma", "dGamma", "d2Gamma"))
_NEXT = {b: (c[k + 1], k) for c in _CHAINS for k, b in enumerate(c[:-1])}


def _offsets(blocks):
    """(flat offset of each block, total dimension) of a block table."""
    ends = list(itertools.accumulate(math.prod(s) for s in blocks.values()))
    return dict(zip(blocks, [0] + ends[:-1])), ends[-1]


EH_OFF, EH_DIM_J3 = _offsets(EH_BLOCKS)
EP_OFF, EP_DIM_J1 = _offsets(EP_BLOCKS)
# the bundle coordinates are the blocks before the first derivatives
EH_DIM_E = EH_OFF["dg"]
EP_DIM_E = EP_OFF["dg"]


def flat_index(blocks, cid) -> int:
    """Position of a coordinate id (block, *index) in the flat layout of
    the block table `blocks`."""
    block, idx = cid[0], cid[1:]
    try:
        return _offsets(blocks)[0][block] + int(
            np.ravel_multi_index(idx, blocks[block]))
    except (KeyError, ValueError):
        raise ConfigError(f"no flat slot for coordinate {cid}") from None


def _check_lorentzian(g10):
    m = g10[..., PAIR_FULL]
    det = np.linalg.det(m)
    if np.any(np.abs(det) < 1e-14):
        raise DegenerateMetricError(f"metric determinant {det} is degenerate")
    ev = np.linalg.eigvalsh(m)
    if not np.all((ev[..., 0] < 0) & (ev[..., 1] > 0)):
        raise DegenerateMetricError(f"metric signature is not (-,+,+,+): {ev}")


def _shape_checks(blocks, extensions):
    """(name, shape, optional) of every block a point may carry."""
    return (tuple((n, s, False) for n, s in blocks.items())
            + tuple((n, s, True) for n, s in extensions.items()))


class _JetPoint:
    """Validates a point's blocks against its tables and keeps read-only
    views of them, so the caller's arrays stay writeable; the blocks of a
    stack of points share one leading shape."""

    def __post_init__(self):
        lead = np.shape(self.x)[:-1]
        for name, shape, optional in self._checks:
            arr = getattr(self, name)
            if optional and arr is None:
                continue
            arr = np.asarray(arr, dtype=float).view()
            if arr.shape != lead + shape:
                raise ConfigError(
                    f"{name} block has shape {arr.shape}, want {lead + shape}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        _check_lorentzian(self.g)

    @property
    def lead(self) -> tuple:
        """The leading shape: () for one point, (n,) for a stack of n."""
        return self.x.shape[:-1]


@dataclass(frozen=True)
class EHJetPoint(_JetPoint):
    """A point of the order-3 metric jet space, optionally extended to order 4.

    Symmetric blocks are stored over ordered index tuples; `dg[a, mu]` is the
    first-order coordinate for metric pair `PAIRS[a]`, `d2g[a, m]` the
    second-order one for derivative pair `PAIRS[m]`, and so on.
    """

    blocks = EH_BLOCKS
    _checks = _shape_checks(EH_BLOCKS, EH_EXTENSIONS)

    x: np.ndarray
    g: np.ndarray
    dg: np.ndarray
    d2g: np.ndarray
    d3g: np.ndarray
    d4g: np.ndarray | None = field(default=None)


@dataclass(frozen=True)
class EPJetPoint(_JetPoint):
    """A point of the first-order metric-affine jet space.

    The connection carries no symmetry: all 64 components are independent.
    The optional second-derivative blocks extend a section for tangent lifts.
    """

    blocks = EP_BLOCKS
    _checks = _shape_checks(EP_BLOCKS, EP_EXTENSIONS)

    x: np.ndarray
    g: np.ndarray
    Gamma: np.ndarray
    dg: np.ndarray
    dGamma: np.ndarray
    d2g: np.ndarray | None = field(default=None)
    d2Gamma: np.ndarray | None = field(default=None)


# -- prolongation -----------------------------------------------------------

def derivatives(series, combos) -> np.ndarray:
    """Partial derivatives of each series at its base points, one column
    per index tuple of `combos`: m! times the Taylor coefficients, shaped
    the series' leading shape + (len(series), len(combos))."""
    orders = {s.order for s in series}
    if len(orders) != 1:
        raise ConfigError("series have mixed truncation orders")
    pos, weights = derivative_table(orders.pop(), tuple(combos))
    return np.stack([s.coeffs for s in series], axis=-2)[..., pos] * weights


def prolong(metric_series, order: int = 3) -> EHJetPoint:
    """Lift 10 metric component series to a holonomic order-3 (or 4) point.

    Jet coordinates are m! times the Taylor coefficients, so the holonomy
    relations hold by construction. Stacked series give a stacked point.
    """
    if order not in (3, 4):
        raise ConfigError("prolongation order must be 3 or 4")
    s0 = metric_series[0]
    if len(metric_series) != len(PAIRS):
        raise ConfigError("need the 10 ordered metric component series")
    if any(not np.array_equal(s.base, s0.base) for s in metric_series):
        raise ConfigError("metric series have mixed base points")
    # mixed truncation orders are rejected by `derivatives`
    if min(s.order for s in metric_series) < order:
        raise ConfigError("metric series truncated below prolongation order")
    g, dg, d2g, d3g, *d4g = [derivatives(metric_series, c)
                             for c in DERIVS[:order + 1]]
    return EHJetPoint(x=np.array(s0.base), g=g[..., 0], dg=dg, d2g=d2g,
                      d3g=d3g, d4g=d4g[0] if d4g else None)


def perturbed(rngs, arr):
    """A random jet block near arr, for projectability trials: each point
    of arr's leading shape draws its block from its own generator in
    `rngs`, in the points' order."""
    n = arr.size // len(rngs)
    u = np.concatenate([rng.uniform(-0.1, 0.1, size=n) for rng in rngs])
    return arr + u.reshape(arr.shape) * (1.0 + np.abs(arr))


def trial_rngs(seed, lead):
    """One generator per point of the leading shape; `seed` is an int for
    one point or an array of the leading shape."""
    return [np.random.default_rng(s)
            for s in np.broadcast_to(seed, lead).ravel().tolist()]


# -- fiber differentiation --------------------------------------------------

def _view(p, duals):
    """The blocks of p as a namespace, with `duals` in place of some."""
    return SimpleNamespace(**{**vars(p), **duals})


def _identity_seeds(p, blocks):
    """One seed per ordered coordinate of `blocks`, in flat layout order,
    shaped leading shape + block shape + (n,). The seeds do not depend on
    the point, so a stack shares one copy through broadcasting."""
    shapes = [getattr(p, b).shape[len(p.lead):] for b in blocks]
    sizes = [math.prod(s) for s in shapes]
    eye = np.eye(sum(sizes))
    ends = np.cumsum(sizes)
    return {b: np.broadcast_to(eye[e - n:e].reshape(s + (-1,)),
                               p.lead + s + (len(eye),))
            for b, s, n, e in zip(blocks, shapes, sizes, ends)}


def _tangent_pass(f, p, seeds) -> Tan:
    """f at p with the blocks in `seeds` seeded, always as a Tan."""
    out = f(_view(p, {b: Tan(getattr(p, b), s) for b, s in seeds.items()}))
    if not isinstance(out, Tan):
        n = next(iter(seeds.values())).shape[-1]
        out = Tan(out, np.zeros(np.shape(out) + (n,)))
    return out


def fiber_gradient(f, p, blocks) -> Tan:
    """Evaluate f with every coordinate of the named blocks seeded at once."""
    return _tangent_pass(f, p, _identity_seeds(p, blocks))


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


# -- total derivatives ------------------------------------------------------

def _shift_seeds(p, taus, max_order=3):
    """Total-derivative coordinate shifts by block, shaped block + (n,).

    The shift of a jet block along x^tau is the next block of its chain
    with tau added to its ordered derivative tuple (`indexing.UP`). On an
    EH point `max_order` names the highest derivative order shifted; an
    EP point shifts its first-order blocks too, read from the section's
    second-derivative extension.
    """
    t = list(taus)
    top = max_order if isinstance(p, EHJetPoint) else 1
    seeds = {"x": np.broadcast_to(np.eye(DIM)[:, t], p.lead + (DIM, len(t)))}
    for name, shape in p.blocks.items():
        if name == "x" or _NEXT[name][1] > top:
            continue
        nxt, k = _NEXT[name]
        arr = getattr(p, nxt)
        if arr is None:
            raise ConfigError(f"total derivative of the {name} block needs "
                              f"the {nxt} extension")
        seeds[name] = arr[..., UP[k][:, t]].reshape(
            p.lead + shape + (len(t),))
    return seeds


def total_derivatives_vec(f, p, taus=range(DIM), *, max_order=3) -> Tan:
    """f and all requested total derivatives of f from one tangent pass,
    as a Tan: the value is f's plain value, the gradient the derivatives
    on one seed axis trailing f's value axes.

    For an order-3 point the default shifts every coordinate, so the point
    must carry the order-4 block; pass max_order=2 when f only reaches the
    second-order coordinates.
    """
    return _tangent_pass(f, p, _shift_seeds(p, taus, max_order))


def total_derivatives(f, p, taus=range(DIM), **kw):
    """The total derivatives alone: total_derivatives_vec's gradient."""
    return total_derivatives_vec(f, p, taus, **kw).g


def tangent_lifts(p) -> np.ndarray:
    """The four tangent lifts of the prolonged section, leading shape +
    (4, flat dim): the shifts of each block of p's table, at that block's
    offset."""
    seeds = _shift_seeds(p, range(DIM))
    return np.swapaxes(np.concatenate(
        [seeds[b].reshape(p.lead + (-1, DIM)) for b in p.blocks], axis=-2),
        -1, -2)
