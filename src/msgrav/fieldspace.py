"""Jet coordinates for the second-order metric bundle and the first-order
metric-affine bundle, plus fiber differentiation and total derivatives.

The block tables `EH_BLOCKS` and `EP_BLOCKS` are the one source of each
jet space's coordinate layout: its blocks in flat order, with the shape
of each block's ordered storage. The offsets and dimensions, the shape
checks of the point classes and the tangent lifts are all read off them.
Each model's point prolongs a section: `prolong` lifts metric series of
the jet order `ORDER`, 3, to an eh point, and `prolong_ep` lifts order-2
ones to an ep point, which carries d2g (`EP_EXTENSIONS`) and whose Gamma
is Levi-Civita, with its total derivatives, unless overridden.

A point may carry leading batch axes, one per stacked sample point: every
block then has the same leading shape in front of its table shape. A
stack of points comes from prolonging a stack of series.

Fiber functions are plain callables on a namespace of a point's blocks in
their ordered storage. Differentiation seeds whole blocks at once: a
block becomes a Tan (or Jet2) whose seed axis runs over its ordered
coordinates, or over the total-derivative shifts, and the array kernels
carry the derivatives through. A total derivative shifts each block by the
next block of its chain, so it reaches no top block. Never finite
differences.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, DegenerateMetricError, DomainError
from .exterior import contract_terms
from .geometry import christoffel, metric_inverse_density
from .indexing import DERIVS, DIM, PAIR_FULL, PAIRS, TRIPLES, UP
from .series import derivative_table
from .tangents import Jet2, Tan

# Order-3 metric jets: x(4), g(10), dg(10x4), d2g(10x10), d3g(10x20),
# 354 coordinates over a 14-dimensional bundle.
EH_BLOCKS = {"x": (DIM,), "g": (len(PAIRS),), "dg": (len(PAIRS), DIM),
             "d2g": (len(PAIRS), len(PAIRS)),
             "d3g": (len(PAIRS), len(TRIPLES))}
# Metric-affine 1-jets: x(4), g(10), Gamma(64), dg(40), dGamma(256),
# 374 coordinates over a 78-dimensional bundle.
EP_BLOCKS = {"x": (DIM,), "g": (len(PAIRS),), "Gamma": (DIM,) * 3,
             "dg": (len(PAIRS), DIM), "dGamma": (DIM,) * 4}
EP_EXTENSIONS = {"d2g": EH_BLOCKS["d2g"]}

# Each chain lists one field's blocks by derivative order; a block's
# total-derivative shift is read off the next block of its chain.
_CHAINS = (("g", "dg", "d2g", "d3g"), ("Gamma", "dGamma"))
_NEXT = {b: (c[k + 1], k) for c in _CHAINS for k, b in enumerate(c[:-1])}
# the order of the eh metric jets: the top of the metric chain
ORDER = len(_CHAINS[0]) - 1


def _offsets(blocks):
    """(flat offset of each block, total dimension) of a block table."""
    ends = list(itertools.accumulate(math.prod(s) for s in blocks.values()))
    return dict(zip(blocks, [0] + ends[:-1])), ends[-1]


EH_OFF, EH_DIM_J3 = _offsets(EH_BLOCKS)
EP_OFF, EP_DIM_J1 = _offsets(EP_BLOCKS)
_DERIVED = object()  # passed only by prolong_ep and trial_stack


# why a 4x4 matrix is not a Lorentzian metric, by code; 0 when it is one
DEFECTS = (None, "is not finite", "has a determinant beyond float range",
           "is not Lorentzian")


def lorentzian_defects(m) -> np.ndarray:
    """Per matrix of the stack m (..., 4, 4), the code in DEFECTS of the
    first test it fails: finite entries, a finite determinant, then the
    degeneracy bound and signature (-,+,+,+). A later test reads the
    identity in place of a matrix that an earlier one rejected."""
    eye = np.eye(DIM)
    finite = np.isfinite(m).all(axis=(-2, -1))
    # a zero or huge determinant is judged here, not warned about
    with np.errstate(all="ignore"):
        det = np.linalg.det(np.where(finite[..., None, None], m, eye))
    ok = finite & np.isfinite(det)
    m = np.where(ok[..., None, None], m, eye)
    # the bound reads det with each row scaled to max |entry| 1, at most 16
    # (Hadamard) whatever the rows' scales; a zero row stays zero
    rows = np.abs(m).max(axis=-1, keepdims=True)
    det = np.linalg.det(m / np.where(rows > 0, rows, 1.0))
    ev = np.linalg.eigvalsh(m)
    lorentzian = (np.abs(det) >= 1e-14) & (ev[..., 0] < 0) & (ev[..., 1] > 0)
    # the identity is not Lorentzian, so no rejected matrix reads 0
    return np.where(lorentzian, 0, 1 + finite + ok)


def _check_lorentzian(g10):
    """Raise DegenerateMetricError for the first defect of the stack g10."""
    code = lorentzian_defects(g10[..., PAIR_FULL])
    if code.any():
        raise DegenerateMetricError(f"metric {DEFECTS[code[code > 0][0]]}")


class _JetPoint:
    """Validates a point's blocks against its tables and keeps read-only
    views of them, so the caller's arrays stay writeable; the blocks of a
    stack of points share one leading shape and must be finite (else
    DomainError). g must be Lorentzian unless `_derived` is the module's
    private token (g already checked)."""

    def __post_init__(self, _derived):
        lead = np.shape(self.x)[:-1]
        for name, shape in self._checks.items():
            arr = np.asarray(getattr(self, name), dtype=float).view()
            if arr.shape != lead + shape:
                raise ConfigError(
                    f"{name} block has shape {arr.shape}, want {lead + shape}")
            if not np.isfinite(arr).all():
                raise DomainError(f"{name} block is not finite")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if _derived is not _DERIVED:
            _check_lorentzian(self.g)

    @property
    def lead(self) -> tuple:
        """The leading shape: () for one point, (n,) for a stack of n."""
        return self.x.shape[:-1]


@dataclass(frozen=True)
class EHJetPoint(_JetPoint):
    """A point of the order-3 metric jet space.

    Symmetric blocks are stored over ordered index tuples; `dg[a, mu]` is the
    first-order coordinate for metric pair `PAIRS[a]`, `d2g[a, m]` the
    second-order one for derivative pair `PAIRS[m]`, and so on.
    """

    blocks = EH_BLOCKS
    _checks = EH_BLOCKS

    x: np.ndarray
    g: np.ndarray
    dg: np.ndarray
    d2g: np.ndarray
    d3g: np.ndarray
    _derived: InitVar[object] = None


@dataclass(frozen=True)
class EPJetPoint(_JetPoint):
    """A point of the first-order metric-affine jet space.

    The connection carries no symmetry: all 64 components are independent.
    The d2g block carries the metric's second derivatives, which the
    second-order Lagrangian and the total derivatives of dg read.
    """

    blocks = EP_BLOCKS
    _checks = EP_BLOCKS | EP_EXTENSIONS

    x: np.ndarray
    g: np.ndarray
    Gamma: np.ndarray
    dg: np.ndarray
    dGamma: np.ndarray
    d2g: np.ndarray
    _derived: InitVar[object] = None


# -- prolongation -----------------------------------------------------------

def derivatives(series, combos) -> np.ndarray:
    """Partial derivatives of each series at its base points, one column
    per index tuple of `combos`: m! times the Taylor coefficients, shaped
    the series' leading shape + (len(series), len(combos))."""
    orders = {s.order for s in series}
    if len(orders) != 1:
        raise ConfigError("series have mixed truncation orders")
    order = orders.pop()
    if max(map(len, combos), default=0) > order:
        raise ConfigError(f"a derivative above the series order {order}")
    pos, weights = derivative_table(order, tuple(combos))
    return np.stack([s.coeffs for s in series], axis=-2)[..., pos] * weights


def prolong(metric_series) -> EHJetPoint:
    """Lift 10 metric component series to a holonomic order-3 point.

    Jet coordinates are m! times the Taylor coefficients, so the holonomy
    relations hold by construction. Stacked series give a stacked point.
    """
    s0 = metric_series[0]
    if len(metric_series) != len(PAIRS):
        raise ConfigError("need the 10 ordered metric component series")
    if any(not np.array_equal(s.base, s0.base) for s in metric_series):
        raise ConfigError("metric series have mixed base points")
    g, dg, d2g, d3g = [derivatives(metric_series, c)
                       for c in DERIVS[:ORDER + 1]]
    return EHJetPoint(x=np.array(s0.base), g=g[..., 0], dg=dg, d2g=d2g,
                      d3g=d3g)


def _levi_civita(v):
    ginv, _ = metric_inverse_density(v.g[..., PAIR_FULL])
    return christoffel(ginv, v.dg[..., PAIR_FULL, :])


def prolong_ep(metric_series, connection) -> EPJetPoint:
    """Lift 10 order-2 metric component series, and the order-1 series
    {(l, m, n): series} of `connection`, to a first-order metric-affine
    point. The metric 2-jet's blocks must be finite and its g Lorentzian.
    Gamma and dGamma are the Levi-Civita connection and its total
    derivatives over the 2-jet, except where `connection` names them."""
    g, dg, d2g = (derivatives(metric_series, c) for c in DERIVS[:3])
    g, x = g[..., 0], np.array(metric_series[0].base)
    for name, block in (("g", g), ("dg", dg), ("d2g", d2g)):
        if not np.isfinite(block).all():
            raise DomainError(f"{name} block is not finite")
    _check_lorentzian(g)
    gam = total_derivatives_vec(_levi_civita,
                                SimpleNamespace(x=x, g=g, dg=dg, d2g=d2g))
    Gamma, dGamma = gam.v.copy(), gam.g.copy()
    if connection:
        val, dval = (derivatives(list(connection.values()), d)
                     for d in DERIVS[:2])
        lmn = tuple(np.array(list(connection)).T)
        Gamma[(..., *lmn)] = val[..., 0]
        dGamma[(..., *lmn, slice(None))] = dval
    return EPJetPoint(x=x, g=g, Gamma=Gamma, dg=dg, dGamma=dGamma, d2g=d2g,
                      _derived=_DERIVED)


def trial_stack(p, blocks, trials, seed):
    """p as row 0 in front of `trials` copies on a new leading axis, for
    projectability trials. Each copy moves the named blocks to random
    values near p's, a + u (1 + |a|) with u uniform in (-0.1, 0.1): each
    point draws all its numbers at once from its own generator and reads
    them trial by trial, block by block; `seed` seeds them, an int for one
    point or an array of p's leading shape. The other blocks are p's own,
    so every row keeps p's checked g."""
    k, arrs = len(p.lead), [getattr(p, b) for b in blocks]
    cuts = np.cumsum([math.prod(a.shape[k:]) for a in arrs])
    draws = [np.random.default_rng(s).uniform(-0.1, 0.1, trials * cuts[-1])
             for s in np.broadcast_to(seed, p.lead).ravel().tolist()]
    # (points, trials x blocks) -> (trials, *lead, blocks)
    u = np.moveaxis(np.reshape(draws, p.lead + (trials, -1)), k, 0)
    new = {b: np.concatenate([a[None], a + d.reshape((trials,) + a.shape)
                              * (1.0 + np.abs(a))])
           for b, a, d in zip(blocks, arrs, np.split(u, cuts[:-1], axis=-1))}
    return type(p)(**{b: new[b] if b in new else np.broadcast_to(
        a, (1 + trials,) + a.shape) for b, a in vars(p).items()},
        _derived=_DERIVED)


def trial_deviation(rows, base, axes):
    """Max |rows - base| over `axes`, relative to 1 + max |base| over them."""
    return (np.abs(rows - base).max(axis=axes)
            / (1.0 + np.abs(base).max(axis=axes)))


# -- fiber differentiation --------------------------------------------------

def _view(p, duals):
    """The blocks of p as a namespace, with `duals` in place of some."""
    return SimpleNamespace(**{**vars(p), **duals})


@lru_cache(maxsize=None)
def _seed_blocks(shapes, k):
    """Identity seeds for blocks of these shapes, each k unit leading axes
    + block shape + (n,), read-only views of one identity."""
    sizes = [math.prod(s) for s in shapes]
    eye = np.eye(sum(sizes))
    eye.flags.writeable = False
    return tuple(eye[e - n:e].reshape((1,) * k + s + (-1,))
                 for s, n, e in zip(shapes, sizes, np.cumsum(sizes)))


def _identity_seeds(p, blocks):
    """One seed per ordered coordinate of `blocks`, in flat layout order.
    The seeds do not depend on the point, so every row of a stack and
    every pass over the same blocks share one cached copy."""
    k = len(p.lead)
    return dict(zip(blocks, _seed_blocks(
        tuple(getattr(p, b).shape[k:] for b in blocks), k)))


def _tangent_pass(f, p, seeds, hidden=()):
    """f at p with the blocks in `seeds` seeded, and those in `hidden`
    None, always as a Tan whose gradient has the value's full shape; a
    tuple of such Tans when f returns a tuple."""
    out = f(_view(p, dict.fromkeys(hidden) | {
        b: Tan(getattr(p, b), s) for b, s in seeds.items()}))
    n = next(iter(seeds.values())).shape[-1]
    outs = [o if isinstance(o, Tan) else Tan(o, 0.0)
            for o in (out if isinstance(out, tuple) else (out,))]
    tans = tuple(Tan(o.v, np.broadcast_to(o.g, o.v.shape + (n,)))
                 for o in outs)
    return tans if isinstance(out, tuple) else tans[0]


def fiber_gradient(f, p, blocks):
    """Evaluate f with every coordinate of the named blocks seeded at once:
    a Tan, or a tuple of Tans when f returns a tuple of values."""
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
    out = f(_view(p, {k: Jet2(getattr(p, k), a.get(k), b.get(k), None)
                      for k in dict.fromkeys((*inner, *outer))}))
    return np.broadcast_to(out.m, out.v.shape + out.m.shape[-2:])


# -- total derivatives ------------------------------------------------------

def _shift_seeds(p, blocks):
    """Total-derivative coordinate shifts of x and the named jet blocks
    along the four directions, shaped block + (4,). The shift of a jet
    block along x^tau is the next block of its chain with tau added to its
    ordered derivative tuple (`indexing.UP`)."""
    seeds = {"x": np.broadcast_to(np.eye(DIM), p.x.shape[:-1] + (DIM, DIM))}
    for name in blocks:
        if name not in _NEXT:
            raise ConfigError(f"the point carries no total-derivative shift "
                              f"of its {name} block")
        nxt, k = _NEXT[name]
        seeds[name] = getattr(p, nxt)[..., UP[k]].reshape(
            getattr(p, name).shape + (DIM,))
    return seeds


def total_derivatives_vec(f, p) -> Tan:
    """f and its four total derivatives from one tangent pass, as a Tan:
    the value is f's plain value, the gradient the derivatives on one seed
    axis trailing f's value axes. p is a namespace of blocks with x; each
    block whose next block p carries is shifted, and the others (eh d3g;
    ep dGamma and d2g) are None in f's view, so f cannot read them.
    """
    seeds = _shift_seeds(p, [b for b in vars(p)
                             if b in _NEXT and hasattr(p, _NEXT[b][0])])
    return _tangent_pass(f, p, seeds, [b for b in vars(p) if b not in seeds])


def total_derivatives(f, p):
    """The total derivatives alone: total_derivatives_vec's gradient."""
    return total_derivatives_vec(f, p).g


def tangent_lifts(p, width) -> np.ndarray:
    """The four tangent lifts of the prolonged section over its first
    `width` flat coordinates, a Cartan form's dense width, leading shape +
    (4, width): the shifts of the blocks that fill those columns."""
    off, _ = _offsets(p.blocks)
    blocks = [b for b in p.blocks if off[b] < width]
    if sum(math.prod(p.blocks[b]) for b in blocks) != width:
        raise ConfigError(f"{width} columns do not end on a block boundary")
    seeds = _shift_seeds(p, blocks[1:])  # x leads every table
    return np.swapaxes(np.concatenate(
        [seeds[b].reshape(p.lead + (-1, DIM)) for b in blocks], axis=-2),
        -1, -2)


def field_equation_covector(form, p) -> np.ndarray:
    """i(X0)...i(X3) of a model's Cartan 5-form at p, X_tau the section's
    tangent lifts, over the form's dense coordinates."""
    return contract_terms(form, tangent_lifts(p, form.dense.shape[-1]))
