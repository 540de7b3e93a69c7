"""Pointwise exterior algebra for the Poincare-Cartan 5-forms on jet space.

A Form is a stack of T terms of one shape,
coef * alpha ^ dx^{i1} ^ dx^{i2} ^ dx^{i3} ^ dx^{i4}: alpha is a dense
covector (the differential of a fiber function) and the i's are coordinate
indices. It is held as three arrays, `coef` (T,), `dense` (..., T, w) and
`coords` (T, 4). A form lives on its dense width w: the model forms are
supported on the leading jet coordinates, so every coordinate index lies
below w, and a contraction reads its tangent vectors over those w columns
only and returns a covector of width w. Leading axes of `dense` run over
stacked points, which share the coefficients and the coordinate
differentials. Contraction with four tangent vectors Laplace-expands each
term's 5x4 pairing matrix along the missing fifth column; each of the
five cofactors is in turn Laplace-expanded along columns (0, 1) over 2x2
minors that all five share, formed once for all points and terms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .indexing import DIM

# i(d/dx^mu) d4x = VOL_SIGN[mu] * the wedge of dx^VOL_SLOTS[mu] in order
VOL_SLOTS = np.array([[j for j in range(DIM) if j != mu] for mu in range(DIM)])
VOL_SIGN = (-1.0) ** np.arange(DIM)


@dataclass(frozen=True)
class Form:
    """sum_t coef[t] * dense[..., t, :] ^ dx^coords[t, 0] ^ ... ^
    dx^coords[t, 3], over the dense covectors' width."""

    coef: np.ndarray
    dense: np.ndarray
    coords: np.ndarray

    def __post_init__(self):
        coef = np.asarray(self.coef, dtype=float)
        dense = np.asarray(self.dense, dtype=float)
        coords = np.asarray(self.coords, dtype=np.intp)
        t = len(coef)
        if (coef.shape != (t,) or dense.ndim < 2 or dense.shape[-2] != t
                or coords.shape != (t, DIM)):
            raise ConfigError("form terms are wedges of one dense covector "
                              "and exactly 4 coordinate differentials")
        if coords.size and not (
                0 <= coords.min() and coords.max() < dense.shape[-1]):
            raise ConfigError("coordinate differential out of range")
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "dense", dense)
        object.__setattr__(self, "coords", coords)

    def __len__(self) -> int:
        """The number of terms held, over all stacked points."""
        return len(self.coef) * math.prod(self.dense.shape[:-2])


def cartan_form(dense: np.ndarray, first: int) -> Form:
    """dense[0] ^ d4x - sum_k dense[k + 1] ^ dy_k ^ i(d/dx^mu_k) d4x.

    Row 0 is dH; row k + 1 is the differential of the momentum conjugate
    to the derivative coordinate y_k = first + k // 4 in direction
    mu_k = k % 4, which is how both models lay out their momenta. Rows
    index the second-to-last axis of `dense`.
    """
    k = np.arange(dense.shape[-2] - 1)
    mu = k % DIM
    return Form(
        np.concatenate([[1.0], -VOL_SIGN[mu]]), dense,
        np.concatenate([np.arange(DIM)[None],
                        np.column_stack([first + k // DIM, VOL_SLOTS[mu]])]))


def _cofactors(m):
    """(-1)^f det of the 4x4 minor without row f of the 5x4 matrices m
    (5, 4, ...), elementwise over trailing axes, for each row f: Laplace
    expansions along columns (0, 1) that share the 2x2 minors of all row
    pairs on columns (0, 1) and on (2, 3)."""
    pairs = list(itertools.combinations(range(5), 2))
    lo = {(i, j): m[i, 0] * m[j, 1] - m[j, 0] * m[i, 1] for i, j in pairs}
    hi = {(i, j): m[i, 2] * m[j, 3] - m[j, 2] * m[i, 3] for i, j in pairs}
    # the rows left by deleting row f, for f = 4, 3, ..., 0
    cof = np.stack([
        lo[a, b] * hi[c, d] - lo[a, c] * hi[b, d] + lo[a, d] * hi[b, c]
        + lo[b, c] * hi[a, d] - lo[b, d] * hi[a, c] + lo[c, d] * hi[a, b]
        for a, b, c, d in itertools.combinations(range(5), 4)][::-1])
    cof[1::2] *= -1.0
    return cof


def contract_terms(form: Form, vectors) -> np.ndarray:
    """i(v1) i(v2) i(v3) i(v4) of the form, as a dense covector over the
    form's width: per term, the cofactors of the pairing matrix weight its
    five factors. `vectors` is (..., 4, n), n at least the form's width,
    with the leading shape of the form's dense covectors; only their
    first width columns are read."""
    x = np.asarray(vectors, dtype=float)
    width = form.dense.shape[-1]
    if x.ndim < 2 or x.shape[-2] != 4:
        raise ConfigError("contraction takes exactly 4 tangent vectors")
    if x.shape[-1] < width:
        raise ConfigError("tangent vectors narrower than the form")
    lead = x.shape[:-2]
    # pairing[f, v, ..., t]: factor f of term t on vector v
    pairing = np.concatenate([
        np.moveaxis(form.dense @ np.swapaxes(x[..., :width], -1, -2),
                    -1, 0)[None],
        np.moveaxis(x[..., form.coords], (-1, -3), (0, 1))])
    # the 2x2 minors hold 20 numbers per term and point, as the pairing
    # matrices do: under 1 MiB for a chunk of 8 points
    cof = form.coef * _cofactors(pairing)
    # the coordinate factors scatter by bincount, one run per point
    points = math.prod(lead)
    idx = form.coords.ravel() + width * np.arange(points)[:, None]
    out = np.bincount(idx.ravel(), weights=np.moveaxis(cof[1:], 0, -1).ravel(),
                      minlength=points * width).reshape(lead + (width,))
    out += (cof[0][..., None, :] @ form.dense)[..., 0, :]
    return out
