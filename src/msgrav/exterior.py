"""Pointwise exterior algebra for the Poincare-Cartan 5-forms on jet space.

A Form is a stack of T terms of one shape,
coef * alpha ^ dx^{i1} ^ dx^{i2} ^ dx^{i3} ^ dx^{i4}: alpha is a dense
covector over all coordinates (the differential of a fiber function) and
the i's are coordinate indices. It is held as three arrays, `coef` (T,),
`dense` (T, dim) and `coords` (T, 4). Contraction with four tangent
vectors Laplace-expands each term's 5x4 pairing matrix along the missing
fifth column; all terms and all five minors go through one batched pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .indexing import DIM

# i(d/dx^mu) d4x = VOL_SIGN[mu] * the wedge of dx^VOL_SLOTS[mu] in order
VOL_SLOTS = np.array([[j for j in range(DIM) if j != mu] for mu in range(DIM)])
VOL_SIGN = (-1.0) ** np.arange(DIM)

# rows of the 5x4 pairing matrix left in each minor, and the cofactor signs
_MINORS = np.array([[r for r in range(5) if r != f] for f in range(5)])
_COF_SIGN = (-1.0) ** np.arange(5)


@dataclass(frozen=True)
class Form:
    """sum_t coef[t] * dense[t] ^ dx^coords[t, 0] ^ ... ^ dx^coords[t, 3]."""

    coef: np.ndarray
    dense: np.ndarray
    coords: np.ndarray

    def __post_init__(self):
        coef = np.asarray(self.coef, dtype=float)
        dense = np.asarray(self.dense, dtype=float)
        coords = np.asarray(self.coords, dtype=np.intp)
        t = len(coef)
        if (coef.shape != (t,) or dense.ndim != 2 or len(dense) != t
                or coords.shape != (t, DIM)):
            raise ConfigError("form terms are wedges of one dense covector "
                              "and exactly 4 coordinate differentials")
        if coords.size and not (0 <= coords.min()
                                and coords.max() < dense.shape[1]):
            raise ConfigError("coordinate differential out of range")
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "dense", dense)
        object.__setattr__(self, "coords", coords)

    def __len__(self) -> int:
        return len(self.coef)


def cartan_form(dense: np.ndarray, first: int) -> Form:
    """dense[0] ^ d4x - sum_k dense[k + 1] ^ dy_k ^ i(d/dx^mu_k) d4x.

    Row 0 is dH; row k + 1 is the differential of the momentum conjugate
    to the derivative coordinate y_k = first + k // 4 in direction
    mu_k = k % 4, which is how both models lay out their momenta.
    """
    k = np.arange(len(dense) - 1)
    mu = k % DIM
    return Form(
        np.concatenate([[1.0], -VOL_SIGN[mu]]), dense,
        np.concatenate([np.arange(DIM)[None],
                        np.column_stack([first + k // DIM, VOL_SLOTS[mu]])]))


def _det4(m):
    # explicit expansion over the two leading axes: far cheaper than linalg
    # dispatch at this size, and elementwise over any trailing batch axes
    (a, b, c, d), (e, f, g, h), (i, j, k, l), (p, q, r, s) = m
    kl_rs = k * s - l * r
    jl_qs = j * s - l * q
    jk_qr = j * r - k * q
    il_ps = i * s - l * p
    ik_pr = i * r - k * p
    ij_pq = i * q - j * p
    return (a * (f * kl_rs - g * jl_qs + h * jk_qr)
            - b * (e * kl_rs - g * il_ps + h * ik_pr)
            + c * (e * jl_qs - f * il_ps + h * ij_pq)
            - d * (e * jk_qr - f * ik_pr + g * ij_pq))


def contract_terms(form: Form, vectors) -> np.ndarray:
    """i(v1) i(v2) i(v3) i(v4) of the form, as a dense covector over the
    form's coordinates: per term, the cofactors of the pairing matrix
    weight its five factors."""
    x = np.asarray(vectors, dtype=float)
    dim = form.dense.shape[1]
    if x.ndim != 2 or len(x) != 4:
        raise ConfigError("contraction takes exactly 4 tangent vectors")
    if x.shape[1] != dim:
        raise ConfigError("tangent vector dimension mismatch")
    # pairing[f, v, t]: factor f of term t on vector v
    pairing = np.concatenate([(form.dense @ x.T).T[None],
                              x[:, form.coords].transpose(2, 0, 1)])
    cof = form.coef * _COF_SIGN[:, None] * _det4(
        pairing[_MINORS].transpose(1, 2, 0, 3))
    return cof[0] @ form.dense + np.bincount(
        form.coords.ravel(), weights=cof[1:].T.ravel(), minlength=dim)
