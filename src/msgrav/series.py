"""Exact truncated multivariate Taylor series in the 4 base coordinates.

A JetScalar holds Taylor coefficients (derivative / m!) of an analytic
function around a base point, truncated at total degree K (default 4).
Products are clean convolutions in this normalization; jet-coordinate
extraction multiplies back by m!.

Storage is dense over all multi-indices of degree <= K; for K = 4 in 4
variables that is C(8,4) = 70 coefficients, where dense beats any sparse
scheme and multiplication is a fixed precomputed index loop.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import ConfigError, SingularPointError

NVARS = 4
DEFAULT_ORDER = 4
MAX_ORDER = 6


@lru_cache(maxsize=None)
def multi_indices(order: int) -> tuple[tuple[int, ...], ...]:
    """All 4-variable multi-indices of degree <= order, sorted by (degree, lex)."""
    out = []
    for deg in range(order + 1):
        for c in itertools.combinations_with_replacement(range(NVARS), deg):
            m = [0] * NVARS
            for v in c:
                m[v] += 1
            out.append(tuple(m))
    out.sort(key=lambda m: (sum(m), m))
    return tuple(out)


@lru_cache(maxsize=None)
def _index_map(order: int) -> dict[tuple[int, ...], int]:
    return {m: i for i, m in enumerate(multi_indices(order))}


@lru_cache(maxsize=None)
def _mul_table(order: int):
    """(i_idx, j_idx, k_idx) with coeffs[k] += a[i] * b[j] for the product."""
    exps = multi_indices(order)
    imap = _index_map(order)
    ii, jj, kk = [], [], []
    for i, mi in enumerate(exps):
        di = sum(mi)
        for j, mj in enumerate(exps):
            if di + sum(mj) > order:
                continue
            mk = tuple(a + b for a, b in zip(mi, mj))
            ii.append(i)
            jj.append(j)
            kk.append(imap[mk])
    return np.array(ii), np.array(jj), np.array(kk)


def _factorial_weight(m: tuple[int, ...]) -> float:
    w = 1
    for e in m:
        w *= math.factorial(e)
    return float(w)


@lru_cache(maxsize=None)
def derivative_table(order: int, combos: tuple):
    """(positions, weights): coeffs[positions] * weights are the partials
    at the base point named by the index tuples of `combos`."""
    ms = [tuple(c.count(v) for v in range(NVARS)) for c in combos]
    return (np.array([_index_map(order)[m] for m in ms], dtype=np.intp),
            np.array([_factorial_weight(m) for m in ms]))


class JetScalar:
    """Immutable truncated Taylor series; all operations are pure."""

    __slots__ = ("order", "base", "coeffs")

    def __init__(self, order: int, base, coeffs):
        if not 0 <= order <= MAX_ORDER:
            raise ConfigError(f"truncation order {order} outside supported range")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "base", tuple(float(v) for v in base))
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (len(multi_indices(order)),):
            raise ConfigError("coefficient vector length does not match order")
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, *_):
        raise AttributeError("JetScalar is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value, base, order: int = DEFAULT_ORDER) -> "JetScalar":
        c = np.zeros(len(multi_indices(order)))
        c[0] = value
        return cls(order, base, c)

    @classmethod
    def variable(cls, i: int, base, order: int = DEFAULT_ORDER) -> "JetScalar":
        """The coordinate function x^i expanded around the base point."""
        c = np.zeros(len(multi_indices(order)))
        c[0] = base[i]
        e = [0] * NVARS
        e[i] = 1
        c[_index_map(order)[tuple(e)]] = 1.0
        return cls(order, base, c)

    # -- access -------------------------------------------------------------

    def coeff(self, m) -> float:
        """Taylor coefficient at multi-index m."""
        return float(self.coeffs[_index_map(self.order)[tuple(m)]])

    def derivative(self, m) -> float:
        """The m-th partial derivative at the base point: coeff * m!."""
        m = tuple(m)
        return self.coeff(m) * _factorial_weight(m)

    def value(self) -> float:
        return float(self.coeffs[0])

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "JetScalar":
        if isinstance(other, JetScalar):
            if other.order != self.order or other.base != self.base:
                raise ConfigError(
                    "mixed truncation orders or base points in series arithmetic"
                )
            return other
        return JetScalar.constant(float(other), self.base, self.order)

    def __add__(self, other):
        o = self._coerce(other)
        return JetScalar(self.order, self.base, self.coeffs + o.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return JetScalar(self.order, self.base, self.coeffs - o.coeffs)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return JetScalar(self.order, self.base, -self.coeffs)

    def __mul__(self, other):
        o = self._coerce(other)
        ii, jj, kk = _mul_table(self.order)
        c = np.zeros_like(self.coeffs)
        np.add.at(c, kk, self.coeffs[ii] * o.coeffs[jj])
        return JetScalar(self.order, self.base, c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._coerce(other).reciprocal()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.reciprocal()

    def reciprocal(self) -> "JetScalar":
        c0 = self.coeffs[0]
        if c0 == 0.0:
            raise SingularPointError("division by a series with zero constant term")
        # 1/(c0 (1+v)) with v nilpotent: geometric series.
        return self._apply_univariate(
            [(-1.0) ** n / c0 for n in range(self.order + 1)], scale=1.0 / c0
        )

    def _nilpotent(self) -> "JetScalar":
        c = self.coeffs.copy()
        c[0] = 0.0
        return JetScalar(self.order, self.base, c)

    def _apply_univariate(self, taylor, scale=1.0) -> "JetScalar":
        """sum_n taylor[n] * (scale * (self - const))^n, Horner-free powers."""
        u = self._nilpotent() * scale
        out = JetScalar.constant(taylor[0], self.base, self.order)
        p = JetScalar.constant(1.0, self.base, self.order)
        for n in range(1, self.order + 1):
            p = p * u
            out = out + taylor[n] * p
        return out

    # -- analytic functions -------------------------------------------------

    def sqrt(self) -> "JetScalar":
        c0 = self.coeffs[0]
        if c0 <= 0.0:
            raise SingularPointError(
                f"series sqrt needs positive constant term, got {c0}"
            )
        r = math.sqrt(c0)
        # binomial series (1+v)^(1/2), v = (self - c0)/c0
        coefs, b = [], 1.0
        for n in range(self.order + 1):
            coefs.append(r * b)
            b *= (0.5 - n) / (n + 1)
        return self._apply_univariate(coefs, scale=1.0 / c0)

    def exp(self) -> "JetScalar":
        e0 = math.exp(self.coeffs[0])
        return self._apply_univariate(
            [e0 / math.factorial(n) for n in range(self.order + 1)]
        )

    def ln(self) -> "JetScalar":
        c0 = self.coeffs[0]
        if c0 <= 0.0:
            raise SingularPointError(f"series ln needs positive constant term, got {c0}")
        coefs = [math.log(c0)] + [
            (-1.0) ** (n + 1) / n for n in range(1, self.order + 1)
        ]
        return self._apply_univariate(coefs, scale=1.0 / c0)

    def sin(self) -> "JetScalar":
        s0, c0 = math.sin(self.coeffs[0]), math.cos(self.coeffs[0])
        cyc = [s0, c0, -s0, -c0]
        return self._apply_univariate(
            [cyc[n % 4] / math.factorial(n) for n in range(self.order + 1)]
        )

    def cos(self) -> "JetScalar":
        s0, c0 = math.sin(self.coeffs[0]), math.cos(self.coeffs[0])
        cyc = [c0, -s0, -c0, s0]
        return self._apply_univariate(
            [cyc[n % 4] / math.factorial(n) for n in range(self.order + 1)]
        )

    def powi(self, n: int) -> "JetScalar":
        """Integer power by repeated squaring: O(log |n|) products."""
        if n == 0:
            return JetScalar.constant(1.0, self.base, self.order)
        if n < 0:
            return self.reciprocal().powi(-n)
        out, sq = None, self
        while n:
            if n & 1:
                out = sq if out is None else sq * out
            n >>= 1
            if n:
                sq = sq * sq
        return out

    def __repr__(self):
        nz = {
            m: self.coeffs[i]
            for i, m in enumerate(multi_indices(self.order))
            if self.coeffs[i] != 0.0
        }
        return f"JetScalar(order={self.order}, base={self.base}, coeffs={nz})"
