"""Exact truncated multivariate Taylor series in the 4 base coordinates.

A JetScalar holds Taylor coefficients (derivative / m!) of an analytic
function around a base point, truncated at total degree K (eh's metric
jets use 3, `fieldspace.ORDER`, and ep's 2). Products are convolutions in
this normalization; jet-coordinate extraction multiplies back by m!.

Storage is dense over all multi-indices of degree <= K; for K = 3 in 4
variables that is C(7,3) = 35 coefficients, where dense beats any sparse
scheme and multiplication is a fixed precomputed index loop.

A JetScalar may stack series about several base points on leading axes,
the rule `tangents` uses for sample points: `base` is (..., 4) and
`coeffs` (..., 35). The check runner builds each chunk of sample points
this way, walking every expression tree once per chunk, and each row
keeps the exact arithmetic of a series built alone (Taylor propagation:
Griewank, Utke & Walther, Math. Comp. 69, 2000). The function of each
row's constant term is `exprparse.math_each`'s `math` call, so it rounds
and fails as the float evaluation of the same text does; a division by a
zero constant term raises "float division by zero", and so does sqrt of
one, the one failure a float does not share.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .exprparse import math_each

NVARS = 4
DEFAULT_ORDER = 4
MAX_ORDER = 6


@lru_cache(maxsize=None)
def multi_indices(order: int) -> tuple[tuple[int, ...], ...]:
    """All 4-variable multi-indices of degree <= order, sorted by (degree, lex)."""
    return tuple(sorted(
        (tuple(c.count(v) for v in range(NVARS)) for deg in range(order + 1)
         for c in itertools.combinations_with_replacement(range(NVARS), deg)),
        key=lambda m: (sum(m), m)))


@lru_cache(maxsize=None)
def _index_map(order: int) -> dict[tuple[int, ...], int]:
    return {m: i for i, m in enumerate(multi_indices(order))}


@lru_cache(maxsize=None)
def _mul_table(order: int):
    """(i_idx, j_idx, starts): coeffs[k] sums a[i] * b[j] over segment k
    of the table sorted by k, from starts[k]; a[0] * b[k] is in each."""
    exps = multi_indices(order)
    imap = _index_map(order)
    kk, ii, jj = np.array(sorted(
        (imap[tuple(a + b for a, b in zip(mi, mj))], i, j)
        for i, mi in enumerate(exps) for j, mj in enumerate(exps)
        if sum(mi) + sum(mj) <= order)).T
    return ii, jj, np.flatnonzero(np.diff(kk, prepend=-1))


def _factorial_weight(m: tuple[int, ...]) -> float:
    return float(math.prod(map(math.factorial, m)))


@lru_cache(maxsize=None)
def derivative_table(order: int, combos: tuple):
    """(positions, weights): coeffs[positions] * weights are the partials
    at the base point named by the index tuples of `combos`."""
    ms = [tuple(c.count(v) for v in range(NVARS)) for c in combos]
    return (np.array([_index_map(order)[m] for m in ms], dtype=np.intp),
            np.array([_factorial_weight(m) for m in ms]))


def _product(a, b, order):
    """The truncated product of two coefficient arrays."""
    ii, jj, starts = _mul_table(order)
    return np.add.reduceat(a[..., ii] * b[..., jj], starts, axis=-1)


class JetScalar:
    """Immutable truncated Taylor series; all operations are pure.

    `base` has shape (..., 4) and `coeffs` (..., n): leading axes stack
    series about several base points, as in `tangents`, and a single
    series has none. Every operation treats each row alone, in the same
    arithmetic order as a single series, so a row's coefficients are
    bit-identical whatever stack it rides in. An operation raises what
    the float evaluation raises if it fails at any row's constant term.
    """

    __slots__ = ("order", "base", "coeffs")

    def __init__(self, order: int, base, coeffs):
        if not 0 <= order <= MAX_ORDER:
            raise ConfigError(f"truncation order {order} outside supported range")
        base = np.asarray(base, dtype=float)
        c = np.asarray(coeffs, dtype=float)
        if (base.shape[-1:] != (NVARS,)
                or c.shape != base.shape[:-1] + (len(multi_indices(order)),)):
            raise ConfigError("coefficient array shape does not match the "
                              "order and the base points")
        self._fill(order, base, c)

    def _fill(self, order, base, coeffs) -> "JetScalar":
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    def __setattr__(self, *_):
        raise AttributeError("JetScalar is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value, base, order: int = DEFAULT_ORDER) -> "JetScalar":
        """A constant series; value is a scalar or one per row."""
        base = np.asarray(base, dtype=float)
        c = np.zeros(base.shape[:-1] + (len(multi_indices(order)),))
        c[..., 0] = value
        return cls(order, base, c)

    @classmethod
    def variable(cls, i: int, base, order: int = DEFAULT_ORDER) -> "JetScalar":
        """The coordinate function x^i expanded around the base points."""
        base = np.asarray(base, dtype=float)
        c = np.zeros(base.shape[:-1] + (len(multi_indices(order)),))
        c[..., 0] = base[..., i]
        e = [0] * NVARS
        e[i] = 1
        c[..., _index_map(order)[tuple(e)]] = 1.0
        return cls(order, base, c)

    # -- access -------------------------------------------------------------

    def coeff(self, m):
        """Taylor coefficient at multi-index m, one per row."""
        return self.coeffs[..., _index_map(self.order)[tuple(m)]][()]

    def derivative(self, m):
        """The m-th partial derivative at the base points: coeff * m!."""
        return self.coeff(m) * _factorial_weight(m)

    def value(self):
        return self.coeffs[..., 0][()]

    # -- arithmetic ---------------------------------------------------------

    def _series(self, coeffs) -> "JetScalar":
        # an operation's result is shaped right by construction: unchecked
        return object.__new__(JetScalar)._fill(self.order, self.base, coeffs)

    def _check(self, other: "JetScalar") -> "JetScalar":
        if other.order != self.order or not (
                other.base is self.base
                or np.array_equal(other.base, self.base)):
            raise ConfigError("mixed truncation orders or base points in "
                              "series arithmetic")
        return other

    def _shifted(self, value) -> "JetScalar":
        """self plus a scalar, or one per row: only the constant term moves."""
        c = self.coeffs.copy()
        c[..., 0] += value
        return self._series(c)

    def __add__(self, other):
        if isinstance(other, JetScalar):
            return self._series(self.coeffs + self._check(other).coeffs)
        return self._shifted(other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, JetScalar):
            return self._series(self.coeffs - self._check(other).coeffs)
        return self._shifted(-other)

    def __rsub__(self, other):
        return self._series(-self.coeffs)._shifted(other)

    def __neg__(self):
        return self._series(-self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, JetScalar):
            return self._series(self.coeffs * np.asarray(other)[..., None])
        return self._series(_product(self.coeffs, self._check(other).coeffs,
                                     self.order))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, JetScalar):
            return self * other.reciprocal()
        if np.any(np.asarray(other) == 0.0):
            raise ZeroDivisionError("float division by zero")
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def reciprocal(self) -> "JetScalar":
        c0 = self.coeffs[..., 0]
        if np.any(c0 == 0.0):
            raise ZeroDivisionError("float division by zero")
        # 1/(c0 (1+v)) with v nilpotent: geometric series.
        return self._apply_univariate(
            [(-1.0) ** n / c0 for n in range(self.order + 1)], 1.0 / c0)

    def _apply_univariate(self, taylor, scale=1.0) -> "JetScalar":
        """sum_n taylor[n] * (scale * (self - const))^n, Horner-free powers;
        each taylor[n] and scale is a scalar or one per row."""
        u = self.coeffs.copy()
        u[..., 0] = 0.0
        u = u * np.asarray(scale)[..., None]
        out, p = np.zeros_like(u), None
        out[..., 0] = taylor[0]
        for n in range(1, self.order + 1):
            p = u if p is None else _product(p, u, self.order)
            out = out + p * np.asarray(taylor[n])[..., None]
        return self._series(out)

    # -- analytic functions -------------------------------------------------

    def sqrt(self) -> "JetScalar":
        c0 = self.coeffs[..., 0]
        r = math_each(math.sqrt, c0)
        if np.any(r == 0.0):  # the derivatives divide by the root
            raise ZeroDivisionError("float division by zero")
        # binomial series (1+v)^(1/2), v = (self - c0)/c0
        coefs, b = [], 1.0
        for n in range(self.order + 1):
            coefs.append(r * b)
            b *= (0.5 - n) / (n + 1)
        return self._apply_univariate(coefs, 1.0 / c0)

    def exp(self) -> "JetScalar":
        e0 = math_each(math.exp, self.coeffs[..., 0])
        return self._apply_univariate(
            [e0 / math.factorial(n) for n in range(self.order + 1)])

    def ln(self) -> "JetScalar":
        c0 = self.coeffs[..., 0]
        coefs = [math_each(math.log, c0)] + [
            (-1.0) ** (n + 1) / n for n in range(1, self.order + 1)]
        return self._apply_univariate(coefs, 1.0 / c0)

    def _trig(self, phase) -> "JetScalar":
        """sin (phase 0) or cos (phase 1) through the cycle of derivatives."""
        s0 = math_each(math.sin, self.coeffs[..., 0])
        c0 = math_each(math.cos, self.coeffs[..., 0])
        cyc = [s0, c0, -s0, -c0]
        return self._apply_univariate(
            [cyc[(n + phase) % 4] / math.factorial(n)
             for n in range(self.order + 1)])

    def sin(self) -> "JetScalar":
        return self._trig(0)

    def cos(self) -> "JetScalar":
        return self._trig(1)

    def powi(self, n: int) -> "JetScalar":
        """Integer power by repeated squaring: O(log |n|) products, after
        the constant terms' `math.pow`, so a row fails as a float's does."""
        math_each(math.pow, self.coeffs[..., 0], n)
        if n == 0:
            return JetScalar.constant(1.0, self.base, self.order)
        out, sq, n = None, (self.reciprocal() if n < 0 else self), abs(n)
        while n:
            if n & 1:
                out = sq if out is None else sq * out
            n >>= 1
            if n:
                sq = sq * sq
        return out

    def __repr__(self):
        rows = [{m: float(r[i])
                 for i, m in enumerate(multi_indices(self.order))
                 if r[i] != 0.0}
                for r in self.coeffs.reshape(-1, self.coeffs.shape[-1])]
        coeffs = rows[0] if self.coeffs.ndim == 1 else rows
        return (f"JetScalar(order={self.order}, base={self.base.tolist()}, "
                f"coeffs={coeffs})")
