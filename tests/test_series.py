import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import evaluate, interior_points
from msgrav import catalog
from msgrav.series import JetScalar, multi_indices


# the order of these tests' series, one above the metric jets' (3), so
# each identity is checked through degree 4
ORDER = 4


def var(i, base=(0.0, 0.0, 0.0, 0.0), order=ORDER):
    return JetScalar.variable(i, base, order=order)


def const(v, base=(0.0, 0.0, 0.0, 0.0), order=ORDER):
    return JetScalar.constant(v, base, order=order)


def test_variable_and_constant_coefficients():
    x = var(1)
    assert x.value() == 0.0
    assert x.coeff((0, 1, 0, 0)) == 1.0
    assert x.coeff((0, 0, 0, 0)) == 0.0
    c = const(3.5)
    assert c.value() == 3.5
    assert c.coeff((1, 0, 0, 0)) == 0.0


def test_variable_centering():
    x = var(2, base=(0.0, 0.0, 1.5, 0.0))
    assert x.value() == 1.5
    assert x.coeff((0, 0, 1, 0)) == 1.0


def test_square_expansion():
    x = var(0, base=(2.0, 0, 0, 0))
    s = (x + 1.0) * (x + 1.0)  # (3 + u)^2 = 9 + 6u + u^2
    assert s.value() == 9.0
    assert s.coeff((1, 0, 0, 0)) == 6.0
    assert s.coeff((2, 0, 0, 0)) == 1.0
    assert s.coeff((3, 0, 0, 0)) == 0.0


def test_derivative_restores_factorials():
    x, y = var(0), var(1)
    s = x * x * x * y  # d^3/dx^3 d/dy = 6
    assert s.derivative((3, 1, 0, 0)) == pytest.approx(6.0)
    assert s.coeff((3, 1, 0, 0)) == pytest.approx(1.0)


def test_reciprocal_inverts():
    x = var(0, base=(2.0, 0, 0, 0))
    s = (1.0 + x * x)
    prod = s * (1.0 / s)
    assert prod.value() == pytest.approx(1.0)
    for m in multi_indices(s.order):
        if any(m):
            assert prod.coeff(m) == pytest.approx(0.0, abs=1e-13)


def test_division_by_zero_constant_term_raises():
    x = var(0)  # value 0 at base
    with pytest.raises(ZeroDivisionError, match="float division by zero"):
        1.0 / x


def test_sqrt_squares_back():
    x = var(0, base=(1.3, 0, 0, 0))
    r = x.sqrt()
    sq = r * r
    for m in multi_indices(x.order):
        assert sq.coeff(m) == pytest.approx(x.coeff(m), abs=1e-12)


def test_sqrt_of_nonpositive_raises():
    # a zero constant term: the derivatives would divide by its root
    with pytest.raises(ZeroDivisionError, match="float division by zero"):
        var(0).sqrt()
    with pytest.raises(ValueError, match="math domain error"):
        const(-2.0).sqrt()


def test_exp_ln_inverse_pair():
    x = var(0, base=(0.7, 0, 0, 0))
    s = (1.0 + x * x)
    back = s.ln().exp()
    for m in multi_indices(s.order):
        assert back.coeff(m) == pytest.approx(s.coeff(m), abs=1e-12)


def test_ln_derivatives():
    x = var(1, base=(0.0, 2.0, 0.0, 0.0))
    s = x.ln()
    assert s.value() == pytest.approx(math.log(2.0))
    assert s.derivative((0, 1, 0, 0)) == pytest.approx(0.5)
    assert s.derivative((0, 2, 0, 0)) == pytest.approx(-0.25)


def test_trig_identity():
    x = var(3, base=(0, 0, 0, 0.9))
    s = x.sin() * x.sin() + x.cos() * x.cos()
    assert s.value() == pytest.approx(1.0)
    for m in multi_indices(x.order):
        if any(m):
            assert s.coeff(m) == pytest.approx(0.0, abs=1e-13)


def test_sin_cos_derivative_chain():
    x = var(0, base=(0.4, 0, 0, 0))
    assert x.sin().derivative((1, 0, 0, 0)) == pytest.approx(math.cos(0.4))
    assert x.cos().derivative((1, 0, 0, 0)) == pytest.approx(-math.sin(0.4))


def test_powi_negative_matches_reciprocal():
    x = var(0, base=(1.7, 0, 0, 0))
    s = 1.0 + x * x
    a = s.powi(-3)
    b = 1.0 / (s * s * s)
    for m in multi_indices(s.order):
        assert a.coeff(m) == pytest.approx(b.coeff(m), rel=1e-12, abs=1e-12)


def test_powi_matches_repeated_multiplication():
    base = (0.8, 0.0, 0.3, 0.0)
    x = var(0, base=base)
    s = 1.0 + x - 0.5 * var(2, base=base) * x
    for n in range(10):
        want = const(1.0, base=base)
        for _ in range(n):
            want = want * s
        for sign in (1, -1):
            got = s.powi(sign * n)
            ref = want if sign > 0 else want.reciprocal()
            assert np.allclose(got.coeffs, ref.coeffs, rtol=1e-12,
                               atol=1e-12), (n, sign)
    # squaring keeps a huge exponent cheap: (1 + v)^n has coefficients
    # C(n, k), all finite for n = 10^9 at degree 4
    one = var(1, base=(0.0, 1.0, 0.0, 0.0))
    t0 = time.perf_counter()
    big = one.powi(10 ** 9)
    assert time.perf_counter() - t0 < 1.0
    assert np.isfinite(big.coeffs).all()
    assert big.coeff((0, 1, 0, 0)) == pytest.approx(1e9)
    assert big.coeff((0, 4, 0, 0)) == pytest.approx(math.comb(10 ** 9, 4),
                                                     rel=1e-6)


def test_powi_fails_as_the_float_power_does():
    # the constant terms' math.pow runs first: 0 to a negative power is its
    # domain error, a power beyond float range its range error, and a
    # stack fails if one row does
    xs = np.array([[0.0, 0.5, 0, 0], [0.0, 0.0, 0, 0]])
    for n in (-1, -2):
        with pytest.raises(ValueError, match="math domain error"):
            JetScalar.variable(1, xs).powi(n)
    with pytest.raises(OverflowError, match="math range error"):
        const(1e200).powi(2)
    with pytest.raises(OverflowError, match="math range error"):
        const(1e-200).powi(-2)
    one = JetScalar.variable(1, xs[0])
    assert np.array_equal(JetScalar.variable(1, xs[:1]).powi(-2).coeffs[0],
                          one.powi(-2).coeffs)
    # 0 to the powers 0 and 2 is a float's 1 and 0
    assert var(0).powi(0).value() == 1.0
    assert np.array_equal(var(0).powi(2).coeffs, (var(0) * var(0)).coeffs)


def test_finite_difference_oracle_on_composite():
    # d/dx of exp(sin(x)) / (2 + x) against central differences
    def f(v):
        return math.exp(math.sin(v)) / (2.0 + v)

    x0 = 0.6
    x = var(0, base=(x0, 0, 0, 0))
    s = x.sin().exp() / (2.0 + x)
    h = 1e-5
    fd = (f(x0 + h) - f(x0 - h)) / (2 * h)
    assert s.derivative((1, 0, 0, 0)) == pytest.approx(fd, rel=1e-8)


coeff_st = st.floats(min_value=-3, max_value=3, allow_nan=False)


def _poly(c):
    x, y = var(0, order=3), var(1, order=3)
    return c[0] + c[1] * x + c[2] * y + c[3] * x * y + c[4] * x * x


@given(st.lists(coeff_st, min_size=5, max_size=5),
       st.lists(coeff_st, min_size=5, max_size=5),
       st.lists(coeff_st, min_size=5, max_size=5))
@settings(max_examples=40, deadline=None)
def test_ring_laws(ca, cb, cc):
    a, b, c = _poly(ca), _poly(cb), _poly(cc)
    lhs = (a * b) * c
    rhs = a * (b * c)
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-9)
    assert np.allclose((a * b).coeffs, (b * a).coeffs, atol=1e-12)
    assert np.allclose((a * (b + c)).coeffs, (a * b + a * c).coeffs,
                       atol=1e-9)


# -- stacked series ---------------------------------------------------------

INPUTS = Path(__file__).resolve().parents[1] / "msbench" / "inputs"


def _stack_specs():
    specs = [catalog.builtin(n) for n in catalog.list_builtins()]
    return specs + [catalog.load_metric_file(str(INPUTS / f"{n}.metric"))
                    for n in ("bumpy", "torsion")]


def _trees_at(spec, x, order):
    env = {f"x{i}": JetScalar.variable(i, x, order=order) for i in range(4)}
    env.update(spec.params)
    trees = tuple(spec.components) + tuple(spec.connection.values())
    return [evaluate(t, env) for t in trees]


@pytest.mark.parametrize("spec", _stack_specs(), ids=lambda s: s.name)
def test_stacked_rows_equal_single_point_series(spec):
    xs = np.array(interior_points(spec, 5, seed=71))
    for order in (2, 4):
        stacked = _trees_at(spec, xs, order)
        for k, x in enumerate(xs):
            for s, one in zip(stacked, _trees_at(spec, x, order)):
                if not isinstance(one, JetScalar):
                    assert s == one
                    continue
                assert s.coeffs.shape == (5, len(multi_indices(order)))
                assert np.array_equal(s.coeffs[k], one.coeffs)
                assert np.array_equal(s.base[k], one.base)


@pytest.mark.parametrize("op", [lambda s: 1.0 / s, JetScalar.sqrt,
                                JetScalar.ln])
def test_one_singular_row_fails_the_stack(op):
    # the constant term x1 is 0 in row 1 only: ln(0) is a float's "math
    # domain error", and 1/0 and sqrt's 1/sqrt(0) are divisions by zero
    xs = np.array([[0.0, 0.5, 0, 0], [0.0, 0.0, 0, 0], [0.0, 2.0, 0, 0]])
    with pytest.raises(ValueError if op is JetScalar.ln
                       else ZeroDivisionError):
        op(JetScalar.variable(1, xs))
    for k in (0, 2):
        one = op(JetScalar.variable(1, xs[k]))
        assert np.array_equal(op(JetScalar.variable(1, xs[[k]])).coeffs[0],
                              one.coeffs)


@pytest.mark.parametrize("order", [0, 2, 4, 6])
def test_product_rows_equal_single_rows_and_the_convolution(order):
    # products of dense stacked series: each row is the row multiplied
    # alone, bit for bit, and the Cauchy product of its coefficients
    exps = multi_indices(order)
    pos = {m: i for i, m in enumerate(exps)}
    rng = np.random.default_rng(order)
    base = rng.normal(size=(16, 4))
    a, b = (JetScalar(order, base, rng.normal(size=(16, len(exps))))
            for _ in range(2))
    prod = (a * b).coeffs
    for k in range(16):
        one = JetScalar(order, base[k], a.coeffs[k]) * JetScalar(
            order, base[k], b.coeffs[k])
        assert np.array_equal(prod[k], one.coeffs)
    want = np.zeros_like(prod)
    for i, mi in enumerate(exps):
        for j, mj in enumerate(exps):
            m = tuple(u + v for u, v in zip(mi, mj))
            if m in pos:
                want[:, pos[m]] += a.coeffs[:, i] * b.coeffs[:, j]
    assert np.allclose(prod, want, rtol=0, atol=1e-13)


def test_scalar_operands_act_per_row():
    xs = np.array([[0.3, 1.0, 0, 0], [0.7, -2.0, 0, 0]])
    s = var(0, base=xs) * var(1, base=xs) + 1.0
    per_row = np.array([2.0, -0.5])
    for got, want in ((s * per_row, s * const(per_row, base=xs)),
                      (s * 3.0, s * const(3.0, base=xs)),
                      (s + per_row, s + const(per_row, base=xs)),
                      (2.0 - s, const(2.0, base=xs) - s)):
        assert np.array_equal(got.coeffs, want.coeffs)
    assert "[[0.3, 1.0, 0.0, 0.0], [0.7, -2.0, 0.0, 0.0]]" in repr(s)
    with pytest.raises(ZeroDivisionError, match="float division by zero"):
        s / 0.0


# -- the elementary functions against public compositions --------------------

def _ref_univariate(s, taylor, scale=1.0):
    """sum_n taylor[n] (scale (s - s0))^n spelled with public series
    operations, term by term: the reference for the raw-array path."""
    c = s.coeffs.copy()
    c[..., 0] = 0.0
    u = JetScalar(s.order, s.base, c) * scale
    out, p = JetScalar.constant(taylor[0], s.base, s.order), None
    for n in range(1, s.order + 1):
        p = u if p is None else p * u
        out = out + p * taylor[n]
    return out


def _ref_rowwise(fn, a):
    return np.array([fn(v) for v in a])


def _ref_sqrt(s):
    c0 = s.coeffs[:, 0]
    coefs, b = [], 1.0
    for n in range(s.order + 1):
        coefs.append(np.sqrt(c0) * b)
        b *= (0.5 - n) / (n + 1)
    return _ref_univariate(s, coefs, 1.0 / c0)


def _ref_trig(s, phase):
    s0, c0 = (_ref_rowwise(f, s.coeffs[:, 0]) for f in (math.sin, math.cos))
    cyc = [s0, c0, -s0, -c0]
    return _ref_univariate(s, [cyc[(n + phase) % 4] / math.factorial(n)
                               for n in range(s.order + 1)])


def _ref_reciprocal(s):
    c0 = s.coeffs[:, 0]
    return _ref_univariate(s, [(-1.0) ** n / c0 for n in range(s.order + 1)],
                           1.0 / c0)


def _ref_powi(s, n):
    if n == 0:
        return JetScalar.constant(1.0, s.base, s.order)
    if n < 0:
        return _ref_powi(_ref_reciprocal(s), -n)
    out, sq = None, s
    while n:
        if n & 1:
            out = sq if out is None else sq * out
        n >>= 1
        if n:
            sq = sq * sq
    return out


_REFERENCES = {
    "reciprocal": (JetScalar.reciprocal, _ref_reciprocal),
    "sqrt": (JetScalar.sqrt, _ref_sqrt),
    "exp": (JetScalar.exp, lambda s: _ref_univariate(s, [
        _ref_rowwise(math.exp, s.coeffs[:, 0]) / math.factorial(n)
        for n in range(s.order + 1)])),
    "ln": (JetScalar.ln, lambda s: _ref_univariate(s, [
        _ref_rowwise(math.log, s.coeffs[:, 0])] + [
        (-1.0) ** (n + 1) / n for n in range(1, s.order + 1)],
        1.0 / s.coeffs[:, 0])),
    "sin": (JetScalar.sin, lambda s: _ref_trig(s, 0)),
    "cos": (JetScalar.cos, lambda s: _ref_trig(s, 1)),
    **{f"powi{n}": (lambda s, n=n: s.powi(n), lambda s, n=n: _ref_powi(s, n))
       for n in (-3, -1, 0, 1, 2, 3, 5)},
}


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("name", list(_REFERENCES))
def test_elementary_functions_equal_public_compositions(order, name):
    # each function sums its series on raw coefficient arrays; on a stack
    # it must equal, byte for byte, the same sum spelled with the public
    # operations, keep the order and the base, and build a JetScalar
    rng = np.random.default_rng(order)
    base = rng.normal(size=(5, 4))
    coeffs = rng.normal(size=(5, len(multi_indices(order))))
    coeffs[:, 0] = rng.uniform(0.5, 2.0, size=5)
    s = JetScalar(order, base, coeffs)
    fn, ref = _REFERENCES[name]
    got, want = fn(s), ref(s)
    assert type(got) is JetScalar and got.order == order
    assert got.base is s.base
    assert got.coeffs.shape == s.coeffs.shape
    assert got.coeffs.tobytes() == want.coeffs.tobytes()


@pytest.mark.parametrize("order", [2, 3])
def test_exp_overflow_in_one_row_raises_as_that_row_alone(order):
    xs = np.array([[0.5, 0, 0, 0], [800.0, 0, 0, 0], [-1.0, 0, 0, 0]])
    with pytest.raises(OverflowError) as stacked:
        JetScalar.variable(0, xs, order=order).exp()
    with pytest.raises(OverflowError) as alone:
        JetScalar.variable(0, xs[1], order=order).exp()
    assert str(stacked.value) == str(alone.value)
    for k in (0, 2):
        one = JetScalar.variable(0, xs[k], order=order).exp()
        assert one.value() == math.exp(xs[k, 0])
