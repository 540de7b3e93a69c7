import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import evaluate
from msgrav.errors import ExprSyntaxError
from msgrav.indexing import DERIVS
from msgrav.exprparse import (FUNCTIONS, BinOp, Call, Name, Neg, Num, Pow,
                              compile_program, jet_program, parse_expression,
                              run_program)
from msgrav.series import JetScalar


def pretty(node) -> str:
    """Minimal-parenthesis rendering; re-parsing it reproduces the tree."""
    def render(n, ctx):
        if isinstance(n, Num):
            s = repr(n.value)
            return s[:-2] if s.endswith(".0") else s
        if isinstance(n, Name):
            return n.ident
        if isinstance(n, Neg):
            s = "-" + render(n.arg, 3)
            return f"({s})" if ctx > 3 else s
        if isinstance(n, Pow):
            s = f"{render(n.base, 5)}^{n.exponent}"
            return f"({s})" if ctx > 4 else s
        if isinstance(n, Call):
            return f"{n.func}({render(n.arg, 0)})"
        lp, rp = (1, 2) if n.op in "+-" else (2, 3)
        s = f"{render(n.left, lp)} {n.op} {render(n.right, rp)}"
        return f"({s})" if ctx > lp else s

    return render(node, 0)


def ev(text, **env):
    return evaluate(parse_expression(text), env)


def test_spec_examples():
    assert ev("-(1-2*m/x1)", m=1.0, x1=3.0) == pytest.approx(-1.0 / 3.0)
    assert ev("2*x1^2", x1=3.0) == pytest.approx(18.0)
    assert ev("sin(x2)^2 + cos(x2)^2", x2=1.234) == pytest.approx(
        1.0, abs=1e-15)


def test_precedence():
    assert ev("2+3*4") == 14.0
    assert ev("2*3^2") == 18.0
    assert ev("-3^2") == -9.0       # unary minus binds looser than power
    assert ev("(2+3)*4") == 20.0
    assert ev("2-3-4") == -5.0      # left associative
    assert ev("12/3/2") == 2.0
    assert ev("2*-3") == -6.0
    assert ev("x1^-2", x1=2.0) == 0.25


def test_functions():
    assert ev("exp(ln(7))") == pytest.approx(7.0)
    assert ev("sqrt(2)^2") == pytest.approx(2.0)
    assert ev("cos(0)") == 1.0


def test_scientific_notation():
    assert ev("1.5e2 + 2E-1") == pytest.approx(150.2)


def test_syntax_errors_carry_offsets():
    with pytest.raises(ExprSyntaxError) as e:
        parse_expression("2*/3")
    assert e.value.offset == 2
    with pytest.raises(ExprSyntaxError) as e:
        parse_expression("sin(x1")
    assert e.value.offset == 6
    with pytest.raises(ExprSyntaxError) as e:
        parse_expression("2 $ 3")
    assert e.value.offset == 2
    with pytest.raises(ExprSyntaxError) as e:
        parse_expression("1 + 2 3")
    assert e.value.offset == 6


def test_non_integer_exponent_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expression("x1^1.5")
    with pytest.raises(ExprSyntaxError):
        parse_expression("x1^x2")


def test_power_takes_one_exponent():
    # no right-associative chain: a second "^" is trailing input
    with pytest.raises(ExprSyntaxError, match="trailing input") as e:
        parse_expression("2^3^2")
    assert e.value.offset == 3
    assert ev("(2^3)^2") == 64.0


def test_infinite_exponent_rejected():
    # 1e999 reads as inf, which has no integer value
    with pytest.raises(ExprSyntaxError) as e:
        parse_expression("1 + 0*x1^1e999")
    assert e.value.offset == 9
    with pytest.raises(ExprSyntaxError):
        parse_expression("x1^-1e999")


def test_infinite_literal_rejected():
    # a literal beyond float range is a syntax error, not inf (nor 0 once
    # divided)
    for text, offset in (("1 + 1/1e999", 6), ("1e999", 0), ("-2e400*x1", 1)):
        with pytest.raises(ExprSyntaxError, match="not finite") as e:
            parse_expression(text)
        assert e.value.offset == offset


def test_nesting_is_bounded():
    # parentheses, calls and unary minuses are one level each; past
    # MAX_NESTING levels the text is a syntax error at the token that
    # opens the next level, not a RecursionError
    from msgrav.exprparse import MAX_NESTING
    assert ev("(" * MAX_NESTING + "x1" + ")" * MAX_NESTING, x1=2.0) == 2.0
    assert ev("-" * MAX_NESTING + "x1", x1=2.0) == 2.0
    for text, offset in (("(" * 200 + "1" + ")" * 200, MAX_NESTING),
                         ("-" * 1000 + "1", MAX_NESTING),
                         ("sin(" * 150 + "1" + ")" * 150, 4 * MAX_NESTING),
                         ("-(" * 60 + "1" + ")" * 60, MAX_NESTING)):
        with pytest.raises(ExprSyntaxError, match="nested deeper") as e:
            parse_expression(text)
        assert e.value.offset == offset


def test_long_sum_compiles_and_runs():
    # a sum is a left spine as deep as it is long, and compiles at any
    # length: x1 once, then one step per partial sum
    text = "+".join(["x1"] * 3000)
    steps, outputs = compile_program((parse_expression(text),))
    assert len(steps) == 3000 and outputs == (2999,)
    assert ev(text, x1=0.5) == 1500.0


# hostile texts for the differentiator, with a bound on the seconds their
# order-3 jet program takes to compile and run: differentiating syntax
# trees instead of steps took 145 s on the 33-deep nest
HOSTILE = {
    "99-nested-sin": ("sin(" * 99 + "x1" + ")" * 99, 1.0),
    "33-deep-sin-exp-cos": ("".join(("sin(", "exp(", "cos(")[i % 3]
                                    for i in range(33))
                            + "x1*x2" + ")" * 33, 1.0),
    "3000-term-sum": ("+".join(f"x{i % 4}*x{(i + 1) % 4}*x{(i + 2) % 4}"
                               for i in range(3000)), 6.0),
}


@pytest.mark.parametrize("name", HOSTILE)
def test_hostile_texts_differentiate_in_bounded_time(name):
    # the differentiator walks the program with a stack, so a 3000-deep
    # spine is no recursion, and hash-consing keeps a deep nest's
    # derivatives linear in its depth
    text, seconds = HOSTILE[name]
    xs = np.array([[0.3, 0.4, -0.2, 0.1], [0.5, -0.3, 0.6, 0.2]])
    t0 = time.perf_counter()
    steps, jets = jet_program(compile_program((parse_expression(text),)), 3)
    slots = [s for block in jets for s in block[0] if s is not None]
    vals = run_program((steps, slots),
                       {f"x{i}": xs[:, i] for i in range(4)})
    assert time.perf_counter() - t0 < seconds
    assert all(np.isfinite(v).all() for v in vals)
    if name == "3000-term-sum":  # 750 times each of 4 distinct products
        third = [vals[slots.index(s)] for s in jets[3][0] if s is not None]
        assert third == [750.0] * 4


def test_each_partial_differentiates_the_one_below_along_its_last_index():
    # the k-th partial over a tuple is the derivative, along the tuple's
    # last index, of the partial over its first k - 1 indices: bit for bit
    # the order-1 jet program of a program whose outputs are those
    trees = tuple(map(parse_expression, (
        "sin(x0*x1 + x3)*exp(0.3*x2*x0)/(2 + x1*x3)",
        "ln(3 + x0*x3)^3 - sqrt(2 + x1*x2)*cos(x3 - x0)")))
    xs = np.array([[0.3, 0.4, -0.2, 0.1], [0.5, -0.3, 0.6, 0.2]])
    steps, jets = jet_program(compile_program(trees), 3)
    for k in (1, 2, 3):
        low = [s for tree in jets[k - 1] for s in tree if s is not None]
        once, firsts = jet_program((steps, low), 1)
        vals = run_program((once, range(len(once))),
                           {f"x{i}": xs[:, i] for i in range(4)})
        for tree, below in zip(jets[k], jets[k - 1]):
            for c, s in zip(DERIVS[k], tree):
                s0 = below[DERIVS[k - 1].index(c[:-1])]
                want = None if s0 is None else firsts[1][low.index(s0)][c[-1]]
                assert (s is None) == (want is None), c
                if s is not None:
                    assert np.array_equal(vals[s], vals[want]), c


def test_program_steps_are_in_post_order_left_first():
    tree = parse_expression("x1*x2 + sin(x1*x2) - x3")
    steps, outputs = compile_program((tree, parse_expression("x3")))
    shown = [getattr(node, "ident", getattr(node, "op", None)) or
             getattr(node, "func", None) for node, _ in steps]
    assert shown == ["x1", "x2", "*", "sin", "+", "x3", "-"]
    assert [args for _, args in steps] == [
        (), (), (0, 1), (2,), (2, 3), (), (4, 5)]
    assert outputs == (6, 5)


def test_unknown_function_and_identifier():
    with pytest.raises(ExprSyntaxError):
        parse_expression("foo(2)")
    with pytest.raises(ExprSyntaxError):
        ev("x9 + 1")


def test_series_and_float_evaluation_agree():
    tree = parse_expression("exp(0.3*x0) * sin(x1) / (2 + x1^2)")
    base = (0.4, 1.1, 0.0, 0.0)
    envf = {"x0": base[0], "x1": base[1]}
    envs = {f"x{i}": JetScalar.variable(i, base, order=3) for i in range(2)}
    assert evaluate(tree, envs).value() == pytest.approx(
        evaluate(tree, envf), rel=1e-14)


names_st = st.sampled_from(["x0", "x1", "x2", "x3", "m", "k"])
nums_st = st.floats(min_value=0.1, max_value=9.0).map(
    lambda v: round(v, 3))


def trees(depth, funcs=("sin", "cos", "exp")):
    if depth == 0:
        return st.one_of(nums_st.map(Num), names_st.map(Name))
    sub = trees(depth - 1, funcs)
    return st.one_of(
        nums_st.map(Num), names_st.map(Name),
        sub.map(Neg),
        st.tuples(st.sampled_from("+-*/"), sub, sub).map(
            lambda t: BinOp(*t)),
        st.tuples(sub, st.integers(min_value=-3, max_value=3)).map(
            lambda t: Pow(*t)),
        st.tuples(st.sampled_from(funcs), sub).map(lambda t: Call(*t)))


@given(trees(3))
@settings(max_examples=150, deadline=None)
def test_pretty_print_reparse_identity(tree):
    assert parse_expression(pretty(tree)) == tree


@given(trees(2))
@settings(max_examples=60, deadline=None)
def test_evaluation_deterministic(tree):
    env = {"x0": 0.7, "x1": 1.3, "x2": -0.4, "x3": 2.2, "m": 1.5, "k": 0.3}
    try:
        a = evaluate(tree, env)
        b = evaluate(parse_expression(pretty(tree)), env)
    except (ZeroDivisionError, OverflowError, ValueError):
        return
    if math.isfinite(a):
        assert a == b


_RAISES = (ZeroDivisionError, OverflowError, ValueError)
# rows hold zeros, negatives and a large value, so some rows raise alone
_ROWS = np.array([[0.7, 1.3, -0.4, 2.2], [0.0, -1.0, 0.5, 300.0],
                  [-2.0, 0.0, 1e-3, -0.5]])


def _float_rows(tree, params):
    out = []
    for row in _ROWS:
        env = dict(params, **{f"x{i}": float(v) for i, v in enumerate(row)})
        try:
            out.append(evaluate(tree, env))
        except _RAISES:
            return None
    return np.array(out)


@given(trees(3, FUNCTIONS))
@settings(max_examples=200, deadline=None)
def test_array_evaluation_matches_floats_row_by_row(tree):
    # one walk over a stack of rows gives each row's float value, bit for
    # bit, and raises exactly when some row raises alone
    params = {"m": 1.5, "k": 0.3}
    want = _float_rows(tree, params)
    env = dict(params, **{f"x{i}": _ROWS[:, i] for i in range(4)})
    with warnings.catch_warnings(), np.errstate(over="ignore",
                                                invalid="ignore"):
        warnings.simplefilter("error")
        try:
            got = np.broadcast_to(evaluate(tree, env), len(_ROWS))
        except _RAISES:
            got = None
    assert (got is None) == (want is None)
    if got is not None:
        assert np.array_equal(got, want, equal_nan=True)
