"""A small arithmetic-expression language for user-defined metrics.

Grammar (standard precedence, whitespace insignificant):

    sum     := product (("+" | "-") product)*
    product := unary (("*" | "/") unary)*
    unary   := "-" unary | power
    power   := atom ("^" "-"? integer)?  # one integer-literal exponent
    atom    := number | name | name "(" sum ")" | "(" sum ")"

Names are the coordinates x0..x3, parameters, or the functions sin, cos,
exp, sqrt, ln. Exponents are restricted to integers so evaluation stays
total on truncated-series inputs; fractional powers are written via
exp/ln. A power takes one exponent: `2^3^2` is rejected; chain `(a^b)^c`.
Parentheses, calls and unary minuses nest at most MAX_NESTING (100) levels
deep, or the text is an ExprSyntaxError; a sum may be of any length.

Trees compile to one straight-line program of their distinct subtrees,
which runs over floats, numpy arrays (elementwise, so one run serves a
whole stack of points) or truncated series; parameters stay floats in
every case. One rule decides how a float evaluation rounds and fails:
each function and power of a float, or of each entry of an array, is one
`math` call (`math_each`), and `+ - * /` round as IEEE floats do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ExprSyntaxError

FUNCTIONS = ("sin", "cos", "exp", "sqrt", "ln")
VARIABLES = ("x0", "x1", "x2", "x3")
# parenthesis, call and unary-minus levels: the parser recurses on each,
# and this keeps it well inside Python's recursion limit
MAX_NESTING = 100


# -- syntax tree ------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * /
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


# -- tokenizer --------------------------------------------------------------

_PUNCT = "+-*/^()"


def _tokenize(text: str):
    """Yield (kind, value, offset) with kinds num/name/punct."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCT:
            out.append(("punct", c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            try:
                val = float(text[i:j])
            except ValueError:
                raise ExprSyntaxError(f"bad number {text[i:j]!r}", offset=i)
            out.append(("num", val, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("name", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", offset=i)
    return out


# -- parser -----------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def _peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def _fail(self, msg):
        tok = self._peek()
        off = tok[2] if tok else len(self.text)
        raise ExprSyntaxError(msg, offset=off)

    def _eat_punct(self, ch) -> bool:
        tok = self._peek()
        if tok and tok[0] == "punct" and tok[1] == ch:
            self.pos += 1
            return True
        return False

    def _nested(self, offset, parse):
        """parse() one nesting level deeper."""
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError(f"expression nested deeper than "
                                  f"{MAX_NESTING} levels", offset=offset)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def parse(self):
        node = self._sum()
        if self._peek() is not None:
            self._fail("trailing input after expression")
        return node

    def _sum(self):
        return self._chain("+-", self._product)

    def _product(self):
        return self._chain("*/", self._unary)

    def _chain(self, ops, operand):
        node = operand()
        while (tok := self._peek()) and tok[0] == "punct" and tok[1] in ops:
            self.pos += 1
            node = BinOp(tok[1], node, operand())
        return node

    def _unary(self):
        tok = self._peek()
        if self._eat_punct("-"):
            return Neg(self._nested(tok[2], self._unary))
        return self._power()

    def _power(self):
        base = self._atom()
        if not self._eat_punct("^"):
            return base
        neg = self._eat_punct("-")
        tok = self._peek()
        if tok is None or tok[0] != "num":
            self._fail("exponent must be an integer literal")
        if not math.isfinite(tok[1]):
            raise ExprSyntaxError("exponent is not finite", offset=tok[2])
        if tok[1] != int(tok[1]):
            raise ExprSyntaxError("exponent must be an integer", offset=tok[2])
        self.pos += 1
        return Pow(base, int(-tok[1] if neg else tok[1]))

    def _atom(self):
        tok = self._peek()
        if tok is None:
            self._fail("unexpected end of expression")
        kind, val, off = tok
        if kind == "num":
            if not math.isfinite(val):
                raise ExprSyntaxError("number is not finite", offset=off)
            self.pos += 1
            return Num(val)
        if kind == "name":
            self.pos += 1
            if self._eat_punct("("):
                if val not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {val!r}",
                                          offset=off)
                arg = self._nested(off, self._sum)
                if not self._eat_punct(")"):
                    self._fail("expected ')'")
                return Call(val, arg)
            return Name(val)
        if kind == "punct" and val == "(":
            self.pos += 1
            node = self._nested(off, self._sum)
            if not self._eat_punct(")"):
                self._fail("expected ')'")
            return node
        self._fail(f"unexpected token {val!r}")


def parse_expression(text: str):
    return _Parser(text).parse()


# -- evaluation and printing ------------------------------------------------

_FIELDS = {Num: ("value", ()), Name: ("ident", ()), Neg: (None, ("arg",)),
           BinOp: ("op", ("left", "right")), Pow: ("exponent", ("base",)),
           Call: ("func", ("arg",))}


def math_each(fn, x, *args):
    """fn(x, *args) for a float x, or for each entry of an array x: one
    `math` call on a Python float each, so an entry rounds and raises as
    that float does, whatever array it rides in."""
    if isinstance(x, np.ndarray):
        return np.array([fn(v, *args) for v in x.ravel().tolist()]
                        ).reshape(x.shape)
    return fn(x, *args)


def compile_program(trees) -> tuple:
    """(steps, outputs): the distinct subtrees of a sequence of trees in
    evaluation order, each a (node, operand slots) step whose operands are
    earlier steps, and the slot of each tree."""
    slots, steps, done = {}, [], []
    # a stack, not recursion, as a long sum is a deep left spine: (node,
    # False) schedules the operands, left first; (node, True) takes their slots
    todo = [(t, False) for t in reversed(tuple(trees))]
    while todo:
        node, ready = todo.pop()
        own, ops = _FIELDS[type(node)]
        if not ready:
            todo.append((node, True))
            todo.extend((getattr(node, f), False) for f in reversed(ops))
            continue
        cut = len(done) - len(ops)
        args = tuple(done[cut:])
        del done[cut:]
        key = (type(node), own and getattr(node, own), args)  # equal subtrees
        if key not in slots:
            slots[key] = len(steps)
            steps.append((node, args))
        done.append(slots[key])
    return tuple(steps), tuple(done)


def run_program(program, env: dict) -> list:
    """The value of each tree of a compiled program, each step computed
    once, over floats, numpy arrays (elementwise) or series; env maps
    names to values of those kinds. A function or power of floats is a
    `math_each` call, which raises ValueError or OverflowError out of its
    domain or range; a division by zero raises ZeroDivisionError; a sum,
    product or quotient that overflows gives inf or NaN, as a float's
    does, and numpy's error state says whether an array's warns."""
    steps, outputs = program
    vals = []
    for node, args in steps:
        vals.append(_step(node, args, vals, env))
    return [vals[i] for i in outputs]


def _step(node, args, vals, env):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Name):
        if node.ident not in env:
            raise ExprSyntaxError(f"unknown identifier {node.ident!r}")
        return env[node.ident]
    if isinstance(node, Neg):
        return -vals[args[0]]
    if isinstance(node, BinOp):
        lhs, rhs = vals[args[0]], vals[args[1]]
        if node.op == "+":
            return lhs + rhs
        if node.op == "-":
            return lhs - rhs
        if node.op == "*":
            return lhs * rhs
        # a float division by zero raises whatever the dividend is, and
        # so does an array division with a zero divisor entry
        if ((isinstance(lhs, np.ndarray) or isinstance(rhs, np.ndarray))
                and np.any(np.equal(rhs, 0.0))):
            raise ZeroDivisionError("float division by zero")
        return lhs / rhs
    x = vals[args[0]]
    if not isinstance(x, (int, float, np.ndarray)):  # a series
        return (x.powi(node.exponent) if isinstance(node, Pow)
                else getattr(x, node.func)())
    if isinstance(node, Pow):
        return math_each(math.pow, x, node.exponent)
    return math_each(getattr(math, "log" if node.func == "ln"
                             else node.func), x)
