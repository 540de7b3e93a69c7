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
every case; `jet_program` appends the steps of their partial derivatives
(Griewank & Walther, *Evaluating Derivatives*, ch. 13). One rule decides
how a float evaluation rounds and fails: each function and power of a
float, or of each entry of an array, is one `math` call (`math_each`),
and `+ - * /` round as IEEE floats do; a derivative is more such steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

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


def step_key(node, args) -> tuple:
    """A step's flat key (type, own field, operand slots)."""
    own = _FIELDS[type(node)][0]
    return type(node), own and getattr(node, own), args


def _emit(slots, steps, node, args) -> int:
    """The slot of the step (node, args), appended to steps unless slots
    holds its key: steps with equal keys compute equal values once."""
    key = step_key(node, args)
    if key not in slots:
        slots[key] = len(steps)
        steps.append((node, args))
    return slots[key]


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
        done.append(_emit(slots, steps, node, args))
    return tuple(steps), tuple(done)


def jet_program(program, order: int) -> tuple:
    """(steps, jets): a compiled program with its derivative steps appended,
    jets[k][t] the slots of tree t's k-th partials over `indexing.DERIVS[k]`
    (None if identically 0), each the derivative of the one over its first
    k - 1 indices along its last. A (step, direction) gets one slot; new
    steps are hash-consed (`_emit`), with a 0 or 1 operand folded."""
    steps, outputs = list(program[0]), program[1]
    slots, memo = {step_key(*s): k for k, s in enumerate(steps)}, {}

    def emit(node, *args):
        return _emit(slots, steps, node, args)

    def op(sym, a, b):
        if a is None or b is None:  # a 0 operand
            return (None if sym in "*/" or a is b else a if b is None
                    else b if sym == "+" else emit(Neg(None), b))
        if sym in "*/" and steps[b][0] == Num(1.0):
            return a
        if sym == "*" and steps[a][0] == Num(1.0):
            return b
        return emit(BinOp(sym, None, None), a, b)

    def rule(t, i):  # the derivative of step t along x_i, its operands' known
        node, args = steps[t]
        da = [memo[a, i] for a in args]
        if isinstance(node, Name):
            return emit(Num(1.0)) if node.ident == VARIABLES[i] else None
        if isinstance(node, BinOp):
            (a, b), (da, db) = args, da
            if node.op == "*":
                return op("+", op("*", da, b), op("*", a, db))
            if node.op == "/":  # da/b - (a/b) db/b
                return op("-", op("/", da, b), op("/", op("*", t, db), b))
            return op(node.op, da, db)
        if isinstance(node, Num) or da[0] is None:
            return None
        (a,), (da,) = args, da
        if isinstance(node, Neg):
            return emit(Neg(None), da)
        if isinstance(node, Pow):  # n a^(n-1) da
            n = node.exponent
            if n in (0, 1):  # d a^0 = 0, d a^1 = da
                return (None, da)[n]
            return op("*", op("*", emit(Num(float(n))), a if n == 2
                              else emit(Pow(None, n - 1), a)), da)
        return {"sqrt": lambda: op("/", da, op("*", emit(Num(2.0)), t)),
                "ln": lambda: op("/", da, a),
                "exp": lambda: op("*", t, da),
                "sin": lambda: op("*", emit(Call("cos", None), a), da),
                "cos": lambda: emit(Neg(None), op(
                    "*", emit(Call("sin", None), a), da))}[node.func]()

    def diff(s, i):
        todo = [] if s is None else [s]  # no recursion: sums are deep
        while todo:
            t = todo[-1]
            todo.extend(a for a in steps[t][1] if (a, i) not in memo)
            if todo[-1] == t:
                memo[t, i] = memo[t, i] if (t, i) in memo else rule(t, i)
                todo.pop()
        return memo.get((s, i))

    jets = [[{(): t} for t in outputs]]  # per order and tree: tuple -> slot
    for k in range(1, order + 1):
        jets.append([{c: diff(low[c[:-1]], c[-1]) for c in
                      combinations_with_replacement(range(len(VARIABLES)), k)}
                     for low in jets[-1]])
    return tuple(steps), tuple(tuple(tuple(p.values()) for p in block)
                               for block in jets)


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
