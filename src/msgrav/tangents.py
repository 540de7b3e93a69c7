"""Array-valued forward-mode differentiation for fiber and total derivatives.

`Jet2` is the one dual class, a vector hyper-dual number (Fike & Alonso,
AIAA 2011): a value of any tensor shape, an inner block `a` and an outer
block `b` that trail it with the n1 inner and n2 outer seeds, and the mixed
block `m[..., i, j] = d^2 / (d inner_i d outer_j)`. A block that is
identically zero may be None, so directions never seeded cost nothing. A
`Tan` is the Jet2 with no outer or mixed block, its gradient `g` the inner
block: one evaluation yields every seeded partial (vector forward mode;
Griewank & Walther, *Evaluating Derivatives*, SIAM 2008). `Jet2._new`
returns a Tan exactly for such a result, so a Tan and a Jet2 of one pass
combine. Scalars are the shape-() case.

Arithmetic is elementwise, with numpy broadcasting over the value axes.
Tensor algebra goes through three entry points that take plain arrays,
`Tan` or `Jet2` alike: `einsum` (one contraction with the product rule),
`inv` (4x4 inverse and determinant, by the matrix derivative rules) and
`sqrt`. A dual's value is computed exactly as the plain call computes it,
so a dual pass's value is bitwise the plain evaluation's and can stand in
for it.

Leading-axis rule: any value may carry leading batch axes, one per stacked
sample point, so one pass evaluates a whole stack of points. `einsum`
prefixes `...` to every operand and to its output, so the subscripts name
only the trailing value axes, and the seed axes still trail everything.
Index the value axes from the right with a leading Ellipsis, `t[..., i]`.
Elementwise products broadcast from the right, so a per-point scalar
times a tensor is written `einsum(",ab->ab", s, t)`, never `s * t`. A
single point is the case with no batch axis.

Block-shape rule: a dual's blocks broadcast against its value shape plus
their seed axes: a block may keep unit leading axes, as an identity seed
every row shares does, until it meets a per-row operand. So index leading
axes only on a pass's results, which `fieldspace` returns full-shaped.

Plan and dispatch: a signature is planned once per (subscripts, named
shapes, count of leading axes), greedily on the named axes alone, and a
new leading shape (chunk size) only fills the plan in. Each `einsum`
(subscripts, block pattern) compiles once to the subscripts of its value
and of every product-rule term. A pair step is one np.matmul of
C-contiguous (batch, M, K) and (batch, K, N) operands, the leading axes
among the batch axes, so BLAS sums a stacked row exactly as the row alone
and broadcasts an operand the rows share, never copied per row; traces
and index sums are single-operand np.einsum steps, and a permutation left
at the end is a transposed view.

Finite differences are deliberately absent here; they live only in the
tests.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np


def _scale(d, c, k):
    """Derivative block d (k trailing seed axes) times a value-shaped c."""
    if d is None:
        return None
    return d * np.asarray(c, dtype=float)[(...,) + (None,) * k]


def _outer(a, b):
    """The mixed term of inner block a and outer block b."""
    if a is None or b is None:
        return None
    return a[..., :, None] * b[..., None, :]


def _total(blocks):
    """Sum of the blocks that are not None, drawn one at a time from an
    iterable; after the first addition the sum is a fresh array, so later
    terms of its shape add in place and each term is freed before the next
    forms."""
    total, fresh = None, False
    for d in blocks:
        if d is None:
            continue
        if total is None:
            total = d
        elif fresh and d.shape == total.shape:
            total += d
        else:
            total, fresh = total + d, True
    return total


class Jet2:
    """The one dual: value v, inner block a, outer block b and mixed
    block m, each block an array or None. Every operation forms all of its
    result's blocks at once, and `_new` picks the result's class."""

    __slots__ = ("v", "a", "b", "m")
    # numpy defers binary operators to the dual instead of looping over it
    __array_ufunc__ = None

    def __init__(self, v, a, b, m):
        self.v = np.asarray(v, dtype=float)
        self.a = None if a is None else np.asarray(a, dtype=float)
        self.b = None if b is None else np.asarray(b, dtype=float)
        self.m = None if m is None else np.asarray(m, dtype=float)

    @staticmethod
    def _new(v, a, b, m):
        """A Tan exactly when a result has an inner block and no other."""
        if a is not None and b is None and m is None:
            return Tan(v, a)
        return Jet2(v, a, b, m)

    def __add__(self, o):
        if not isinstance(o, Jet2):
            return self._new(self.v + o, self.a, self.b, self.m)
        return self._new(self.v + o.v, _total((self.a, o.a)),
                         _total((self.b, o.b)), _total((self.m, o.m)))

    __radd__ = __add__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, o):
        return self + (-o)

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        if not isinstance(o, Jet2):
            c = np.asarray(o, dtype=float)
            return self._new(self.v * c, _scale(self.a, c, 1),
                             _scale(self.b, c, 1), _scale(self.m, c, 2))
        sv, ov = self.v, o.v
        return self._new(
            sv * ov,
            _total((_scale(self.a, ov, 1), _scale(o.a, sv, 1))),
            _total((_scale(self.b, ov, 1), _scale(o.b, sv, 1))),
            _total((_scale(self.m, ov, 2), _scale(o.m, sv, 2),
                    _outer(self.a, o.b), _outer(o.a, self.b))))

    __rmul__ = __mul__

    def sqrt(self):
        s, ab = np.sqrt(self.v), _outer(self.a, self.b)
        if ab is not None:  # the f'' a b term, formed only where mixed
            # s v overflows only where the exact factor is below 1.4e-309,
            # and the quotient then reads -0.0
            with np.errstate(over="ignore"):
                ab = _scale(ab, -0.25 / (s * self.v), 2)
        d = 0.5 / s
        return self._new(s, _scale(self.a, d, 1), _scale(self.b, d, 1),
                         _total((_scale(self.m, d, 2), ab)))

    def __abs__(self):
        return self * np.where(self.v < 0, -1.0, 1.0)

    def __getitem__(self, idx):
        """Index the value axes; the seed axes ride along, so a leading
        Ellipsis indexes the trailing value axes."""
        idx = idx if isinstance(idx, tuple) else (idx,)

        def at(d, k):
            return None if d is None else d[idx + (slice(None),) * k]

        return self._new(self.v[idx], at(self.a, 1), at(self.b, 1),
                         at(self.m, 2))


class Tan(Jet2):
    """The Jet2 with no outer or mixed block: value v and gradient g over
    n seed directions."""

    __slots__ = ()

    def __init__(self, v, g):
        self.v = np.asarray(v, dtype=float)
        self.a = np.asarray(g, dtype=float)
        self.b = self.m = None

    @property
    def g(self):
        return self.a

    @classmethod
    def seed(cls, value, n, i=None):
        g = np.zeros(np.shape(value) + (n,))
        if i is not None:
            g[..., i] = 1.0
        return cls(value, g)


# -- entry points over plain arrays, Tan and Jet2 ---------------------------

def _kept(term, keep):
    """term's distinct letters that are in keep, in order."""
    return "".join(c for c in dict.fromkeys(term) if c in keep)


def _prep(term, groups, k, size):
    """(einsum summing the letters outside `groups`, axis permutation,
    trailing matmul shape; None where not needed) for one operand."""
    letters = "".join(groups)
    kept = _kept(term, letters)
    axes = tuple(range(k)) + tuple(k + kept.index(c) for c in letters)
    return (None if kept == term else f"...{term}->...{kept}",
            None if letters == kept else axes,
            tuple(math.prod(size[c] for c in g) for g in groups))


@lru_cache(maxsize=4096)
def _plan(subscripts, shapes):
    """(steps, final) from the named axes of `shapes` and the count of
    leading ones. Each step (i, j, prep_a, prep_b, outer, tail) contracts
    the pair ranked first by np.einsum_path's greedy key on the named
    letters alone (a shared letter, most entries removed, fewest products)
    and appends it; with no memory limit, no step takes three operands.
    `final` is None, axes when only a permutation is left, or an einsum."""
    ins, out = subscripts.replace("...", "").split("->")
    ops = ins.split(",")
    size = {c: n for t, s in zip(ops, shapes)
            for c, n in zip(t, s[len(s) - len(t):])}
    k = max(len(s) - len(t) for t, s in zip(ops, shapes))

    def n(letters):
        return math.prod(map(size.__getitem__, letters))

    def keep(idx):
        return set(out).union(*(t for j, t in enumerate(ops)
                                if j not in idx))

    def rank(idx):
        s, t = sets[idx[0]], sets[idx[1]]
        return (s.isdisjoint(t), n((s | t) & keep(idx)) - n(s) - n(t),
                n(s | t))

    steps = []
    while len(ops) > 1:
        sets = [set(t) for t in ops]
        idx = min(itertools.combinations(range(len(ops)), 2), key=rank)
        kept = keep(idx)
        s, t = ops[idx[0]], ops[idx[1]]
        s1, t1 = _kept(s, kept | set(t)), _kept(t, kept | set(s))
        bat = "".join(c for c in s1 if c in t1 and c in kept)
        con = "".join(c for c in s1 if c in t1 and c not in kept)
        rows = "".join(c for c in s1 if c not in t1)
        cols = "".join(c for c in t1 if c not in s1)
        new = bat + rows + cols
        steps.append(idx + (_prep(s, (bat, rows, con), k, size),
                            _prep(t, (bat, con, cols), k, size),
                            not con, tuple(size[c] for c in new)))
        ops = [o for j, o in enumerate(ops) if j not in idx] + [new]
    final = ops[0]
    if final != out and sorted(final) == sorted(out):
        return tuple(steps), tuple(range(k)) + tuple(k + final.index(c)
                                                     for c in out)
    return tuple(steps), None if final == out else f"...{final}->...{out}"


@lru_cache(maxsize=4096)
def _steps(subscripts, shapes):
    """`_plan` for these full shapes: (each operand's shape padded with
    unit leading axes, or None; steps; final). A step keeps its operands'
    own leading shapes, which np.matmul and `*` broadcast. A new leading
    shape runs only this, which plans nothing."""
    ins = subscripts.replace("...", "").split("->")[0].split(",")
    k = max(len(s) - len(t) for t, s in zip(ins, shapes))
    full = [(1,) * (k + len(t) - len(s)) + s for t, s in zip(ins, shapes)]
    steps, final = _plan(subscripts, tuple((1,) * k + s[k:] for s in full))
    leads, filled = [s[:k] for s in full], []
    for i, j, (ra, xa, ma), (rb, xb, mb), outer, tail in steps:
        lb, la = leads.pop(j), leads.pop(i)
        leads.append(np.broadcast_shapes(la, lb))
        filled.append((i, j, (ra, xa, la + ma), (rb, xb, lb + mb), outer,
                       leads[-1] + tail))
    return (tuple(None if f == s else f for f, s in zip(full, shapes)),
            tuple(filled), final)


def _contract(subscripts, ops):
    """np.einsum of `subscripts`, each term prefixed by `...`, by plan."""
    pads, steps, final = _steps(subscripts, tuple([o.shape for o in ops]))
    ops = [o if s is None else o.reshape(s) for o, s in zip(ops, pads)]
    for i, j, (ra, xa, ma), (rb, xb, mb), outer, shape in steps:
        b, a = ops.pop(j), ops.pop(i)
        a = a if ra is None else np.einsum(ra, a)
        b = b if rb is None else np.einsum(rb, b)
        a = np.ascontiguousarray(a if xa is None else a.transpose(xa))
        b = np.ascontiguousarray(b if xb is None else b.transpose(xb))
        a, b = a.reshape(ma), b.reshape(mb)
        # with nothing summed the product is exact, and cheaper than BLAS
        ops.append((a * b if outer else np.matmul(a, b)).reshape(shape))
    if type(final) is tuple:
        return ops[0].transpose(final)
    return ops[0] if final is None else np.einsum(final, ops[0])


@lru_cache(maxsize=4096)
def _program(subscripts, pattern):
    """The product rule of `einsum` for one signature and block pattern:
    (value, inner, outer, mixed, cross). `pattern` gives per operand None
    (plain) or whether its a, b and m blocks are present; the inner, outer
    and mixed terms are (operand, subscripts) pairs, the cross terms
    (inner operand, outer operand, subscripts), all in contraction order."""
    ins, out = subscripts.split("->")
    ins = ["..." + t for t in ins.split(",")]

    def term(seeds, *marks):
        spec = list(ins)
        for i, s in marks:
            spec[i] += s
        return ",".join(spec) + "->..." + out + seeds

    has = [[i for i, p in enumerate(pattern) if p and p[k]] for k in range(3)]
    return (term(""), *(tuple((i, term(s, (i, s))) for i in has[k])
                        for k, s in enumerate(("Y", "Z", "YZ"))),
            tuple((i, j, term("YZ", (i, "Y"), (j, "Z")))
                  for i in has[0] for j in has[1] if i != j))


def _swap(vals, i, d):
    """vals with operand i replaced by block d."""
    args = list(vals)
    args[i] = d
    return args


def einsum(subscripts, *ops):
    """np.einsum with the product rule over every dual operand.

    Subscripts are explicit (`->` present), use lowercase letters and name
    the trailing value axes only: leading batch axes broadcast through
    `...`. The seed axes of the result trail its value axes.
    """
    pattern = tuple((o.a is not None, o.b is not None, o.m is not None)
                    if isinstance(o, Jet2) else None for o in ops)
    value, inner, outer, mixed, cross = _program(subscripts, pattern)
    vals = [o.v if isinstance(o, Jet2) else o if type(o) is np.ndarray
            else np.asarray(o, dtype=float) for o in ops]
    v = _contract(value, vals)
    if not any(pattern):
        return v
    a = _total(_contract(s, _swap(vals, i, ops[i].a)) for i, s in inner)
    b = _total(_contract(s, _swap(vals, i, ops[i].b)) for i, s in outer)
    m = _total(itertools.chain(
        (_contract(s, _swap(vals, i, ops[i].m)) for i, s in mixed),
        (_contract(s, _swap(_swap(vals, i, ops[i].a), j, ops[j].b))
         for i, j, s in cross)))
    return Jet2._new(v, a, b, m)


def inv(m):
    """Inverse N and determinant of a 4x4 matrix value, exactly
    np.linalg.inv and np.linalg.det of it, so a dual's value is bitwise the
    plain call's. With E = N dM per seed block, dN = -E N and
    d det = det tr E; the mixed blocks are d2N = N dMa N dMb N +
    N dMb N dMa N - N d2M N and d2det = det (tr Ea tr Eb - tr(Ea Eb) +
    tr(N d2M)) (Giles, "An extended collection of matrix derivative
    results for forward and reverse mode AD", 2008)."""
    m0 = getattr(m, "v", m)
    n, det = np.linalg.inv(m0), np.linalg.det(m0)
    if not isinstance(m, Jet2):
        return n, det

    def c(subscripts, *ops):
        if any(o is None for o in ops):
            return None
        return _contract(subscripts, ops)

    ea = c("...ij,...jkY->...ikY", n, m.a)
    eb = c("...ij,...jkZ->...ikZ", n, m.b)
    pa = c("...ijY,...jk->...ikY", ea, n)
    pb = c("...ijZ,...jk->...ikZ", eb, n)
    ta, tb = c("...iiY->...Y", ea), c("...iiZ->...Z", eb)
    cross = c("...ijY,...jkZ->...ikYZ", ea, pb)
    nm = _total((cross, c("...ijZ,...jkY->...ikYZ", eb, pa),
                 c("...ij,...jkYZ,...kl->...ilYZ", -n, m.m, n)))
    dm = _total((None if cross is None else
                 _outer(ta, tb) - c("...ijY,...jiZ->...YZ", ea, eb),
                 c("...ij,...jiYZ->...YZ", n, m.m)))
    return (Jet2._new(n, _scale(pa, -1.0, 1), _scale(pb, -1.0, 1), nm),
            Jet2._new(det, _scale(ta, det, 1), _scale(tb, det, 1),
                      _scale(dm, det, 2)))


def sqrt(x):
    """Elementwise square root of an array or dual."""
    return x.sqrt() if isinstance(x, Jet2) else np.sqrt(x)
