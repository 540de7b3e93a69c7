import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msgrav import catalog, report, tangents
from msgrav.tangents import Jet2, Tan, _total, einsum, inv, sqrt


def rational(x, y):
    # a polynomial: the duals carry no division
    return (x * x * y + 3.0 * x - y * y * x) * (x + y) - 2.0 * y * y * y


def with_sqrt(x, y):
    return sqrt(x * x + y * y) * (2.0 - abs(x * y))


def fd_grad(f, x0, y0, h=1e-6):
    return np.array([
        (f(x0 + h, y0) - f(x0 - h, y0)) / (2 * h),
        (f(x0, y0 + h) - f(x0, y0 - h)) / (2 * h)])


@pytest.mark.parametrize("f", [rational, with_sqrt])
@pytest.mark.parametrize("x0,y0", [(1.3, 0.7), (2.0, -1.1), (0.5, 3.0)])
def test_tan_gradient_matches_finite_differences(f, x0, y0):
    x = Tan.seed(x0, 2, 0)
    y = Tan.seed(y0, 2, 1)
    out = f(x, y)
    assert out.v == pytest.approx(f(x0, y0))
    assert np.allclose(out.g, fd_grad(f, x0, y0), rtol=1e-7, atol=1e-8)


def test_tan_vector_forward_mode_directional():
    # seeding a whole direction gives the directional derivative directly
    x = Tan(1.3, np.array([2.0]))
    y = Tan(0.7, np.array([-1.0]))
    out = rational(x, y)
    g = fd_grad(rational, 1.3, 0.7)
    assert out.g[0] == pytest.approx(2.0 * g[0] - 1.0 * g[1], rel=1e-6)


def test_tan_constant_interaction_leaves_operands_intact():
    g = np.zeros(3)
    t = Tan(2.0, g)
    _ = (t + 1.0) * 4.0 - 0.5
    _ = 3.0 - t, -t
    assert t.v == 2.0 and np.all(t.g == 0.0) and np.all(g == 0.0)


def _jet2_pair(x0, y0):
    # inner seeds: x; outer seeds: y
    x = Jet2(x0, np.array([1.0]), np.zeros(1), np.zeros((1, 1)))
    y = Jet2(y0, np.zeros(1), np.array([1.0]), np.zeros((1, 1)))
    return x, y


@pytest.mark.parametrize("f", [rational, with_sqrt])
@pytest.mark.parametrize("x0,y0", [(1.3, 0.7), (0.8, 2.2)])
def test_jet2_mixed_second_derivative(f, x0, y0):
    x, y = _jet2_pair(x0, y0)
    out = f(x, y)
    h = 1e-5

    def dx(xx, yy):
        t = f(Tan.seed(xx, 1, 0), Tan.seed(yy, 1))
        return t.g[0]

    mixed_fd = (dx(x0, y0 + h) - dx(x0, y0 - h)) / (2 * h)
    assert out.v == pytest.approx(f(x0, y0))
    assert out.a[0] == pytest.approx(fd_grad(f, x0, y0)[0], rel=1e-6)
    assert out.b[0] == pytest.approx(fd_grad(f, x0, y0)[1], rel=1e-6)
    assert out.m[0, 0] == pytest.approx(mixed_fd, rel=1e-5, abs=1e-7)


def test_jet2_same_variable_both_blocks():
    # seeding one variable in both blocks yields d^2f/dx^2 in the mixed slot
    x0 = 1.7
    x = Jet2(x0, np.array([1.0]), np.array([1.0]), np.zeros((1, 1)))
    out = x * x * x
    assert out.m[0, 0] == pytest.approx(6.0 * x0)


def test_jet2_sqrt_second_derivative():
    x0 = 2.3
    x = Jet2(x0, np.array([1.0]), np.array([1.0]), np.zeros((1, 1)))
    out = x.sqrt()
    assert out.m[0, 0] == pytest.approx(-0.25 * x0 ** -1.5)


@given(st.floats(min_value=0.3, max_value=3.0),
       st.floats(min_value=0.3, max_value=3.0))
@settings(max_examples=30, deadline=None)
def test_jet2_matches_tan_on_first_order(x0, y0):
    x, y = _jet2_pair(x0, y0)
    out2 = rational(x, y)
    out1 = rational(Tan.seed(x0, 2, 0), Tan.seed(y0, 2, 1))
    assert out2.a[0] == pytest.approx(out1.g[0], rel=1e-12)
    assert out2.b[0] == pytest.approx(out1.g[1], rel=1e-12)


# -- tensor-valued duals through the entry points ---------------------------

_RNG = np.random.default_rng(7)
M0 = np.diag([-1.0, 1.5, 2.0, 0.7]) + 0.1 * _RNG.normal(size=(4, 4))
DA, DB, DC, P = (0.3 * _RNG.normal(size=(4, 4)) for _ in range(4))


def inverse(m):
    return inv(m)[0]


def density(m):
    return sqrt(abs(inv(m)[1]))


def product(m):
    # a plain operand between two duals, then a scalar-times-tensor product
    return einsum("ij,jk,kl->il", m, P, m) + einsum("ij,ji->", m, m) * m


@pytest.mark.parametrize("f", [inverse, density, product])
def test_tensor_tan_matches_finite_differences(f):
    out = f(Tan(M0, np.stack([DA, DB], axis=-1)))
    assert np.allclose(out.v, f(M0), rtol=1e-13, atol=1e-14)
    h = 1e-6
    for k, d in enumerate((DA, DB)):
        fd = (f(M0 + h * d) - f(M0 - h * d)) / (2 * h)
        assert np.allclose(out.g[..., k], fd, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("f", [inverse, density, product])
def test_tensor_jet2_mixed_second_order(f):
    # M(s, t) = M0 + s DA + t DB + s t DC: inner seed s, outer seed t
    out = f(Jet2(M0, DA[..., None], DB[..., None], DC[..., None, None]))

    def at(s, t):
        return f(M0 + s * DA + t * DB + s * t * DC)

    h = 1e-4
    assert np.allclose(out.a[..., 0], (at(h, 0) - at(-h, 0)) / (2 * h),
                       rtol=1e-6, atol=1e-7)
    assert np.allclose(out.b[..., 0], (at(0, h) - at(0, -h)) / (2 * h),
                       rtol=1e-6, atol=1e-7)
    mixed = (at(h, h) - at(h, -h) - at(-h, h) + at(-h, -h)) / (4 * h * h)
    assert np.allclose(out.m[..., 0, 0], mixed, rtol=1e-5, atol=1e-6)


# -- the leading-axis rule: row i of a stack equals the unstacked call -------

def _stack_rows(f, rows):
    """f on the stacked rows, and f on each row alone."""
    stacked = f(*(np.stack(r) for r in zip(*rows)))
    return stacked, [f(*r) for r in rows]


def _same_dual(stacked, i, single):
    return all(
        (a is None and b is None) or np.array_equal(a[i], b)
        for a, b in zip((stacked.v, stacked.a, stacked.b, stacked.m),
                        (single.v, single.a, single.b, single.m)))


def test_batched_einsum_tan_rows_equal_unbatched():
    rng = np.random.default_rng(11)
    rows = [(rng.normal(size=(4, 4)), rng.normal(size=(4, 4, 3)),
             rng.normal(size=(4, 4, 4)), rng.normal(size=(4, 4, 4, 3)))
            for _ in range(5)]

    def f(v, g, w, h):
        t, u = Tan(v, g), Tan(w, h)
        return (einsum("ij,jkl,lm->ikm", t, u, P)
                + einsum(",ij->ij", einsum("ii->", t), t)[..., None])

    stacked, singles = _stack_rows(f, rows)
    assert stacked.v.shape == (5, 4, 4, 4) and stacked.g.shape[-1] == 3
    for i, single in enumerate(singles):
        assert _same_dual(stacked, i, single)


def _cross_terms(v, a, w, b):
    # one operand seeded inner, the other outer: the mixed block is all
    # cross terms
    x, y = Jet2(v, a, None, None), Jet2(w, None, b, None)
    return einsum("ij,jk,ki->", x, y, x) * einsum("ij,ij->", y, y)


def _cross_rows(seed):
    rng = np.random.default_rng(seed)
    return [(rng.normal(size=(4, 4)), rng.normal(size=(4, 4, 2)),
             rng.normal(size=(4, 4)), rng.normal(size=(4, 4, 3)))
            for _ in range(4)]


def test_batched_einsum_jet2_cross_terms_rows_equal_unbatched():
    stacked, singles = _stack_rows(_cross_terms, _cross_rows(12))
    assert stacked.m.shape == (4, 2, 3)
    for i, single in enumerate(singles):
        assert _same_dual(stacked, i, single)


def test_outer_block_is_the_tan_gradient_over_outer_seeds():
    # the outer block of a Jet2 pass is bit for bit the gradient of a Tan
    # pass over the outer seeds alone
    v, a, w, b = map(np.stack, zip(*_cross_rows(15)))
    out = _cross_terms(v, a, w, b)
    y = Tan(w, b)
    tan = einsum("ij,jk,ki->", v, y, v) * einsum("ij,ij->", y, y)
    assert np.array_equal(out.b, tan.g)


def test_long_chain_of_outer_blocks_does_not_recurse():
    x, y = Jet2(np.ones(3), None, np.ones((3, 2)), None), Tan(np.ones(3),
                                                             np.ones((3, 2)))
    for _ in range(5000):
        x, y = x * 1.0001 + 1.0, y * 1.0001 + 1.0
    assert np.array_equal(x.b, y.g)


def test_batched_inv_rows_equal_unbatched():
    rng = np.random.default_rng(13)
    rows = [(M0 + 0.05 * rng.normal(size=(4, 4)),
             rng.normal(size=(4, 4, 2)), rng.normal(size=(4, 4, 3)),
             rng.normal(size=(4, 4, 2, 3))) for _ in range(4)]
    for kind in ("array", "tan", "jet2"):
        def f(v, a, b, m):
            if kind == "array":
                return inv(v)
            return inv(Tan(v, a) if kind == "tan" else Jet2(v, a, b, m))

        stacked, singles = _stack_rows(f, rows)
        for i, (n, det) in enumerate(singles):
            if kind == "array":
                assert np.array_equal(stacked[0][i], n)
                assert np.array_equal(stacked[1][i], det)
            else:
                assert _same_dual(stacked[0], i, n)
                assert _same_dual(stacked[1], i, det)


@pytest.mark.parametrize("lead", [(), (3,)])
def test_inverse_dual_values_are_the_plain_calls(lead):
    # a dual pass's value stands in for the plain call, so it must be the
    # plain call's bit for bit, for every seed layout
    from msgrav.geometry import metric_inverse_density
    rng = np.random.default_rng(14)
    v = M0 + 0.05 * rng.normal(size=lead + (4, 4))
    a, b = rng.normal(size=lead + (4, 4, 2)), rng.normal(size=lead + (4, 4, 3))
    m = rng.normal(size=lead + (4, 4, 2, 3))
    want = inv(v) + metric_inverse_density(v)
    for dual in (Tan(v, a), Jet2(v, a, b, m), Jet2(v, None, b, None),
                 Jet2(v, a, None, m)):
        got = inv(dual) + metric_inverse_density(dual)
        for g, w in zip(got, want):
            assert np.array_equal(g.v, w)


# -- the planned contraction executor ---------------------------------------

# Signatures the kernels contract (named axes only; Y and Z are seed axes):
# traces, permutations, index sums, pairs, 3-5 operands, the seed-carrying
# product-rule terms, and a greedy fallback of three operands at once.
PLANNED = ["ii->", "snm->smn", "abca->cb", "iim->m", ",ab->ab", "ij,jk->ik",
           "ij,ji->", "cb,sa->abcs", "rs,smn->rmn", "cbs,sca->ab",
           "ij,jk,kl->il", "ijY,jk,kl->ilY", "rk,klr,lba->ab",
           "rk,klb,ls,rsa->ab", "rkY,klb,ls,rsa->abY", "ab,cs,sabc->",
           "ab,cs,sabcY->Y", "ab,ck,ls,klc,sba->", "ab,ckZ,ls,klcY,sba->YZ",
           "mn,ikm,kinYZ->YZ", "abYZ,ab->YZ"]
SIZES = {"Y": 6, "Z": 5}


def planned_operands(rng, subscripts, lead, bare=(), unit=()):
    """Random operands of a signature with the leading shape `lead`; the
    operands numbered in `bare` carry no leading axes (constants), those
    in `unit` unit ones (seeds)."""
    terms = subscripts.split("->")[0].split(",")
    return [rng.normal(size=(() if k in bare else (1,) * len(lead)
                             if k in unit else lead)
                       + tuple(SIZES.get(c, 4) for c in t))
            for k, t in enumerate(terms)]


def dotted(subscripts):
    ins, out = subscripts.split("->")
    return ",".join("..." + t for t in ins.split(",")) + "->..." + out


@pytest.mark.parametrize("subscripts", PLANNED)
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_planned_contraction_matches_einsum(subscripts, lead):
    from msgrav.tangents import _contract
    rng = np.random.default_rng(len(subscripts) + len(lead))
    bare = {0} if lead and "," in subscripts else set()
    unit = {subscripts.count(",")} if lead else set()
    for ops in (planned_operands(rng, subscripts, lead),
                planned_operands(rng, subscripts, lead, bare),
                planned_operands(rng, subscripts, lead, unit=unit)):
        want = np.einsum(dotted(subscripts), *ops)
        got = _contract(dotted(subscripts), ops)
        # each entry within 1e-14 of the sum of its terms' magnitudes
        scale = np.einsum(dotted(subscripts), *map(np.abs, ops))
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-14 * scale), subscripts


@pytest.mark.parametrize("subscripts", PLANNED)
def test_planned_stack_rows_equal_rows_alone(subscripts):
    # an operand shared by the rows, with no leading axes or unit ones,
    # meets each row as that row alone would meet it
    from msgrav.tangents import _contract
    rng = np.random.default_rng(7)
    n_ops = subscripts.count(",") + 1
    modes = [({0}, set()), (set(), {n_ops - 1})] if n_ops > 1 else [
        (set(), set())]
    for n in (1, 2, 3, 8):
        for bare, unit in modes:
            ops = planned_operands(rng, subscripts, (n,), bare, unit)
            stacked = _contract(dotted(subscripts), ops)
            for i in range(n):
                row = [o if k in bare else o[0] if k in unit else o[i]
                       for k, o in enumerate(ops)]
                assert np.array_equal(stacked[i],
                                      _contract(dotted(subscripts), row)), \
                    (subscripts, n, i, unit)


# -- the compiled product rule against its term-by-term reference -----------

def reference_einsum(subscripts, *ops):
    """The product rule term by term, each term's subscripts spelled out on
    every call: the programs `einsum` compiles must make the same
    contractions, in the same order, with the same results bit for bit."""
    ins, out = subscripts.split("->")
    ins = ["..." + i for i in ins.split(",")]
    out = "..." + out
    vals = [getattr(o, "v", o) for o in ops]
    v = tangents._contract(",".join(ins) + "->" + out, vals)
    duals = [i for i, o in enumerate(ops) if isinstance(o, Jet2)]
    if not duals:
        return v
    first = ops[duals[0]]

    def term(blocks, seeds):
        # blocks: operand index -> (derivative block, its seed letters)
        spec = [ins[i] + blocks[i][1] if i in blocks else ins[i]
                for i in range(len(vals))]
        args = [blocks[i][0] if i in blocks else vals[i]
                for i in range(len(vals))]
        return tangents._contract(",".join(spec) + "->" + out + seeds, args)

    def block(name, seeds):
        return _total(term({i: (getattr(ops[i], name), seeds)}, seeds)
                      for i in duals if getattr(ops[i], name) is not None)

    a, b = block("a", "Y"), block("b", "Z")
    cross = (term({i: (ops[i].a, "Y"), j: (ops[j].b, "Z")}, "YZ")
             for i in duals for j in duals
             if i != j and ops[i].a is not None and ops[j].b is not None)
    return first._new(v, a, b,
                      _total(itertools.chain([block("m", "YZ")], cross)))


# a Jet2 kind names its blocks present
JET_KINDS = ["", "a", "b", "m", "ab", "am", "bm", "abm"]
KINDS = ["plain", "tan"] + JET_KINDS
PRODUCT = ["ii->", "snm->smn", "ij,jk->ik", "ij,ji->", ",ab->ab",
           "abc,cd->dba", "ij,jk,kl->il", "ij,jk,ki->"]


def product_operand(rng, kind, term, lead):
    """A random operand of one kind; a plain one is a constant, without
    the leading axes."""
    shape = (4,) * len(term)
    if kind == "plain":
        return rng.normal(size=shape)
    full = lead + shape
    if kind == "tan":
        return Tan(rng.normal(size=full), rng.normal(size=full + (3,)))
    a, b, m = (rng.normal(size=full + seeds) if c in kind else None
               for c, seeds in (("a", (3,)), ("b", (2,)), ("m", (3, 2))))
    return Jet2(rng.normal(size=full), a, b, m)


def product_cases(subscripts):
    """Operand kinds to try: every combination for one or two operands,
    a seeded sample of 60 for three."""
    n = subscripts.count(",") + 1
    combos = list(itertools.product(KINDS, repeat=n))
    if n > 2:
        rng = np.random.default_rng(n)
        combos = [combos[k] for k in rng.choice(len(combos), 60,
                                                replace=False)]
    return combos


def _bits(x):
    return None if x is None else (x.shape, x.dtype, x.tobytes())


@pytest.mark.parametrize("subscripts", PRODUCT)
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_einsum_programs_match_term_by_term_reference(monkeypatch,
                                                      subscripts, lead):
    real, log = tangents._contract, []

    def logged(subscripts, ops):
        log.append(subscripts)
        return real(subscripts, ops)

    monkeypatch.setattr(tangents, "_contract", logged)
    terms = subscripts.split("->")[0].split(",")
    repeat = subscripts == "ij,jk,ki->"
    for k, kinds in enumerate(product_cases(subscripts)):
        runs = []
        for f in (reference_einsum, einsum):
            rng = np.random.default_rng(k)
            ops = [product_operand(rng, kind, t, lead)
                   for kind, t in zip(kinds, terms)]
            if repeat:
                # one operand twice
                ops[2] = ops[0]
            log.clear()
            out = f(subscripts, *ops)
            blocks = [out.v, out.a, out.m, out.b] if isinstance(
                out, Jet2) else [np.asarray(out)]
            runs.append((list(log), [_bits(x) for x in blocks]))
        assert runs[1] == runs[0], (subscripts, lead, kinds)


# -- one dual class: a Tan is the Jet2 with no outer or mixed block ---------

def _one_class_operands(seed):
    rng = np.random.default_rng(seed)
    v = M0 + 0.05 * rng.normal(size=(4, 4))
    return (v, rng.normal(size=(4, 4, 3)), rng.normal(size=(4, 4, 2)),
            rng.normal(size=(4, 4, 3, 2)))


def test_result_class_follows_its_blocks():
    v, a, b, m = _one_class_operands(21)
    t, u = Tan(v, a), Tan(v.T, a)
    for out in (t + u, t + 1.0, t - u, 1.0 - t, t * u, t * 2.0,
                sqrt(abs(t)), abs(t), t[..., 0], t[0, 1],
                einsum("ij,jk->ik", t, u), einsum("ij,jk->ik", t, P),
                *inv(t)):
        assert type(out) is Tan
    # a Jet2 whose result has an inner block and no other is a Tan, with
    # the inner block the Tan pass gives, bit for bit
    j = Jet2(v, a, None, None)
    for got, want in ((j * 2.0, t * 2.0),
                      (einsum("ij,jk->ik", j, P), einsum("ij,jk->ik", t, P)),
                      (einsum("ij,jk,kl->il", P, j, DA),
                       einsum("ij,jk,kl->il", P, t, DA))):
        assert type(got) is Tan
        assert _bits(got.v) == _bits(want.v)
        assert _bits(got.a) == _bits(want.a)
    # an outer or mixed block keeps the Jet2, as does a dual with no block
    for out in (Jet2(v, None, b, None) * 2.0, Jet2(v, a, b, None) + 1.0,
                Jet2(v, a, None, m)[..., 0], t * Jet2(v, None, b, None),
                einsum("ij,jk->ik", t, Jet2(v, None, b, None)),
                inv(Jet2(v, a, b, m))[0], Jet2(v, None, None, None) * 2.0):
        assert type(out) is Jet2


def test_tan_and_jet2_of_one_pass_combine():
    # a Tan combines with a Jet2 exactly as the Jet2 of its blocks does
    v, a, b, m = _one_class_operands(22)
    t, s = Tan(v.T, a), Tan(1.7, a[0, 0])
    t2, s2 = (Jet2(d.v, d.a, None, None) for d in (t, s))
    for j in (Jet2(v, a, b, m), Jet2(v, None, b, None)):
        for got, want in ((t * j, t2 * j), (j + t, j + t2),
                          (einsum(",ab->ab", s, j),
                           einsum(",ab->ab", s2, j))):
            assert type(got) is Jet2
            assert ([_bits(x) for x in (got.v, got.a, got.b, got.m)]
                    == [_bits(x) for x in (want.v, want.a, want.b, want.m)])


# the last pair leaves the output letters permuted, or one operand is
# permuted: no summed letter, so np.einsum's own result is exact
PERMUTED = ["snm->smn", "ab->ba", "abc->cab", "ab,ab->ba", "cb,sa->abcs",
            "abc,ad->dcba"]


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_a_final_permutation_is_a_transpose(monkeypatch, lead):
    from msgrav.tangents import _contract, _plan, _program
    rng = np.random.default_rng(16)
    cases = [(s, planned_operands(rng, s, lead)) for s in PERMUTED]
    want = [np.einsum(dotted(s), *ops) for s, ops in cases]
    # with a sum in the last pair: the transpose of the unpermuted result
    summed = [planned_operands(rng, "ij,jk->ik", lead),
              planned_operands(rng, "rk,klb,ls->bsr", lead)]
    natural = [_contract(dotted("ij,jk->ik"), summed[0]),
               _contract(dotted("rk,klb,ls->rbs"), summed[1])]
    calls = []
    monkeypatch.setattr(np, "einsum", lambda *a: calls.append(a))
    for (s, ops), w in zip(cases, want):
        assert type(_plan(dotted(s), tuple(o.shape for o in ops))[1]) is tuple
        got = _contract(dotted(s), ops)
        assert got.shape == w.shape and np.array_equal(got, w), s
    got = _contract(dotted("ij,jk->ki"), summed[0])
    assert np.array_equal(got, np.swapaxes(natural[0], -1, -2))
    got = _contract(dotted("rk,klb,ls->bsr"), summed[1])
    assert np.array_equal(got, np.moveaxis(natural[1], -3, -1))
    assert not calls
    # a signature and block pattern seen before compiles nothing again
    u, w = planned_operands(rng, "ab,ab->ba", lead)
    x = Jet2(u, None, rng.normal(size=lead + (4, 4, 2)), None)

    def misses():
        return _program.cache_info().misses, _plan.cache_info().misses

    einsum("ab,ab->ba", x, w).b
    before = misses()
    out = einsum("ab,ab->ba", x, w)
    assert misses() == before
    assert np.array_equal(out.b, np.swapaxes(x.b, -2, -3)
                          * np.swapaxes(w, -1, -2)[..., None])
    assert misses() == before and not calls


def test_a_new_chunk_size_plans_nothing_again():
    # a plan reads the named shapes and the count of leading axes, not
    # the leading sizes: once each model has run one chunk, chunks of
    # other sizes (stacked trials included) search no order again
    from msgrav.tangents import _plan
    spec = catalog.builtin("kasner")
    for model in ("eh", "ep"):
        report.run_check(report.CheckConfig(model=model, spec=spec,
                                            points=2, seed=5))
    misses = _plan.cache_info().misses
    for model in ("eh", "ep"):
        for n in (1, 3, report.CHUNK_POINTS + 3):
            report.run_check(report.CheckConfig(model=model, spec=spec,
                                                points=n, seed=n))
    assert _plan.cache_info().misses == misses


def test_plan_and_program_caches_hold_every_chunk_size():
    # every builtin, both models, one chunk of each size: no entry of
    # any cache is evicted, so no chunk plans or compiles twice
    from msgrav.tangents import _plan, _program, _steps
    for name in catalog.list_builtins():
        spec = catalog.builtin(name)
        for model in ("eh", "ep"):
            for n in (1, 2, 3, 8):
                report.run_check(report.CheckConfig(
                    model=model, spec=spec, points=n, seed=n, threads=1))
    for cache in (_plan, _steps, _program):
        info = cache.cache_info()
        assert info.currsize < info.maxsize, (cache.__name__, info)
