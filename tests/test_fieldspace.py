import itertools

import numpy as np
import pytest

from conftest import interior_points, tree_blocks
from test_generic_sections import generic_section
from msgrav import catalog
from msgrav.errors import ConfigError, DegenerateMetricError
from msgrav.eh import lagrangian_fn
from msgrav.fieldspace import (EH_BLOCKS, EH_DIM_J3, EH_OFF, EP_BLOCKS,
                               EP_DIM_J1, EP_OFF, ORDER, EHJetPoint,
                               EPJetPoint, fiber_gradient, tangent_lifts,
                               total_derivatives, trial_stack)
from msgrav.indexing import DERIVS, DIM, PAIRS
from msgrav.series import JetScalar, derivative_table, multi_indices

ETA = np.array([-1.0, 0, 0, 0, 1.0, 0, 0, 1.0, 0, 1.0])


def total_derivative(f, tau, p):
    """D_tau f alone: the base derivative plus the jet-coordinate shift
    terms, read off the pass over all four directions."""
    return total_derivatives(f, p)[..., tau]


def schw_point():
    spec = catalog.builtin("schwarzschild")
    return catalog.eh_point_at(spec, (0.0, 5.0, 1.2, 3.0))


def test_dimension_counts():
    # the bundle coordinates are the blocks before the first derivatives
    assert EH_OFF["dg"] == 14
    assert EH_DIM_J3 == 354
    assert EP_OFF["dg"] == 78
    assert EP_DIM_J1 == 374


def test_flat_layout_is_a_bijection():
    # a coordinate (block, *index) sits at OFF[block] + its ravelled index
    for blocks, off, dim in ((EH_BLOCKS, EH_OFF, EH_DIM_J3),
                             (EP_BLOCKS, EP_OFF, EP_DIM_J1)):
        idx = [off[name] + np.ravel_multi_index(i, shape)
               for name, shape in blocks.items() for i in np.ndindex(shape)]
        assert sorted(idx) == list(range(dim))


# The coordinate order of each jet space, (block, flat offset), written
# out independently of the block tables.
EH_ORDER = (("x", 0), ("g", 4), ("dg", 14), ("d2g", 54), ("d3g", 154))
EP_ORDER = (("x", 0), ("g", 4), ("Gamma", 14), ("dg", 78), ("dGamma", 118))
# block -> (the block its total-derivative shift is read from, its order)
SHIFTED_FROM = {"g": ("dg", 0), "dg": ("d2g", 1), "d2g": ("d3g", 2),
                "Gamma": ("dGamma", 0)}


def _shift(p, name, tau):
    """D_tau of every coordinate of a block, in its storage order: the
    entry of the next block at the coordinate's derivative tuple plus tau."""
    if name == "x":
        return np.eye(DIM)[tau]
    nxt, k = SHIFTED_FROM[name]
    rows = getattr(p, nxt).reshape(-1, len(DERIVS[k + 1]))
    return np.array([[row[DERIVS[k + 1].index(tuple(sorted(c + (tau,))))]
                      for c in DERIVS[k]] for row in rows]).ravel()


@pytest.mark.parametrize("model", ["eh", "ep"])
def test_tangent_lifts_follow_the_layout(model):
    # the lifts cover each model's Cartan-form support: (x, g, dg) for eh
    # and (x, g, Gamma) for ep, the blocks before the width
    spec = catalog.builtin("schwarzschild")
    x = (0.0, 5.0, 1.2, 3.0)
    if model == "eh":
        p, order, width, dim = catalog.eh_point_at(spec, x), EH_ORDER, 54, 354
    else:
        p, order, width, dim = catalog.ep_point_at(spec, x), EP_ORDER, 78, 374
    lifts = tangent_lifts(p, width)
    assert lifts.shape == (DIM, width)
    ends = [off for _, off in order[1:]]
    for (name, off), end in zip(order, ends):
        if off >= width:
            break
        for tau in range(DIM):
            assert np.array_equal(lifts[tau, off:end], _shift(p, name, tau))
    # the top block of a chain has no shift, and a lift ends on a block
    with pytest.raises(ConfigError, match="no total-derivative shift"):
        tangent_lifts(p, dim)
    with pytest.raises(ConfigError, match="block boundary"):
        tangent_lifts(p, width - 1)


def test_point_shape_validation():
    with pytest.raises(ConfigError):
        EHJetPoint(x=np.zeros(4), g=ETA, dg=np.zeros((10, 3)),
                   d2g=np.zeros((10, 10)), d3g=np.zeros((10, 20)))
    # the d2g block is checked through the same tables
    with pytest.raises(ConfigError):
        EPJetPoint(x=np.zeros(4), g=ETA, Gamma=np.zeros((4, 4, 4)),
                   dg=np.zeros((10, 4)), dGamma=np.zeros((4, 4, 4, 4)),
                   d2g=np.zeros((10, 20)))
    # the jets stop at order 3: no point carries a higher block
    with pytest.raises(TypeError):
        EHJetPoint(x=np.zeros(4), g=ETA, dg=np.zeros((10, 4)),
                   d2g=np.zeros((10, 10)), d3g=np.zeros((10, 20)),
                   d4g=np.zeros((10, 35)))
    with pytest.raises(TypeError):
        EPJetPoint(x=np.zeros(4), g=ETA, Gamma=np.zeros((4, 4, 4)),
                   dg=np.zeros((10, 4)), dGamma=np.zeros((4, 4, 4, 4)),
                   d2g=np.zeros((10, 10)), d2Gamma=np.zeros((4, 4, 4, 10)))
    # and every ep point carries its d2g block
    with pytest.raises(TypeError):
        EPJetPoint(x=np.zeros(4), g=ETA, Gamma=np.zeros((4, 4, 4)),
                   dg=np.zeros((10, 4)), dGamma=np.zeros((4, 4, 4, 4)))


def test_point_freezes_its_blocks_not_the_callers_arrays():
    p = schw_point()
    g, d2g = p.g.copy(), p.d2g.copy()
    q = EHJetPoint(x=p.x, g=g, dg=p.dg, d2g=d2g, d3g=p.d3g)
    assert g.flags.writeable and d2g.flags.writeable
    g[0] = g[0]  # the caller's own array stays usable
    for name in ("x", "g", "dg", "d2g", "d3g"):
        block = getattr(q, name)
        assert not block.flags.writeable, name
        with pytest.raises(ValueError):
            block[...] = 0.0


def test_degenerate_metric_rejected():
    bad = ETA.copy()
    bad[0] = 0.0
    with pytest.raises(DegenerateMetricError):
        EHJetPoint(x=np.zeros(4), g=bad, dg=np.zeros((10, 4)),
                   d2g=np.zeros((10, 10)), d3g=np.zeros((10, 20)))


def test_wrong_signature_rejected():
    # a point built from caller arrays is always checked; only the
    # module's private token skips the check, not any value a caller passes
    twotime = np.array([-1.0, 0, 0, 0, -1.0, 0, 0, 1.0, 0, 1.0])
    riemannian = np.array([1.0, 0, 0, 0, 1.0, 0, 0, 1.0, 0, 1.0])
    for g, derived in itertools.product((twotime, riemannian), (None, True)):
        with pytest.raises(DegenerateMetricError):
            EPJetPoint(x=np.zeros(4), g=g, Gamma=np.zeros((4, 4, 4)),
                       dg=np.zeros((10, 4)), dGamma=np.zeros((4, 4, 4, 4)),
                       d2g=np.zeros((10, 10)), _derived=derived)
        with pytest.raises(DegenerateMetricError):
            EHJetPoint(x=np.zeros(4), g=g, dg=np.zeros((10, 4)),
                       d2g=np.zeros((10, 10)), d3g=np.zeros((10, 20)),
                       _derived=derived)


def test_prolongation_is_holonomic(tmp_path):
    # each jet block entry is the section's partial derivative, m! times a
    # Taylor coefficient: it equals `JetScalar.derivative` of the
    # component's own series, at the orders ep and eh read, so symmetric
    # storage agrees across index orderings; the generic sections fill the
    # mixed partials, x0-x3 ones among them, and the eh point holds the
    # blocks as they are
    specs = (catalog.builtin("schwarzschild"),
             generic_section(tmp_path, 0, 0.1),
             generic_section(tmp_path, 1, 0.1))
    for spec, order in itertools.product(specs, (2, ORDER)):
        xs = np.array(interior_points(spec, 2, seed=7))
        blocks = catalog.metric_jet_at(spec, xs, order)
        want = tree_blocks(spec, spec.components, xs, order)
        assert len(blocks) == order + 1
        for block, entries in zip(blocks, want):
            assert np.array_equal(block, entries)
        if order == ORDER:
            p = catalog.eh_point_at(spec, xs)
            for name, block in zip(("g", "dg", "d2g", "d3g"), blocks):
                assert np.array_equal(getattr(p, name), block), name


def test_derivatives_gather_equals_per_entry_derivative():
    # the gather `catalog._jets_at` makes of a stack of series, coefficients
    # at `derivative_table`'s positions times its weights, equals
    # `JetScalar.derivative` of each series entry by entry, at every order
    # the catalog reads and beyond, with the stack's leading axis kept
    rng = np.random.default_rng(3)
    base = rng.uniform(-1, 1, (5, DIM))
    for order in (2, 3, 4):
        series = [JetScalar(order, base,
                            rng.normal(size=(5, len(multi_indices(order)))))
                  for _ in range(10)]
        coeffs = np.stack([s.coeffs for s in series], axis=-2)
        for combos in DERIVS[:order + 1]:
            want = np.stack([np.stack([s.derivative(
                [c.count(mu) for mu in range(DIM)]) for c in combos],
                axis=-1) for s in series], axis=-2)
            pos, weights = derivative_table(order, combos)
            got = coeffs[..., pos] * weights
            assert got.shape == want.shape == (5, 10, len(combos))
            assert np.array_equal(got, want)


def test_fiber_gradient_matches_rebuilt_points():
    p = schw_point()
    exact = fiber_gradient(lagrangian_fn, p, ["g"]).g[4]
    h = 1e-6
    vals = []
    for s in (+h, -h):
        g = p.g.copy()
        g[4] += s
        q = EHJetPoint(x=p.x, g=g, dg=p.dg, d2g=p.d2g, d3g=p.d3g)
        vals.append(lagrangian_fn(q))
    assert exact == pytest.approx((vals[0] - vals[1]) / (2 * h), rel=1e-6)


def test_fiber_gradient_batched_equals_single():
    p = schw_point()
    coords = [("g", 4), ("dg", 4, 1), ("d2g", 4, 4)]
    batched = fiber_gradient(lagrangian_fn, p, ["g", "dg", "d2g"]).g
    # each coordinate's partial from a pass over its block alone
    singles = [fiber_gradient(lagrangian_fn, p, [c[0]]).g[
        np.ravel_multi_index(c[1:], EH_BLOCKS[c[0]])] for c in coords]
    picked = batched[[EH_OFF[c[0]] - EH_OFF["g"] + np.ravel_multi_index(
        c[1:], EH_BLOCKS[c[0]]) for c in coords]]
    assert np.allclose(picked, singles, rtol=1e-12)


def test_seed_blocks_are_shared_unit_lead_constants(monkeypatch):
    # identity seeds are read-only, carry unit leading axes and are one
    # copy per (block shapes, leading-axis count); the passes they seed
    # are bit for bit the passes seeded with full-lead broadcast seeds
    from msgrav import eh, ep, fieldspace
    spec = catalog.builtin("kasner")
    xs = np.array([(1.5, 0.2, -0.3, 0.4), (1.2, -0.1, 0.3, 0.2),
                   (1.8, 0.3, 0.1, -0.2)])
    peh, pep = catalog.eh_point_at(spec, xs), catalog.ep_point_at(spec, xs)
    seeds = fieldspace._identity_seeds(pep, ["g", "Gamma"])
    for name, s in seeds.items():
        assert s.shape == (1,) + EP_BLOCKS[name] + (74,)
        assert not s.flags.writeable
    again = fieldspace._identity_seeds(catalog.ep_point_at(spec, xs[:2]),
                                       ["g", "Gamma"])
    assert all(again[b] is seeds[b] for b in seeds)
    passes = [
        lambda: fiber_gradient(eh.lagrangian_fn, peh, ["dg"]),
        lambda: fiber_gradient(eh.lagrangian_fn, peh, ["d2g"]),
        lambda: fieldspace.fiber_hessian(eh.lagrangian_fn, peh, ["dg"],
                                         ["g", "dg"]),
        lambda: fiber_gradient(ep.legendre_fn, pep, ["dGamma"]),
        lambda: fiber_gradient(ep.legendre_fn, pep, ["g", "Gamma"])]
    got = [f() for f in passes]
    real = fieldspace._identity_seeds
    monkeypatch.setattr(fieldspace, "_identity_seeds", lambda p, blocks: {
        b: np.broadcast_to(s, p.lead + s.shape[len(p.lead):])
        for b, s in real(p, blocks).items()})
    def parts(out):
        if isinstance(out, np.ndarray):
            return [out]
        if isinstance(out, tuple):
            return [x for o in out for x in parts(o)]
        return [out.v, out.g]

    for g, f in zip(got, passes):
        for x, y in zip(parts(g), parts(f()), strict=True):
            assert x.shape[:1] == (3,) and x.shape == y.shape
            assert np.array_equal(x, y)


def _trial_rows_per_block(p, blocks, trials, seed):
    """The trial blocks drawn trial by trial, block by block, one call per
    point and block: the reference for trial_stack's single draw."""
    rngs = [np.random.default_rng(s)
            for s in np.broadcast_to(seed, p.lead).ravel().tolist()]

    def perturbed(a):
        u = np.concatenate([r.uniform(-0.1, 0.1, size=a.size // len(rngs))
                            for r in rngs])
        return a + u.reshape(a.shape) * (1.0 + np.abs(a))

    rows = [[getattr(p, b) for b in blocks]] + [
        [perturbed(getattr(p, b)) for b in blocks] for _ in range(trials)]
    return dict(zip(blocks, map(np.stack, zip(*rows))))


@pytest.mark.parametrize("model, blocks", [("eh", ("d2g", "d3g")),
                                           ("ep", ("dg", "dGamma"))])
def test_trial_stack_rows_equal_the_per_block_draws(model, blocks):
    # one draw per point, read trial by trial and block by block, gives the
    # numbers of one draw per (trial, block) and point, in the same order
    spec = catalog.builtin("kasner")
    xs = np.array([(1.5, 0.2, -0.3, 0.4), (1.2, -0.1, 0.3, 0.2),
                   (1.8, 0.3, 0.1, -0.2)])
    at = catalog.eh_point_at if model == "eh" else catalog.ep_point_at
    for trials in (1, 3):
        for p, seed in ((at(spec, xs), np.array([7, 8, 9])),
                        (at(spec, xs[0]), 11)):
            got = trial_stack(p, blocks, trials, seed)
            want = _trial_rows_per_block(p, blocks, trials, seed)
            for b in blocks:
                assert np.array_equal(getattr(got, b), want[b])
            assert np.array_equal(got.g[1:], np.broadcast_to(
                p.g, got.g[1:].shape))


def test_total_derivative_matches_base_space_differentiation():
    # D_tau f at the jet of a section == d/dx^tau of f along the section
    spec = catalog.builtin("schwarzschild")
    x = (0.0, 5.0, 1.2, 3.0)
    p = catalog.eh_point_at(spec, x)
    h = 1e-5
    for tau in (1, 2):
        exact = total_derivative(lagrangian_fn, tau, p)
        xs = []
        for s in (+h, -h):
            y = list(x)
            y[tau] += s
            xs.append(lagrangian_fn(catalog.eh_point_at(spec, y)))
        fd = (xs[0] - xs[1]) / (2 * h)
        assert exact == pytest.approx(fd, rel=1e-7, abs=1e-9)


def test_total_derivatives_one_pass_equals_per_direction():
    # the shift-seeded pass against the chain rule per direction: the
    # fiber gradient over every shifted block dotted with tangent lift tau
    p = schw_point()
    allg = total_derivatives(lagrangian_fn, p)
    width = EH_OFF["d3g"]
    grad = fiber_gradient(lagrangian_fn, p, ["x", "g", "dg", "d2g"]).g
    lifts = tangent_lifts(p, width)
    for tau in range(4):
        assert allg[tau] == pytest.approx(lifts[tau] @ grad, rel=1e-12,
                                          abs=1e-12)


def test_total_derivative_hides_the_top_order_block():
    # an order-3 point shifts g, dg and d2g, so a function of those has
    # its total derivatives; the d3g block has no shift, and a function
    # that reads it fails instead of missing its shift
    p = schw_point()
    assert np.isfinite(total_derivative(lagrangian_fn, 0, p))

    def f(pt):
        return pt.d3g[0][0]

    with pytest.raises(TypeError):
        total_derivative(f, 0, p)


def test_ep_total_derivative_needs_extensions():
    # the shift of an ep point's dg is read from its d2g extension, and
    # neither top block (dGamma, d2g) is visible to a total derivative
    d2g = np.arange(100.0).reshape(10, 10)
    p = EPJetPoint(x=np.zeros(4), g=ETA, Gamma=np.zeros((4, 4, 4)),
                   dg=np.zeros((10, 4)), dGamma=np.zeros((4, 4, 4, 4)),
                   d2g=d2g)

    def f(pt):
        return pt.dg[..., 3, 1]

    # PAIRS[3] = (0, 3); D_2 g_{03,1} = g_{03,12}, the d2g column of (1, 2)
    assert total_derivative(f, 2, p) == d2g[3, PAIRS.index((1, 2))]
    for top in ("dGamma", "d2g"):
        with pytest.raises(TypeError):
            total_derivative(lambda pt: getattr(pt, top)[0][0], 0, p)
