import itertools

import numpy as np
import pytest

from conftest import einstein_suite, interior_points, random_jet
import oracle
from msgrav import catalog
from msgrav.eh import lagrangian_fn
from msgrav.ep import _apairs_of
from msgrav.errors import DegenerateMetricError
from msgrav.fieldspace import (EHJetPoint, fiber_gradient, fiber_hessian,
                               total_derivatives)
from msgrav.geometry import (curvature_bundle, metric_inverse_density,
                             scalar_density, torsion_full)
from msgrav.indexing import DIM, PAIR_FULL, PAIRS
from msgrav.tangents import einsum


def suite_at(name, x, **params):
    spec = catalog.builtin(name, **params)
    p = catalog.eh_point_at(spec, x)
    return einstein_suite(p.g, p.dg, p.d2g), p


def test_inverse_metric_roundtrip():
    suite, p = suite_at("schwarzschild", (0.0, 5.0, 1.2, 3.0))
    g = p.g[PAIR_FULL]
    ginv = suite.ginv[PAIR_FULL]
    assert np.allclose(ginv @ g, np.eye(DIM), atol=1e-13)


def test_density_of_known_metrics():
    suite, _ = suite_at("minkowski", (0, 0, 0, 0))
    assert suite.rho == pytest.approx(1.0)
    suite, _ = suite_at("ppwave", (0.3, 0.1, 0.5, -0.2))
    assert suite.rho == pytest.approx(1.0)  # determinant is -1 identically
    suite, _ = suite_at("schwarzschild", (0.0, 3.0, np.pi / 2, 0.0))
    assert suite.rho == pytest.approx(9.0)  # r^2 sin(theta) at the equator


def test_degenerate_metric_raises():
    with pytest.raises(DegenerateMetricError):
        metric_inverse_density(np.zeros((DIM, DIM)))


def test_schwarzschild_christoffel_value():
    suite, _ = suite_at("schwarzschild", (0.0, 3.0, np.pi / 2, 0.0))
    # Gamma^1_{00} = m(r - 2m)/r^3 = 1/27 at m=1, r=3
    assert suite.gamma[1][PAIRS.index((0, 0))] == pytest.approx(1.0 / 27.0)


def test_vacuum_metrics_are_ricci_flat(vacuum_specs):
    for name, spec in vacuum_specs.items():
        for x in interior_points(spec, 5, seed=11):
            p = catalog.eh_point_at(spec, x)
            suite = einstein_suite(p.g, p.dg, p.d2g)
            assert np.abs(suite.ricci).max() < 1e-9, name
            assert np.abs(suite.einstein_lower).max() < 1e-9, name


def test_desitter_scalar_curvature():
    # R = 12 H^2 for the exponentially expanding flat slicing
    for H in (1.0, 0.7):
        spec = catalog.builtin("desitter", H=H)
        for x in interior_points(spec, 3, seed=5):
            p = catalog.eh_point_at(spec, x)
            suite = einstein_suite(p.g, p.dg, p.d2g)
            assert suite.scalar == pytest.approx(12.0 * H * H, rel=1e-12)


def test_einstein_upper_is_raised_lower():
    suite, _ = suite_at("flrw", (0.4, 0.1, 0.2, -0.3))
    ginv = suite.ginv[PAIR_FULL]
    up = ginv @ suite.einstein_lower[PAIR_FULL] @ ginv
    assert np.allclose(suite.einstein_upper[PAIR_FULL], up, atol=1e-13)


def test_oracle_pipeline_agreement(all_specs):
    for name, spec in all_specs.items():
        for x in interior_points(spec, 3, seed=3):
            p = catalog.eh_point_at(spec, x)
            suite = einstein_suite(p.g, p.dg, p.d2g)
            ginv_o, rho_o, gam_o, ric_o, scal_o, ein_o = \
                oracle.curvature_oracle(spec, x)
            scale = 1.0 + np.abs(ric_o).max()
            assert np.allclose(suite.ginv[PAIR_FULL], ginv_o,
                               rtol=1e-6, atol=1e-8), name
            assert suite.rho == pytest.approx(rho_o, rel=1e-6)
            assert np.abs(suite.gamma[:, PAIR_FULL] - gam_o).max() < 1e-5 * (
                1.0 + np.abs(gam_o).max()), name
            assert np.abs(suite.ricci - ric_o).max() < 1e-5 * scale, name
            assert abs(suite.scalar - scal_o) < 1e-5 * (1 + abs(scal_o))
            assert np.abs(suite.einstein_lower[PAIR_FULL]
                          - ein_o).max() < 1e-5 * scale, name


def test_contracted_divergence_identity():
    # d_mu(rho G^{mu nu}) + rho Gamma^nu_{mu l} G^{mu l} = 0 along sections;
    # the divergence is one total-derivative pass on an order-3 point
    def rho_einstein_upper(pt):
        ginv, rho, _, ric, scal = curvature_bundle(pt.g, pt.dg, pt.d2g)
        return rho * (einsum("ma,nb,ab->mn", ginv, ginv, ric)
                      - 0.5 * ginv * scal)

    for name in ("flrw", "schwarzschild", "desitter"):
        spec = catalog.builtin(name)
        x = [0.5 * (lo + hi) for lo, hi in spec.domain]
        p = catalog.eh_point_at(spec, x)
        d = total_derivatives(rho_einstein_upper, p)  # [mu, nu, tau]
        _, _, gam, _, _ = curvature_bundle(p.g, p.dg, p.d2g)
        div = (np.einsum("mnm->n", d)
               + np.einsum("nml,ml->n", gam, rho_einstein_upper(p)))
        assert np.abs(div).max() < 1e-10, name
        if spec.vacuum == "no":
            # the divergence alone is not zero: the check has teeth
            assert np.abs(np.einsum("mnm->n", d)).max() > 1e-3, name


def test_torsion_antisymmetry_and_storage():
    rng = np.random.default_rng(0)
    Gamma = rng.normal(size=(4, 4, 4))
    Tf = torsion_full(Gamma)
    assert np.allclose(Tf, -np.transpose(Tf, (0, 2, 1)))
    Ts = _apairs_of(Tf)
    from msgrav.indexing import APAIRS
    for a in range(4):
        for i, (b, c) in enumerate(APAIRS):
            assert Ts[a, i] == pytest.approx(Tf[a, b, c])


def test_symmetric_connection_has_no_torsion():
    rng = np.random.default_rng(1)
    sym = rng.normal(size=(4, 4, 4))
    sym = sym + np.transpose(sym, (0, 2, 1))
    assert np.abs(_apairs_of(torsion_full(sym))).max() == 0.0


def test_batched_curvature_bundle_rows_equal_unbatched():
    # row i of a stacked call equals the unstacked call bit for bit, on
    # plain arrays and with the second-order block seeded
    from msgrav.tangents import Tan
    spec = catalog.builtin("schwarzschild")
    xs = interior_points(spec, 5, seed=29)
    pts = [catalog.eh_point_at(spec, x) for x in xs]
    stack = catalog.eh_point_at(spec, np.array(xs))
    seeds = np.eye(100).reshape(10, 10, 100)
    plain = curvature_bundle(stack.g, stack.dg, stack.d2g)
    dual = curvature_bundle(stack.g, stack.dg, Tan(
        stack.d2g, np.broadcast_to(seeds, (5, 10, 10, 100))))
    for i, p in enumerate(pts):
        one = curvature_bundle(p.g, p.dg, p.d2g)
        one_dual = curvature_bundle(p.g, p.dg, Tan(p.d2g, seeds))
        for k in range(5):
            assert np.array_equal(plain[k][i], one[k])
            got, want = dual[k], one_dual[k]
            assert np.array_equal(getattr(got, "v", got)[i],
                                  getattr(want, "v", want))
            if hasattr(want, "g"):
                assert np.array_equal(got.g[i], want.g)


def rho_scalar_via_bundle(pt):
    """rho R through the Ricci tensor of `curvature_bundle`."""
    _, rho, _, _, scal = curvature_bundle(pt.g, pt.dg, pt.d2g)
    return rho * scal


def test_scalar_density_matches_curvature_bundle(all_specs):
    for name, spec in all_specs.items():
        p = catalog.eh_point_at(spec, interior_points(spec, 3, seed=17))
        want = rho_scalar_via_bundle(p)
        got = scalar_density(p.g, p.dg, p.d2g)
        assert got.shape == want.shape == (3,)
        assert np.all(np.abs(got - want) <= 1e-13 * (1 + np.abs(want))), name


def test_scalar_density_mixed_hessian_matches_curvature_bundle(all_specs):
    # the Hessian the eh Cartan form reads, over (dg; g, dg)
    for name, spec in all_specs.items():
        p = catalog.eh_point_at(spec, interior_points(spec, 2, seed=19))
        got = fiber_hessian(lagrangian_fn, p, ["dg"], ["g", "dg"])
        want = fiber_hessian(rho_scalar_via_bundle, p, ["dg"], ["g", "dg"])
        assert got.shape == want.shape == (2, 40, 50)
        assert np.abs(got - want).max() <= 1e-12 * (
            1 + np.abs(want).max()), name


def test_scalar_density_gradient_matches_curvature_bundle(all_specs):
    # the (dg, d2g) gradient pass every eh point and trial runs, on each
    # builtin's sections and off shell, with dg and d2g moved at random
    rng = np.random.default_rng(43)
    for name, spec in all_specs.items():
        p = catalog.eh_point_at(spec, interior_points(spec, 2, seed=41))
        q = EHJetPoint(
            x=p.x, g=p.g, d3g=p.d3g,
            dg=p.dg + rng.uniform(-0.1, 0.1, p.dg.shape) * (1 + abs(p.dg)),
            d2g=p.d2g + rng.uniform(-0.1, 0.1, p.d2g.shape) * (
                1 + abs(p.d2g)))
        for pt in (p, q):
            got = fiber_gradient(lagrangian_fn, pt, ["dg", "d2g"])
            want = fiber_gradient(rho_scalar_via_bundle, pt, ["dg", "d2g"])
            assert got.g.shape == want.g.shape == (2, 140)
            assert np.abs(got.g - want.g).max() <= 1e-12 * (
                np.abs(want.g).max()), name
            assert np.abs(got.v - want.v).max() <= 1e-12 * (
                1 + np.abs(want.v).max()), name


def test_curvature_bundle_d2g_term_is_the_four_permuted_copies():
    # with dg = 0 the connection vanishes and the Ricci tensor is its d2g
    # term alone, g^{rs} H_rsab,pq d2g_pq, against (g_{sa,br} + g_{sb,ar}
    # - g_{ab,sr} - g_{rs,ab}) g^{rs} / 2 entry by entry
    g, _, d2g = random_jet(61)
    _, _, gam, ric, _ = curvature_bundle(g, np.zeros((3, 10, 4)), d2g)
    ginv = np.linalg.inv(g[:, PAIR_FULL])
    f = PAIR_FULL
    want = np.zeros((3, 4, 4))
    for n, a, b, r, s in itertools.product(range(3), *[range(DIM)] * 4):
        want[n, a, b] += 0.5 * ginv[n, r, s] * (
            d2g[n, f[s, a], f[b, r]] + d2g[n, f[s, b], f[a, r]]
            - d2g[n, f[a, b], f[s, r]] - d2g[n, f[r, s], f[a, b]])
    assert not np.any(gam)
    assert np.abs(ric - want).max() <= 1e-13 * np.abs(want).max()


def test_scalar_density_d2g_term_is_the_pre_merge_coefficient():
    # with dg = 0 only the d2g term is left: k_pq d2g_pq with
    # k_pq = g^{ab} g^{cs} (E_sap E_bcq - E_csp E_abq), entry by entry
    g, _, d2g = random_jet(67)
    got = scalar_density(g, np.zeros((3, 10, 4)), d2g)
    ginv, rho = metric_inverse_density(g[:, PAIR_FULL])
    f = PAIR_FULL
    want = np.zeros(3)
    for n, a, b, c, s in itertools.product(range(3), *[range(DIM)] * 4):
        want[n] += ginv[n, a, b] * ginv[n, c, s] * (
            d2g[n, f[s, a], f[b, c]] - d2g[n, f[c, s], f[a, b]])
    want *= rho
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def test_scalar_density_quadratic_part_is_the_pre_merge_invariants():
    # with d2g = 0 only the dg-quadratic part is left: -g(w, w) + 3 J1/4
    # - J2/2 with w = V - U/2 and J2 = g^ad g^bf g^ce D_abc D_def, before
    # the merged w and the e <-> f relabelling that joins J1 and J2
    g, dg, _ = random_jet(71)
    got = scalar_density(g, dg, np.zeros((3, 10, 10)))
    ginv, rho = metric_inverse_density(g[:, PAIR_FULL])
    d = dg[:, PAIR_FULL, :]
    w = (np.einsum("nab,nlab->nl", ginv, d)
         - 0.5 * np.einsum("nab,nabl->nl", ginv, d))
    j1 = np.einsum("nad,nbe,ncf,nabc,ndef->n", ginv, ginv, ginv, d, d)
    j2 = np.einsum("nad,nbf,nce,nabc,ndef->n", ginv, ginv, ginv, d, d)
    want = rho * (-np.einsum("nls,nl,ns->n", ginv, w, w)
                  + 0.75 * j1 - 0.5 * j2)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
