import numpy as np
import pytest

from conftest import interior_points
from msgrav import catalog, eh
from msgrav.errors import ConfigError
from msgrav.fieldspace import EHJetPoint, flat_index, prolong
from msgrav.geometry import einstein_suite
from msgrav.indexing import DIM, PAIRS, mult, pair_index

MID = {
    "minkowski": (0.0, 0.0, 0.0, 0.0),
    "schwarzschild": (0.0, 5.0, 1.2, 3.0),
    "flrw": (0.0, 0.2, -0.1, 0.3),
}


def point(name, x=None, order=4, **params):
    spec = catalog.builtin(name, **params)
    return catalog.eh_point_at(spec, x or MID[name], order=order)


def test_minkowski_second_order_momenta():
    m = eh.momenta_and_hamiltonian(point("minkowski"))
    i00, i11 = pair_index(0, 0), pair_index(1, 1)
    assert m.L2_ad[i00, i11] == pytest.approx(1.0)
    assert m.L2_closed[i00, i11] == pytest.approx(1.0)
    # flat space: all first-order momenta and both Hamiltonians vanish
    assert np.abs(m.L1).max() == 0.0
    assert m.H_sum == 0.0 and m.H_closed == 0.0


def test_momenta_routes_agree_everywhere(all_specs):
    for name, spec in all_specs.items():
        for x in interior_points(spec, 4, seed=21):
            m = eh.momenta_and_hamiltonian(catalog.eh_point_at(spec, x))
            scale = 1.0 + np.abs(m.L2_closed).max()
            assert np.abs(m.L2_ad - m.L2_closed).max() < 1e-10 * scale, name
            assert abs(m.H_sum - m.H_closed) < 1e-10 * (
                1.0 + abs(m.H_closed)), name


def test_hamiltonian_closed_matches_literal_coefficient_sum():
    # the optimized evaluation against the naive six-index contraction
    p = point("flrw")
    dgm = [np.zeros((DIM, DIM)) for _ in range(DIM)]
    for i, (a, b) in enumerate(PAIRS):
        for mu in range(DIM):
            dgm[mu][a, b] = dgm[mu][b, a] = p.dg[i, mu]
    from msgrav.geometry import metric_inverse_density
    from msgrav.indexing import sym10_to_full
    _, rho = metric_inverse_density(sym10_to_full(p.g))
    total = 0.0
    for a in range(DIM):
        for b in range(DIM):
            for k in range(DIM):
                for l in range(DIM):
                    for m in range(DIM):
                        for n in range(DIM):
                            total += (dgm[m][a, b] * dgm[n][k, l]
                                      * eh.hamiltonian_coefficient(
                                          p, a, b, k, l, m, n))
    total *= rho
    assert eh.hamiltonian_closed_fn(p) == pytest.approx(total, rel=1e-12)


def test_first_order_momenta_base_space_oracle():
    # the total-derivative term via an independent base-space route:
    # central differences of the closed momenta along the section
    spec = catalog.builtin("schwarzschild")
    x = MID["schwarzschild"]
    p = catalog.eh_point_at(spec, x)
    h = 1e-5

    def l2_at(nu, s):
        y = list(x)
        y[nu] += s
        return eh.momenta2_closed_fn(catalog.eh_point_at(spec, y, order=3))

    from msgrav.fieldspace import fiber_gradient
    dldv = fiber_gradient(eh.lagrangian_fn, p, ["dg"]).g.reshape(10, DIM)
    want = dldv.copy()
    for nu in range(DIM):
        dl2 = (l2_at(nu, h) - l2_at(nu, -h)) / (2 * h)
        for a in range(10):
            for mu in range(DIM):
                want[a, mu] -= dl2[a, pair_index(mu, nu)]
    got = eh.momenta1(p)
    assert np.allclose(got, want, rtol=1e-7, atol=1e-9)


def test_einstein_constraint_matches_curvature_suite():
    for name in ("flrw", "schwarzschild"):
        p = point(name)
        c = eh.constraint_einstein(p)
        suite = einstein_suite(p.g, p.dg, p.d2g)
        want = np.array([-suite.rho * mult(a, b) * suite.einstein_upper[i]
                         for i, (a, b) in enumerate(PAIRS)])
        assert np.allclose(c, want, rtol=1e-12, atol=1e-14)


def test_flrw_nonvacuum_value():
    c = eh.constraint_einstein(point("flrw", x=(0.0, 0.2, -0.1, 0.3)))
    assert c[pair_index(0, 0)] == pytest.approx(-0.03, abs=1e-12)


def test_constraint_derivative_matches_finite_differences():
    spec = catalog.builtin("schwarzschild")
    x = list(MID["schwarzschild"])
    dc = eh.constraint_einstein_derivative(
        catalog.eh_point_at(spec, x, order=4))
    h = 1e-5
    for tau in (1, 2):
        vals = []
        for s in (+h, -h):
            y = list(x)
            y[tau] += s
            vals.append(eh.constraint_einstein(
                catalog.eh_point_at(spec, y, order=3)))
        fd = (vals[0] - vals[1]) / (2 * h)
        assert np.allclose(dc[:, tau], fd, rtol=1e-6, atol=1e-8)


def test_constraint_derivative_requires_order_four():
    p = point("schwarzschild", order=3)
    with pytest.raises(ConfigError):
        eh.constraint_einstein_derivative(p)


def test_holonomy_zero_on_prolongations_and_sensitive_to_perturbation():
    spec = catalog.builtin("schwarzschild")
    series = catalog.metric_jet_at(spec, MID["schwarzschild"], order=4)
    p = prolong(series, order=4)
    h1, h2 = eh.holonomy_residuals(p, series)
    assert np.abs(h1).max() == 0.0 and np.abs(h2).max() == 0.0
    dg = p.dg.copy()
    dg[4, 1] += 1e-3
    q = EHJetPoint(x=p.x, g=p.g, dg=dg, d2g=p.d2g, d3g=p.d3g)
    h1, _ = eh.holonomy_residuals(q, series)
    assert h1[4, 1] == pytest.approx(1e-3)
    d2g = p.d2g.copy()
    d2g[0, pair_index(1, 2)] += 2e-3
    q = EHJetPoint(x=p.x, g=p.g, dg=p.dg, d2g=d2g, d3g=p.d3g)
    _, h2 = eh.holonomy_residuals(q, series)
    assert h2[0, pair_index(1, 2)] == pytest.approx(2e-3)


def test_cartan_form_term_count():
    terms = eh.cartan_form_eh(point("schwarzschild"))
    assert len(terms) == 1 + 40 + 160


def test_field_equation_vanishes_on_vacuum_sections(vacuum_specs):
    for name, spec in vacuum_specs.items():
        for x in interior_points(spec, 2, seed=31):
            p = catalog.eh_point_at(spec, x, order=4)
            assert eh.verify_field_equation(p) < 1e-8, name


def test_field_equation_covector_reproduces_constraints_off_shell():
    # on a non-vacuum section the metric-slot components are exactly the
    # negated Einstein constraints; all fiber-derivative slots stay clean
    p = point("flrw")
    cov = eh.field_equation_covector(p)
    c = eh.constraint_einstein(p)
    for a in range(10):
        assert cov[flat_index(("g", a))] == pytest.approx(-c[a], abs=1e-12)
    for a in range(10):
        for mu in range(DIM):
            assert abs(cov[flat_index(("dg", a, mu))]) < 1e-12
        for m in range(10):
            assert abs(cov[flat_index(("d2g", a, m))]) < 1e-12


def test_projectability_and_control():
    p = point("schwarzschild")
    dev, control = eh.projectability_check(p, trials=5, seed=0)
    assert dev < 1e-10
    assert control > 1e-3  # the Lagrangian genuinely reaches order two


def test_tangent_lifts_need_order_four():
    p = point("schwarzschild", order=3)
    with pytest.raises(ConfigError):
        eh.verify_field_equation(p)
