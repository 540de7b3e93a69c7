import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import einstein_suite, interior_points, random_jet
from msgrav import catalog, eh
from msgrav.errors import ConfigError
from msgrav.exterior import Form, contract_terms
from msgrav.fieldspace import (EH_BLOCKS, EH_DIM_J3, EH_OFF, EHJetPoint,
                               fiber_gradient, fiber_jacobian,
                               field_equation_covector, tangent_lifts,
                               total_derivatives_vec)
from msgrav.geometry import metric_inverse_density
from msgrav.indexing import (DIM, MULT, PAIR_FULL, PAIRS, TRIPLES, UP,
                             pair_index)
from msgrav.tangents import Jet2, einsum, sqrt

MID = {
    "minkowski": (0.0, 0.0, 0.0, 0.0),
    "schwarzschild": (0.0, 5.0, 1.2, 3.0),
    "kasner": (1.5, 0.2, -0.3, 0.4),
    "flrw": (0.0, 0.2, -0.1, 0.3),
}


def point(name, x=None, **params):
    spec = catalog.builtin(name, **params)
    return catalog.eh_point_at(spec, x or MID[name])


def test_minkowski_second_order_momenta():
    p = point("minkowski")
    closed = eh.closed_forms(p)
    m = eh.momenta_and_hamiltonian(p, closed)
    i00, i11 = pair_index(0, 0), pair_index(1, 1)
    assert m.L2_ad[i00, i11] == pytest.approx(1.0)
    assert closed.L2.v[i00, i11] == pytest.approx(1.0)
    # flat space: all first-order momenta and both Hamiltonians vanish
    assert np.abs(m.L1).max() == 0.0
    assert m.H_sum == 0.0 and closed.H.v == 0.0


def test_momenta_routes_agree_everywhere(all_specs):
    for name, spec in all_specs.items():
        for x in interior_points(spec, 4, seed=21):
            p = catalog.eh_point_at(spec, x)
            closed = eh.closed_forms(p)
            m = eh.momenta_and_hamiltonian(p, closed)
            scale = 1.0 + np.abs(closed.L2.v).max()
            assert np.abs(m.L2_ad - closed.L2.v).max() < 1e-10 * scale, name
            assert abs(m.H_sum - closed.H.v) < 1e-10 * (
                1.0 + abs(closed.H.v)), name


def hamiltonian_coefficient(pt, a, b, k, l, m, n):
    """The literal coefficient H^{abklmn} (full-range indices)."""
    ginv, _ = metric_inverse_density(pt.g[PAIR_FULL])
    return (0.25 * ginv[a, b] * ginv[k, l] * ginv[m, n]
            - 0.25 * ginv[a, k] * ginv[b, l] * ginv[m, n]
            + 0.5 * ginv[a, k] * ginv[l, m] * ginv[b, n]
            - 0.5 * ginv[a, b] * ginv[l, n] * ginv[k, m])


def test_hamiltonian_closed_matches_literal_coefficient_sum():
    # the optimized evaluation against the naive six-index contraction
    p = point("flrw")
    dgm = [np.zeros((DIM, DIM)) for _ in range(DIM)]
    for i, (a, b) in enumerate(PAIRS):
        for mu in range(DIM):
            dgm[mu][a, b] = dgm[mu][b, a] = p.dg[i, mu]
    _, rho = metric_inverse_density(p.g[PAIR_FULL])
    total = 0.0
    for a in range(DIM):
        for b in range(DIM):
            for k in range(DIM):
                for l in range(DIM):
                    for m in range(DIM):
                        for n in range(DIM):
                            total += (dgm[m][a, b] * dgm[n][k, l]
                                      * hamiltonian_coefficient(
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
        return eh.momenta2_closed_fn(catalog.eh_point_at(spec, y))

    dldv = fiber_gradient(eh.lagrangian_fn, p, ["dg"]).g.reshape(10, DIM)
    want = dldv.copy()
    for nu in range(DIM):
        dl2 = (l2_at(nu, h) - l2_at(nu, -h)) / (2 * h)
        for a in range(10):
            for mu in range(DIM):
                want[a, mu] -= dl2[a, pair_index(mu, nu)]
    got = eh.momenta_and_hamiltonian(p, eh.closed_forms(p)).L1
    assert np.allclose(got, want, rtol=1e-7, atol=1e-9)


def _close(got, want, rel):
    return np.abs(got - want).max() <= rel * np.abs(want).max()


def _total_derivative_term(jac, dg):
    """sum_nu D_nu L2[a, (mu nu)] by index loops, from the closed g-Jacobian."""
    out = np.zeros((10, DIM))
    for a in range(10):
        for mu in range(DIM):
            for nu in range(DIM):
                out[a, mu] += jac[a, pair_index(mu, nu)] @ dg[:, nu]
    return out


@pytest.mark.parametrize("name", ["schwarzschild", "kasner", "flrw"])
def test_fused_pass_matches_single_block_passes(name):
    p = point(name)
    closed = eh.closed_forms(p)
    m = eh.momenta_and_hamiltonian(p, closed)
    l2 = fiber_gradient(eh.lagrangian_fn, p, ["d2g"]).g.reshape(10, 10)
    assert _close(m.L2_ad, l2 / MULT, 1e-14)
    l2_closed, jac = fiber_jacobian(eh.momenta2_closed_fn, p, ["g"])
    assert _close(closed.L2.v, l2_closed, 1e-14)
    assert _close(closed.L2.a, jac, 1e-14)
    dldv = fiber_gradient(eh.lagrangian_fn, p, ["dg"]).g.reshape(10, DIM)
    assert _close(m.L1 + _total_derivative_term(jac, p.dg), dldv, 1e-14)
    lag = eh.lagrangian_fn(p)
    assert abs(m.L - lag) <= 1e-14 * abs(lag)


def _reference_projectability(p, trials, seed):
    """Every trial recomputed in full from single-block passes and the
    closed forms at the trial point; H relative to 1 + the larger sum of
    its terms' magnitudes, the momenta to 1 + max |p's momenta|."""
    def momenta(q):
        l2 = fiber_gradient(eh.lagrangian_fn, q, ["d2g"]).g.reshape(10, 10)
        l2 = l2 / MULT
        _, jac = fiber_jacobian(eh.momenta2_closed_fn, q, ["g"])
        dldv = fiber_gradient(eh.lagrangian_fn, q, ["dg"]).g.reshape(10, DIM)
        l1 = dldv - _total_derivative_term(jac, q.dg)
        lag = eh.lagrangian_fn(q)
        terms = [*(l2 * q.d2g * MULT).ravel(), *(l1 * q.dg).ravel(), -lag]
        return lag, l2, l1, (sum(terms), sum(map(abs, terms)))

    def perturbed(arr):
        return arr + rng.uniform(-0.1, 0.1, size=arr.shape) * (
            1.0 + np.abs(arr))

    rng = np.random.default_rng(seed)
    lag0, l20, l10, (h0, mag0) = momenta(p)
    dev, control = 0.0, 0.0
    for _ in range(trials):
        q = EHJetPoint(x=p.x, g=p.g, dg=p.dg, d2g=perturbed(p.d2g),
                       d3g=perturbed(p.d3g))
        lag, l2, l1, (h, mag) = momenta(q)
        dev = max(dev, abs(h - h0) / (1.0 + max(mag, mag0)),
                  np.abs(l2 - l20).max() / (1.0 + np.abs(l20).max()),
                  np.abs(l1 - l10).max() / (1.0 + np.abs(l10).max()))
        control = max(control, abs(lag - lag0))
    return dev, control


def _check_against_reference(p, trials, seed):
    got = eh.projectability_check(p, eh.closed_forms(p), trials=trials,
                                  seed=seed)[:2]
    return got, _reference_projectability(p, trials, seed)


def test_projectability_matches_reference_loop():
    (dev, control), (dev_ref, control_ref) = _check_against_reference(
        point("schwarzschild"), trials=3, seed=4)
    assert dev < 1e-10 and dev_ref < 1e-10
    assert control == pytest.approx(control_ref, rel=1e-12)
    assert control > 1e-3


def test_projectability_fails_a_lagrangian_not_affine_in_d2g(monkeypatch):
    # the added term is homogeneous of degree one in d2g, so it leaves the
    # Hamiltonian alone while its momenta move with d2g: the check must
    # fail through the momenta, by exactly the reference loop's deviation
    lagrangian = eh.lagrangian_fn
    monkeypatch.setattr(eh, "lagrangian_fn", lambda pt: lagrangian(pt)
                        + 0.1 * sqrt(einsum("am,am->", pt.d2g, pt.d2g)))
    (dev, control), (dev_ref, control_ref) = _check_against_reference(
        point("flrw"), trials=3, seed=4)
    assert dev > 1e-3
    assert dev == pytest.approx(dev_ref, rel=1e-12)
    assert control == pytest.approx(control_ref, rel=1e-12)


@pytest.mark.parametrize("component", ["H_sum", "L2_ad", "L1"])
def test_projectability_reads_each_compared_component(monkeypatch,
                                                      component):
    # a shift of one compared component by eps in the trial rows alone
    # must read as a deviation of eps relative to its scale: 1 + the
    # larger H_mag of row 0 and the trial for H_sum, 1 + max |row 0| for
    # the momenta
    from dataclasses import replace
    eps, real, seen = 1e-3, eh.momenta_and_hamiltonian, []

    def shifted(q, closed):
        m = real(q, closed)
        seen.append(m)
        v = getattr(m, component).copy()
        v[1:] += eps
        return replace(m, **{component: v})

    monkeypatch.setattr(eh, "momenta_and_hamiltonian", shifted)
    p = point("schwarzschild")
    dev, _, _ = eh.projectability_check(p, eh.closed_forms(p), 2, 0)
    m, = seen
    if component == "H_sum":
        scale = np.maximum(m.H_mag[1:], m.H_mag[0]).min()
    else:
        scale = np.abs(getattr(m, component)[0]).max()
    assert scale > 1.0
    assert dev == pytest.approx(eps / (1.0 + scale), rel=1e-9)


@pytest.mark.parametrize("trials", [1, 2, 3])
def test_stacked_projectability_rows_equal_single_point_calls(trials):
    # the trials of a stack ride one pass over (trials, points) rows; each
    # point's deviations are those of the point checked alone
    spec = catalog.builtin("kasner")
    xs = np.array(interior_points(spec, 3, seed=53))
    seeds = np.array([7, 8, 9])
    stack = catalog.eh_point_at(spec, xs)
    dev, control, base = eh.projectability_check(
        stack, eh.closed_forms(stack), trials, seeds)
    assert dev.shape == control.shape == (3,)
    for i, (x, s) in enumerate(zip(xs, seeds)):
        p = catalog.eh_point_at(spec, x)
        one = eh.projectability_check(p, eh.closed_forms(p), trials, int(s))
        assert np.array_equal(one[0], dev[i])
        assert np.array_equal(one[1], control[i])
        assert np.array_equal(one[2].L2_ad, base.L2_ad[i])
        assert np.array_equal(one[2].H_sum, base.H_sum[i])


@pytest.mark.parametrize("name", ["schwarzschild", "kasner", "ppwave",
                                  "flrw"])
def test_per_block_gradient_passes_equal_a_joint_pass(name):
    # a 3 x 2 stack, as the projectability trials of a 2-point chunk: the
    # dg and d2g passes reproduce one pass seeded over both blocks
    spec = catalog.builtin(name)
    p = catalog.eh_point_at(spec, np.array(interior_points(spec, 2, seed=71)))
    rng = np.random.default_rng(72)
    d2g = np.stack([p.d2g] + [p.d2g + rng.uniform(-0.1, 0.1, p.d2g.shape)
                              for _ in range(2)])
    x, g, dg, d3g = (np.broadcast_to(a, (3,) + a.shape)
                     for a in (p.x, p.g, p.dg, p.d3g))
    q = EHJetPoint(x=x, g=g, dg=dg, d2g=d2g, d3g=d3g)
    closed = eh.closed_forms(p)
    m = eh.momenta_and_hamiltonian(q, closed)
    joint = fiber_gradient(eh.lagrangian_fn, q, ["dg", "d2g"])
    n1 = 10 * DIM
    l2 = joint.g[..., n1:].reshape(q.lead + (10, 10)) / MULT
    l1 = joint.g[..., :n1].reshape(q.lead + (10, DIM)) - np.einsum(
        "...amnn->...am", closed.L2.b[..., PAIR_FULL, :])
    assert m.L2_ad.shape == l2.shape and m.L1.shape == l1.shape
    assert _close(m.L2_ad, l2, 1e-13)
    assert _close(m.L1, l1, 1e-13)
    assert np.array_equal(m.L, joint.v)


def test_lagrangian_passes_contraction_budget(monkeypatch):
    # the quadratic part of L in dg is -g(w, w) plus one merged J1, J2
    # invariant, and the d2g term one contraction with a constant (see
    # geometry.scalar_density): each pass over L makes at most this many
    # contractions on a 2-point stack. The Hessian pass forms every outer
    # block, 10 of them read by no mixed term: 2 of the d2g term, 3 of
    # -g(w, w) and 5 of the 5-operand J term
    from msgrav import tangents
    from msgrav.fieldspace import fiber_hessian
    spec = catalog.builtin("schwarzschild")
    p = catalog.eh_point_at(spec, np.array(interior_points(spec, 2, seed=5)))
    real, calls = tangents._contract, []

    def counted(subscripts, ops):
        calls.append(subscripts)
        return real(subscripts, ops)

    monkeypatch.setattr(tangents, "_contract", counted)
    passes = {
        "hessian": (45, lambda: fiber_hessian(eh.lagrangian_fn, p, ["dg"],
                                              ["g", "dg"])),
        "dg": (13, lambda: fiber_gradient(eh.lagrangian_fn, p, ["dg"])),
        "d2g": (7, lambda: fiber_gradient(eh.lagrangian_fn, p, ["d2g"])),
    }
    for name, (budget, run) in passes.items():
        calls.clear()
        run()
        assert 0 < len(calls) <= budget, (name, len(calls))


def test_hessian_pass_outer_block_is_the_gradient_pass():
    # the outer block of L's (dg; g, dg) Jet2 pass equals the gradient of
    # a Tan pass over (g, dg), bit for bit
    spec = catalog.builtin("schwarzschild")
    p = catalog.eh_point_at(spec, np.array(interior_points(spec, 2, seed=73)))
    eye = np.broadcast_to(np.eye(50), p.lead + (50, 50))
    g = Jet2(p.g, None, eye[..., :10, :], None)
    dg = Jet2(p.dg, np.ones(p.dg.shape + (1,)),
              eye[..., 10:, :].reshape(p.dg.shape + (50,)), None)
    lag = eh.lagrangian_fn(SimpleNamespace(g=g, dg=dg, d2g=p.d2g))
    ref = fiber_gradient(eh.lagrangian_fn, p, ["g", "dg"])
    assert np.array_equal(lag.b, ref.g)
    assert np.array_equal(lag.v, ref.v)


def test_einstein_constraint_matches_curvature_suite():
    for name in ("flrw", "schwarzschild"):
        p = point(name)
        c = eh.constraint_einstein(p)
        suite = einstein_suite(p.g, p.dg, p.d2g)
        want = -suite.rho * MULT * suite.einstein_upper
        assert np.allclose(c, want, rtol=1e-12, atol=1e-14)


def test_flrw_nonvacuum_value():
    c = eh.constraint_einstein(point("flrw", x=(0.0, 0.2, -0.1, 0.3)))
    assert c[pair_index(0, 0)] == pytest.approx(-0.03, abs=1e-12)


def test_constraint_derivative_matches_finite_differences():
    spec = catalog.builtin("schwarzschild")
    x = list(MID["schwarzschild"])
    _, dc = eh.constraint_einstein_derivative(
        catalog.eh_point_at(spec, x))
    h = 1e-5
    for tau in (1, 2):
        vals = []
        for s in (+h, -h):
            y = list(x)
            y[tau] += s
            vals.append(eh.constraint_einstein(
                catalog.eh_point_at(spec, y)))
        fd = (vals[0] - vals[1]) / (2 * h)
        assert np.allclose(dc[:, tau], fd, rtol=1e-6, atol=1e-8)


def test_constraint_derivative_on_an_order_three_point():
    # the constraints read g, dg and d2g, so their total derivatives reach
    # d3g and no further: an order-3 point is enough, off shell too
    spec = catalog.builtin("flrw")
    x = [0.7, 0.2, -0.1, 0.3]
    p = catalog.eh_point_at(spec, x)
    assert not hasattr(p, "d4g")
    c, dc = eh.constraint_einstein_derivative(p)
    assert np.array_equal(c, eh.constraint_einstein(p))
    assert dc.shape == (10, DIM) and np.abs(dc[:, 0]).max() > 1e-3
    h = 1e-5
    for tau in range(DIM):
        vals = []
        for s in (+h, -h):
            y = list(x)
            y[tau] += s
            vals.append(eh.constraint_einstein(catalog.eh_point_at(spec, y)))
        fd = (vals[0] - vals[1]) / (2 * h)
        assert np.allclose(dc[:, tau], fd, rtol=1e-6, atol=1e-8)


def holonomy_slots(form, lifts):
    """The dg slots of the form contracted with the four lifts."""
    return contract_terms(form, lifts)[..., EH_OFF["dg"]:EH_OFF["d2g"]]


def test_holonomy_slots_vanish_at_the_section_and_move_with_its_dg():
    # the field equation's dg slots are the first holonomy condition: they
    # vanish where the lifts' g-velocities are the point's dg coordinates,
    # and a perturbed dg at the point, under the section's lifts, moves
    # them; the report's holonomy row reads them relative to the covector
    from msgrav import report
    row = {fam: r for fam, _, r in report.FAMILIES["eh"]}["holonomy"]
    p = point("schwarzschild")
    lifts = tangent_lifts(p, EH_OFF["d2g"])
    form = eh.cartan_form_eh(p, eh.closed_forms(p))
    assert np.abs(holonomy_slots(form, lifts)).max() < 1e-13
    dg = p.dg.copy()
    dg[4, 1] += 1e-3
    q = EHJetPoint(x=p.x, g=p.g, dg=dg, d2g=p.d2g, d3g=p.d3g)
    cov = contract_terms(eh.cartan_form_eh(q, eh.closed_forms(q)), lifts)
    moved = np.abs(cov[EH_OFF["dg"]:]).max()
    assert moved > 1e-5
    assert row(SimpleNamespace(cov=cov[None])) == pytest.approx(
        moved / (1.0 + np.abs(cov).max()), rel=1e-15)


def velocity_map(p, form):
    """(b, A) with the form's dg slots, contracted with p's lifts whose
    40 g-velocities v are freed, equal to b + A v; v[tau * 10 + a] is
    lift tau's velocity along g_a, and each lead of p is one system."""
    g0, n = EH_OFF["g"], len(PAIRS) * DIM
    lifts = np.repeat(tangent_lifts(p, EH_OFF["d2g"])[None], 1 + n, axis=0)
    lifts[..., g0:g0 + len(PAIRS)] = 0.0
    tau, a = np.divmod(np.arange(n), len(PAIRS))
    lifts[1 + np.arange(n), ..., tau, g0 + a] = 1.0
    slots = holonomy_slots(Form(form.coef, np.broadcast_to(
        form.dense, (1 + n,) + form.dense.shape), form.coords), lifts)
    return slots[0], np.moveaxis(slots[1:] - slots[0], 0, -1)


@pytest.mark.parametrize("name", ["schwarzschild", "kasner", "flrw",
                                  "desitter", "generic"])
def test_holonomy_is_the_unique_solution_of_the_dg_slots(tmp_path,
                                                         monkeypatch, name):
    # the dg slots are affine in the lifts' 40 g-velocities with rank 40,
    # so they vanish only at the section's own dg, on sourced sections
    # too; the report's holonomy row reads them at the lifts it is given
    from test_generic_sections import generic_section

    from msgrav import fieldspace, report
    spec = (generic_section(tmp_path, 3, 0.1) if name == "generic"
            else catalog.builtin(name))
    xs = np.array(interior_points(spec, 2, seed=83))
    p = catalog.eh_point_at(spec, xs)
    b, a = velocity_map(p, eh.cartan_form_eh(p, eh.closed_forms(p)))
    assert np.all(np.linalg.matrix_rank(a) == len(PAIRS) * DIM)
    v = np.linalg.solve(a, -b[..., None])[..., 0]
    dg = p.dg.swapaxes(-1, -2).reshape(2, -1)
    assert np.abs(v - dg).max() <= 1e-12 * np.abs(dg).max()
    # lifts moved off the section by delta read b + A (dg + delta)
    delta = 1e-3 * np.random.default_rng(5).normal(size=dg.shape)
    real = fieldspace.tangent_lifts

    def moved(q, width):
        lifts = real(q, width)
        lifts[..., EH_OFF["g"]:EH_OFF["dg"]] += delta.reshape(
            lifts.shape[:-1] + (len(PAIRS),))
        return lifts

    monkeypatch.setattr(fieldspace, "tangent_lifts", moved)
    kept, (out, _) = report._eh_point_checks(spec, xs, [0, 1])
    cov = field_equation_covector(eh.cartan_form_eh(p, eh.closed_forms(p)),
                                  p)
    want = (np.abs(b + np.einsum("...ij,...j->...i", a, dg + delta))
            .max(axis=-1) / (1.0 + np.abs(cov).max(axis=-1)))
    assert kept == [0, 1] and np.all(want > 1e-5)
    assert out["holonomy"] == pytest.approx(want, rel=1e-8)


def test_cartan_form_term_count():
    p = point("schwarzschild")
    terms = eh.cartan_form_eh(p, eh.closed_forms(p))
    assert len(terms) == 1 + 40 + 160


def covector(p):
    return field_equation_covector(eh.cartan_form_eh(p, eh.closed_forms(p)),
                                   p)


def test_field_equation_vanishes_on_vacuum_sections(vacuum_specs):
    for name, spec in vacuum_specs.items():
        for x in interior_points(spec, 2, seed=31):
            p = catalog.eh_point_at(spec, x)
            assert np.abs(covector(p)).max() < 1e-8, name


def test_field_equation_covector_reproduces_constraints_off_shell():
    # on a non-vacuum section the metric-slot components are exactly the
    # negated Einstein constraints; the fiber-derivative slots, all dg on
    # the form's (x, g, dg) support, stay clean
    p = point("flrw")
    cov = covector(p)
    assert cov.shape == (EH_OFF["d2g"],)
    c = eh.constraint_einstein(p)
    for a in range(10):
        assert cov[EH_OFF["g"] + a] == pytest.approx(
            -c[a], abs=1e-12)
    for a in range(10):
        for mu in range(DIM):
            assert abs(cov[EH_OFF["dg"] + np.ravel_multi_index(
                (a, mu), EH_BLOCKS["dg"])]) < 1e-12


@pytest.mark.parametrize("trials", [1, 2])
def test_projectability_never_compares_the_point_with_itself(vacuum_specs,
                                                             trials):
    # the point rides as row 0 of the trials' stack: a trial row mistaken
    # for row 0 would read a zero control, since L is second order
    for name, spec in vacuum_specs.items():
        xs = np.array(interior_points(spec, 4, seed=67))
        p = catalog.eh_point_at(spec, xs)
        _, control, base = eh.projectability_check(
            p, eh.closed_forms(p), trials, np.arange(4))
        assert control.shape == (4,) and np.all(control > 0), name
        assert np.array_equal(base.L, eh.lagrangian_fn(p)), name


@pytest.mark.parametrize("name", ["schwarzschild", "kasner", "ppwave",
                                  "flrw"])
def test_dual_pass_values_are_the_plain_calls(name):
    # the checks read these values off the dual passes in place of the
    # plain calls, so they must agree bit for bit, for Tan and Jet2 seeds
    spec = catalog.builtin(name)
    p = catalog.eh_point_at(spec, np.array(interior_points(spec, 2, seed=61)))
    closed = eh.closed_forms(p)
    assert np.array_equal(closed.L2.v, eh.momenta2_closed_fn(p))
    assert np.array_equal(closed.H.v, eh.hamiltonian_closed_fn(p))
    tan = fiber_gradient(eh.momenta2_closed_fn, p, ["g"])
    assert np.array_equal(tan.v, eh.momenta2_closed_fn(p))
    eye = np.broadcast_to(np.eye(10), p.g.shape + (10,))
    jet = eh.hamiltonian_closed_fn(SimpleNamespace(
        g=Jet2(p.g, eye, None, None),
        dg=Jet2(p.dg, None, np.ones(p.dg.shape + (1,)), None)))
    assert jet.m is not None
    assert np.array_equal(jet.v, eh.hamiltonian_closed_fn(p))
    c = eh.constraint_einstein(p)
    assert np.array_equal(total_derivatives_vec(eh.constraint_einstein,
                                                p).v, c)
    assert np.array_equal(eh.constraint_einstein_derivative(p)[0], c)
    jet = eh.constraint_einstein(SimpleNamespace(
        g=Jet2(p.g, eye, p.dg, None), dg=p.dg, d2g=p.d2g))
    assert np.array_equal(jet.v, c)


def test_projectability_and_control():
    p = point("schwarzschild")
    dev, control, _ = eh.projectability_check(p, eh.closed_forms(p),
                                              trials=5, seed=0)
    assert dev < 1e-10
    assert control > 1e-3  # the Lagrangian genuinely reaches order two


def test_tangent_lifts_stop_at_the_form_support():
    # the lifts cover the form's (x, g, dg) columns, which an order-3
    # point shifts; the d3g block has no shift, so no wider lift exists
    p = point("schwarzschild")
    form = eh.cartan_form_eh(p, eh.closed_forms(p))
    assert form.dense.shape[-1] == EH_OFF["d2g"]
    assert tangent_lifts(p, EH_OFF["d2g"]).shape == (DIM, EH_OFF["d2g"])
    assert np.abs(covector(p)).max() < 1e-8
    for width in (EH_OFF["d2g"] + 1, 20, EH_DIM_J3):
        with pytest.raises(ConfigError):
            tangent_lifts(p, width)


def test_batched_cartan_contraction_rows_equal_unbatched():
    spec = catalog.builtin("flrw")
    xs = interior_points(spec, 3, seed=37)
    pts = [catalog.eh_point_at(spec, x) for x in xs]
    stack = catalog.eh_point_at(spec, np.array(xs))
    form = eh.cartan_form_eh(stack, eh.closed_forms(stack))
    assert len(form) == 3 * (1 + 40 + 160)
    width = EH_OFF["d2g"]
    cov = contract_terms(form, tangent_lifts(stack, width))
    assert cov.shape == (3, width)
    for i, p in enumerate(pts):
        one = eh.cartan_form_eh(p, eh.closed_forms(p))
        assert np.array_equal(form.dense[i], one.dense)
        assert np.array_equal(cov[i], contract_terms(
            one, tangent_lifts(p, width)))



def test_closed_momenta2_are_the_per_entry_formula():
    # the one contraction with eh._MOMENTA2 against (n(ab)/2) rho
    # (g^{am} g^{bn} + g^{an} g^{bm} - 2 g^{ab} g^{mn}) entry by entry, on
    # random symmetric metrics
    g, _, _ = random_jet(73)
    got = eh.momenta2_closed_fn(SimpleNamespace(g=g))
    ginv, rho = metric_inverse_density(g[:, PAIR_FULL])
    want = np.empty((3, 10, 10))
    for i, (a, b) in enumerate(PAIRS):
        for j, (m, n) in enumerate(PAIRS):
            want[:, i, j] = MULT[i] / 2 * rho * (
                ginv[:, a, m] * ginv[:, b, n] + ginv[:, a, n] * ginv[:, b, m]
                - 2 * ginv[:, a, b] * ginv[:, m, n])
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_constraint_derivative_rank_is_36_by_the_bianchi_identity(sections):
    # the 40 einstein-constraint-derivative conditions D_tau E_i reach d3g
    # through E's d2g-Jacobian scattered by UP[2] (d3g over (pair, triple)
    # takes d2g's (pair, pair) with one direction added): that 40 x 200
    # map has rank 36, and its left kernel is spanned by the 4 constant
    # rows sum_a D_a E_(ab) / n(ab), one per b, the contracted Bianchi
    # identity at top order (ROADMAP item 20)
    bianchi = np.zeros((DIM, len(PAIRS), DIM))
    for a, b in itertools.product(range(DIM), repeat=2):
        bianchi[b, pair_index(a, b), a] = 1.0 / MULT[pair_index(a, b)]
    bianchi = bianchi.reshape(DIM, -1)
    for name, spec in sections.items():
        p = catalog.eh_point_at(spec, np.array(interior_points(spec, 2, 17)))
        _, jac = fiber_jacobian(eh.constraint_einstein, p, ["d2g"])
        jac = jac.reshape(p.lead + (len(PAIRS),) * 3)  # E_i by d2g_jk
        d3 = np.zeros(p.lead + (len(PAIRS), DIM, len(PAIRS), len(TRIPLES)))
        for k, tau in itertools.product(range(len(PAIRS)), range(DIM)):
            d3[..., :, tau, :, UP[2][k, tau]] += jac[..., k]
        d3 = d3.reshape(p.lead + (len(PAIRS) * DIM, -1))
        s = np.linalg.svd(d3, compute_uv=False)
        assert (s[..., 35] >= 1e-3 * s[..., 0]).all(), name
        assert (s[..., 36] <= 1e-14 * s[..., 0]).all(), name
        assert np.abs(bianchi @ d3).max() <= 1e-14 * np.abs(d3).max(), name
