import itertools
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import interior_points, projective_shift, random_jet
from test_generic_sections import SEEDS, generic_section
from msgrav import catalog, eh, ep
from msgrav.fieldspace import (EP_OFF, EPJetPoint, fiber_gradient,
                               fiber_hessian, field_equation_covector,
                               tangent_lifts, trial_stack)
from msgrav.geometry import metric_inverse_density
from msgrav.indexing import APAIRS, DIM, PAIR_FULL, PAIRS, pair_index
from msgrav.report import KIND_TOLERANCES, CheckConfig, run_check

ETA = np.array([-1.0, 0, 0, 0, 1.0, 0, 0, 1.0, 0, 1.0])
REPO = Path(__file__).resolve().parents[1]


def flat_point(Gamma=None, dGamma=None, g=None, dg=None):
    return EPJetPoint(
        x=np.zeros(4), g=ETA if g is None else g,
        Gamma=np.zeros((4, 4, 4)) if Gamma is None else Gamma,
        dg=np.zeros((10, 4)) if dg is None else dg,
        dGamma=np.zeros((4, 4, 4, 4)) if dGamma is None else dGamma,
        d2g=np.zeros((10, 10)))


def example_point():
    Gamma = np.zeros((4, 4, 4))
    Gamma[1, 0, 0] = 2.0
    Gamma[0, 1, 0] = 3.0
    return flat_point(Gamma=Gamma)


def test_lagrangian_trivial_and_example():
    assert ep.legendre_fn(flat_point())[0] == 0.0
    # only the quadratic cross term survives for this connection
    assert ep.legendre_fn(example_point())[0] == pytest.approx(6.0)


def test_lagrangian_matches_metric_model_on_levi_civita(all_specs):
    for name, spec in all_specs.items():
        for x in interior_points(spec, 4, seed=41):
            pe = catalog.ep_point_at(spec, x)
            le = ep.legendre_fn(pe)[0]
            lh = eh.lagrangian_fn(catalog.eh_point_at(spec, x))
            assert abs(le - lh) <= 1e-10 * (1.0 + abs(lh)), name


def test_momenta_closed_form_and_antisymmetry():
    rng = np.random.default_rng(0)
    p = flat_point(Gamma=rng.normal(size=(4, 4, 4)),
                   dGamma=rng.normal(size=(4, 4, 4, 4)))
    m = ep.momenta_ep(p)
    assert np.abs(m.Lmom_ad - ep.closed_forms_ep(p).Lmom.v).max() < 1e-12
    anti = m.Lmom_ad + np.transpose(m.Lmom_ad, (0, 3, 2, 1))
    assert np.abs(anti).max() < 1e-12
    # flat metric: L_2^{11,2} = g^{11} = 1
    assert m.Lmom_ad[2, 1, 1, 2] == pytest.approx(1.0)


def test_hamiltonian_trivial_and_legendre_cancellation():
    rng = np.random.default_rng(1)
    # Gamma = 0: L is purely linear in dGamma, so H vanishes identically
    p = flat_point(dGamma=rng.normal(size=(4, 4, 4, 4)))
    assert abs(ep.closed_forms_ep(p).H.v) < 1e-12
    # the example connection: H = -(quadratic part) = -6
    assert ep.closed_forms_ep(example_point()).H.v == pytest.approx(-6.0)


def test_metric_equation_trivial_zero():
    p = flat_point()
    assert np.abs(ep.constraint_c0(ep.closed_forms_ep(p))).max() == 0.0


def test_metric_equation_matches_metric_model_constraints():
    spec = catalog.builtin("flrw")
    for x in interior_points(spec, 3, seed=43):
        p = catalog.ep_point_at(spec, x)
        c0 = ep.constraint_c0(ep.closed_forms_ep(p))
        lab = eh.constraint_einstein(catalog.eh_point_at(spec, x))
        assert np.allclose(c0, -lab, rtol=1e-8, atol=1e-10)


def test_premetricity_examples():
    # Gamma = 0 on a curved metric leaves only the metric-derivative term
    g = ETA.copy()
    g[pair_index(1, 1)] = 2.0  # 1 + x1^2 at x1 = 1
    dg = np.zeros((10, 4))
    dg[pair_index(1, 1), 1] = 2.0
    p = flat_point(g=g, dg=dg)
    pm = ep.constraint_premetricity(p)
    assert pm[pair_index(1, 1), 1] == pytest.approx(2.0)
    other = pm.copy()
    other[pair_index(1, 1), 1] = 0.0
    assert np.abs(other).max() == 0.0


def test_all_constraints_vanish_on_levi_civita_sections(vacuum_specs):
    for name, spec in vacuum_specs.items():
        for x in interior_points(spec, 4, seed=47):
            p = catalog.ep_point_at(spec, x)
            assert np.abs(ep.constraint_c0(
                ep.closed_forms_ep(p))).max() < 1e-8, name
            assert np.abs(ep.constraint_premetricity(p)).max() < 1e-10
            assert np.abs(ep.constraint_torsion(p)).max() < 1e-12
            assert np.abs(ep.constraint_torsion_deriv(p)).max() < 1e-12
            assert np.abs(ep.constraint_integrability(p)).max() < 1e-8


def test_torsion_constraint_examples():
    # a single traceless component passes through the trace removal
    Gamma = np.zeros((4, 4, 4))
    Gamma[1, 2, 3] = 1.0
    c = ep.constraint_torsion(flat_point(Gamma=Gamma))
    assert c[1, APAIRS.index((2, 3))] == pytest.approx(1.0)
    # pure-trace torsion from a projective shift is removed entirely
    p = projective_shift(flat_point(), A=np.array([1.0, 0, 0, 0]))
    assert np.abs(ep.constraint_torsion(p)).max() < 1e-14
    assert np.abs(ep.constraint_torsion_deriv(p)).max() < 1e-14


def test_trace_removal_idempotent():
    rng = np.random.default_rng(2)
    T = rng.normal(size=(4, 4, 4))
    T = T - np.transpose(T, (0, 2, 1))
    once = ep.trace_removal(T)
    assert np.allclose(ep.trace_removal(once), once, atol=1e-13)


def _ladder_by_index_loops(p):
    """Premetricity, trace-removed torsion derivative and integrability
    written out index by index, as the reference for the einsum forms."""
    gm = p.g[[[pair_index(a, b) for b in range(DIM)] for a in range(DIM)]]
    gam, dgam = p.Gamma, p.dGamma
    ttr = np.einsum("llm->m", gam) - np.einsum("lml->m", gam)
    pre = np.array([[p.dg[i, mu] - gm[s] @ gam[:, mu, r]
                     - gm[r] @ gam[:, mu, s]
                     - (2.0 / 3.0) * gm[r, s] * ttr[mu]
                     for mu in range(DIM)] for i, (r, s) in enumerate(PAIRS)])

    def removed(T):
        tr = np.einsum("mmg->g", T)
        out = T.copy()
        for a in range(DIM):
            out[a, a, :] -= tr / 3.0
            out[a, :, a] += tr / 3.0
        return np.array([[out[a, b, c] for (b, c) in APAIRS]
                         for a in range(DIM)])

    dT = dgam - np.transpose(dgam, (0, 2, 1, 3))
    tder = np.stack([removed(dT[..., nu]) for nu in range(DIM)], axis=-1)
    dttr = np.einsum("llmn->mn", dgam) - np.einsum("lmln->mn", dgam)

    def bracket(r, s, mu, nu):
        return 0.5 * (gm[r] @ gam[:, nu, :] @ gam[:, mu, s]
                      - gm[r] @ gam[:, mu, :] @ gam[:, nu, s]
                      + gm[r] @ (dgam[:, mu, s, nu] - dgam[:, nu, s, mu]))

    integ = np.array([[bracket(r, s, mu, nu) + bracket(s, r, mu, nu)
                       + gm[r, s] * (dttr[mu, nu] - dttr[nu, mu]) / 3.0
                       for (mu, nu) in APAIRS] for (r, s) in PAIRS])
    return pre, tder, integ


def test_constraint_ladder_matches_index_loops():
    rng = np.random.default_rng(7)
    p = flat_point(Gamma=rng.normal(size=(4, 4, 4)),
                   dGamma=rng.normal(size=(4, 4, 4, 4)),
                   g=ETA + 0.1 * rng.normal(size=10),
                   dg=rng.normal(size=(10, 4)))
    got = (ep.constraint_premetricity(p), ep.constraint_torsion_deriv(p),
           ep.constraint_integrability(p))
    for g, w in zip(got, _ladder_by_index_loops(p)):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= 1e-14 * (1.0 + np.abs(w).max())


def test_integrability_trivial_cases():
    assert np.abs(ep.constraint_integrability(flat_point())).max() == 0.0
    # one constant component cannot close an index chain
    Gamma = np.zeros((4, 4, 4))
    Gamma[1, 0, 0] = 1.7
    c = ep.constraint_integrability(flat_point(Gamma=Gamma))
    assert np.abs(c).max() == 0.0


def test_projective_shift_identity_and_torsion_pattern():
    p = example_point()
    same = projective_shift(p, A=np.zeros(4))
    assert np.allclose(same.Gamma, p.Gamma)
    assert np.allclose(same.dGamma, p.dGamma)
    A = np.array([1.0, 0, 0, 0])
    q = projective_shift(flat_point(), A=A)
    from msgrav.geometry import torsion_full
    T = torsion_full(q.Gamma)
    want = (np.einsum("ag,b->abg", np.eye(4), A)
            - np.einsum("ab,g->abg", np.eye(4), A))
    assert np.allclose(T, want)


def test_projective_shift_invariance_on_levi_civita():
    A = np.array([0.3, -0.1, 0.2, 0.05])
    dA = np.array([[0.1, 0.0, -0.2, 0.3], [0.05, 0.1, 0.0, 0.0],
                   [0.0, -0.1, 0.2, 0.0], [0.4, 0.0, 0.0, -0.3]])
    for name in ("schwarzschild", "flrw"):
        spec = catalog.builtin(name)
        for x in interior_points(spec, 3, seed=53):
            p = projective_shift(catalog.ep_point_at(spec, x), A, dA)
            assert np.abs(ep.constraint_premetricity(p)).max() < 1e-8
            assert np.abs(ep.constraint_torsion(p)).max() < 1e-8
            assert np.abs(ep.constraint_torsion_deriv(p)).max() < 1e-8


def test_projective_shift_moves_ricci_but_not_lagrangian():
    # the shift adds the antisymmetric part dA[b,a] - dA[a,b] to the Ricci
    # tensor, which the symmetric inverse-metric contraction annihilates;
    # the Lagrangian is therefore pointwise gauge invariant while the
    # curvature itself visibly changes (the control)
    from msgrav.geometry import connection_traces, ricci
    spec = catalog.builtin("flrw")
    p = catalog.ep_point_at(spec, (0.3, 0.1, 0.2, -0.4))
    A = np.array([0.3, -0.1, 0.2, 0.05])
    dA = np.array([[0.1, -0.4, 0.0, 0.2], [0.3, 0.0, 0.1, 0.0],
                   [0.0, 0.2, -0.1, 0.0], [0.5, 0.0, 0.0, 0.3]])
    q = projective_shift(p, A=A, dA=dA)
    assert abs(ep.legendre_fn(q)[0] - ep.legendre_fn(p)[0]) < 1e-12
    delta = (ricci(q.Gamma, connection_traces(q.dGamma))
             - ricci(p.Gamma, connection_traces(p.dGamma)))
    assert np.allclose(delta, dA.T - dA, atol=1e-12)
    assert np.abs(delta).max() > 0.1


def test_projectability_and_controls():
    spec = catalog.builtin("schwarzschild")
    p = catalog.ep_point_at(spec, (0.0, 5.0, 1.2, 3.0))
    closed = ep.closed_forms_ep(p)
    dev, control, _ = ep.projectability_check_ep(p, closed, trials=5, seed=0)
    assert dev < 1e-10
    assert control > 1e-3
    # H reads (g, Gamma) alone, so randomizing dGamma by itself must leave
    # it still
    q = trial_stack(p, ("dGamma",), 5, 0)
    assert np.abs(ep.legendre_fn(q)[1][1:] - closed.H.v).max() < 1e-12


@pytest.mark.parametrize("component", ["H", "Lmom_ad"])
def test_projectability_reads_each_compared_component(monkeypatch,
                                                      component):
    # a shift of one compared component by eps in the trial rows alone
    # must read as a deviation of eps relative to its scale: 1 + the
    # trial's sum |Lmom_ad dGamma| + |L| for H, 1 + max |row 0| for the
    # momenta
    from dataclasses import replace
    eps = 1e-3
    p = catalog.ep_point_at(catalog.builtin("schwarzschild"),
                            (0.0, 5.0, 1.2, 3.0))
    closed = ep.closed_forms_ep(p)
    # the trials' H and AD momenta both come from the one dGamma pass
    real, seen = ep.momenta_ep, []

    def shifted(q):
        m = real(q)
        seen.append((q, m))
        v = getattr(m, component).copy()
        v[1:] += eps
        return replace(m, **{component: v})

    monkeypatch.setattr(ep, "momenta_ep", shifted)
    dev, _, _ = ep.projectability_check_ep(p, closed, 2, 0)
    (q, m), = seen
    if component == "H":
        scale = (np.abs(m.Lmom_ad * q.dGamma).sum(axis=(1, 2, 3, 4))
                 + np.abs(m.L))[1:].min()
    else:
        scale = np.abs(m.Lmom_ad[0]).max()
    assert scale > 0.1
    assert dev == pytest.approx(eps / (1.0 + scale), rel=1e-9)


def _reference_projectability(p, trials, seed):
    """Each trial a point of its own, with its own L pass and plain H
    call, compared with p's passes: H relative to 1 + the trial's
    sum |Lmom_ad dGamma| + |L|, the momenta to 1 + max |p's momenta|."""
    closed, m = ep.closed_forms_ep(p), ep.momenta_ep(p)
    stack = trial_stack(p, ("dg", "dGamma"), trials, seed)
    dev = control = 0.0
    for t in range(1, 1 + trials):
        q = EPJetPoint(x=p.x, g=p.g, Gamma=p.Gamma, dg=stack.dg[t],
                       dGamma=stack.dGamma[t], d2g=p.d2g)
        mq = ep.momenta_ep(q)
        mag = np.abs(mq.Lmom_ad * q.dGamma).sum() + abs(mq.L)
        dev = max(dev, abs(ep.legendre_fn(q)[1] - closed.H.v) / (1.0 + mag),
                  np.abs(mq.Lmom_ad - m.Lmom_ad).max()
                  / (1.0 + np.abs(m.Lmom_ad).max()))
        control = max(control, abs(mq.L - m.L))
    return dev, control, m


@pytest.mark.parametrize("trials", [1, 2, 3])
def test_stacked_projectability_rows_equal_single_point_calls(trials):
    # the trials of a stack ride one L pass over (trials, points) rows;
    # each point's deviations are those of the point checked alone, and
    # of its trials checked one after another
    spec = catalog.builtin("kasner")
    xs = np.array(interior_points(spec, 3, seed=53))
    seeds = np.array([7, 8, 9])
    stack = catalog.ep_point_at(spec, xs)
    dev, control, base = ep.projectability_check_ep(
        stack, ep.closed_forms_ep(stack), trials, seeds)
    assert dev.shape == control.shape == (3,)
    for i, (x, s) in enumerate(zip(xs, seeds)):
        p = catalog.ep_point_at(spec, x)
        one = ep.projectability_check_ep(p, ep.closed_forms_ep(p), trials,
                                         int(s))
        ref = _reference_projectability(p, trials, int(s))
        for got in (one, ref):
            assert np.array_equal(got[0], dev[i])
            assert np.array_equal(got[1], control[i])
            assert np.array_equal(got[2].L, base.L[i])
            assert np.array_equal(got[2].Lmom_ad, base.Lmom_ad[i])


def test_cartan_form_term_count():
    spec = catalog.builtin("minkowski")
    p = catalog.ep_point_at(spec, (0.0, 0.0, 0.0, 0.0))
    assert len(ep.cartan_form_ep(p, ep.closed_forms_ep(p))) == 1 + 256


def covector(p, closed):
    return field_equation_covector(ep.cartan_form_ep(p, closed), p)


def test_field_equation_on_and_off_shell(vacuum_specs):
    for name, spec in vacuum_specs.items():
        x = interior_points(spec, 1, seed=59)[0]
        p = catalog.ep_point_at(spec, x)
        assert np.abs(covector(p, ep.closed_forms_ep(p))).max() < 1e-8, name
    spec = catalog.builtin("flrw")
    p = catalog.ep_point_at(spec, (0.0, 0.2, -0.1, 0.3))
    closed = ep.closed_forms_ep(p)
    cov = covector(p, closed)
    c0 = ep.constraint_c0(closed)
    for a in range(10):
        assert cov[EP_OFF["g"] + a] == pytest.approx(
            c0[a], abs=1e-10)


def test_field_equation_covector_is_the_euler_lagrange_form():
    # at random jet points, off shell and off Levi-Civita, the covector is
    # -dL/dg on g, D_s Lmom^{bcs}_a - dL/dGamma^a_{bc} on Gamma (Lmom reads
    # g alone, so D_s Lmom is its g gradient along dg), and minus the
    # fiber part paired with each lift on x; every term of the form counts
    g, dg, _ = random_jet(89, 4)
    rng = np.random.default_rng(89)
    p = EPJetPoint(x=np.zeros((4, DIM)), g=g,
                   Gamma=rng.normal(size=(4,) + (DIM,) * 3), dg=dg,
                   dGamma=rng.normal(size=(4,) + (DIM,) * 4),
                   d2g=np.zeros((4, 10, 10)))
    closed = ep.closed_forms_ep(p)
    cov = covector(p, closed)
    L = fiber_gradient(ep.legendre_fn, p, ["g", "Gamma"])[0]
    n = len(PAIRS)
    dlmom = np.einsum("...abcsp,...ps->...abc", closed.Lmom.g, p.dg)
    want = np.concatenate([-L.g[..., :n],
                           dlmom.reshape(4, -1) - L.g[..., n:]], axis=-1)
    lifts = tangent_lifts(p, cov.shape[-1])
    want = np.concatenate([-np.einsum("...mk,...k->...m", lifts[..., DIM:],
                                      want), want], axis=-1)
    assert np.abs(want[..., DIM + n:]).max(axis=-1).min() > 1e-3
    assert np.allclose(cov, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_batched_momenta_rows_equal_unbatched():
    spec = catalog.builtin("kasner")
    xs = interior_points(spec, 5, seed=61)
    pts = [catalog.ep_point_at(spec, x) for x in xs]
    stack = catalog.ep_point_at(spec, np.array(xs))
    stacked, closed = ep.momenta_ep(stack), ep.closed_forms_ep(stack)
    assert stacked.L.shape == closed.H.v.shape == (5,)
    for i, p in enumerate(pts):
        one, one_closed = ep.momenta_ep(p), ep.closed_forms_ep(p)
        assert np.shape(one.L) == np.shape(one_closed.H.v) == ()
        for name in ("L", "Lmom_ad"):
            assert np.array_equal(getattr(stacked, name)[i],
                                  getattr(one, name)), name
        # the passes' values and derivatives alike
        for name in ("Lmom", "H"):
            for part in ("v", "g"):
                assert np.array_equal(
                    getattr(getattr(closed, name), part)[i],
                    getattr(getattr(one_closed, name), part)), (name, part)


def test_stacked_ep_point_equals_single_points():
    # the series, the Levi-Civita pass and the connection overrides on a
    # stack, row by row bit-identical to points built alone
    spec = catalog.load_metric_file(
        str(REPO / "msbench" / "inputs" / "bumpy.metric"))
    assert spec.connection
    xs = interior_points(spec, 4, seed=67)
    pts = [catalog.ep_point_at(spec, x) for x in xs]
    stack = catalog.ep_point_at(spec, np.array(xs))
    for i, p in enumerate(pts):
        for name in ("x", "g", "dg", "d2g", "Gamma", "dGamma"):
            assert np.array_equal(getattr(stack, name)[i],
                                  getattr(p, name)), name


def test_closed_momenta_are_the_per_entry_formula():
    # the one contraction with ep._MOMENTA against rho (g^{cb} d^s_a -
    # g^{cs} d^b_a) entry by entry, on random symmetric metrics; each
    # entry is a single product, so the two agree exactly
    g, _, _ = random_jet(79)
    rng = np.random.default_rng(79)
    p = EPJetPoint(x=np.zeros((3, DIM)), g=g,
                   Gamma=rng.normal(size=(3,) + (DIM,) * 3),
                   dg=rng.normal(size=(3, 10, DIM)),
                   dGamma=rng.normal(size=(3,) + (DIM,) * 4),
                   d2g=np.zeros((3, 10, 10)))
    got = ep.closed_forms_ep(p).Lmom.v
    ginv, rho = metric_inverse_density(g[:, PAIR_FULL])
    want = np.zeros((3,) + (DIM,) * 4)
    for a, b, c, s in itertools.product(range(DIM), repeat=4):
        want[:, a, b, c, s] = rho * ((ginv[:, c, b] if s == a else 0.0)
                                     - (ginv[:, c, s] if b == a else 0.0))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name, failing", [
    ("projective-orbit", set()),
    ("wrong-slot", {"metric-equation", "pre-metricity", "integrability",
                    "field-equation"})],
    ids=["projective-orbit", "wrong-slot"])
def test_connection_override_files(name, failing):
    # Minkowski with 16 connection components built from one covector xi:
    # in the projective slot, Gamma^a_{bc} = delta^a_c xi_b, the section is
    # on flat space's projective orbit and passes every family; in the
    # wrong slot, Gamma^a_{bc} = delta^a_b xi_c, it keeps zero torsion but
    # fails the field equations and the metricity ladder by order 1.
    # eh-equivalence is left out on the wrong slot, where it reads 0.67:
    # it is kinded an identity but holds only on Levi-Civita sections (the
    # FOUND line on it in CHANGES.md); its kind belongs with ROADMAP item 10
    spec = catalog.load_metric_file(
        str(REPO / "tests" / "inputs" / f"{name}.metric"))
    families = {f["family"]: f for f in run_check(
        CheckConfig(model="ep", spec=spec, points=20)).families}
    if failing:
        del families["eh-equivalence"]
    assert {fam for fam, f in families.items() if not f["pass"]} == failing
    assert all(families[fam]["max_resid"] > 1 for fam in failing)


def _connection_system(p, closed):
    """(dH/dGamma, J, c) of the system in the 40 g-velocities F of an ep
    point's four lifts, (g, Gamma) held: the covector's 64 Gamma slots are
    c(F) = dH/dGamma + J F, J (64, 40) the closed momenta's g-Jacobian
    with F over (metric pair, direction), and c = c(dg), the section's
    own velocities."""
    h = closed.H.g[..., len(PAIRS):]
    J = np.moveaxis(closed.Lmom.g, -1, -2).reshape(p.lead + (DIM ** 3, -1))
    return h, J, h + np.einsum("...ij,...j->...i", J,
                               p.dg.reshape(p.lead + (-1,)))


def _rank(m):
    """The rank of each matrix of a stack, relative to its largest
    singular value."""
    s = np.linalg.svd(m, compute_uv=False)
    return (s > 1e-10 * s[..., :1]).sum(axis=-1)


def test_connection_equation_decides_torsion_and_premetricity(tmp_path):
    # the system is solvable exactly where trace-free torsion vanishes, and
    # the section's own dg solves it exactly where pre-metricity holds
    # (ROADMAP item 18): each residual, relative to 1 + max |dH/dGamma|,
    # is rounding where its family passes and of order one where it fails
    specs = {name: catalog.builtin(name) for name in catalog.list_builtins()}
    for path in [REPO / "msbench" / "inputs" / f"{name}.metric"
                 for name in ("bumpy", "torsion")] + [
            REPO / "tests" / "inputs" / f"{name}.metric"
            for name in ("projective-orbit", "wrong-slot")]:
        specs[path.stem] = catalog.load_metric_file(str(path))
    for seed, eps in itertools.product(SEEDS, (0.1, 1e-6)):
        specs[f"generic-{seed}-{eps}"] = generic_section(tmp_path, seed, eps)
    tol = KIND_TOLERANCES["levi-civita"]
    fails = {ep.constraint_torsion: set(), ep.constraint_premetricity: set()}
    for name, spec in specs.items():
        p = catalog.ep_point_at(spec, np.array(interior_points(spec, 4, 3)))
        closed = ep.closed_forms_ep(p)
        h, J, c = _connection_system(p, closed)
        cov = covector(p, closed)[..., EP_OFF["Gamma"]:]
        assert np.abs(cov - c).max() <= 1e-13 * (1 + np.abs(cov).max()), name
        assert (_rank(J) == J.shape[-1]).all(), name
        u = np.linalg.svd(J)[0][..., J.shape[-1]:]  # J's cokernel
        scale = 1.0 + np.abs(h).max(axis=-1)
        compat = np.abs(np.einsum("...ik,...jk,...j->...i", u, u, h)
                        ).max(axis=-1) / scale  # the least-squares residual
        own = np.abs(c).max(axis=-1) / scale
        for resid, family in ((compat, ep.constraint_torsion),
                              (own, ep.constraint_premetricity)):
            passes = np.abs(family(p)).reshape(p.lead + (-1,)).max(-1) <= tol
            assert np.where(passes, resid <= 1e-13, resid >= 1e-2).all(), (
                name, family.__name__, resid)
            if not passes.all():
                fails[family].add(name)
    assert fails == {ep.constraint_torsion: {"torsion"},
                     ep.constraint_premetricity: {"torsion", "wrong-slot"}}


def test_connection_compatibility_map_is_trace_free_torsion():
    # dH/dGamma is the Gamma-Hessian of H times Gamma, H being quadratic in
    # Gamma; on J's 24-dimensional cokernel that Hessian has rank 20 and
    # the row space of trace-free torsion: stacked with the torsion map it
    # keeps rank 20. The cokernel's other 4 directions are the projective
    # invariance of L
    unit = SimpleNamespace(Gamma=np.eye(DIM ** 3).reshape((-1,) + (DIM,) * 3))
    torsion_map = ep.constraint_torsion(unit).reshape(DIM ** 3, -1).T
    assert _rank(torsion_map) == 20
    for name in ("schwarzschild", "kasner", "desitter", "flrw"):
        spec = catalog.builtin(name)
        p = catalog.ep_point_at(spec, np.array(interior_points(spec, 4, 5)))
        _, J, _ = _connection_system(p, ep.closed_forms_ep(p))
        u = np.linalg.svd(J)[0][..., J.shape[-1]:]
        assert u.shape[-1] == 24
        hess = fiber_hessian(lambda v: ep.legendre_fn(v)[1], p, ["Gamma"],
                             ["Gamma"])
        proj = np.einsum("...ik,...ij->...kj", u, hess)
        proj /= np.abs(proj).max(axis=(-2, -1), keepdims=True)
        stacked = np.concatenate(
            [proj, np.broadcast_to(torsion_map, proj.shape)], axis=-2)
        assert (_rank(proj) == 20).all() and (_rank(stacked) == 20).all(), \
            name
