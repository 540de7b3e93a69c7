"""End-to-end acceptance checks for the verification engine.

Each test prints a single PASS/FAIL line so a full run doubles as a
sign-off report:

    pytest tests/test_acceptance.py -s
"""

import time

import numpy as np
import pytest

from conftest import einstein_suite, interior_points, projective_shift
import oracle
from msgrav import catalog, eh, ep
from msgrav.fieldspace import (EH_OFF, EP_DIM_J1, EP_OFF,
                               field_equation_covector, prolong)
from msgrav.indexing import pair_index
from msgrav.report import CheckConfig, report_json, run_check

ALL_METRICS = ("minkowski", "spherical-flat", "schwarzschild", "kasner",
               "ppwave", "flrw", "desitter")
VACUUM_METRICS = ("minkowski", "spherical-flat", "schwarzschild", "kasner",
                  "ppwave")


def _verdict(num, label, ok):
    print(f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="module")
def momenta_samples():
    """(AD momenta, closed forms) at 30 random points per metric, shared by
    criteria 2-3."""
    out = {}
    for name in ALL_METRICS:
        spec = catalog.builtin(name)
        rows = []
        for x in interior_points(spec, 30, seed=7):
            p = catalog.eh_point_at(spec, x)
            closed = eh.closed_forms(p)
            rows.append((eh.momenta_and_hamiltonian(p, closed), closed))
        out[name] = rows
    return out


def test_acceptance_1_dimension_counts():
    # the bundle coordinates are the blocks before the first derivatives
    ok = (EH_OFF["dg"] == 14 and EP_OFF["dg"] == 78 and EP_DIM_J1 == 374)
    _verdict(1, "bundle dimensions 14 / 78 / 374", ok)


def test_acceptance_2_momenta_identity(momenta_samples):
    worst = 0.0
    for rows in momenta_samples.values():
        for m, closed in rows:
            scale = 1.0 + np.abs(closed.L2.v).max()
            worst = max(worst, np.abs(m.L2_ad - closed.L2.v).max() / scale)
    _verdict(2, f"second-order momenta identity, rel {worst:.2e}",
             worst <= 1e-10)


def test_acceptance_3_hamiltonian_dual_form(momenta_samples):
    worst = 0.0
    for rows in momenta_samples.values():
        for m, closed in rows:
            worst = max(worst, abs(m.H_sum - closed.H.v)
                        / (1.0 + abs(closed.H.v)))
    _verdict(3, f"Hamiltonian dual-form identity, rel {worst:.2e}",
             worst <= 1e-10)


def test_acceptance_4_vacuum_certification():
    t0 = time.monotonic()
    worst = 0.0
    for name in ("minkowski", "schwarzschild", "kasner", "ppwave"):
        spec = catalog.builtin(name)
        for x in interior_points(spec, 50, seed=11):
            p = catalog.eh_point_at(spec, x)
            form = eh.cartan_form_eh(p, eh.closed_forms(p))
            worst = max(worst,
                        np.abs(eh.constraint_einstein(p)).max(),
                        np.abs(eh.constraint_einstein_derivative(p)[1]).max(),
                        np.abs(field_equation_covector(form, p)).max())
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed <= 30.0
    _verdict(4, f"vacuum certification, max {worst:.2e} in {elapsed:.1f}s",
             ok)


def test_acceptance_5_nonvacuum_control():
    spec = catalog.builtin("flrw")
    c = eh.constraint_einstein(
        catalog.eh_point_at(spec, (0.0, 0.2, -0.1, 0.3)))
    value_ok = abs(abs(c[pair_index(0, 0)]) - 0.03) <= 1e-6
    report = run_check(CheckConfig(model="eh", spec=spec, points=10))
    fams = {f["family"]: f["pass"] for f in report.families}
    suite_ok = (report.verdict == "fail"
                and fams["einstein-constraint"] is False)
    _verdict(5, "non-vacuum control (expanding cosmology)",
             value_ok and suite_ok)


def test_acceptance_6_projectability():
    p_eh = catalog.eh_point_at(catalog.builtin("schwarzschild"),
                               (0.0, 5.0, 1.2, 3.0))
    dev_eh, ctrl_eh, _ = eh.projectability_check(
        p_eh, eh.closed_forms(p_eh), trials=10, seed=3)
    p_ep = catalog.ep_point_at(catalog.builtin("flrw"),
                               (0.3, 0.1, 0.2, -0.4))
    dev_ep, ctrl_ep, _ = ep.projectability_check_ep(
        p_ep, ep.closed_forms_ep(p_ep), trials=10, seed=3)
    ok = (dev_eh <= 1e-10 and dev_ep <= 1e-10
          and ctrl_eh > 1e-3 and ctrl_ep > 1e-3)
    _verdict(6, f"projectability, dev {max(dev_eh, dev_ep):.2e} "
                f"with live controls", ok)


def test_acceptance_7_first_order_model_constraints():
    worst = 0.0
    for name in VACUUM_METRICS:
        spec = catalog.builtin(name)
        for x in interior_points(spec, 50, seed=13):
            p = catalog.ep_point_at(spec, x)
            worst = max(worst,
                        np.abs(ep.constraint_c0(ep.closed_forms_ep(p))).max(),
                        np.abs(ep.constraint_premetricity(p)).max(),
                        np.abs(ep.constraint_torsion(p)).max(),
                        np.abs(ep.constraint_torsion_deriv(p)).max(),
                        np.abs(ep.constraint_integrability(p)).max())
    equiv = 0.0
    for name in ALL_METRICS:
        spec = catalog.builtin(name)
        for x in interior_points(spec, 20, seed=17):
            le = ep.legendre_fn(catalog.ep_point_at(spec, x))[0]
            lh = eh.lagrangian_fn(prolong(catalog.metric_jet_at(spec, x)))
            equiv = max(equiv, abs(le - lh) / (1.0 + abs(lh)))
    ok = worst <= 1e-8 and equiv <= 1e-10
    _verdict(7, f"metric-affine constraints {worst:.2e}, "
                f"model equivalence {equiv:.2e}", ok)


def test_acceptance_8_projective_gauge_invariance():
    A = np.array([0.3, -0.1, 0.2, 0.05])
    dA = np.array([[0.1, -0.3, 0.0, 0.2], [0.05, 0.1, 0.0, 0.0],
                   [0.0, -0.1, 0.2, 0.0], [0.4, 0.0, 0.0, -0.3]])
    worst = 0.0
    for name in ("schwarzschild", "kasner", "flrw"):
        spec = catalog.builtin(name)
        for x in interior_points(spec, 10, seed=19):
            p = projective_shift(catalog.ep_point_at(spec, x), A, dA)
            worst = max(worst,
                        np.abs(ep.constraint_premetricity(p)).max(),
                        np.abs(ep.constraint_torsion(p)).max(),
                        np.abs(ep.constraint_torsion_deriv(p)).max())
    _verdict(8, f"projective gauge invariance, max {worst:.2e}",
             worst <= 1e-8)


def test_acceptance_9_oracle_agreement():
    from msgrav.indexing import PAIR_FULL
    worst = 0.0
    for name in ALL_METRICS:
        spec = catalog.builtin(name)
        for x in interior_points(spec, 5, seed=23):
            p = catalog.eh_point_at(spec, x)
            suite = einstein_suite(p.g, p.dg, p.d2g)
            ginv_o, rho_o, gam_o, ric_o, scal_o, ein_o = \
                oracle.curvature_oracle(spec, x)
            for got, want in (
                    (suite.ginv[PAIR_FULL], ginv_o),
                    (suite.gamma[:, PAIR_FULL], gam_o),
                    (suite.ricci, ric_o),
                    (suite.einstein_lower[PAIR_FULL], ein_o)):
                scale = 1.0 + np.abs(want).max()
                worst = max(worst, np.abs(got - want).max() / scale)
            worst = max(worst, abs(suite.rho - rho_o) / (1 + rho_o))
            worst = max(worst, abs(suite.scalar - scal_o)
                        / (1 + abs(scal_o)))
    _verdict(9, f"independent curvature oracle, rel {worst:.2e}",
             worst <= 1e-5)


def test_acceptance_10_report_determinism(monkeypatch):
    from msgrav import report
    texts = set()
    for chunk in (report.CHUNK_POINTS, 1):
        monkeypatch.setattr(report, "CHUNK_POINTS", chunk)
        for model, metric in (("eh", "flrw"), ("ep", "kasner")):
            spec = catalog.builtin(metric)
            for threads in (1, 4):
                texts.add(report_json(run_check(CheckConfig(
                    model=model, spec=spec, points=8, seed=5,
                    threads=threads))))
    # one byte string per (model, metric), regardless of thread count and
    # of chunking
    _verdict(10, "byte-identical reports across threads and chunkings",
             len(texts) == 2)
