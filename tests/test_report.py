import json

import pytest

from msgrav import catalog
from msgrav.errors import ConfigError, DomainError, MsgravError
from msgrav.report import (CheckConfig, emit_report, report_csv, report_json,
                           run_check, sample_points)


def cfg(model="eh", metric="minkowski", **kw):
    return CheckConfig(model=model, spec=catalog.builtin(metric), **kw)


def test_config_validation():
    with pytest.raises(ConfigError):
        cfg(model="xx")
    with pytest.raises(ConfigError):
        cfg(points=0)
    with pytest.raises(ConfigError):
        cfg(tolerances={"holonomy": -1.0})
    # a tolerance no residual can exceed would make its family unfailable
    for tol in (float("inf"), float("nan"), 0.0):
        with pytest.raises(ConfigError, match="holonomy"):
            cfg(tolerances={"holonomy": tol})
    # the report format belongs to emit_report, not to the check
    with pytest.raises(TypeError):
        cfg(fmt="csv")


def test_config_rejects_a_negative_seed():
    with pytest.raises(ConfigError, match="seed"):
        cfg(seed=-1)
    assert cfg(seed=0).seed == 0


@pytest.mark.parametrize("model,family", [
    ("eh", "einstien-constraint"), ("eh", "torsion"),
    ("ep", "holonomy")])
def test_config_rejects_a_family_the_model_lacks(model, family):
    with pytest.raises(ConfigError, match=family):
        cfg(model=model, tolerances={family: 1.0})


@pytest.mark.parametrize("model", ["eh", "ep"])
def test_default_tolerances_name_the_chunk_families(model):
    # a chunk reports the families of its model's table, in table order,
    # and each family's kind has a default tolerance
    from msgrav import report
    spec = catalog.builtin("schwarzschild")
    checks = getattr(report, f"_{model}_point_checks")
    _, out = checks(spec, sample_points(spec, 2, seed=1), [0, 1])
    assert list(out) == [fam for fam, _, _ in report.FAMILIES[model]]
    assert all(kind in report.KIND_TOLERANCES
               for _, kind, _ in report.FAMILIES[model])


def test_sampling_is_seeded_and_inside_the_box():
    import numpy as np

    spec = catalog.builtin("schwarzschild")
    a = sample_points(spec, 10, seed=5)
    b = sample_points(spec, 10, seed=5)
    c = sample_points(spec, 10, seed=6)
    assert a.shape == (10, 4)
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    assert spec.contains(a).all()


def test_minkowski_all_families_pass():
    r = run_check(cfg(points=4))
    assert r.verdict == "pass"
    assert all(f["pass"] for f in r.families)
    assert {f["family"] for f in r.families} == {
        "holonomy", "momenta-identity", "hamiltonian-dual-form",
        "projectability", "einstein-constraint",
        "einstein-constraint-derivative", "field-equation"}
    assert max(f["max_resid"] for f in r.families) < 1e-12


def test_flrw_fails_the_einstein_family():
    r = run_check(cfg(metric="flrw", points=4))
    by_name = {f["family"]: f for f in r.families}
    assert r.verdict == "fail"
    assert not by_name["einstein-constraint"]["pass"]
    assert by_name["einstein-constraint"]["max_resid"] > 0.01
    assert by_name["momenta-identity"]["pass"]
    # the verdict is the conjunction of the family flags
    assert (r.verdict == "pass") == all(f["pass"] for f in r.families)


def test_tolerance_override_flips_outcome():
    loose = {"einstein-constraint": 10.0,
             "einstein-constraint-derivative": 10.0,
             "field-equation": 10.0}
    r = run_check(cfg(metric="flrw", points=3, tolerances=loose))
    assert r.verdict == "pass"


def test_ep_families_on_levi_civita():
    r = run_check(cfg(model="ep", metric="schwarzschild", points=4))
    assert r.verdict == "pass"
    assert {f["family"] for f in r.families} == {
        "momenta-identity", "projectability", "eh-equivalence",
        "metric-equation", "pre-metricity", "torsion",
        "torsion-derivative", "integrability", "field-equation"}


MINKOWSKI = """[metric]
g 0 0 = -1
g 1 1 = 1
g 2 2 = 1
g 3 3 = 1
[connection]
"""
SCHWARZSCHILD = """[metric]
g 0 0 = -(1 - 2*m/x1)
g 1 1 = 1/(1 - 2*m/x1)
g 2 2 = x1^2
g 3 3 = x1^2*sin(x2)^2
[params]
m = 1
[domain]
x1 = 3..10
x2 = 0.3..2.8
x3 = 0..6
[connection]
"""
LADDER = ("pre-metricity", "torsion", "torsion-derivative", "integrability")


@pytest.mark.parametrize("text, failing", [
    # a projective shift of Levi-Civita: the ladder is blind to it
    (MINKOWSKI + "".join(f"Gamma {c} 1 {c} = 0.1*x0\n" for c in range(4)),
     set()),
    # symmetric but not metric-compatible
    (MINKOWSKI + "Gamma 1 1 2 = 0.1*x0\nGamma 1 2 1 = 0.1*x0\n",
     {"pre-metricity", "integrability", "metric-equation"}),
    # torsionful
    (SCHWARZSCHILD + "Gamma 1 0 2 = 0.1*x1\n",
     {*LADDER, "metric-equation"}),
])
def test_ep_constraint_ladder_negative_controls(tmp_path, text, failing):
    path = tmp_path / "spec.metric"
    path.write_text(text, encoding="utf-8")
    spec = catalog.load_metric_file(str(path))
    r = run_check(CheckConfig(model="ep", spec=spec, points=4, seed=0))
    flags = {f["family"]: f["pass"] for f in r.families}
    for fam in (*LADDER, "metric-equation"):
        assert flags[fam] == (fam not in failing), fam
    assert (r.verdict == "pass") == (not failing)


def test_json_report_is_valid_and_full_precision():
    r = run_check(cfg(metric="flrw", points=3))
    text = report_json(r)
    obj = json.loads(text)
    assert list(obj) == ["model", "metric", "seed", "points", "skipped",
                        "families", "verdict", "version"]
    for fam, parsed in zip(r.families, obj["families"]):
        # 17 significant digits round-trip doubles exactly
        assert parsed["max_resid"] == fam["max_resid"]
        assert parsed["worst_point"] == fam["worst_point"]


BUMPY = """[metric]
name = bumpy
g 0 0 = -1 - k*x1^2
g 1 1 = 1
g 2 2 = 1 + x1^2
g 3 3 = 1
[params]
k = 0.5
[domain]
x1 = -0.8..0.8
[connection]
Gamma 1 0 0 = k*x1
"""


def _spec(tmp_path, source):
    if source in catalog.list_builtins():
        return catalog.builtin(source)
    path = tmp_path / "spec.metric"
    path.write_text(source, encoding="utf-8")
    return catalog.load_metric_file(str(path))


def _reports_by_layout(monkeypatch, spec, model, points, seed):
    """The JSON report under each (chunk limit, threads) layout: the
    default chunk limit and one point per chunk, serial and threaded."""
    from msgrav import report
    out = {}
    for chunk in (report.CHUNK_POINTS, 1):
        monkeypatch.setattr(report, "CHUNK_POINTS", chunk)
        for threads in (1, 4):
            out[chunk, threads] = report_json(run_check(CheckConfig(
                model=model, spec=spec, points=points, seed=seed,
                threads=threads)))
    return out


def test_serial_and_threaded_reports_are_byte_identical(monkeypatch,
                                                        tmp_path):
    # neither the worker count nor the chunking may change a report, on a
    # builtin or on a file with a connection override, in either model
    for source in ("kasner", BUMPY):
        spec = _spec(tmp_path, source)
        for model in ("eh", "ep"):
            texts = _reports_by_layout(monkeypatch, spec, model, points=10,
                                       seed=9)
            assert len(set(texts.values())) == 1, (spec.name, model)


# ln of a negative number wherever |x1| < 0.1; no point of the 3^4
# validation grid (x1 = -1, 0.2, 1.4) reaches it
LOG_WALL = """[metric]
name = log-wall
g 0 0 = -1
g 1 1 = 1
g 2 2 = 3 + 0.1*ln(x1^2 - 0.01)
g 3 3 = 1
[domain]
x1 = -1..1.4
"""


@pytest.mark.parametrize("model", ["eh", "ep"])
def test_singular_points_are_skipped_alike_in_every_chunking(
        monkeypatch, tmp_path, model):
    spec = _spec(tmp_path, LOG_WALL)
    # seed 1 puts points 1, 4 and 18 of 20 inside the wall, so the
    # default chunks hold skipped and kept points together
    singular = [i for i, x in enumerate(sample_points(spec, 20, seed=1))
                if abs(x[1]) < 0.1]
    assert singular == [1, 4, 18]
    texts = _reports_by_layout(monkeypatch, spec, model, points=20, seed=1)
    assert len(set(texts.values())) == 1
    r = json.loads(next(iter(texts.values())))
    assert r["points"] == 20 and r["skipped"] == len(singular)
    assert 1 <= r["skipped"] <= 0.2 * r["points"]
    assert all(f["points"] == 20 - r["skipped"] for f in r["families"])


def test_csv_report_shape():
    r = run_check(cfg(points=3))
    lines = report_csv(r).strip().splitlines()
    assert lines[0] == "family,points,max_resid,mean_resid,tol,pass"
    assert len(lines) == 1 + len(r.families)
    assert all(line.endswith(",pass") for line in lines[1:])


def test_emit_report_writes_file(tmp_path):
    r = run_check(cfg(points=2))
    path = tmp_path / "report.json"
    text = emit_report(r, fmt="json", path=str(path))
    assert path.read_text(encoding="utf-8") == text
    with pytest.raises(MsgravError):
        emit_report(r, fmt="json", path=str(tmp_path / "no" / "dir.json"))
    with pytest.raises(MsgravError, match="xml"):
        emit_report(r, fmt="xml")


def _ep_checks_setting(monkeypatch, family, rows):
    """Patch ep's chunk checks to set `family`'s residual at the given
    rows (row -> value) of each chunk; the built points, in order."""
    from msgrav import report

    real = report._ep_point_checks
    seen = []

    def checks(spec, xs, seeds):
        kept, out = real(spec, xs, seeds)
        seen.extend(xs[k] for k in kept)
        for row, value in rows.items():
            out[family][row] = value
        return kept, out

    monkeypatch.setattr(report, "_ep_point_checks", checks)
    return seen


def test_nonfinite_residual_is_a_domain_error(monkeypatch):
    # a NaN or inf residual never reaches a report: the run fails, naming
    # the family and the first point, in sample order, where it is not
    # finite
    for bad in (float("nan"), float("inf")):
        with monkeypatch.context() as m:
            seen = _ep_checks_setting(m, "torsion", {1: bad, 2: bad})
            with pytest.raises(DomainError, match="torsion residual is not "
                                                  "finite") as e:
                run_check(cfg(model="ep", points=3, threads=1))
        assert str(tuple(float(v) for v in seen[1])) in str(e.value)


def test_overflowing_mean_residual_is_a_domain_error(monkeypatch):
    # each residual is finite, but their mean is not
    _ep_checks_setting(monkeypatch, "torsion", {0: 1e308, 1: 1e308})
    with pytest.raises(DomainError, match="torsion residuals are finite, "
                                          "but their mean overflows"):
        run_check(cfg(model="ep", points=2, threads=1))


def test_report_numbers_are_finite_and_in_repr_form():
    # json writes the report: floats in their repr, no null, no NaN
    r = run_check(cfg(metric="flrw", points=3))
    text = report_json(r)
    fam = r.families[0]
    assert (f'"max_resid": {fam["max_resid"]!r}, '
            f'"mean_resid": {fam["mean_resid"]!r}') in text
    assert "null" not in text and "NaN" not in text
    rows = report_csv(r).splitlines()[1:]
    assert rows[0].split(",")[2:5] == [repr(fam[k]) for k in
                                       ("max_resid", "mean_resid", "tol")]


def test_control_characters_in_a_name_round_trip():
    import dataclasses

    name = 'a\tb\x01c "quoted" \\ \u00e9'
    r = dataclasses.replace(run_check(cfg(points=2)), metric=name)
    assert json.loads(report_json(r))["metric"] == name


def test_a_passing_run_warns_on_no_worker(monkeypatch):
    # numbers decide, not warnings: an overflow that no residual reads
    # leaves the report passing, and numpy warns of it neither in a serial
    # run nor on a worker thread, whose error state is its own
    import warnings

    import numpy as np

    from msgrav import eh
    real = eh.closed_forms

    def closed_forms(p):
        np.full(2, 1e308) * 10  # read by no residual
        return real(p)

    monkeypatch.setattr(eh, "closed_forms", closed_forms)
    for threads in (1, 2):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            r = run_check(cfg(points=16, threads=threads))
        assert r.verdict == "pass", threads


@pytest.mark.parametrize("model", ["eh", "ep"])
def test_one_series_pass_per_chunk(monkeypatch, tmp_path, model):
    # a chunk is built as one stack, at the order its model reads; a
    # singular point costs a retry of each point alone and one more stack
    # of the survivors
    from msgrav import report
    real, calls, orders = catalog.metric_jet_at, [], set()

    def counted(spec, x, order):
        calls.append(len(x))
        orders.add(order)
        return real(spec, x, order)

    monkeypatch.setattr(catalog, "metric_jet_at", counted)
    checks = report._eh_point_checks if model == "eh" else \
        report._ep_point_checks
    spec = catalog.builtin("schwarzschild")
    xs = sample_points(spec, 8, seed=3)
    kept, _ = checks(spec, xs, list(range(8)))
    assert kept == list(range(8)) and calls == [8]
    assert orders == {3 if model == "eh" else 2}
    calls.clear()
    wall = _spec(tmp_path, LOG_WALL)
    xs = sample_points(wall, 8, seed=1)
    kept, out = checks(wall, xs, list(range(8)))
    assert kept == [0, 2, 3, 5, 6, 7]
    assert calls == [8] + [1] * 8 + [6]
    assert all(len(v) == 6 for v in out.values())


def test_ep_chunk_runs_each_momenta_pass_once(monkeypatch):
    # one (g, Gamma) pass runs at the points and one dGamma pass covers the
    # points and their trials, each evaluating legendre_fn once; the
    # passes' values stand in for plain calls, so no plain call is made
    from msgrav import ep, report
    real_fn, calls = ep.legendre_fn, []

    def counted(pt):
        calls.append(pt)
        return real_fn(pt)

    monkeypatch.setattr(ep, "legendre_fn", counted)
    real_pass, passes = ep.fiber_gradient, []

    def logged(f, p, blocks):
        passes.append((tuple(blocks), p.lead))
        return real_pass(f, p, blocks)

    monkeypatch.setattr(ep, "fiber_gradient", logged)
    spec = catalog.builtin("schwarzschild")
    kept, _ = report._ep_point_checks(spec, sample_points(spec, 8, seed=3),
                                      list(range(8)))
    assert kept == list(range(8))
    assert passes == [(("g", "Gamma"), (8,)), (("dGamma",), (3, 8))]
    assert len(calls) == 2


@pytest.mark.parametrize("model, points, budget",
                         [("eh", 2, 160), ("ep", 8, 60)])
def test_chunk_contraction_budget(monkeypatch, model, points, budget):
    # fixed index structure is built once at import, so each closed form
    # and each Lagrangian invariant is one contraction and the Cartan
    # contraction shares its 2x2 minors: a chunk makes at most this many
    # planned contractions. eh's count includes 10 outer blocks of its
    # Hessian pass that no mixed term reads: 2 of the d2g term, 3 of
    # -g(w, w) and 5 of the 5-operand J term
    from msgrav import report, tangents
    real, calls = tangents._contract, []

    def counted(subscripts, ops):
        calls.append(subscripts)
        return real(subscripts, ops)

    monkeypatch.setattr(tangents, "_contract", counted)
    spec = catalog.builtin("schwarzschild")
    checks = (report._eh_point_checks if model == "eh"
              else report._ep_point_checks)
    kept, _ = checks(spec, sample_points(spec, points, seed=3),
                     list(range(points)))
    assert kept == list(range(points))
    assert 0 < len(calls) <= budget, len(calls)


@pytest.mark.parametrize("model", ["eh", "ep"])
def test_a_chunk_validates_its_metric_once(monkeypatch, model):
    # the metric-affine point and the trial stacks keep the prolonged
    # point's g, so only the prolonged point's metric is checked
    from msgrav import fieldspace, report
    real, calls = fieldspace._check_lorentzian, []

    def counted(g):
        calls.append(g.shape)
        return real(g)

    monkeypatch.setattr(fieldspace, "_check_lorentzian", counted)
    spec = catalog.builtin("schwarzschild")
    checks = getattr(report, f"_{model}_point_checks")
    kept, _ = checks(spec, sample_points(spec, 8, seed=3), list(range(8)))
    assert kept == list(range(8)) and calls == [(8, 10)]


RELATIVE = {"eh": ("momenta-identity", "hamiltonian-dual-form"),
            "ep": ("momenta-identity", "eh-equivalence")}


@pytest.mark.parametrize("model", ["eh", "ep"])
def test_relative_families_scale_by_one_plus_the_reference(model):
    # a relative family reports |delta| / (1 + |ref|), delta and ref
    # recomputed here point by point from the model functions; the momenta
    # routes agree exactly, so the Hamiltonian and Lagrangian routes,
    # which differ at round-off, are what can show a wrong scale
    import numpy as np

    from msgrav import eh, ep
    spec = catalog.builtin("schwarzschild")
    r = run_check(CheckConfig(model=model, spec=spec, points=4, seed=2))
    want = dict.fromkeys(RELATIVE[model], 0.0)
    for x in sample_points(spec, 4, seed=2):
        if model == "eh":
            p = catalog.eh_point_at(spec, x)
            closed = eh.closed_forms(p)
            m = eh.momenta_and_hamiltonian(p, closed)
            pairs = {"momenta-identity": (m.L2_ad - closed.L2.v,
                                          closed.L2.v),
                     "hamiltonian-dual-form": (m.H_sum - closed.H.v,
                                               closed.H.v)}
        else:
            p = catalog.ep_point_at(spec, x)
            lmom, l_eh = ep.closed_forms_ep(p).Lmom.v, eh.lagrangian_fn(p)
            m = ep.momenta_ep(p)
            pairs = {"momenta-identity": (m.Lmom_ad - lmom, lmom),
                     "eh-equivalence": (m.L - l_eh, l_eh)}
        for fam, (delta, ref) in pairs.items():
            want[fam] = max(want[fam], np.abs(delta).max()
                            / (1.0 + np.abs(ref).max()))
    got = {f["family"]: f["max_resid"] for f in r.families}
    assert want[RELATIVE[model][1]] > 0.0
    for fam, w in want.items():
        assert got[fam] == pytest.approx(w, rel=1e-12, abs=0.0), fam


def test_a_one_chunk_check_starts_no_pool(monkeypatch):
    from msgrav import report
    started = []

    def pool(*args, **kwargs):
        started.append(kwargs)
        raise RuntimeError("a thread pool was started")

    monkeypatch.setattr(report, "ThreadPoolExecutor", pool)
    for n in (1, report.CHUNK_POINTS):
        r = run_check(cfg(model="ep", points=n, threads=4))
        assert r.points == n and r.verdict == "pass"
    assert not started
    with pytest.raises(RuntimeError, match="pool"):
        run_check(cfg(model="ep", points=report.CHUNK_POINTS + 1, threads=4))
    assert started == [{"max_workers": 4}]


def test_config_bounds_the_point_count():
    from msgrav.errors import ConfigError
    from msgrav.report import MAX_POINTS
    assert cfg(points=MAX_POINTS).points == MAX_POINTS
    for n in (MAX_POINTS + 1, 10**20):
        with pytest.raises(ConfigError, match="sample points"):
            cfg(points=n)


def test_the_environment_does_not_configure_a_check(monkeypatch, tmp_path):
    # a worker count comes from CheckConfig alone: the variable an earlier
    # release read changes neither the exit code nor a byte of the report,
    # here of two chunks, which a pool of 4 would run
    from msgrav import cli

    def report(model, env):
        if env is None:
            monkeypatch.delenv("MSGR_THREADS", raising=False)
        else:
            monkeypatch.setenv("MSGR_THREADS", env)
        out = tmp_path / f"{model}-{env}.json"
        code = cli.main(["check", "--model", model, "--metric", "kasner",
                         "--points", "9", "--out", str(out)])
        assert code == 0, (model, env)
        return out.read_bytes()

    for model in ("eh", "ep"):
        want = report(model, None)
        assert report(model, "abc") == want
        assert report(model, "4") == want


@pytest.mark.parametrize("n", [2, 8])
@pytest.mark.parametrize("metric", ["schwarzschild", "kasner", "ppwave",
                                    "flrw"])
def test_fused_eh_checks_equal_each_public_call(metric, n):
    # the chunk shares its closed forms, takes the point's momenta from the
    # trials' pass, the constraints from their derivative pass and the
    # holonomy and field-equation rows from one covector; each family must
    # be bit for bit what its own public calls give
    import numpy as np

    from msgrav import eh, report
    from msgrav.fieldspace import EH_OFF, field_equation_covector
    spec = catalog.builtin(metric)
    xs = sample_points(spec, n, seed=3)
    seeds = list(range(10, 10 + n))
    kept, out = report._eh_point_checks(spec, xs, seeds)
    assert kept == list(range(n))
    p = catalog.eh_point_at(spec, np.array(xs))
    closed = eh.closed_forms(p)
    m = eh.momenta_and_hamiltonian(p, closed)
    cov = field_equation_covector(eh.cartan_form_eh(p, closed), p)
    amax, rel = report._amax, report._rel
    want = {
        "holonomy": rel(amax(cov[:, EH_OFF["dg"]:]), amax(cov)),
        "momenta-identity": rel(amax(m.L2_ad - closed.L2.v),
                                amax(closed.L2.v)),
        "hamiltonian-dual-form": rel(np.abs(m.H_sum - closed.H.v),
                                     closed.H.v),
        "projectability": eh.projectability_check(p, closed, 2,
                                                  np.array(seeds))[0],
        "einstein-constraint": amax(eh.constraint_einstein(p)),
        "einstein-constraint-derivative": amax(
            eh.constraint_einstein_derivative(p)[1]),
        "field-equation": amax(cov),
    }
    assert list(out) == list(want)
    for fam, v in want.items():
        assert np.array_equal(out[fam], v), fam


def test_eh_chunk_of_eight_peaks_under_five_mib():
    # the chunk limit bounds memory (see the report docstring): an 8-point
    # eh chunk's transients peak at 5 MiB or less; a first call plans the
    # chunk's contractions, so the second is measured
    import tracemalloc

    from msgrav import report
    spec = catalog.builtin("schwarzschild")
    xs = sample_points(spec, 8, seed=3)
    report._eh_point_checks(spec, xs, list(range(8)))
    tracemalloc.start()
    try:
        kept, _ = report._eh_point_checks(spec, xs, list(range(8)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kept == list(range(8))
    assert peak <= 5 * 2**20, peak / 2**20


def test_holonomy_fails_a_lagrangian_with_a_dg_dg_term(monkeypatch):
    # L + 0.1 dg.dg no longer matches the closed parts of the Cartan form,
    # so the field equation's dg slots stop vanishing at the section's
    # lifts: the holonomy row fails wherever the metric has a nonzero dg
    from msgrav import eh
    from msgrav.tangents import einsum
    lagrangian = eh.lagrangian_fn
    monkeypatch.setattr(eh, "lagrangian_fn", lambda pt: lagrangian(pt)
                        + 0.1 * einsum("am,am->", pt.dg, pt.dg))
    for name in catalog.list_builtins():
        r = run_check(CheckConfig(model="eh", spec=catalog.builtin(name),
                                  points=2, seed=0))
        holonomy = next(f for f in r.families if f["family"] == "holonomy")
        if name == "minkowski":
            assert holonomy["max_resid"] == 0.0
        else:
            assert not holonomy["pass"], name
            assert holonomy["max_resid"] > 1e-3, name
