import itertools
import math
import random
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import evaluate, interior_points, series_blocks, tree_blocks
from test_fuzz_cli import PARAMS, tree
from msgrav import catalog, fieldspace
from msgrav.errors import ConfigError, DomainError
from msgrav.exprparse import parse_expression, run_program
from msgrav.geometry import christoffel, metric_inverse_density
from msgrav.indexing import DIM, PAIR_FULL, PAIRS, pair_index
from msgrav.series import JetScalar
from msgrav.tangents import Jet2

INPUTS = Path(__file__).resolve().parents[1] / "msbench" / "inputs"

FILE_TEXT = """\
# a static curved test metric with one connection override
[metric]
name = bumpy
g 0 0 = -1 - k*x1^2   # time-time
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


def test_builtin_listing():
    names = catalog.list_builtins()
    assert {"minkowski", "schwarzschild", "kasner", "ppwave",
            "flrw", "desitter", "spherical-flat"} <= set(names)


def test_unknown_builtin_and_bad_params():
    with pytest.raises(ConfigError):
        catalog.builtin("nosuch")
    with pytest.raises(ConfigError):
        catalog.builtin("schwarzschild", mass=2.0)


def test_minkowski_series_are_constant():
    spec = catalog.builtin("minkowski")
    g, dg, *_ = catalog.metric_jet_at(spec, (0.1, -0.2, 0.3, 0.0))
    assert g[0] == -1.0
    assert np.all(dg == 0.0)


def test_schwarzschild_example_value():
    spec = catalog.builtin("schwarzschild", m=1.0)
    g = catalog.metric_jet_at(spec, (0.0, 3.0, 1.0, 1.0))[0]
    assert g[pair_index(1, 1)] == pytest.approx(3.0)


def test_kasner_example_value():
    spec = catalog.builtin("kasner")
    g = catalog.metric_jet_at(spec, (2.0, 0.0, 0.0, 0.0))[0]
    assert g[pair_index(1, 1)] == pytest.approx(
        2.0 ** (4.0 / 3.0), rel=1e-12)
    assert spec.vacuum == "yes"
    assert catalog.builtin("kasner", p1=0.5, p2=0.5, p3=0.5).vacuum == "no"


def test_out_of_domain_point_rejected():
    spec = catalog.builtin("schwarzschild")
    with pytest.raises(DomainError):
        catalog.metric_jet_at(spec, (0.0, 2.5, 1.0, 1.0))


def test_singular_expression_point():
    # constructed directly so the grid validation cannot save us
    comps = ["-1", "0", "0", "0", "1/x1", "0", "0", "1", "0", "1"]
    spec = catalog.MetricSpec(
        name="singular", components=tuple(map(parse_expression, comps)),
        domain=((-1, 1), (-1, 1), (-1, 1), (-1, 1)))
    with pytest.raises(DomainError,
                       match="cannot be evaluated: float division by zero"):
        catalog.metric_jet_at(spec, (0.0, 0.0, 0.0, 0.0))


def test_non_lorentzian_metric_fails_validation(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[metric]\ng 0 0 = 1\ng 1 1 = 1\ng 2 2 = 1\n"
                    "g 3 3 = 1\n", encoding="utf-8")
    with pytest.raises(DomainError):
        catalog.load_metric_file(str(path))


def test_small_schwarzschild_mass_builds_both_models():
    # at m = 1e-4 the box's inner edge x1 = 3m has |det g| near 7e-15, but
    # the metric is as far from degenerate as at m = 1: the degeneracy
    # bound reads det g with each row scaled to max |entry| 1
    spec = catalog.builtin("schwarzschild", m=1e-4)
    x = (0.0, spec.domain[1][0], 1.2, 0.5)
    for p in (catalog.eh_point_at(spec, x), catalog.ep_point_at(spec, x)):
        det = np.linalg.det(p.g[PAIR_FULL])
        assert -1e-14 < det < 0
        assert fieldspace.lorentzian_defects(p.g[PAIR_FULL]) == 0


def test_metric_file_roundtrip(tmp_path):
    path = tmp_path / "bumpy.ini"
    path.write_text(FILE_TEXT, encoding="utf-8")
    spec = catalog.load_metric_file(str(path))
    assert spec.name == "bumpy"
    assert spec.params == {"k": 0.5}
    assert spec.domain[1] == (-0.8, 0.8)
    assert spec.domain[0] == (-1.0, 1.0)  # defaulted
    g = catalog.metric_jet_at(spec, (0.0, 0.5, 0.0, 0.0))[0]
    assert g[pair_index(0, 0)] == pytest.approx(-1.125)
    assert g[pair_index(2, 2)] == pytest.approx(1.25)


def test_connection_override_reaches_ep_point(tmp_path):
    path = tmp_path / "bumpy.ini"
    path.write_text(FILE_TEXT, encoding="utf-8")
    spec = catalog.load_metric_file(str(path))
    p = catalog.ep_point_at(spec, (0.0, 0.5, 0.0, 0.0))
    assert p.Gamma[1, 0, 0] == pytest.approx(0.25)   # k*x1 at x1=0.5
    assert p.dGamma[1, 0, 0, 1] == pytest.approx(0.5)


def test_malformed_files(tmp_path):
    cases = [
        "[metric]\ng 0 = -1\n",
        "[mystery]\n",
        "[metric]\nnonsense line\n",
        "[metric]\ng 0 0 = -1\n[domain]\nx1 = 3\n",
        "[params]\nk = not-a-number\n",
        "[connection]\nGamma 9 0 0 = 1\n",
    ]
    for i, text in enumerate(cases):
        path = tmp_path / f"bad{i}.ini"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError):
            catalog.load_metric_file(str(path))
    with pytest.raises(ConfigError):
        catalog.load_metric_file(str(tmp_path / "missing.ini"))


@pytest.mark.parametrize("text, reason", [
    # an index is one digit 0..3 in every indexed key
    ("[metric]\ng -1 -2 = 0.1\n",
     "line 2: expected `g a b = expr` with indices 0..3, got 'g -1 -2'"),
    ("[metric]\ng 0 4 = 1\n", "line 2: expected `g a b = expr`"),
    ("[metric]\ng 01 1 = 1\n", "line 2: expected `g a b = expr`"),
    ("[connection]\nGamma 1 0 -1 = 1\n",
     "line 2: expected `Gamma l m n = expr` with indices 0..3"),
    ("[domain]\nx7 = 5..6\n",
     "line 2: expected `xN = lo..hi` with indices 0..3, got 'x7'"),
    ("[domain]\nx-1 = 0..1\n", "line 2: expected `xN = lo..hi`"),
    # an expression is parsed on its own line
    ("[metric]\ng 0 0 = -1\ng 1 1 = 1 +\n",
     "line 3: unexpected end of expression (at offset 3)"),
    ("[metric]\ng 0 0 = -1\n\n[connection]\nGamma 1 0 0 = sin(x1\n",
     "line 5: expected ')' (at offset 6)"),
    ("[domain]\nx1 = 0..1..2\n", "line 2: expected `lo..hi`, got '0..1..2'"),
    # a key is set once in its section, whatever its spelling or its place
    ("[metric]\ng 1 1 = 1\ng 0 0 = -1\ng 1 1 = 2\n",
     "line 4: 'g 1 1' repeats the key of line 2"),
    ("[metric]\ng 0 1 = 0.2\ng 1 0 = 0.1\n",
     "line 3: 'g 1 0' repeats the key of line 2"),
    ("[metric]\nname = a\n[params]\nk = 1\n[metric]\nname = b\n",
     "line 6: 'name' repeats the key of line 2"),
    ("[params]\nk = 1\nk = 2\n", "line 3: 'k' repeats the key of line 2"),
    ("[domain]\nx1 = 0..1\nx1  =  2..3\n",
     "line 3: 'x1' repeats the key of line 2"),
    ("[connection]\nGamma 1 0 2 = 1\nGamma 1 0 2 = x1\n",
     "line 3: 'Gamma 1 0 2' repeats the key of line 2"),
], ids=["g-negative", "g-4", "g-two-digits", "gamma-negative", "x7", "x-1",
        "metric-syntax", "connection-syntax", "interval", "g-twice",
        "g-transposed", "name-twice", "param-twice", "x1-twice",
        "gamma-twice"])
def test_file_errors_name_their_line(tmp_path, text, reason):
    path = tmp_path / "bad.ini"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as e:
        catalog.load_metric_file(str(path))
    assert str(e.value).startswith(reason)


@pytest.mark.parametrize("interval", [(-1e308, 1e308), (-math.inf, math.inf),
                                      (0.0, math.inf), (math.nan, 1.0),
                                      (1.0, 1.0)])
def test_sample_box_must_be_finite_and_not_empty(interval):
    # a box end or width beyond float range would reach np.linspace and the
    # sampler as inf
    flat = ["-1", "1", "1", "1"]
    with pytest.raises(ConfigError, match="is empty or not finite"):
        _unchecked(flat, domain=[(-1.0, 1.0), interval] + [(-1.0, 1.0)] * 2)
    _unchecked(flat, domain=[(-1.0, 1.0), (0.0, 1e308)] + [(-1.0, 1.0)] * 2)


@pytest.mark.parametrize("key", [(9, 0, 0), (-1, 0, 0), (1, 0), (1, 0, 0, 0),
                                 (1.0, 0, 0)])
def test_connection_keys_are_three_indices_in_range(key):
    flat = _unchecked(["-1", "1", "1", "1"]).components
    with pytest.raises(ConfigError, match="3 indices in 0..3"):
        catalog.MetricSpec(name="conn", components=flat,
                           connection={key: parse_expression("0")})


@pytest.mark.parametrize("where", ["component", "connection"])
def test_unknown_identifier_in_component(where):
    # the check reads the Name steps of both compiled programs
    comps = ["-1", "0", "0", "0", "1", "0", "0", "1", "0", "1"]
    conn = {}
    if where == "component":
        comps[4] = "1+q"
    else:
        conn[(1, 0, 2)] = parse_expression("0.1*q")
    with pytest.raises(ConfigError, match="unknown identifier 'q'"):
        catalog.MetricSpec(
            name="oops", components=tuple(parse_expression(c) for c in comps),
            connection=conn)


def test_ep_point_extensions_present(all_specs):
    spec = all_specs["schwarzschild"]
    p = catalog.ep_point_at(spec, (0.0, 5.0, 1.2, 3.0))
    assert p.d2g is not None
    # the connection block really is Levi-Civita: check one known value
    assert p.Gamma[1, 0, 0] == pytest.approx((5.0 - 2.0) / 5.0 ** 3)


_ATOMS = st.sampled_from(["x0", "x1", "x2", "x3", "0", "1", "2.5", "1e308",
                          "0.1"])


def _compound(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "sqrt", "ln"]),
                  children).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(children, st.integers(-3, 400)).map(
            lambda t: f"{t[0]}^{t[1]}"))


_EXPRS = st.recursive(_ATOMS, _compound, max_leaves=6)
_JUNK = st.one_of(st.just(""), st.just(""), st.just(""),
                  st.text(alphabet="x0123+-*/^(). lnsqrt", max_size=16))


@given(comps=st.lists(_EXPRS, min_size=4, max_size=4), junk=_JUNK,
       lo=st.sampled_from(["-1", "0", "0.5"]))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_metric_files_fail_only_with_package_errors(tmp_path, comps, junk,
                                                    lo):
    # any file either loads or raises ConfigError / DomainError, which the
    # CLI maps to exit 2 / 3; never a bare numeric exception
    text = "[metric]\n" + "".join(
        f"g {mu} {mu} = {c}\n" for mu, c in enumerate(comps))
    if junk:
        text += f"g 0 1 = {junk}\n"
    path = tmp_path / "fuzz.metric"
    path.write_text(text + f"[domain]\nx1 = {lo}..1\n", encoding="utf-8")
    # and no numpy warning escapes the stacked grid check
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            catalog.load_metric_file(str(path))
        except (ConfigError, DomainError):
            pass


def _validate_per_point(spec):
    """The grid check one point at a time on Python floats, as it was before
    the stacked pass: the reference the stacked pass must agree with."""
    axes = [np.linspace(lo, hi, 3) for (lo, hi) in spec.domain]
    for x in itertools.product(*axes):
        env = {f"x{i}": float(x[i]) for i in range(DIM)}
        env.update(spec.params)
        where = f"metric {spec.name!r} at grid point {tuple(map(float, x))}"
        try:
            m = np.array(run_program(spec.program, env), dtype=float)[PAIR_FULL]
        except catalog._FLOAT_ERRORS as e:
            raise DomainError(f"{where} cannot be evaluated: {e}") from None
        if not np.isfinite(m).all():
            raise DomainError(f"{where} is not finite")
        with np.errstate(over="ignore"):
            det = np.linalg.det(m)
        if not np.isfinite(det):
            raise DomainError(f"{where} has a determinant beyond float range")
        ev = np.linalg.eigvalsh(m)
        # the degeneracy bound reads det with each row scaled to max 1
        rows = np.abs(m).max(axis=1)
        if ((rows == 0).any() or abs(np.linalg.det(m / rows[:, None])) < 1e-14
                or ev[0] >= 0 or ev[1] <= 0):
            raise DomainError(f"{where} is not Lorentzian")
    return spec


def _unchecked(diag, params=None, domain=None, entries=None):
    """A spec built without the grid check."""
    comps = ["0"] * len(PAIRS)
    for mu, text in enumerate(diag):
        comps[pair_index(mu, mu)] = text
    for (a, b), text in (entries or {}).items():
        comps[pair_index(a, b)] = text
    return catalog.MetricSpec(
        name="crafted", components=tuple(map(parse_expression, comps)),
        params=params or {}, domain=tuple(domain or ((-1.0, 1.0),) * DIM))


# edge cases of the grid check, with the first failing grid point (None
# where the spec passes)
_CRAFTED = {
    "reciprocal": (_unchecked(["-1", "1", "1/(x1*x1)", "1"]),
                   (-1.0, 0.0, -1.0, -1.0)),
    "negative-power": (_unchecked(["-1", "x1^-2", "1", "1"]),
                       (-1.0, 0.0, -1.0, -1.0)),
    "log-of-negative": (_unchecked(["-1", "1", "1", "1 + 0*ln(x1)"]),
                        (-1.0, -1.0, -1.0, -1.0)),
    "sqrt-of-negative-parameter": (
        _unchecked(["-1", "1", "1 + sqrt(-k)", "1"], params={"k": 0.5}),
        (-1.0, -1.0, -1.0, -1.0)),
    "euclidean": (_unchecked(["1", "1", "1", "1"]), (-1.0, -1.0, -1.0, -1.0)),
    "degenerate": (_unchecked(["-x0^2", "1", "1", "1"]),
                   (0.0, -1.0, -1.0, -1.0)),
    "degenerate-later": (
        _unchecked(["-1 + x3", "1", "1", "1"],
                   domain=[(-1.0, 1.0)] * 3 + [(0.0, 2.0)]),
        (-1.0, -1.0, -1.0, 1.0)),
    # the reference stops at the degenerate point before x1 = 0 is reached
    "degenerate-before-a-pole": (
        _unchecked(["-1 + x3", "1", "1/(x1*x1)", "1"],
                   domain=[(-1.0, 1.0)] * 3 + [(0.0, 2.0)]),
        (-1.0, -1.0, -1.0, 1.0)),
    "determinant-overflow": (
        _unchecked(["-1e308", "1e308", "1e308", "1e308"]),
        (-1.0, -1.0, -1.0, -1.0)),
    "not-finite": (_unchecked(["-1", "1e308*10", "1", "1"]),
                   (-1.0, -1.0, -1.0, -1.0)),
    # floats divide inf by zero with an error, numpy without one
    "inf-over-zero": (_unchecked(["-1", "1", "1", "1 + 1/(1e308*10/x1)"]),
                      (-1.0, 0.0, -1.0, -1.0)),
    # a product overflows to inf without an error, and 1/inf is 0
    "overflow-absorbed": (
        _unchecked(["-1", "1 + 1/(1e308*(x1 + 2)*10)", "1", "1"]), None),
}


def _outcome(validate, spec):
    try:
        validate(spec)
    except DomainError as e:
        return type(e), str(e)
    return None, ""


def _reference_spec(name):
    if name in _CRAFTED:
        return _CRAFTED[name][0]
    if name in ("bumpy", "torsion"):
        return catalog.load_metric_file(str(INPUTS / f"{name}.metric"))
    return catalog.builtin(name)


@pytest.mark.parametrize("name", catalog.list_builtins() +
                         ["bumpy", "torsion"] + list(_CRAFTED))
def test_stacked_grid_check_matches_per_point_reference(name):
    spec = _reference_spec(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(catalog._validate, spec)
    want = _outcome(_validate_per_point, spec)
    assert got[0] is want[0]
    if name in _CRAFTED and _CRAFTED[name][1] is not None:
        assert f"at grid point {_CRAFTED[name][1]} " in got[1]
    assert got[0] is None or " at grid point (" in got[1]
    assert got == want


def _fuzz_spec(seed):
    """A seeded fuzz spec, built without the grid check: 0.1 times a random
    tree added to one or two diagonal components and, in about half the
    specs, to one off-diagonal one, over a box whose x1 axis starts at -1,
    0 or 0.5."""
    rng = random.Random(seed)
    diag = ["-1", "1", "1", "1"]
    for mu in rng.sample(range(DIM), rng.choice((1, 2))):
        diag[mu] += f" + 0.1*{tree(rng, 4)}"
    entries = {}
    if rng.random() < 0.5:
        entries[rng.choice([(a, b) for a, b in PAIRS if a != b])] = (
            f"0.1*{tree(rng, 3)}")
    domain = [(-1.0, 1.0)] * DIM
    domain[1] = (rng.choice((-1.0, 0.0, 0.5)), 1.0)
    return _unchecked(diag, params={"k": rng.choice(PARAMS)}, domain=domain,
                      entries=entries)


def test_stacked_grid_check_matches_per_point_reference_on_fuzz_specs():
    # every function and power of the stacked pass is a `math` call per
    # entry, so its outcome and message are the per-point float check's
    for seed in range(300):
        spec = _fuzz_spec(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(catalog._validate, spec)
        assert got == _outcome(_validate_per_point, spec), seed


def test_series_fail_where_floats_fail_on_fuzz_specs(monkeypatch):
    # a function, power or division of a series raises at a row's constant
    # term what the float evaluation raises there, so at every grid point
    # of every fuzz spec the float evaluation (`catalog._run` on floats)
    # and the series, at the orders eh and ep read, have one outcome and
    # message. The one exception: sqrt of a zero constant term, whose
    # derivatives divide by the root, fails where a float need not (at
    # 600 of the 24,300 points, at both orders). Each outcome is that of
    # the point built alone (`catalog.built_alone`): the float evaluation
    # runs on the stack of the 81 grid points, and the series on the stack
    # of the points where it passes and on the stack of those where it
    # fails, so only a stack that raises is evaluated point by point
    zero_roots = []
    sqrt = JetScalar.sqrt
    monkeypatch.setattr(JetScalar, "sqrt", lambda s: zero_roots.append(
        np.any(s.value() == 0.0)) or sqrt(s))

    def outcomes(build, xs, at):
        """{k: the outcome of building xs[k] alone} for each k in at."""
        errors = catalog.built_alone(build, xs[at])[2] if at else {}
        return {k: (type(errors[i]), str(errors[i])) if i in errors
                else (None, "") for i, k in enumerate(at)}

    excepted = 0
    for seed in range(300):
        spec = _fuzz_spec(seed)
        axes = [np.linspace(lo, hi, 3) for (lo, hi) in spec.domain]
        grid = np.array(list(itertools.product(*axes)))
        want = outcomes(lambda x: catalog._run(spec.program, {
            f"x{i}": x[:, i] for i in range(DIM)} | spec.params), grid,
            list(range(len(grid))))
        passed = [k for k in want if want[k][0] is None]
        failed = [k for k in want if want[k][0] is not None]
        for order in (2, 3):
            def series(x):
                return catalog.metric_jet_at(spec, x, order)
            got = outcomes(series, grid, passed) | outcomes(series, grid,
                                                            failed)
            for k in (i for i in want if got[i] != want[i]):
                where = (seed, tuple(grid[k]), order, want[k], got[k])
                assert got[k][1] == ("cannot be evaluated: float division "
                                     "by zero"), where
                zero_roots.clear()
                with pytest.raises(DomainError):
                    series(grid[k:k + 1])
                assert zero_roots and zero_roots[-1], where
                excepted += 1
    assert excepted == 2 * 600


def test_grid_check_walks_each_component_once(monkeypatch):
    # one run of the spec's program over the whole grid, and the program
    # holds each distinct subtree of the ten components once
    calls = []
    real = catalog.run_program
    monkeypatch.setattr(catalog, "run_program",
                        lambda program, env: calls.append(
                            (program, len(env["x0"]))) or real(program, env))
    for build in (lambda: catalog.builtin("schwarzschild"),
                  lambda: catalog.load_metric_file(str(INPUTS /
                                                       "bumpy.metric"))):
        spec = build()
        assert calls == [(spec.program, 3 ** DIM)]
        steps, outputs = spec.program
        assert len(outputs) == len(PAIRS)
        assert len({node for node, _ in steps}) == len(steps)
        calls.clear()


@pytest.mark.parametrize("name", catalog.list_builtins()
                         + ["bumpy.metric", "torsion.metric"])
def test_order_three_jets_equal_order_four_jets(name):
    # truncating the series at the jet order changes no coefficient the
    # jets read: each block equals the one an order-4 series gives, and
    # the connection the inner block of a Jet2 pass on them gives (its
    # overrides from order-2 series), bit for bit
    if name.endswith(".metric"):
        spec = catalog.load_metric_file(str(INPUTS / name))
    else:
        spec = catalog.builtin(name)
    xs = np.array(interior_points(spec, 4, seed=83))
    g, dg, d2g, d3g = tree_blocks(spec, spec.components, xs, 4, top=3)
    p = catalog.eh_point_at(spec, xs)
    for block, want in zip((p.g, p.dg, p.d2g, p.d3g), (g, dg, d2g, d3g)):
        assert np.array_equal(block, want)
    q = catalog.ep_point_at(spec, xs)
    d2 = d2g[..., PAIR_FULL]
    ginv, _ = metric_inverse_density(Jet2(g, dg, dg, d2)[
        ..., PAIR_FULL])
    gam = christoffel(ginv, Jet2(dg, d2, d2, None)[..., PAIR_FULL, :])
    gamma, dgamma = gam.v.copy(), gam.a.copy()
    if spec.connection:
        val, dval = tree_blocks(spec, spec.connection.values(), xs, 2, top=1)
        lmn = tuple(np.array(list(spec.connection)).T)
        gamma[(..., *lmn)] = val
        dgamma[(..., *lmn, slice(None))] = dval
    assert np.array_equal(q.Gamma, gamma)
    assert np.array_equal(q.dGamma, dgamma)
    assert np.array_equal(q.d2g, p.d2g)


def test_series_share_repeated_subexpressions_bit_for_bit(all_specs,
                                                         monkeypatch):
    # one program run per stacked pass: each builtin's jet blocks equal
    # those of the trees evaluated alone, bit for bit, with fewer series
    # operations where subexpressions repeat (schwarzschild's 1 - 2m/x1
    # and x1^2)
    ops = []
    for name in ("__mul__", "reciprocal", "powi", "sin"):
        def counted(*args, real=getattr(JetScalar, name)):
            ops.append(1)
            return real(*args)
        monkeypatch.setattr(JetScalar, name, counted)
    for name, spec in all_specs.items():
        x = np.array(interior_points(spec, 3, seed=89))
        env = {f"x{i}": JetScalar.variable(i, x, order=3)
               for i in range(DIM)} | spec.params
        ops.clear()
        alone = [evaluate(tree, env) for tree in spec.components]
        n_alone = len(ops)
        ops.clear()
        shared = catalog._jets_at(spec, spec.program, x, 3)
        assert len(ops) <= n_alone, name
        if name == "schwarzschild":
            assert len(ops) < n_alone
        for s, a in zip(shared, series_blocks(alone, x, 3)):
            assert s.tobytes() == a.tobytes(), name


@pytest.mark.parametrize("name", catalog.list_builtins()
                         + ["bumpy.metric", "torsion.metric"])
def test_order_two_jets_are_the_low_degrees_of_order_three(name):
    # ep reads the metric to d2g from order-2 series: its blocks are byte
    # for byte the order-3 series' blocks g, dg and d2g, so the ep point's
    # metric blocks are the eh point's
    if name.endswith(".metric"):
        spec = catalog.load_metric_file(str(INPUTS / name))
    else:
        spec = catalog.builtin(name)
    for n in (1, 3, 8):
        xs = np.array(interior_points(spec, n, seed=97 + n))
        s2 = catalog.metric_jet_at(spec, xs, 2)
        s3 = catalog.metric_jet_at(spec, xs, 3)
        assert len(s2) == 3
        for a, b in zip(s2, s3):
            assert a.tobytes() == b.tobytes(), name
        q, p = catalog.ep_point_at(spec, xs), catalog.eh_point_at(spec, xs)
        for block in ("g", "dg", "d2g"):
            want = getattr(p, block)
            assert getattr(q, block).tobytes() == want.tobytes(), (name, n)
