import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from msgrav import catalog
from msgrav.errors import ConfigError, DomainError, SingularPointError
from msgrav.exprparse import parse_expression
from msgrav.fieldspace import derivatives
from msgrav.indexing import DERIVS, pair_index

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
    series = catalog.metric_jet_at(spec, (0.1, -0.2, 0.3, 0.0))
    assert series[0].value() == -1.0
    assert np.all(derivatives(series, DERIVS[1]) == 0.0)


def test_schwarzschild_example_value():
    spec = catalog.builtin("schwarzschild", m=1.0)
    series = catalog.metric_jet_at(spec, (0.0, 3.0, 1.0, 1.0))
    assert series[pair_index(1, 1)].value() == pytest.approx(3.0)


def test_kasner_example_value():
    spec = catalog.builtin("kasner")
    series = catalog.metric_jet_at(spec, (2.0, 0.0, 0.0, 0.0))
    assert series[pair_index(1, 1)].value() == pytest.approx(
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
    with pytest.raises(SingularPointError):
        catalog.metric_jet_at(spec, (0.0, 0.0, 0.0, 0.0))


def test_non_lorentzian_metric_fails_validation(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[metric]\ng 0 0 = 1\ng 1 1 = 1\ng 2 2 = 1\n"
                    "g 3 3 = 1\n", encoding="utf-8")
    with pytest.raises(DomainError):
        catalog.load_metric_file(str(path))


def test_metric_file_roundtrip(tmp_path):
    path = tmp_path / "bumpy.ini"
    path.write_text(FILE_TEXT, encoding="utf-8")
    spec = catalog.load_metric_file(str(path))
    assert spec.name == "bumpy"
    assert spec.params == {"k": 0.5}
    assert spec.domain[1] == (-0.8, 0.8)
    assert spec.domain[0] == (-1.0, 1.0)  # defaulted
    series = catalog.metric_jet_at(spec, (0.0, 0.5, 0.0, 0.0))
    assert series[pair_index(0, 0)].value() == pytest.approx(-1.125)
    assert series[pair_index(2, 2)].value() == pytest.approx(1.25)


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


def test_unknown_identifier_in_component():
    with pytest.raises(ConfigError):
        catalog.MetricSpec(
            name="oops",
            components=tuple(parse_expression(c) for c in
                             ["-1", "0", "0", "0", "1+q", "0", "0", "1",
                              "0", "1"]))


def test_ep_point_extensions_present(all_specs):
    spec = all_specs["schwarzschild"]
    p = catalog.ep_point_at(spec, (0.0, 5.0, 1.2, 3.0))
    assert p.d2g is not None and p.d2Gamma is not None
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
    try:
        catalog.load_metric_file(str(path))
    except (ConfigError, DomainError):
        pass
