"""Built-in exact spacetimes and the metric definition file loader.

Every metric — built in or user supplied — is ten component expressions in
the coordinates x0..x3 plus parameters, compiled once into one program.
Run on series coordinates truncated at the order a model reads (3,
`fieldspace.ORDER`, for eh; 2 for ep), it produces the jets that feed the
two models, for a stack of points (..., 4) at once; a row's jets are
bit-identical to those of the point built alone. Connections for the
metric-affine model default to Levi-Civita and can be overridden
componentwise from a file.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError
from .exprparse import (VARIABLES, Name, Num, compile_program,
                        parse_expression, run_program)
from . import fieldspace
from .fieldspace import (_DERIVED, ORDER, EHJetPoint, EPJetPoint, derivatives,
                         prolong)
from .geometry import christoffel, metric_inverse_density
from .indexing import DERIVS, DIM, PAIR_FULL, PAIRS, pair_index
from .series import JetScalar
from .tangents import Tan


@dataclass(frozen=True)
class MetricSpec:
    """Ten component expressions with parameters, sample box, vacuum flag."""

    name: str
    components: tuple          # 10 syntax trees, ordered-pair layout
    params: dict = field(default_factory=dict)
    domain: tuple = (((-1.0, 1.0),) * DIM)
    vacuum: str = "unknown"    # yes | no | unknown
    connection: dict = field(default_factory=dict)  # (l,m,n) -> syntax tree
    program: tuple = field(init=False, repr=False, compare=False)
    connection_program: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.components) != len(PAIRS):
            raise ConfigError("a metric needs its 10 ordered components")
        if len(self.domain) != DIM:
            raise ConfigError("the sample box needs 4 intervals")
        for lo, hi in self.domain:
            _interval(lo, hi)
        if not all(len(k) == 3 and all(type(v) is int and 0 <= v < DIM
                                       for v in k) for k in self.connection):
            raise ConfigError("a connection key needs 3 indices in 0..3")
        _vacuum_flag(self.vacuum)
        object.__setattr__(self, "program", compile_program(self.components))
        object.__setattr__(self, "connection_program",
                           compile_program(self.connection.values()))
        steps = self.program[0] + self.connection_program[0]
        unknown = sorted({n.ident for n, _ in steps if isinstance(n, Name)}
                         - set(VARIABLES) - set(self.params))
        if unknown:
            raise ConfigError(f"unknown identifier {unknown[0]!r} in metric "
                              f"{self.name!r}")

    def contains(self, x):
        """Whether each point of x (..., 4) lies in the sample box."""
        lo, hi = np.array(self.domain).T
        return np.all((lo <= x) & (x <= hi), axis=-1)


def _interval(lo, hi) -> tuple:
    """(lo, hi), a sample box interval: nonempty, with finite ends and
    width."""
    if not (lo < hi and math.isfinite(float(hi) - float(lo))):
        raise ConfigError(f"domain interval {lo}..{hi} is empty or not finite")
    return lo, hi


def _vacuum_flag(flag: str) -> str:
    if flag not in ("yes", "no", "unknown"):
        raise ConfigError(f"bad vacuum flag {flag!r}")
    return flag


# what a `math` call or a float division raises
_FLOAT_ERRORS = (ValueError, ZeroDivisionError, OverflowError)


def quiet():
    """numpy's error state wherever points are evaluated, built and checked:
    numbers decide, not warnings. It is per thread."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _run(program, env) -> list:
    """run_program with a float failure as DomainError("cannot be
    evaluated: ..."). Array and series arithmetic overflows silently, as a
    float's does; the checks on its values reject what it leaves."""
    try:
        with quiet():
            return run_program(program, env)
    except _FLOAT_ERRORS as e:
        raise DomainError(f"cannot be evaluated: {e}") from None


def _series_at(spec: MetricSpec, program, x, order: int) -> list:
    """The series of each tree of a compiled program about the points
    x (..., 4), from one run for the whole stack."""
    env = {f"x{i}": JetScalar.variable(i, x, order=order)
           for i in range(DIM)} | spec.params
    return [v if isinstance(v, JetScalar)
            else JetScalar.constant(v, x, order=order)
            for v in _run(program, env)]


def metric_jet_at(spec: MetricSpec, x, order: int = ORDER):
    """The ten component series at the points x (..., 4), to the order the
    caller reads (eh the jet order, ep 2). Raises DomainError if any point
    is outside the box or any series cannot be evaluated there."""
    x = np.asarray(x, dtype=float)
    inside = spec.contains(x)
    if not np.all(inside):
        raise DomainError(f"point {tuple(x[~inside][0].tolist())} outside "
                          f"the sample box of {spec.name!r}")
    return _series_at(spec, spec.program, x, order)


def eh_point_at(spec: MetricSpec, x) -> EHJetPoint:
    return prolong(metric_jet_at(spec, x, ORDER))


def ep_point_at(spec: MetricSpec, x) -> EPJetPoint:
    """First-order metric-affine point over the points x (..., 4): the
    metric's order-2 jet, checked before its Levi-Civita connection (or
    file overrides) is formed; d2g serves the second-order Lagrangian.

    Gamma and its x-derivatives come from one Tan pass of the connection
    kernel, with g and dg seeded by their shifts along each x^n, so the
    gradient is dGamma. Overridden components keep their series route,
    evaluated at order 1.
    """
    series = metric_jet_at(spec, x, 2)
    g, dg, d2g = (derivatives(series, c) for c in DERIVS[:3])
    g = g[..., 0]
    # finiteness first, as `fieldspace._JetPoint` checks eh's blocks
    for name, block in (("g", g), ("dg", dg), ("d2g", d2g)):
        if not np.isfinite(block).all():
            raise DomainError(f"{name} block is not finite")
    fieldspace._check_lorentzian(g)
    ginv, _ = metric_inverse_density(Tan(g, dg)[..., PAIR_FULL])
    gam = christoffel(ginv, Tan(dg, d2g[..., PAIR_FULL])[..., PAIR_FULL, :])
    Gamma, dGamma = gam.v.copy(), gam.g.copy()
    x = series[0].base
    if spec.connection:
        conn = _series_at(spec, spec.connection_program, x, 1)
        val, dval = (derivatives(conn, d) for d in DERIVS[:2])
        lmn = tuple(np.array(list(spec.connection)).T)
        Gamma[(..., *lmn)] = val[..., 0]
        dGamma[(..., *lmn, slice(None))] = dval
    return EPJetPoint(x=np.array(x), g=g, Gamma=Gamma, dg=dg, dGamma=dGamma,
                      d2g=d2g, _derived=_DERIVED)


def _where(spec: MetricSpec, x) -> str:
    return f"metric {spec.name!r} at grid point {tuple(x.tolist())}"


def _check_grid(spec: MetricSpec, x):
    """Raise DomainError for the first point of the stack x (n, 4), in
    order, whose metric cannot be evaluated or is not a Lorentzian metric
    (`fieldspace.lorentzian_defects`, which names the reason). The spec's
    program runs once for the whole stack, each entry as a float; if that
    raises, each point is checked alone, as a stack of one, so the error
    names the point that fails first."""
    env = {f"x{i}": x[:, i] for i in range(DIM)} | spec.params
    try:
        comps = _run(spec.program, env)
    except DomainError as e:
        if len(x) == 1:
            raise DomainError(f"{_where(spec, x[0])} {e}") from None
        for k in range(len(x)):
            _check_grid(spec, x[k:k + 1])
        return
    code = fieldspace.lorentzian_defects(np.stack(
        [np.broadcast_to(c, len(x)) for c in comps], axis=-1)[:, PAIR_FULL])
    if code.any():
        k = np.argmax(code > 0)
        raise DomainError(
            f"{_where(spec, x[k])} {fieldspace.DEFECTS[code[k]]}")


def _validate(spec: MetricSpec) -> MetricSpec:
    """Spot-check nondegenerate Lorentzian signature on a 3^4 grid, in one
    stacked pass over its 81 points; a rejection names the first failing
    grid point in `itertools.product` order."""
    axes = [np.linspace(lo, hi, 3) for (lo, hi) in spec.domain]
    _check_grid(spec, np.array(list(itertools.product(*axes))))
    return spec


def _spec(name, diag=None, entries=None, params=None, domain=None,
          vacuum="unknown"):
    comps = ["0"] * len(PAIRS)
    if diag is not None:
        for mu in range(DIM):
            comps[pair_index(mu, mu)] = diag[mu]
    for (a, b), text in (entries or {}).items():
        comps[pair_index(a, b)] = text
    return _validate(MetricSpec(
        name=name, components=tuple(parse_expression(c) for c in comps),
        params=dict(params or {}),
        domain=tuple(domain) if domain else (((-1.0, 1.0),) * DIM),
        vacuum=vacuum))


# -- builtin registry -------------------------------------------------------

def _kasner(p1=2.0 / 3.0, p2=2.0 / 3.0, p3=-1.0 / 3.0):
    ps = (p1, p2, p3)
    vac = (abs(sum(ps) - 1) < 1e-12 and abs(sum(p * p for p in ps) - 1) < 1e-12)
    return _spec(
        "kasner",
        diag=["-1"] + [f"exp(2*p{i}*ln(x0))" for i in (1, 2, 3)],
        params={"p1": p1, "p2": p2, "p3": p3},
        domain=[(1.0, 3.0)] + [(-1.0, 1.0)] * 3,
        vacuum="yes" if vac else "no")


def _flrw(a="1 + 0.1*x0"):
    sq = f"({a})*({a})"
    return _spec("flrw", diag=["-1", sq, sq, sq],
                 domain=[(0.0, 2.0)] + [(-1.0, 1.0)] * 3, vacuum="no")


_BUILTINS = {
    "minkowski": lambda: _spec("minkowski", diag=["-1", "1", "1", "1"],
                               vacuum="yes"),
    "spherical-flat": lambda: _spec(
        "spherical-flat",
        diag=["-1", "1", "x1^2", "x1^2*sin(x2)^2"],
        domain=[(-1.0, 1.0), (1.0, 3.0), (0.3, 2.8), (0.0, 6.0)],
        vacuum="yes"),
    "schwarzschild": lambda m=1.0: _spec(
        "schwarzschild",
        diag=["-(1 - 2*m/x1)", "1/(1 - 2*m/x1)", "x1^2",
              "x1^2*sin(x2)^2"],
        params={"m": m},
        domain=[(-1.0, 1.0), (3.0 * m, 10.0 * m), (0.3, 2.8), (0.0, 6.0)],
        vacuum="yes"),
    "kasner": _kasner,
    "ppwave": lambda: _spec(
        "ppwave", diag=["x2^2 - x3^2", "0", "1", "1"],
        entries={(0, 1): "1"}, vacuum="yes"),
    "flrw": _flrw,
    "desitter": lambda H=1.0: _spec(
        "desitter",
        diag=["-1", "exp(2*H*x0)", "exp(2*H*x0)", "exp(2*H*x0)"],
        params={"H": H}, domain=[(0.0, 1.0)] + [(-1.0, 1.0)] * 3,
        vacuum="no"),
}


def list_builtins():
    return sorted(_BUILTINS)


def builtin(name: str, **params) -> MetricSpec:
    if name not in _BUILTINS:
        raise ConfigError(f"unknown builtin metric {name!r}")
    try:
        return _BUILTINS[name](**params)
    except TypeError:
        raise ConfigError(f"bad parameters for builtin {name!r}: {params}")


# -- metric definition files ------------------------------------------------

# each section's indexed key, whose indices are the digits 0..3, and its form
_KEYS = {"metric": (r"g\s+([0-3])\s+([0-3])", "g a b = expr"),
         "connection": (r"Gamma\s+([0-3])\s+([0-3])\s+([0-3])",
                        "Gamma l m n = expr"),
         "domain": (r"x([0-3])", "xN = lo..hi")}


def _indices(section, key) -> tuple:
    """The indices of a section's indexed key: `g 0 1`, `Gamma 1 0 0`, `x1`."""
    pattern, form = _KEYS[section]
    m = re.fullmatch(pattern, key)
    if m is None:
        raise ConfigError(f"expected `{form}` with indices 0..3, got {key!r}")
    return tuple(map(int, m.groups()))


def _read_line(section, line, meta, comps, conn, params, domain):
    """Read one `key = value` line of a section into the loader's tables."""
    if section is None or "=" not in line:
        raise ConfigError("expected `key = value`")
    key, _, val = (t.strip() for t in line.partition("="))
    if section == "params":
        try:
            params[key] = float(val)
        except ValueError:
            raise ConfigError(f"parameter {key!r} is not a number")
    elif section == "metric" and key in meta:
        meta[key] = _vacuum_flag(val) if key == "vacuum" else val
    elif section == "domain":
        lo, _, hi = val.partition("..")
        try:
            lo, hi = float(lo), float(hi)
        except ValueError:
            raise ConfigError(f"expected `lo..hi`, got {val!r}")
        domain[_indices(section, key)[0]] = _interval(lo, hi)
    else:
        index, tree = _indices(section, key), parse_expression(val)
        if section == "metric":
            comps[pair_index(*index)] = tree
        else:
            conn[index] = tree


def load_metric_file(path: str) -> MetricSpec:
    """INI-like format: [metric] with `g a b = expr` lines and `name = ..`,
    [params], [domain] with `xN = lo..hi`, optional [connection] with
    `Gamma l m n = expr`; indices are 0..3. UTF-8; `#` starts a comment.
    An error in the file names its line."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read metric file {path!r}: {e}")

    meta = {"name": "user-metric", "vacuum": "unknown"}
    comps, conn, params, domain = [Num(0.0)] * len(PAIRS), {}, {}, {}
    section = None
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        try:
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip().lower()
                if section not in ("metric", "params", "domain", "connection"):
                    raise ConfigError(f"unknown section [{section}]")
            elif line:
                _read_line(section, line, meta, comps, conn, params, domain)
        except ConfigError as e:
            raise ConfigError(f"line {lineno}: {e}") from None

    box = tuple(domain.get(i, (-1.0, 1.0)) for i in range(DIM))
    return _validate(MetricSpec(components=tuple(comps), params=params,
                                domain=box, connection=conn, **meta))
