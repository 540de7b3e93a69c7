"""Built-in exact spacetimes and the metric definition file loader.

Every metric — built in or user supplied — is ten component expressions in
the coordinates x0..x3 plus parameters, compiled once into one program.
Its jet program (`exprparse.jet_program`), to the order a model reads (3
for eh, 2 for ep, 1 for `[connection]` overrides), gives their partials at
a stack of points (..., 4) in one float run, each row bit-identical to the
point alone, and `fieldspace` gets them as arrays (`metric_jet_at`). A
point fails exactly when it fails built alone (`built_alone`).
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError
from .exprparse import (VARIABLES, Name, Num, compile_program, jet_program,
                        parse_expression, run_program, step_key)
from . import fieldspace
from .fieldspace import ORDER, EHJetPoint, EPJetPoint, prolong, prolong_ep
from .indexing import DIM, PAIR_FULL, PAIRS, pair_index


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
    # (connection, order) -> its compiled jet program (`_jets_at`)
    jets: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)

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
    evaluated: ..."). Array arithmetic overflows silently, as a float's
    does; the checks on its values reject what it leaves."""
    try:
        with quiet():
            return run_program(program, env)
    except _FLOAT_ERRORS as e:
        raise DomainError(f"cannot be evaluated: {e}") from None


_JETS = {}  # (flat steps, outputs, order) -> (jet program, index tables)


def _jets_at(spec: MetricSpec, x, order: int, connection=False) -> list:
    """The partials of the spec's components (or `[connection]` overrides)
    at the points x (..., 4) to `order`, from one run of their jet program,
    compiled once per process: block k, shaped x's leading shape + (trees,
    len(DERIVS[k])), gathers the k-th partials over `DERIVS[k]` from its
    outputs (the nonzero partials) and a zero column; block 0 has no k axis."""
    if (connection, order) not in spec.jets:
        program = spec.connection_program if connection else spec.program
        key = (tuple(step_key(*s) for s in program[0]), program[1], order)
        if key not in _JETS:
            steps, jets = jet_program(program, order)
            col = {s: j for j, s in enumerate(sorted(
                {s for b in jets for r in b for s in r} - {None}))}
            _JETS[key] = (steps, list(col)), [np.array(
                [[col.get(s, len(col)) for s in r] for r in b]) for b in jets]
        spec.jets[connection, order] = _JETS[key]
    program, tables = spec.jets[connection, order]
    flat = np.asarray(x, dtype=float).reshape(-1, DIM)
    vals = _run(program, dict(zip(VARIABLES, flat.T)) | spec.params)
    cols = np.zeros((len(flat), len(vals) + 1))
    for j, v in enumerate(vals):
        cols[:, j] = v
    blocks = [cols[:, t].reshape(np.shape(x)[:-1] + t.shape) for t in tables]
    return [blocks[0][..., 0]] + blocks[1:]


def metric_jet_at(spec: MetricSpec, x, order: int = ORDER) -> list:
    """The metric's blocks g, dg, ... (`_jets_at`) at the points x (..., 4)
    to the order the caller reads, eh the jet order and ep 2. Raises
    DomainError if a point is outside the box or cannot be evaluated."""
    x = np.asarray(x, dtype=float)
    inside = spec.contains(x)
    if not np.all(inside):
        raise DomainError(f"point {tuple(x[~inside][0].tolist())} outside "
                          f"the sample box of {spec.name!r}")
    return _jets_at(spec, x, order)


def eh_point_at(spec: MetricSpec, x) -> EHJetPoint:
    return prolong(x, metric_jet_at(spec, x, ORDER))


def ep_point_at(spec: MetricSpec, x) -> EPJetPoint:
    """First-order metric-affine point over the points x (..., 4): the
    metric's blocks to order 2 and the `[connection]` overrides' to order
    1, prolonged by `fieldspace.prolong_ep`."""
    jets = metric_jet_at(spec, x, 2)
    conn = _jets_at(spec, x, 1, connection=True) if spec.connection else None
    return prolong_ep(x, jets, tuple(spec.connection), conn)


def built_alone(build, xs):
    """(positions in xs of the points that build, their build as one stack
    or None, {position: DomainError} of the others): a point fails exactly
    when it fails built alone. xs is built as one stack; only if that
    raises is each point built alone, then the survivors as one stack."""
    xs = np.array(xs, dtype=float)
    try:
        return list(range(len(xs))), build(xs), {}
    except DomainError:
        pass
    errors = {}
    for k in range(len(xs)):
        try:
            build(xs[k:k + 1])
        except DomainError as e:
            errors[k] = e
    kept = [k for k in range(len(xs)) if k not in errors]
    return kept, build(xs[kept]) if kept else None, errors


def _validate(spec: MetricSpec) -> MetricSpec:
    """Spot-check nondegenerate Lorentzian signature on a 3^4 grid, its
    floats in one stacked pass; a rejection names the first grid point that
    cannot be evaluated alone (`built_alone`) or is not Lorentzian."""
    axes = [np.linspace(lo, hi, 3) for (lo, hi) in spec.domain]
    grid = np.array(list(itertools.product(*axes)))
    kept, comps, errors = built_alone(lambda x: _run(spec.program, {
        f"x{i}": x[:, i] for i in range(DIM)} | spec.params), grid)
    if kept:
        code = fieldspace.lorentzian_defects(np.stack(
            [np.broadcast_to(c, len(kept)) for c in comps], axis=-1)[
                :, PAIR_FULL])
        errors |= {k: fieldspace.DEFECTS[c] for k, c in zip(kept, code) if c}
    if errors:
        k = min(errors)
        raise DomainError(f"metric {spec.name!r} at grid point "
                          f"{tuple(grid[k].tolist())} {errors[k]}")
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


def _read_line(section, line) -> tuple:
    """(key, value) of one `key = value` line of a section, an indexed key
    read as its indices (a metric pair as its index in PAIRS)."""
    if section is None or "=" not in line:
        raise ConfigError("expected `key = value`")
    key, _, val = (t.strip() for t in line.partition("="))
    if section == "params":
        try:
            return key, float(val)
        except ValueError:
            raise ConfigError(f"parameter {key!r} is not a number")
    if section == "metric" and key in ("name", "vacuum"):
        return key, _vacuum_flag(val) if key == "vacuum" else val
    if section == "domain":
        lo, _, hi = val.partition("..")
        try:
            lo, hi = float(lo), float(hi)
        except ValueError:
            raise ConfigError(f"expected `lo..hi`, got {val!r}")
        return _indices(section, key)[0], _interval(lo, hi)
    index = _indices(section, key)
    return (pair_index(*index) if section == "metric" else index,
            parse_expression(val))


def load_metric_file(path: str) -> MetricSpec:
    """INI-like format: [metric] with `g a b = expr` lines and `name = ..`,
    [params], [domain] with `xN = lo..hi`, optional [connection] with
    `Gamma l m n = expr`; indices are 0..3. UTF-8; `#` starts a comment.
    A key is set once in its section (`g a b` and `g b a` are one key).
    An error in the file names its line."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read metric file {path!r}: {e}")

    tables = {s: {} for s in ("metric", "params", "domain", "connection")}
    section, lines = None, {}  # (section, key) -> the line that set it
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        try:
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip().lower()
                if section not in tables:
                    raise ConfigError(f"unknown section [{section}]")
            elif line:
                key, value = _read_line(section, line)
                if (section, key) in lines:
                    raise ConfigError(
                        f"{line.partition('=')[0].strip()!r} repeats the "
                        f"key of line {lines[section, key]}")
                tables[section][key], lines[section, key] = value, lineno
        except ConfigError as e:
            raise ConfigError(f"line {lineno}: {e}") from None

    metric, domain = tables["metric"], tables["domain"]
    return _validate(MetricSpec(
        name=metric.get("name", "user-metric"),
        vacuum=metric.get("vacuum", "unknown"),
        components=tuple(metric.get(i, Num(0.0)) for i in range(len(PAIRS))),
        params=tables["params"], connection=tables["connection"],
        domain=tuple(domain.get(i, (-1.0, 1.0)) for i in range(DIM))))
