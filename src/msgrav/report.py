"""Batch check runner and report emitter.

Samples points in a metric's domain box, runs the full per-model check
list at each, and aggregates per-family statistics. Sampling is seeded
and the reduce is ordered, so a given configuration always produces a
byte-identical JSON report, threaded or not.
"""

from __future__ import annotations

import csv
import io
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import catalog, eh, ep
from .errors import DomainError, MsgravError
from .fieldspace import prolong
from .version import VERSION

# identity families are relative (residual / (1 + |reference|)); the
# residual families are absolute vacuum thresholds
DEFAULT_TOLERANCES = {
    "eh": {
        "holonomy": 1e-10,
        "momenta-identity": 1e-10,
        "hamiltonian-dual-form": 1e-10,
        "projectability": 1e-10,
        "einstein-constraint": 1e-8,
        "einstein-constraint-derivative": 1e-8,
        "field-equation": 1e-8,
    },
    "ep": {
        "momenta-identity": 1e-10,
        "projectability": 1e-10,
        "eh-equivalence": 1e-10,
        "metric-equation": 1e-8,
        "pre-metricity": 1e-8,
        "torsion": 1e-8,
        "torsion-derivative": 1e-8,
        "integrability": 1e-8,
        "field-equation": 1e-8,
    },
}


@dataclass(frozen=True)
class CheckConfig:
    model: str                       # "eh" | "ep"
    spec: catalog.MetricSpec
    points: int = 20
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    fmt: str = "json"                # "json" | "csv"
    threads: int | None = None

    def __post_init__(self):
        if self.model not in ("eh", "ep"):
            raise MsgravError(f"unknown model {self.model!r}")
        if self.points < 1:
            raise MsgravError("need at least one sample point")
        if self.fmt not in ("json", "csv"):
            raise MsgravError(f"unknown report format {self.fmt!r}")
        for fam, tol in self.tolerances.items():
            if not tol > 0:
                raise MsgravError(f"tolerance for {fam!r} must be positive")

    def tolerance(self, family: str) -> float:
        if family in self.tolerances:
            return float(self.tolerances[family])
        return DEFAULT_TOLERANCES[self.model][family]


@dataclass(frozen=True)
class ConstraintReport:
    model: str
    metric: str
    seed: int
    points: int
    skipped: int
    families: tuple  # dicts: family, points, max/mean resid, tol, pass, worst
    verdict: str     # "pass" | "fail"
    version: str = VERSION


def _rel(delta, ref):
    return float(delta) / (1.0 + abs(float(ref)))


def _eh_point_checks(spec, x, seed):
    series = catalog.metric_jet_at(spec, x, order=4)
    p = prolong(series, order=4)
    out = {}
    h1, h2 = eh.holonomy_residuals(p, series)
    out["holonomy"] = max(np.abs(h1).max(), np.abs(h2).max())
    m = eh.momenta_and_hamiltonian(p)
    out["momenta-identity"] = _rel(np.abs(m.L2_ad - m.L2_closed).max(),
                                   np.abs(m.L2_closed).max())
    out["hamiltonian-dual-form"] = _rel(abs(m.H_sum - m.H_closed), m.H_closed)
    dev, _ = eh.projectability_check(p, m, trials=2, seed=seed)
    out["projectability"] = dev
    out["einstein-constraint"] = float(np.abs(eh.constraint_einstein(p)).max())
    out["einstein-constraint-derivative"] = float(
        np.abs(eh.constraint_einstein_derivative(p)).max())
    out["field-equation"] = eh.verify_field_equation(p)
    return out


def _ep_point_checks(spec, x, seed):
    metric = catalog.metric_point_at(spec, x)
    p = catalog.ep_point_at(spec, x, metric)
    out = {}
    m = ep.momenta_ep(p)
    out["momenta-identity"] = _rel(np.abs(m.Lmom_ad - m.Lmom_closed).max(),
                                   np.abs(m.Lmom_closed).max())
    dev, _, _ = ep.projectability_check_ep(p, m, trials=2, seed=seed)
    out["projectability"] = dev
    l_eh = eh.lagrangian_eh(metric)
    out["eh-equivalence"] = _rel(abs(m.L - l_eh), l_eh)
    out["metric-equation"] = float(np.abs(ep.constraint_c0(p)).max())
    out["pre-metricity"] = float(np.abs(ep.constraint_premetricity(p)).max())
    out["torsion"] = float(np.abs(ep.constraint_torsion(p)).max())
    out["torsion-derivative"] = float(
        np.abs(ep.constraint_torsion_deriv(p)).max())
    out["integrability"] = float(np.abs(ep.constraint_integrability(p)).max())
    out["field-equation"] = ep.verify_field_equation_ep(p)
    return out


def sample_points(spec, n, seed):
    rng = np.random.default_rng(seed)
    lo = np.array([a for a, _ in spec.domain])
    hi = np.array([b for _, b in spec.domain])
    return [tuple(lo + rng.uniform(size=len(lo)) * (hi - lo))
            for _ in range(n)]


def run_check(cfg: CheckConfig) -> ConstraintReport:
    points = sample_points(cfg.spec, cfg.points, cfg.seed)
    checks = _eh_point_checks if cfg.model == "eh" else _ep_point_checks

    def at_point(ix):
        i, x = ix
        try:
            return checks(cfg.spec, x, seed=cfg.seed + i)
        except DomainError:
            return None

    threads = cfg.threads
    if threads is None:
        threads = int(os.environ.get("MSGR_THREADS", "0")) or None
    if threads is not None and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(at_point, enumerate(points)))
    else:
        results = [at_point(ix) for ix in enumerate(points)]

    skipped = sum(1 for r in results if r is None)
    if skipped > 0.2 * len(points):
        raise DomainError(
            f"{skipped} of {len(points)} sample points were singular")

    families = []
    names = list(next(r for r in results if r is not None))
    for fam in names:
        tol = cfg.tolerance(fam)
        vals = [(float(r[fam]), x) for r, x in zip(results, points)
                if r is not None]
        # a non-finite residual is worse than any number, so it is the worst
        # point and fails its family
        worst_val, worst_x = max(
            vals, key=lambda t: (not math.isfinite(t[0]), t[0]))
        mean = sum(v for v, _ in vals) / len(vals)
        families.append({
            "family": fam,
            "points": len(vals),
            "max_resid": worst_val,
            "mean_resid": mean,
            "tol": float(tol),
            "pass": math.isfinite(worst_val) and worst_val <= tol,
            "worst_point": [float(v) for v in worst_x],
        })
    verdict = "pass" if all(f["pass"] for f in families) else "fail"
    return ConstraintReport(model=cfg.model, metric=cfg.spec.name,
                            seed=cfg.seed, points=len(points),
                            skipped=skipped, families=tuple(families),
                            verdict=verdict)


# -- serialization ----------------------------------------------------------

def _jnum(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    # JSON has no NaN or infinity
    return f"{v:.17g}" if math.isfinite(v) else "null"


def _jstr(s) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _jval(v) -> str:
    # hand-rolled so floats get exactly 17 significant digits
    if isinstance(v, str):
        return _jstr(v)
    if isinstance(v, (bool, int, float)):
        return _jnum(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_jval(x) for x in v) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{_jstr(k)}: {_jval(x)}"
                               for k, x in v.items()) + "}"
    raise MsgravError(f"cannot serialize {type(v).__name__}")


def report_json(r: ConstraintReport) -> str:
    obj = {
        "model": r.model, "metric": r.metric, "seed": r.seed,
        "points": r.points, "skipped": r.skipped,
        "families": list(r.families), "verdict": r.verdict,
        "version": r.version,
    }
    return _jval(obj) + "\n"


def report_csv(r: ConstraintReport) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["family", "points", "max_resid", "mean_resid", "tol", "pass"])
    for f in r.families:
        w.writerow([f["family"], f["points"], _jnum(f["max_resid"]),
                    _jnum(f["mean_resid"]), _jnum(f["tol"]),
                    "pass" if f["pass"] else "fail"])
    return buf.getvalue()


def emit_report(r: ConstraintReport, fmt: str = "json", path=None) -> str:
    text = report_json(r) if fmt == "json" else report_csv(r)
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise MsgravError(f"cannot write report to {path!r}: {e}")
    return text
