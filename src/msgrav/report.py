"""Batch check runner and report emitter.

Samples points in a metric's domain box, runs the full per-model check
list on them, and aggregates per-family statistics. The points go through
the checks in chunks of up to CHUNK_POINTS, and each chunk is built as one
stack: its series are evaluated once on stacked base points and prolonged
on a leading axis (the leading-axis rule of `tangents`), and every check
runs once on the stack. A point is skipped exactly when it fails built
alone (`catalog.built_alone`), and a chunk returns each skipped point's
reason. A batched pass costs far less per point than a loop over points,
because Python overhead, not arithmetic, dominates a single point. The
chunk limit bounds memory: the transients of a pass grow by about 0.3 MiB
per point for the second-order model and 0.25 MiB for the first-order one
(tracemalloc peaks), so an eh chunk of 8, which already amortizes most of
the overhead, holds about 2.5 MiB.

Sampling is seeded, each point's projectability trials draw from a
generator seeded by the point's index, and the reduce is ordered, so a
given configuration always produces a byte-identical JSON report,
threaded or not, and whatever the chunking.

Every residual in a report is finite: a family whose mean residual is
not finite raises DomainError, and the checks run without numpy's
floating-point warnings. So `json` writes the report, which never holds
null, and each number in it, as in the CSV, is in its `repr` form.
"""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import catalog, eh, ep
from .errors import ConfigError, DomainError, MsgravError
from .fieldspace import EH_OFF, field_equation_covector
from .version import VERSION

# points per batched pass; see the module docstring
CHUNK_POINTS = 8
MAX_POINTS = 10**6  # all are drawn before the first chunk runs

# A family's kind says where it must hold: an identity on every section, a
# vacuum family on vacuum solutions only, a levi-civita family wherever the
# connection is Levi-Civita. Its default tolerance is its kind's. Every
# identity residual is relative, most as residual / (1 + |reference|); eh's
# holonomy reads the field equation's dg slots relative to its covector,
# and projectability each deviation relative to its terms' magnitudes (see
# eh.projectability_check). The other kinds' residuals are absolute.
KIND_TOLERANCES = {"identity": 1e-10, "vacuum": 1e-8, "levi-civita": 1e-8}

# Each model's families in report order: (family, kind, residual), where
# residual maps a chunk's shared passes to an array with one row per point,
# and the family's residual at a point is the max |.| over its row.
FAMILIES = {
    "eh": (
        ("holonomy", "identity",
         lambda s: _rel(_amax(s.cov[..., EH_OFF["dg"]:]), _amax(s.cov))),
        ("momenta-identity", "identity",
         lambda s: _rel(_amax(s.m.L2_ad - s.closed.L2.v),
                        _amax(s.closed.L2.v))),
        ("hamiltonian-dual-form", "identity",
         lambda s: _rel(np.abs(s.m.H_sum - s.closed.H.v), s.closed.H.v)),
        ("projectability", "identity", lambda s: s.dev),
        ("einstein-constraint", "vacuum", lambda s: s.c),
        ("einstein-constraint-derivative", "vacuum", lambda s: s.dc),
        ("field-equation", "vacuum", lambda s: s.cov),
    ),
    "ep": (
        ("momenta-identity", "identity",
         lambda s: _rel(_amax(s.m.Lmom_ad - s.closed.Lmom.v),
                        _amax(s.closed.Lmom.v))),
        ("projectability", "identity", lambda s: s.dev),
        ("eh-equivalence", "levi-civita",
         lambda s: _rel(np.abs(s.m.L - s.l_eh), s.l_eh)),
        ("metric-equation", "vacuum", lambda s: ep.constraint_c0(s.closed)),
        ("pre-metricity", "levi-civita",
         lambda s: ep.constraint_premetricity(s.p)),
        ("torsion", "levi-civita", lambda s: ep.constraint_torsion(s.p)),
        ("torsion-derivative", "levi-civita",
         lambda s: ep.constraint_torsion_deriv(s.p)),
        ("integrability", "levi-civita",
         lambda s: ep.constraint_integrability(s.p)),
        ("field-equation", "vacuum", lambda s: s.cov),
    ),
}


@dataclass(frozen=True)
class CheckConfig:
    model: str                       # "eh" | "ep"
    spec: catalog.MetricSpec
    points: int = 20
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    threads: int | None = None

    def __post_init__(self):
        if self.model not in FAMILIES:
            raise ConfigError(f"unknown model {self.model!r}")
        if self.points < 1:
            raise ConfigError("need at least one sample point")
        if self.points > MAX_POINTS:
            raise ConfigError(f"more than {MAX_POINTS} sample points")
        if self.seed < 0:
            raise ConfigError(f"seed {self.seed} is negative")
        for fam, tol in self.tolerances.items():
            if fam not in {name for name, _, _ in FAMILIES[self.model]}:
                raise ConfigError(f"model {self.model!r} has no check "
                                  f"family {fam!r}")
            if not 0 < tol < math.inf:
                raise ConfigError(f"tolerance for {fam!r} must be positive "
                                  f"and finite")


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
    return delta / (1.0 + np.abs(ref))


def _amax(a):
    """Max |a| over all but the leading axis, one value per point."""
    return np.abs(a).reshape(len(a), -1).max(axis=1)


def _eh_point_checks(spec, xs, seeds):
    """The eh checks on one chunk of points: (positions in xs of the
    points that build, ({family: residual per built point},
    {position: DomainError} of the others)), by `catalog.built_alone`."""
    kept, p, errors = catalog.built_alone(
        lambda x: catalog.eh_point_at(spec, x), xs)
    if not kept:
        return kept, ({}, errors)
    # the closed forms serve the momenta, the trials and the Cartan form
    closed = eh.closed_forms(p)
    dev, _, m = eh.projectability_check(p, closed, 2, np.array(seeds)[kept])
    c, dc = eh.constraint_einstein_derivative(p)
    cov = field_equation_covector(eh.cartan_form_eh(p, closed), p)
    return kept, (_residuals("eh", SimpleNamespace(
        closed=closed, dev=dev, m=m, c=c, dc=dc, cov=cov)), errors)


def _ep_point_checks(spec, xs, seeds):
    """The ep checks on one chunk of points, returned as by
    `_eh_point_checks`."""
    kept, p, errors = catalog.built_alone(
        lambda x: catalog.ep_point_at(spec, x), xs)
    if not kept:
        return kept, ({}, errors)
    # the closed forms serve the momenta, the trials and the Cartan form
    closed = ep.closed_forms_ep(p)
    dev, _, m = ep.projectability_check_ep(p, closed, 2, np.array(seeds)[kept])
    cov = field_equation_covector(ep.cartan_form_ep(p, closed), p)
    # the ep point carries the metric jet's g, dg and d2g blocks
    return kept, (_residuals("ep", SimpleNamespace(
        p=p, closed=closed, dev=dev, m=m, l_eh=eh.lagrangian_fn(p), cov=cov)),
        errors)


def _residuals(model, passes):
    return {fam: _amax(r(passes)) for fam, _, r in FAMILIES[model]}


def sample_points(spec, n, seed):
    rng = np.random.default_rng(seed)
    lo = np.array([a for a, _ in spec.domain])
    hi = np.array([b for _, b in spec.domain])
    return lo + rng.uniform(size=(n, len(lo))) * (hi - lo)


def run_check(cfg: CheckConfig) -> ConstraintReport:
    points = sample_points(cfg.spec, cfg.points, cfg.seed)
    checks = _eh_point_checks if cfg.model == "eh" else _ep_point_checks
    chunks = [range(i, min(i + CHUNK_POINTS, len(points)))
              for i in range(0, len(points), CHUNK_POINTS)]

    def at_chunk(chunk):
        with catalog.quiet():
            # point i's projectability trials are seeded by cfg.seed + i
            return checks(cfg.spec, points[chunk.start:chunk.stop],
                          [cfg.seed + i for i in chunk])

    if cfg.threads is not None and cfg.threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            outs = list(pool.map(at_chunk, chunks))
    else:
        outs = [at_chunk(c) for c in chunks]
    # one dict of residuals per point, None where the point was skipped
    results, errors = [None] * len(points), {}
    for chunk, (kept, (out, errs)) in zip(chunks, outs):
        for row, k in enumerate(kept):
            results[chunk[k]] = {fam: float(v[row]) for fam, v in out.items()}
        errors.update((chunk[k], e) for k, e in errs.items())

    skipped = [i for i, r in enumerate(results) if r is None]
    if len(skipped) > 0.2 * len(points):
        raise DomainError(
            f"{len(skipped)} of {len(points)} sample points were singular; "
            f"the first, {tuple(points[skipped[0]].tolist())}: "
            f"{errors[skipped[0]]}")

    families = []
    for fam, kind, _ in FAMILIES[cfg.model]:
        tol = cfg.tolerances.get(fam, KIND_TOLERANCES[kind])
        vals = [(r[fam], x) for r, x in zip(results, points) if r is not None]
        mean = sum(v for v, _ in vals) / len(vals)
        if not math.isfinite(mean):  # a residual is not, or the sum overflows
            bad = next((x for v, x in vals if not math.isfinite(v)), None)
            raise DomainError(
                f"{fam} residual is not finite at {tuple(bad.tolist())}"
                if bad is not None
                else f"{fam} residuals are finite, but their mean overflows")
        worst_val, worst_x = max(vals, key=lambda t: t[0])
        families.append({
            "family": fam,
            "points": len(vals),
            "max_resid": worst_val,
            "mean_resid": mean,
            "tol": float(tol),
            "pass": worst_val <= tol,
            "worst_point": [float(v) for v in worst_x],
        })
    verdict = "pass" if all(f["pass"] for f in families) else "fail"
    return ConstraintReport(model=cfg.model, metric=cfg.spec.name,
                            seed=cfg.seed, points=len(points),
                            skipped=len(skipped), families=tuple(families),
                            verdict=verdict)


def report_json(r: ConstraintReport) -> str:
    obj = {
        "model": r.model, "metric": r.metric, "seed": r.seed,
        "points": r.points, "skipped": r.skipped,
        "families": list(r.families), "verdict": r.verdict,
        "version": r.version,
    }
    return json.dumps(obj, allow_nan=False, ensure_ascii=False) + "\n"


def report_csv(r: ConstraintReport) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["family", "points", "max_resid", "mean_resid", "tol", "pass"])
    for f in r.families:
        w.writerow([f["family"], f["points"], f["max_resid"], f["mean_resid"],
                    f["tol"], "pass" if f["pass"] else "fail"])
    return buf.getvalue()


def emit_report(r: ConstraintReport, fmt: str = "json", path=None) -> str:
    if fmt not in ("json", "csv"):
        raise MsgravError(f"unknown report format {fmt!r}")
    text = report_json(r) if fmt == "json" else report_csv(r)
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise MsgravError(f"cannot write report to {path!r}: {e}")
    return text
