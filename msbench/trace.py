"""Span tracing and operation counting from outside the msgrav sources.

The traced run rebinds public msgrav functions to timed wrappers in every
msgrav module that holds them by name, and restores the originals after.
No source file changes. Spans are kept in memory; `layer_metrics` turns
them into the per-layer figures.

Two notions of self time are used:
- ``self``: a span's duration minus the time its child spans cover;
- ``layer self``: a span's duration minus the time covered by its nearest
  descendants of the same layer. Nested calls into the same module are
  charged to the inner call, while time in lower layers stays with the
  caller, so the figures of one layer add up without double counting.

Spans measure wall time. Under a thread pool the workers' spans overlap
and include time spent waiting for the interpreter lock, so per-point
figures of a threaded workload can add up to more than its wall time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# Functions that get spans, by msgrav module. The point-check helpers of
# `report` are private, but they are the per-point unit of `busy_ratio`.
TRACED = {
    "fieldspace": ("fiber_gradient", "fiber_jacobian", "total_derivatives",
                   "total_derivatives_vec", "prolong"),
    "geometry": ("curvature_bundle",),
    "eh": ("momenta_and_hamiltonian", "projectability_check",
           "constraint_einstein_derivative", "cartan_form_eh"),
    "ep": ("momenta_ep", "projectability_check_ep", "constraint_c0",
           "constraint_premetricity", "constraint_torsion",
           "constraint_torsion_deriv", "constraint_integrability",
           "cartan_form_ep"),
    "exterior": ("contract_terms",),
    "catalog": ("metric_jet_at", "ep_point_at", "builtin", "load_metric_file"),
    "report": ("run_check", "emit_report", "_eh_point_checks",
               "_ep_point_checks"),
    "cli": ("main",),
}

EP_LADDER = ("ep.constraint_c0", "ep.constraint_premetricity",
             "ep.constraint_torsion", "ep.constraint_torsion_deriv",
             "ep.constraint_integrability")
POINT_CHECKS = ("report._eh_point_checks", "report._ep_point_checks")
SPEC_BUILDS = ("catalog.builtin", "catalog.load_metric_file")

# JetScalar methods counted as series operations: arithmetic and the
# elementary functions the expression language reaches.
SERIES_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
              "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
              "reciprocal", "sqrt", "exp", "ln", "sin", "cos", "powi")


@dataclass(frozen=True)
class Span:
    id: int
    name: str          # "<layer>.<function>"
    parent: int | None
    start: float
    end: float
    thread: int
    attrs: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; a thread-local stack gives each span its parent.

    Work that a traced thread pool runs inherits the submitting span as
    parent, so pool workers nest under the call that started them.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "inherited", None)

    def wrap(self, fn, name: str, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = annotate(*args, **kwargs) if annotate else None
            parent = self.current()
            sid = next(self._ids)
            stack = self._stack()
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, parent, t0, t1,
                                       threading.get_ident(), attrs))
        return traced

    def pool_class(self, base):
        """A subclass of executor `base` whose tasks inherit the caller's
        current span."""
        tracer = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run(*a, **k):
                    tracer._local.inherited = parent
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer._local.inherited = None
                return super().submit(run, *args, **kwargs)
        return TracedPool


def _msgrav_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "msgrav" or n.startswith("msgrav."))]


@contextmanager
def rebound(replacements: dict):
    """Rebind, in every loaded msgrav module, each attribute that is one of
    the keys (compared by identity) to its replacement; restore on exit."""
    by_id = {id(old): (old, new) for old, new in replacements.items()}
    done = []
    try:
        for mod in _msgrav_modules():
            for attr, val in list(vars(mod).items()):
                hit = by_id.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    done.append((mod, attr, val))
        yield
    finally:
        for mod, attr, val in reversed(done):
            setattr(mod, attr, val)


def _workers(cfg, *args, **kwargs):
    # mirrors run_check: a pool runs only for more than one thread
    threads = cfg.threads
    if threads is None:
        threads = int(os.environ.get("MSGR_THREADS", "0")) or None
    return {"workers": threads if threads is not None and threads > 1 else 1}


def _terms(terms, *args, **kwargs):
    return {"terms": len(terms)}


ANNOTATE = {"report.run_check": _workers, "exterior.contract_terms": _terms}


@contextmanager
def traced(tracer: Tracer):
    """Install spans on every function in TRACED for the duration."""
    from concurrent.futures import ThreadPoolExecutor

    repl = {}
    for layer, names in TRACED.items():
        mod = importlib.import_module(f"msgrav.{layer}")
        for fn_name in names:
            name = f"{layer}.{fn_name}"
            fn = getattr(mod, fn_name)
            repl[fn] = tracer.wrap(fn, name, ANNOTATE.get(name))
    repl[ThreadPoolExecutor] = tracer.pool_class(ThreadPoolExecutor)
    with rebound(repl):
        yield tracer


# -- operation counts --------------------------------------------------------

class Counts:
    """Thread-safe tallies: `next()` on an itertools.count is atomic."""

    def __init__(self, names):
        self._c = {n: itertools.count() for n in names}

    def bump(self, name):
        next(self._c[name])

    def snapshot(self) -> dict:
        # next() returns the number of bumps so far; take it once, at the end
        return {n: next(c) for n, c in self._c.items()}


@contextmanager
def counting():
    """Count Tan and Jet2 creations and JetScalar operations.

    Kept apart from the span pass, because a wrapper on every arithmetic
    call inflates the spans around that arithmetic.
    """
    from msgrav.series import JetScalar
    from msgrav.tangents import Jet2, Tan

    counts = Counts(("tan", "jet2", "series"))
    patches = [(Tan, "__init__", "tan"), (Jet2, "__init__", "jet2")]
    patches += [(JetScalar, op, "series") for op in SERIES_OPS]
    saved = []

    def counted(fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts.bump(key)
            return fn(*args, **kwargs)
        return wrapper

    try:
        for cls, attr, key in patches:
            orig = cls.__dict__[attr]
            saved.append((cls, attr, orig))
            setattr(cls, attr, counted(orig, key))
        yield counts
    finally:
        for cls, attr, orig in reversed(saved):
            setattr(cls, attr, orig)


# -- self-time arithmetic ----------------------------------------------------

def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> tuple[dict, dict]:
    """Per span id: (self time, layer self time), as two dicts."""
    by_id = {s.id: s for s in spans}
    children, layer_children = {}, {}
    for s in spans:
        if s.parent is None:
            continue
        children.setdefault(s.parent, []).append(s)
        # nearest ancestor in the same layer, if any
        anc = by_id.get(s.parent)
        while anc is not None and anc.layer != s.layer:
            anc = by_id.get(anc.parent)
        if anc is not None:
            layer_children.setdefault(anc.id, []).append(s)

    def own(s, kids):
        spans_in = [(k.start, k.end) for k in kids.get(s.id, ())]
        return s.duration - covered(spans_in, s.start, s.end)

    return ({s.id: own(s, children) for s in spans},
            {s.id: own(s, layer_children) for s in spans})


def layer_metrics(spans, points: int, counts: dict, count_points: int,
                  skipped: int, overhead_frac: float) -> dict:
    """Every per-layer figure of a traced run, by metric name.

    `points` is the number of sample points the traced calls attempted;
    `counts` come from a separate counting pass over `count_points` points.
    """
    own, layer_own = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def ms_per_point(*names):
        return 1e3 * sum(layer_own[s.id] for n in names
                         for s in by_name.get(n, ())) / points

    def mean_ms(values):
        values = list(values)
        return 1e3 * sum(values) / len(values) if values else 0.0

    run_checks = by_name.get("report.run_check", ())
    pool_time = sum(s.duration * s.attrs["workers"] for s in run_checks)
    point_time = sum(s.duration for n in POINT_CHECKS
                     for s in by_name.get(n, ()))
    builds = [s.duration for n in SPEC_BUILDS for s in by_name.get(n, ())]
    return {
        "tangents.tan_created_per_point": counts["tan"] / count_points,
        "tangents.jet2_created_per_point": counts["jet2"] / count_points,
        "fieldspace.fiber_gradient.ms_per_point": ms_per_point(
            "fieldspace.fiber_gradient", "fieldspace.fiber_jacobian"),
        "fieldspace.total_derivatives.ms_per_point": ms_per_point(
            "fieldspace.total_derivatives",
            "fieldspace.total_derivatives_vec"),
        "fieldspace.prolong.ms_per_point": ms_per_point("fieldspace.prolong"),
        "geometry.curvature_bundle.calls_per_point":
            len(by_name.get("geometry.curvature_bundle", ())) / points,
        "geometry.curvature_bundle.ms_per_point":
            ms_per_point("geometry.curvature_bundle"),
        "eh.momenta_and_hamiltonian.ms_per_point":
            ms_per_point("eh.momenta_and_hamiltonian"),
        "eh.projectability_check.ms_per_point":
            ms_per_point("eh.projectability_check"),
        "eh.constraint_einstein_derivative.ms_per_point":
            ms_per_point("eh.constraint_einstein_derivative"),
        "eh.cartan_form_eh.ms_per_point": ms_per_point("eh.cartan_form_eh"),
        "ep.momenta_ep.ms_per_point": ms_per_point("ep.momenta_ep"),
        "ep.projectability_check_ep.ms_per_point":
            ms_per_point("ep.projectability_check_ep"),
        "ep.constraint_ladder.ms_per_point": ms_per_point(*EP_LADDER),
        "ep.cartan_form_ep.ms_per_point": ms_per_point("ep.cartan_form_ep"),
        "exterior.contract_terms.ms_per_point":
            ms_per_point("exterior.contract_terms"),
        "exterior.form_terms_per_point": sum(
            s.attrs["terms"]
            for s in by_name.get("exterior.contract_terms", ())) / points,
        "catalog.metric_jet_at.ms_per_point":
            ms_per_point("catalog.metric_jet_at"),
        "catalog.ep_point_at.ms_per_point":
            ms_per_point("catalog.ep_point_at"),
        "series.ops_per_point": counts["series"] / count_points,
        "catalog.spec_build.ms": mean_ms(builds),
        "report.run_check.self_ms_per_call": mean_ms(
            own[s.id] for s in run_checks),
        "report.busy_ratio": point_time / pool_time if pool_time else 0.0,
        "report.emit_report.ms_per_call": mean_ms(
            s.duration for s in by_name.get("report.emit_report", ())),
        "report.skipped_points": skipped,
        "cli.main.self_ms_per_call": mean_ms(
            own[s.id] for s in by_name.get("cli.main", ())),
        "trace.overhead_frac": overhead_frac,
    }


LAYER_UNITS = {
    "tangents.tan_created_per_point": "count",
    "tangents.jet2_created_per_point": "count",
    "geometry.curvature_bundle.calls_per_point": "count",
    "exterior.form_terms_per_point": "count",
    "series.ops_per_point": "count",
    "report.skipped_points": "count",
    "report.busy_ratio": "ratio",
    "trace.overhead_frac": "ratio",
}


def layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name, "ms")
