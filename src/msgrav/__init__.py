"""Numerical verification of the multisymplectic formulations of the
second-order metric and first-order metric-affine gravity models.

The package evaluates Lagrangians, momenta, Hamiltonians, Poincare-Cartan
forms, and constraint families at jets of exact spacetimes, certifying
every identity with independent computation routes: closed forms against
array-valued forward-mode differentiation of the Lagrangians through
einsum curvature kernels; the tests add a finite-difference oracle.
"""

from .version import VERSION as __version__

from .errors import (ConfigError, DegenerateMetricError, DomainError,
                     ExprSyntaxError, MsgravError)
from .series import JetScalar
from .tangents import Jet2, Tan
from .fieldspace import (EH_DIM_J3, EP_DIM_J1, EHJetPoint, EPJetPoint,
                         prolong, total_derivatives)
from .catalog import (MetricSpec, builtin, ep_point_at, eh_point_at,
                      list_builtins, load_metric_file, metric_jet_at)
from .report import CheckConfig, ConstraintReport, emit_report, run_check

__all__ = [
    "__version__",
    "MsgravError", "ConfigError", "ExprSyntaxError", "DomainError",
    "DegenerateMetricError",
    "JetScalar", "Tan", "Jet2",
    "EHJetPoint", "EPJetPoint", "prolong",
    "total_derivatives",
    "EH_DIM_J3", "EP_DIM_J1",
    "MetricSpec", "builtin", "list_builtins", "load_metric_file",
    "metric_jet_at", "eh_point_at", "ep_point_at",
    "CheckConfig", "ConstraintReport", "run_check", "emit_report",
]
