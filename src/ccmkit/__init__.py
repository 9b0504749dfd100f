"""Numerical contraction-metric certification, damping-injection gain
synthesis, Riemannian geodesics and universal trajectory tracking for
control-affine systems."""

from .certificates import (
    CertificateReport,
    Grid,
    check_c1,
    check_dual_w,
    check_killing_pde,
    check_robust,
)
from .controller import DampingParams, GainField, exactness_residual, synthesize_gain
from .geodesic import GeodesicPath, path_integral_controller, solve_geodesic
from .model import (
    BuiltinBundle,
    MetricField,
    ReferenceSpec,
    SystemModel,
    builtin,
    builtin_names,
)
from .sim import RunConfig, SimTrace, decay_rate, perturbation_sweep, run_closed_loop

__version__ = "0.1.0"

__all__ = [
    "BuiltinBundle",
    "CertificateReport",
    "DampingParams",
    "GainField",
    "GeodesicPath",
    "Grid",
    "MetricField",
    "ReferenceSpec",
    "RunConfig",
    "SimTrace",
    "SystemModel",
    "builtin",
    "builtin_names",
    "check_c1",
    "check_dual_w",
    "check_killing_pde",
    "check_robust",
    "decay_rate",
    "exactness_residual",
    "path_integral_controller",
    "perturbation_sweep",
    "run_closed_loop",
    "solve_geodesic",
    "synthesize_gain",
]
