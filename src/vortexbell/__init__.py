"""Continuous-variable Bell-CHSH analysis of Laguerre-Gaussian vortex beams.

The package evaluates LG/HG transverse modes and their Schmidt (LG -> HG)
decomposition, closed-form and numeric Wigner functions, Bell-CHSH sums over
phase-space settings with exact-derivative Newton maximization, and quadrature
correlation coefficients — everything in dimensionless scaled coordinates.
"""

__version__ = "0.1.0"

from .bell import (
    GENERAL,
    RESTRICTED,
    BellSettingsGeneral,
    BellSettingsRestricted,
    EllipticalProfile,
    OptimizationResult,
    OptimizerConfig,
    bell_closed_form_10,
    bell_scan,
    bell_sum_general,
    bell_sum_restricted,
    elliptical_profile,
    maximize_bell,
)
from .correlation import (
    QuadratureAngles,
    correlation_from_moments,
    correlation_scan,
    max_correlation,
    quadrature_correlation,
)
from .modes import (
    ModeIndex,
    ScaleParams,
    SchmidtTerm,
    hg_amplitude,
    lg_amplitude,
    lg_gradient,
    physical_to_scaled,
    reconstruct_from_schmidt,
    scaled_to_physical,
    schmidt_coefficients,
)
from .quadrature import (
    MomentTable,
    QuadratureConfig,
    gauss_nodes,
    moments,
    wigner_moments,
)
from .specfun import laguerre, ln_factorial
from .wigner import (
    EllipticalParams,
    NumericWignerPlan,
    WignerArgs,
    elliptical_field,
    elliptical_transform,
    elliptical_transform_evaluator,
    lg_numeric_plan,
    lg_transform_evaluator,
    wigner_args,
    wigner_elliptical,
    wigner_lg,
    wigner_numeric,
    wigner_transform,
)

__all__ = [
    "__version__",
    # modes
    "ModeIndex", "ScaleParams", "SchmidtTerm", "lg_amplitude", "lg_gradient",
    "hg_amplitude", "schmidt_coefficients", "reconstruct_from_schmidt",
    "physical_to_scaled", "scaled_to_physical",
    # specfun
    "laguerre", "ln_factorial",
    # wigner
    "WignerArgs", "EllipticalParams", "wigner_args", "wigner_lg",
    "wigner_transform", "wigner_numeric", "NumericWignerPlan", "lg_numeric_plan",
    "lg_transform_evaluator", "elliptical_field", "wigner_elliptical",
    "elliptical_transform", "elliptical_transform_evaluator",
    # quadrature
    "QuadratureConfig", "MomentTable", "gauss_nodes", "moments", "wigner_moments",
    # bell
    "RESTRICTED", "GENERAL", "BellSettingsRestricted", "BellSettingsGeneral",
    "OptimizerConfig", "OptimizationResult", "EllipticalProfile",
    "bell_sum_restricted", "bell_closed_form_10", "bell_sum_general",
    "maximize_bell", "bell_scan", "elliptical_profile",
    # correlation
    "QuadratureAngles", "correlation_from_moments", "quadrature_correlation",
    "max_correlation", "correlation_scan",
]
