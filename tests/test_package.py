import vortexbell


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from vortexbell import *", namespace)
    assert len(set(vortexbell.__all__)) == len(vortexbell.__all__)
    missing = [name for name in vortexbell.__all__ if name not in namespace]
    assert not missing
    for name in vortexbell.__all__:
        assert namespace[name] is getattr(vortexbell, name)


# the public API; adding or removing a name is a reviewed edit of this list
PUBLIC_NAMES = {
    "__version__",
    # bell
    "RESTRICTED", "GENERAL", "OptimizerConfig", "OptimizationResult", "EllipticalProfile",
    "bell_sum", "bell_closed_form_10", "maximize_bell", "bell_scan", "elliptical_profile",
    # correlation
    "quadrature_correlation", "max_correlation", "correlation_scan",
    # modes
    "ModeIndex", "ScaleParams", "SchmidtTerm", "lg_amplitude", "hg_amplitude",
    "schmidt_coefficients", "reconstruct_from_schmidt", "physical_to_scaled", "scaled_to_physical",
    # quadrature
    "QuadratureConfig", "MomentTable", "gauss_nodes", "moments", "wigner_moments",
    # specfun
    "laguerre",
    # wigner
    "EllipticalParams", "wigner_lg", "wigner_transform", "lg_transform_evaluator",
    "NumericWignerPlan", "lg_numeric_plan", "elliptical_field", "wigner_elliptical",
    "elliptical_transform", "elliptical_transform_evaluator",
}


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 39
    assert set(vortexbell.__all__) == PUBLIC_NAMES
