"""Mean-field Potts models with p-body interactions.

Exact finite-N magnetization laws, phase-diagram classification, limiting
distributions at regular/critical/special points, and maximum-likelihood
inference with asymptotically valid confidence sets.

Public names load their module on first access (PEP 562), so importing the
package, or the phase layer alone, does not load the other layers.
"""

import importlib

_EXPORTS = {
    "model": (
        "ModelSpec", "curvature_variance", "f_deriv", "k_deriv", "negative_free_energy",
        "quadratic_form", "s_of_x", "sigma_matrix", "u_vector", "x_of_s"),
    "phase": (
        "CriticalCurveSample", "MaximizerSet", "PointClass", "PointTag", "SpecialPoint",
        "StationaryPoint", "classify_point", "compute_beta_c", "compute_special_point",
        "critical_curve", "find_stationary_points", "full_maximizer_set",
        "global_maximizers_1d", "phase_diagram"),
    "exact": (
        "ExactLaw", "BProfile", "HProfile", "colour_marginals", "log_partition",
        "magnetization_law", "tail_prob"),
    "sampling": (
        "RescaledSample", "RescaledSamples", "draw_magnetizations", "exact_sample", "rescale"),
    "laws": (
        "ComposedLaw", "GaussianSimplex", "GridLaw", "HalfNormalLaw",
        "MixtureGaussianSimplex", "MixtureLaw", "NormalLaw", "ScalarLaw", "bhat_limit",
        "critical_mixture_law", "gaussian_limit_regular", "gamma1_weight", "hhat_limit",
        "ks_distance", "limit_law", "mixture_weights", "norm_p_limit", "quartic_law",
        "sextic_law", "v_limit_covariance"),
    "inference": (
        "ConfidenceSet", "EstimationResult", "augment_ci", "ci_beta", "ci_h", "confidence_set",
        "critical_slice_beta", "critical_slice_h", "mle_beta", "mle_h", "two_step_ci"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
