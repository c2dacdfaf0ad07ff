"""Kernel herding quadrature and particle filtering for mixture-transition models."""

from .errors import ConfigError, DegenerateFilterError, NumericalError
from .exact import (
    GaussianBelief,
    grid_filter,
    jmls_exact_filter,
    kalman_run,
    kalman_update,
)
from .filters import (
    MC_MULTINOMIAL,
    MC_STRATIFIED,
    QMC_SOBOL,
    FilterTrace,
    SamplerKind,
    TransitionMixture,
    build_transition_mixture,
    pf_step,
    run_filter,
    run_rbpf,
    skh,
)
from .fw_quad import FwVariant, fw_quad
from .harness import (
    ExperimentConfig,
    MetricRow,
    SummaryRow,
    load_config,
    run_filter_experiment,
    run_quad_experiment,
    run_rbpf_experiment,
    sample_mixture_family,
    summarize,
)
from .kernels import (
    GaussianMixture,
    KernelConfig,
    WeightedParticleSet,
    mean_map_sqnorm,
    mmd,
)
from .models import (
    StateSpaceModel,
    make_clgss,
    make_jmls,
    make_lgss,
    make_nonlinear_benchmark,
    simulate,
)
from .qmc import SobolStream, inverse_normal_cdf, qmc_sample_mixture

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DegenerateFilterError",
    "NumericalError",
    "GaussianBelief",
    "grid_filter",
    "jmls_exact_filter",
    "kalman_run",
    "kalman_update",
    "MC_MULTINOMIAL",
    "MC_STRATIFIED",
    "QMC_SOBOL",
    "FilterTrace",
    "SamplerKind",
    "TransitionMixture",
    "build_transition_mixture",
    "pf_step",
    "run_filter",
    "run_rbpf",
    "skh",
    "FwVariant",
    "fw_quad",
    "ExperimentConfig",
    "MetricRow",
    "SummaryRow",
    "load_config",
    "run_filter_experiment",
    "run_quad_experiment",
    "run_rbpf_experiment",
    "sample_mixture_family",
    "summarize",
    "GaussianMixture",
    "KernelConfig",
    "WeightedParticleSet",
    "mean_map_sqnorm",
    "mmd",
    "StateSpaceModel",
    "make_clgss",
    "make_jmls",
    "make_lgss",
    "make_nonlinear_benchmark",
    "simulate",
    "SobolStream",
    "inverse_normal_cdf",
    "qmc_sample_mixture",
    "__version__",
]
