"""fockfit: squeezing and temperature estimation of single-mode Gaussian
oscillator states from Fock count histograms, with parametric-bootstrap
confidence intervals."""

from .bootstrap import (
    METHODS,
    PARAMETERS,
    BootstrapError,
    ConfidenceInterval,
    CoverageResult,
    ReplicateSet,
    bc_interval,
    coverage_probability,
    parametric_bootstrap,
    percentile_interval,
)
from .estimation import (
    WEIGHT_SCHEMES,
    FitBatch,
    FitResult,
    FockHistogram,
    PriorShape,
    WeightVector,
    fit,
    fit_batch,
    fit_frequencies,
    mle_weights,
    objective,
    posterior_weights,
    uniform_weights,
    weights_for,
)
from .model import (
    FockDistribution,
    QuadratureVariances,
    SqueezedThermalState,
    fidelity,
    fock_distribution,
    fock_probability,
    fock_probability_oracle,
    from_variances,
    to_variances,
)
from .numerics import scaled_legendre, std_normal_cdf, std_normal_quantile
from .sampling import SeedSpec, sample_histogram
from .studies import (
    DEFAULT_SHOT_GRID,
    ConfigError,
    SchemeSpec,
    StudyConfig,
    StudyReport,
    StudyRow,
    bias_study,
    coverage_study,
    fidelity_study,
    parse_config,
    run_study,
    weight_comparison_study,
)

__version__ = "0.1.0"
