"""Generative modelling of multivariate time series with signature features
and piecewise-linear spline CDF flows."""

from .calibration import (
    DivergenceError,
    FitReport,
    TrainConfig,
    fit,
    gradient,
    hessian,
    loss,
    multi_seed_fit,
    regularized_loss,
    windows_from_series,
)
from .evaluation import (
    EvaluationReport,
    acf,
    cross_correlation,
    dataset_statistics,
    evaluate,
    kurtosis,
    self_evaluation,
    skewness,
)
from .model import (
    SigSplineModel,
    conditional_increments,
    from_unit,
    load_model,
    log_likelihood,
    parameter_count,
    sample_from_series,
    sample_step,
    save_model,
    sliding_windows,
    to_unit,
    zero_model,
)
from .signature import signatures
from .spline import (
    bin_indicator,
    softmax,
    spline_cdf,
    spline_density,
    spline_inverse,
    spline_log_density,
)
from .synthetic import VarSpec, observe, benchmark_var_spec, pca_whiten, simulate_var2, unwhiten
from .tensor_algebra import feature_count

__version__ = "0.1.0"
