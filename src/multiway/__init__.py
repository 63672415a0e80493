"""Statistical inference under multiway clustering.

Cluster-robust variance estimators, the pigeonhole bootstrap, mean /
ratio / OLS / quantile / GMM estimators, and a Monte Carlo harness for
confidence-interval coverage experiments on separately exchangeable data.
"""

from .bootstrap import (
    BootstrapReplicates,
    PercentileRegion,
    PigeonholeWeights,
    SymmetricAbsRegion,
    draw_weights,
    percentile_ci,
    run_bootstrap,
    symmetric_abs_ci,
    weighted_cell_sums,
)
from .data import (
    CellStatistic,
    CellSums,
    ClusteredSample,
    Dimensions,
    cell_sums,
    count_statistic,
    identity_statistic,
    load_sample,
    margin_sum,
    pair_counts,
    subset_margin_sum,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateDesignError,
    EmptySampleError,
    InsufficientReplicatesError,
    ModelError,
    MultiwayError,
    ParseError,
    ShapeError,
    SingularDesignError,
    SingularVarianceError,
    UnsupportedError,
)
from .estimators import (
    EcdfSpec,
    EstimateResult,
    Fitted,
    LinearModelSpec,
    ecdf_eval,
    fit,
    mean_estimate,
    ols_fit,
    ols_sandwich,
    quantile_estimate,
    ratio_estimate,
)
from .variance import (
    CenteredScores,
    VarianceEstimate,
    WaldRegion,
    estimate_variance,
    sigma_subset,
    vhat1,
    vhat2,
    vhat_cgm,
    wald_region,
)

__version__ = "0.1.0"
