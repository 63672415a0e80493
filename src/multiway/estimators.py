"""Concrete estimators: mean, ratio mean, OLS and quantiles.

The mean and ratio estimators average the per-cell sums of the
observation vectors. Each estimator returns a :class:`Fitted` (defined in
:mod:`multiway.variance`): its point estimate, the per-cell score vectors
that the variance estimators consume, and its weighted companion (suffix
``weighted_``) as the bootstrap hook, together with the per-cell data the
hook re-estimates from. The mean, ratio and OLS hooks sum W_j times their
per-cell sums with :meth:`PigeonholeWeights.weighted_sum`; the mean and
ratio estimates are their hooks at identity weights, exactly, and the OLS
hook reproduces its unit-level fit up to rounding. :func:`fit` is the one
dispatch over all estimators, GMM's :func:`multiway.gmm.gmm_fit`
included, and refuses non-finite data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import smallmat
from .bootstrap import PigeonholeWeights, order_statistic
from .data import (
    CellSums,
    ClusteredSample,
    Dimensions,
    cell_sums,
    check_columns,
    crossprod,
    sum_by_cell,
)
from .errors import ConfigError, EmptySampleError, SingularDesignError
from .gmm import MomentModel, OptimizerConfig, WeightMatrix, gmm_fit, gmm_variance
from .variance import CenteredScores, Fitted, VarianceEstimate, check_condition

__all__ = [
    "EcdfSpec",
    "Fitted",
    "LinearModelSpec",
    "OlsCellData",
    "QuantileData",
    "cell_columns",
    "fit",
    "mean_estimate",
    "ols_fit",
    "ols_sandwich",
    "quantile_data",
    "quantile_estimate",
    "ratio_cell_sums",
    "ratio_estimate",
    "weighted_mean",
    "weighted_ols",
    "weighted_quantile",
    "weighted_ratio",
]

# ---------------------------------------------------------------------
# Cell-sum mean: theta = (1/pi_c) sum_j S_j
# ---------------------------------------------------------------------


def mean_estimate(sample: ClusteredSample) -> Fitted:
    """Mean of the cell sums S_j of the observations, :func:`weighted_mean`
    at identity weights; scores are the centered sums S_j - theta."""
    sums = cell_sums(sample)
    theta = weighted_mean(sums, PigeonholeWeights.identity(sample.dims))
    scores = CenteredScores(sample.dims, sums.values - theta)
    return Fitted("mean", theta, scores, None, weighted_mean, sums, {"n_units": sample.n_units})


def weighted_mean(sums: CellSums, weights: PigeonholeWeights) -> np.ndarray:
    """theta* = (1/pi_c) sum_j W_j S_j."""
    return weights.weighted_sum(sums.values) / sums.dims.pi_c


# ---------------------------------------------------------------------
# Ratio mean (per-unit mean): theta = sum_j S_j / sum_j N_j
# ---------------------------------------------------------------------


def ratio_cell_sums(sample: ClusteredSample) -> CellSums:
    """Cell sums of the observations stacked with the cell sizes; last
    column is N_j."""
    fsums = cell_sums(sample)
    sizes = sample.cell_sizes.astype(np.float64)[:, None]
    return CellSums(sample.dims, np.hstack((fsums.values, sizes)))


def ratio_estimate(sample: ClusteredSample) -> Fitted:
    """Per-unit mean with its linearized cell scores.

    theta is the ratio of pooled sums to the total unit count,
    :func:`weighted_ratio` at identity weights; the scores are
    T_j = (S_j - N_j theta) / (mean cell size), the linearization whose
    variance is estimated exactly like the plain mean's.
    """
    sums = ratio_cell_sums(sample)
    theta = weighted_ratio(sums, PigeonholeWeights.identity(sample.dims))
    s, n = sums.values[:, :-1], sums.values[:, -1:]
    total = float(n.sum())
    # (s - n theta) / scale in one (pi_c, d) array, with the same bits
    t = n * theta
    np.subtract(s, t, out=t)
    t /= total / sample.dims.pi_c
    scores = CenteredScores(sample.dims, t)
    return Fitted("ratio", theta, scores, None, weighted_ratio, sums, {"n_units": int(total)})


def weighted_ratio(sums_with_counts: CellSums, weights: PigeonholeWeights) -> np.ndarray:
    """theta* = sum_j W_j S_j / sum_j W_j N_j on sums from :func:`ratio_cell_sums`."""
    v = weights.weighted_sum(sums_with_counts.values)
    if v[-1] <= 0:
        raise EmptySampleError("ratio: no units in the sample or the bootstrap draw")
    return v[:-1] / v[-1]


# ---------------------------------------------------------------------
# OLS
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class LinearModelSpec:
    """Which observation coordinates form the outcome and the regressors."""

    outcome_index: int
    regressor_indices: tuple[int, ...] = ()
    intercept: bool = True

    def __post_init__(self):
        object.__setattr__(
            self, "regressor_indices", tuple(int(i) for i in self.regressor_indices)
        )
        if self.outcome_index in self.regressor_indices:
            raise ConfigError(
                f"regressor_indices: the outcome coordinate {self.outcome_index} "
                "cannot also be a regressor"
            )
        if len(set(self.regressor_indices)) != len(self.regressor_indices):
            raise ConfigError("regressor_indices: duplicate regressor coordinates")
        if not self.intercept and not self.regressor_indices:
            raise ConfigError("regressor_indices: model has no regressors at all")

    def design(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(X, y) for a stacked observation array."""
        check_columns(
            values.shape[1],
            outcome_index=(self.outcome_index,),
            regressor_indices=self.regressor_indices,
        )
        cols = [values[:, list(self.regressor_indices)]]
        if self.intercept:
            cols.insert(0, np.ones((values.shape[0], 1)))
        return np.hstack(cols), values[:, self.outcome_index]


def _solve_gram(gram: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """The solution and the checked ascending eigenvalues of the Gram matrix,
    from its Cholesky factor and its singular values."""
    gram = gram.tolist()
    try:
        low = smallmat.cholesky(gram)
    except smallmat.NotPositiveDefinite as exc:
        raise SingularDesignError(f"Gram matrix is singular ({exc})") from None
    evals = smallmat.singular_values(gram)
    check_condition(evals, SingularDesignError, "Gram matrix is singular")
    return np.array(smallmat.cho_solve(low, rhs.tolist())), evals


def ols_fit(sample: ClusteredSample, spec: LinearModelSpec) -> Fitted:
    """Pooled least squares over all units.

    The scores are the per-cell sums of X u-hat (uncentered; they sum to
    zero by the normal equations), the sandwich meat. ``meta`` holds
    ``n_units``, ``residual_norm`` and ``gram_condition``, then ``jhat``,
    J = (1/pi_c) sum X X', whose bread is :func:`gmm_variance` with Xi = I.
    """
    X, y = spec.design(sample.values)
    if sample.n_units == 0:
        raise EmptySampleError("OLS needs at least one unit")
    gram = crossprod(X, X)
    theta, evals = _solve_gram(gram, crossprod(X, y))
    resid = y - crossprod(X.T, theta)
    scores = sum_by_cell(sample, X * resid[:, None])
    jhat = gram / sample.dims.pi_c
    return Fitted(
        "ols",
        theta,
        CenteredScores(sample.dims, scores),
        partial(gmm_variance, jhat, xi=WeightMatrix.identity(X.shape[1])),
        weighted_ols,
        OlsCellData(sample, X, y),
        {
            "n_units": sample.n_units,
            "residual_norm": math.sqrt(crossprod(resid, resid)),
            "gram_condition": evals[-1] / evals[0],
            "jhat": jhat,
        },
    )


def ols_sandwich(result: Fitted, kind: str = "v1", adjustment: str = "unit") -> VarianceEstimate:
    """V = J^-1 H J^-1 (:func:`gmm_variance` of the square J) with H the
    multiway meat built from the OLS scores. ``kind`` selects the meat
    estimator: "v1" (the default, positive by construction), "v2" or "cgm".
    """
    if result.kind != "ols":
        raise ValueError("result does not come from ols_fit")
    return result.variance(kind, adjustment)


@dataclass(frozen=True)
class OlsCellData:
    """The design (X, y) of one OLS fit and, built on first read, the
    per-cell Gram blocks for weighted OLS re-estimation."""

    sample: ClusteredSample
    X: np.ndarray
    y: np.ndarray

    @property
    def dims(self) -> Dimensions:
        return self.sample.dims

    @cached_property
    def xtx(self) -> np.ndarray:
        """sum over the units of cell j of X X', shape (pi_c, p, p)."""
        return sum_by_cell(self.sample, self.X[:, :, None] * self.X[:, None, :])

    @cached_property
    def xty(self) -> np.ndarray:
        """sum over the units of cell j of X y, shape (pi_c, p)."""
        return sum_by_cell(self.sample, self.X * self.y[:, None])


def weighted_ols(data: OlsCellData, weights: PigeonholeWeights) -> np.ndarray:
    """theta* from the W_j-weighted normal equations."""
    return _solve_gram(weights.weighted_sum(data.xtx), weights.weighted_sum(data.xty))[0]


# ---------------------------------------------------------------------
# Quantiles
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class EcdfSpec:
    """Which observation coordinate the quantile estimator inverts the ECDF of."""

    coordinate: int = 0


@dataclass(frozen=True)
class QuantileData:
    """Sorted pooled values with their cell ids, for weighted re-inversion."""

    dims: Dimensions
    sorted_values: np.ndarray
    sorted_cell_ids: np.ndarray
    tau: float


def quantile_data(sample: ClusteredSample, spec: EcdfSpec, tau: float) -> QuantileData:
    if not 0.0 < tau < 1.0:
        raise ConfigError(f"tau: must be in (0, 1), got {tau}")
    check_columns(sample.obs_dim, coordinate=(spec.coordinate,))
    if sample.n_units == 0:
        raise EmptySampleError("quantile needs at least one unit")
    values = sample.values[:, spec.coordinate]
    order = np.argsort(values, kind="stable")
    return QuantileData(
        dims=sample.dims,
        sorted_values=values[order],
        sorted_cell_ids=sample.unit_cell_ids[order],
        tau=tau,
    )


def quantile_estimate(sample: ClusteredSample, spec: EcdfSpec, tau: float) -> Fitted:
    """Left generalized inverse of the ECDF over the observed support.

    theta is the smallest observed value y with F(y) >= tau, the order
    statistic its hook :func:`weighted_quantile` takes under cell weights. No
    analytic variance is produced; inference goes through the pigeonhole bootstrap.
    """
    data = quantile_data(sample, spec, tau)
    theta = np.array([order_statistic(data.sorted_values, tau)])
    meta = {"tau": tau, "n_units": data.sorted_values.shape[0]}
    return Fitted("quantile", theta, None, None, weighted_quantile, data, meta)


def weighted_quantile(data: QuantileData, weights: PigeonholeWeights) -> np.ndarray:
    """Invert the W_j-weighted ECDF at tau over the observed support."""
    uw = weights.cell_weights()[data.sorted_cell_ids]
    return np.array([order_statistic(data.sorted_values, data.tau, uw)])


# ---------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------


def _check_finite(sample: ClusteredSample) -> None:
    """Refuse, naming its column and cell, the first non-finite observation
    value: a NaN or inf would otherwise surface as a singular matrix, a
    failed optimizer or a value silently sorted last, depending on the
    estimator."""
    finite = np.isfinite(sample.values)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        cell = np.unravel_index(sample.unit_cell_ids[row], sample.dims.counts)
        raise SingularDesignError(
            f"non-finite data: observation column {col} is {float(sample.values[row, col])!r} "
            f"in cell {tuple(int(c) + 1 for c in cell)}"
        )


def cell_columns(
    kind: str,
    obs_dim: int,
    bootstrap: bool,
    spec: LinearModelSpec | EcdfSpec | None = None,
    model: MomentModel | None = None,
) -> int:
    """The float64 columns per cell that :func:`fit` of ``kind`` keeps at its
    peak, temporaries included, on a sample with ``obs_dim`` observation
    columns; with ``bootstrap``, those of its hook's replicates too. The
    sample's own cell offsets and sizes are not counted. Each count is the
    growth of the measured peak address space per cell, in 8-byte columns,
    rounded up (see :data:`multiway.data.LATTICE_BYTES`). A GMM replicate
    keeps only its units, so GMM counts the same with or without ``bootstrap``.
    """
    if kind == "mean":  # the cell sums and the centred scores
        return 2 * obs_dim
    if kind == "ratio":  # sums with sizes beside their unstacked parts, later the scores
        return 2 * obs_dim + 2
    if kind == "ols":  # scores, one column summed at a time; Gram blocks in the hook
        p = len(spec.regressor_indices) + spec.intercept
        return p * p + 2 * p + 1 if bootstrap else p + 1
    if kind == "quantile":  # the hook's cell weights
        return int(bootstrap)
    if kind == "gmm":  # scores and one summed column; the hook keeps the units only
        return model.n_moments + 1
    raise ConfigError(f"unknown estimator {kind!r}")


def fit(
    kind: str,
    sample: ClusteredSample,
    *,
    spec: LinearModelSpec | EcdfSpec | None = None,
    tau: float = 0.5,
    model: MomentModel | None = None,
    config: OptimizerConfig | None = None,
    two_step: bool = False,
) -> Fitted:
    """Fit estimator ``kind`` ("mean", "ratio", "ols", "quantile" or "gmm")
    with its direct estimator, after refusing a sample that holds a NaN or
    inf value with :class:`SingularDesignError`.

    ``spec`` is the :class:`LinearModelSpec` for "ols" and the
    :class:`EcdfSpec` (with level ``tau``) for "quantile". "gmm" is
    :func:`multiway.gmm.gmm_fit` of ``model`` with the optimizer ``config``
    and ``two_step``. The result is the direct estimator's, field by field.
    """
    _check_finite(sample)
    if kind == "mean":
        return mean_estimate(sample)
    if kind == "ratio":
        return ratio_estimate(sample)
    if kind == "ols":
        return ols_fit(sample, spec)
    if kind == "quantile":
        return quantile_estimate(sample, spec, tau)
    if kind == "gmm":
        return gmm_fit(sample, model, config=config, two_step=two_step)
    raise ConfigError(f"unknown estimator {kind!r}")
