"""Concrete estimators: mean, ratio mean, OLS, ECDF and quantiles.

Each estimator returns its point estimate together with the per-cell
score vectors that the variance estimators consume, and has a weighted
companion (suffix ``weighted_``) that re-estimates under pigeonhole
weights by multiplying every per-cell sum by W_j. With identity weights
the weighted companions reproduce the unweighted estimate exactly.
:func:`fit` is the one dispatch over all estimators, GMM included.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .bootstrap import PigeonholeWeights
from .data import (
    CellStatistic,
    CellSums,
    ClusteredSample,
    Dimensions,
    cell_sums,
    count_statistic,
    identity_statistic,
    sum_by_cell,
)
from .errors import (
    ConfigError,
    EmptySampleError,
    ShapeError,
    SingularDesignError,
    UnsupportedError,
)
from .gmm import (
    MomentModel,
    OptimizerConfig,
    cell_moment_sums,
    gmm_bootstrap_estimator,
    gmm_fit,
    gmm_variance,
)
from .variance import CenteredScores, VarianceEstimate, estimate_variance

__all__ = [
    "EcdfSpec",
    "EstimateResult",
    "Fitted",
    "LinearModelSpec",
    "OlsCellData",
    "QuantileData",
    "ecdf_eval",
    "fit",
    "mean_estimate",
    "ols_cell_data",
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

GRAM_CONDITION_CAP = 1e12


@dataclass(frozen=True)
class EstimateResult:
    """Point estimate, the cell scores feeding the variance estimators, and
    estimator-specific diagnostics."""

    theta: np.ndarray
    scores: CenteredScores | None
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Fitted:
    """One estimator fitted to one sample, as :func:`fit` returns it.

    ``scores`` feed the variance estimators (None: no analytic variance).
    ``bread`` maps a meat matrix to the sandwich (None: the meat is the
    variance). ``hook(prepared, weights)`` re-estimates theta under
    pigeonhole weights for :func:`multiway.bootstrap.run_bootstrap`.
    """

    kind: str
    theta: np.ndarray
    scores: CenteredScores | None
    bread: Callable[[np.ndarray], np.ndarray] | None
    hook: Callable
    prepared: object
    meta: dict

    def variance(self, kind: str, adjustment: str = "unit") -> VarianceEstimate:
        """Variance of theta: the :func:`estimate_variance` meat of the
        scores first, then the bread."""
        if self.scores is None:
            raise UnsupportedError("quantiles have no analytic variance; use the bootstrap")
        meat = estimate_variance(self.scores, kind, adjustment)
        if self.bread is None:
            return meat
        return replace(meat, matrix=self.bread(meat.matrix))


# ---------------------------------------------------------------------
# Cell-sum mean: theta = (1/pi_c) sum_j S_j
# ---------------------------------------------------------------------


def mean_estimate(sample: ClusteredSample, stat: CellStatistic | None = None) -> EstimateResult:
    """Mean of the cell sums S_j(f); scores are the centered sums S_j - theta."""
    stat = stat or identity_statistic(sample.obs_dim)
    sums = cell_sums(sample, stat)
    theta = sums.values.mean(axis=0)
    return EstimateResult(
        theta=theta,
        scores=CenteredScores(sample.dims, sums.values - theta),
        meta={"n_units": sample.n_units},
    )


def weighted_mean(sums: CellSums, weights: PigeonholeWeights) -> np.ndarray:
    """theta* = (1/pi_c) sum_j W_j S_j."""
    return (weights.cell_weights()[:, None] * sums.values).mean(axis=0)


# ---------------------------------------------------------------------
# Ratio mean (per-unit mean): theta = sum_j S_j / sum_j N_j
# ---------------------------------------------------------------------


def ratio_cell_sums(sample: ClusteredSample, stat: CellStatistic | None = None) -> CellSums:
    """Cell sums of f stacked with the cell sizes; last column is N_j."""
    stat = stat or identity_statistic(sample.obs_dim)
    fsums = cell_sums(sample, stat)
    nsums = cell_sums(sample, count_statistic())
    return CellSums(sample.dims, np.hstack((fsums.values, nsums.values)))


def ratio_estimate(sample: ClusteredSample, stat: CellStatistic | None = None) -> EstimateResult:
    """Per-unit mean with its linearized cell scores.

    theta is the ratio of pooled sums to the total unit count; the scores
    are T_j = (S_j - N_j theta) / (mean cell size), the linearization whose
    variance is estimated exactly like the plain mean's.
    """
    sums = ratio_cell_sums(sample, stat)
    s, n = sums.values[:, :-1], sums.values[:, -1:]
    total = float(n.sum())
    if total <= 0:
        raise EmptySampleError("ratio estimate needs at least one unit")
    theta = s.sum(axis=0) / total
    scores = (s - n * theta) / (total / sample.dims.pi_c)
    return EstimateResult(
        theta=theta,
        scores=CenteredScores(sample.dims, scores),
        meta={"n_units": int(total)},
    )


def weighted_ratio(sums_with_counts: CellSums, weights: PigeonholeWeights) -> np.ndarray:
    """theta* = sum_j W_j S_j / sum_j W_j N_j on sums from :func:`ratio_cell_sums`."""
    w = weights.cell_weights()[:, None]
    v = w * sums_with_counts.values
    total = float(v[:, -1].sum())
    if total <= 0:
        raise EmptySampleError("bootstrap draw left no units in the sample")
    return v[:, :-1].sum(axis=0) / total


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
            raise ValueError("outcome coordinate cannot also be a regressor")
        if len(set(self.regressor_indices)) != len(self.regressor_indices):
            raise ValueError("duplicate regressor coordinates")
        if not self.intercept and not self.regressor_indices:
            raise ValueError("model has no regressors at all")

    def design(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(X, y) for a stacked observation array."""
        d = values.shape[1]
        if self.outcome_index >= d or any(i >= d for i in self.regressor_indices):
            raise ShapeError(f"spec indices exceed observation dimension {d}")
        cols = [values[:, list(self.regressor_indices)]]
        if self.intercept:
            cols.insert(0, np.ones((values.shape[0], 1)))
        return np.hstack(cols), values[:, self.outcome_index]


def _solve_gram(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    evals = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    if evals[0] <= 0 or evals[-1] > GRAM_CONDITION_CAP * evals[0]:
        raise SingularDesignError(
            f"Gram matrix is singular (eigenvalues in [{evals[0]:.3g}, {evals[-1]:.3g}])"
        )
    return np.linalg.solve(gram, rhs)


def ols_fit(sample: ClusteredSample, spec: LinearModelSpec) -> EstimateResult:
    """Pooled least squares over all units.

    The scores are the per-cell sums of X u-hat (uncentered; they sum to
    zero by the normal equations), which is exactly what the sandwich meat
    consumes. ``meta['jhat']`` holds the bread J = (1/pi_c) sum X X'.
    """
    X, y = spec.design(sample.values)
    if sample.n_units == 0:
        raise EmptySampleError("OLS needs at least one unit")
    gram = X.T @ X
    theta = _solve_gram(gram, X.T @ y)
    resid = y - X @ theta
    scores = sum_by_cell(sample, X * resid[:, None])
    evals = np.linalg.eigvalsh(gram)
    return EstimateResult(
        theta=theta,
        scores=CenteredScores(sample.dims, scores),
        meta={
            "jhat": gram / sample.dims.pi_c,
            "residual_norm": float(np.linalg.norm(resid)),
            "gram_condition": float(evals[-1] / evals[0]),
            "n_units": sample.n_units,
        },
    )


def _ols_bread(jhat: np.ndarray, meat: np.ndarray) -> np.ndarray:
    """J^-1 H J^-1, symmetrized."""
    jinv_h = _solve_gram(jhat, meat)
    v = _solve_gram(jhat, jinv_h.T).T
    return 0.5 * (v + v.T)


def ols_sandwich(
    result: EstimateResult, kind: str = "v1", adjustment: str = "unit"
) -> VarianceEstimate:
    """V = J^-1 H J^-1 with H the multiway meat built from the OLS scores.

    ``kind`` selects the meat estimator: "v1" (the default, positive by
    construction), "v2" or "cgm" for experiments.
    """
    jhat = result.meta.get("jhat")
    if jhat is None or result.scores is None:
        raise ValueError("result does not come from ols_fit")
    bread = partial(_ols_bread, jhat)
    fitted = Fitted("ols", result.theta, result.scores, bread, None, None, result.meta)
    return fitted.variance(kind, adjustment)


@dataclass(frozen=True)
class OlsCellData:
    """Per-cell Gram blocks for weighted OLS re-estimation."""

    dims: Dimensions
    xtx: np.ndarray  # (pi_c, p, p)
    xty: np.ndarray  # (pi_c, p)


def ols_cell_data(sample: ClusteredSample, spec: LinearModelSpec) -> OlsCellData:
    X, y = spec.design(sample.values)
    xtx = sum_by_cell(sample, X[:, :, None] * X[:, None, :])
    xty = sum_by_cell(sample, X * y[:, None])
    return OlsCellData(sample.dims, xtx, xty)


def weighted_ols(data: OlsCellData, weights: PigeonholeWeights) -> np.ndarray:
    """theta* from the W_j-weighted normal equations."""
    w = weights.cell_weights().astype(np.float64)
    gram = np.einsum("j,jpq->pq", w, data.xtx)
    rhs = w @ data.xty
    return _solve_gram(gram, rhs)


# ---------------------------------------------------------------------
# ECDF and quantiles
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class EcdfSpec:
    """Which observation coordinate(s) the distribution estimator looks at.

    A tuple of coordinates gives the joint componentwise-<= ECDF. An
    optional strictly increasing grid fixes default evaluation points.
    """

    coordinate: int | tuple[int, ...] = 0
    grid: np.ndarray | None = None

    def __post_init__(self):
        if self.grid is not None:
            g = np.asarray(self.grid, dtype=np.float64)
            if g.ndim != 1 or np.any(np.diff(g) <= 0):
                raise ValueError("grid must be 1-d and strictly increasing")
            object.__setattr__(self, "grid", g)

    def pooled(self, sample: ClusteredSample) -> np.ndarray:
        cols = self.coordinate if isinstance(self.coordinate, tuple) else (self.coordinate,)
        if any(c >= sample.obs_dim for c in cols):
            raise ShapeError(f"coordinate {cols} exceeds observation dimension")
        return sample.values[:, list(cols)]


def ecdf_eval(sample: ClusteredSample, spec: EcdfSpec, y) -> float | np.ndarray:
    """Unit-level ECDF: the fraction of pooled units componentwise <= y.

    For a scalar coordinate, ``y`` may be a scalar or an array of query
    points (evaluated elementwise). For a joint spec, ``y`` is one vector.
    """
    pooled = spec.pooled(sample)
    if pooled.shape[0] == 0:
        raise EmptySampleError("ECDF needs at least one unit")
    if pooled.shape[1] == 1:
        v = np.sort(pooled[:, 0])
        out = np.searchsorted(v, np.asarray(y, dtype=np.float64), side="right") / v.shape[0]
        return float(out) if np.isscalar(y) else out
    yv = np.asarray(y, dtype=np.float64)
    if yv.shape != (pooled.shape[1],):
        raise ShapeError(f"joint ECDF query must have shape ({pooled.shape[1]},)")
    return float(np.mean(np.all(pooled <= yv, axis=1)))


@dataclass(frozen=True)
class QuantileData:
    """Sorted pooled values with their cell ids, for weighted re-inversion."""

    dims: Dimensions
    sorted_values: np.ndarray
    sorted_cell_ids: np.ndarray
    tau: float


def quantile_data(sample: ClusteredSample, spec: EcdfSpec, tau: float) -> QuantileData:
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    pooled = spec.pooled(sample)
    if pooled.shape[1] != 1:
        raise ValueError("quantiles need a single coordinate")
    if pooled.shape[0] == 0:
        raise EmptySampleError("quantile needs at least one unit")
    order = np.argsort(pooled[:, 0], kind="stable")
    return QuantileData(
        dims=sample.dims,
        sorted_values=pooled[order, 0],
        sorted_cell_ids=sample.unit_cell_ids[order],
        tau=tau,
    )


def quantile_estimate(sample: ClusteredSample, spec: EcdfSpec, tau: float) -> EstimateResult:
    """Left generalized inverse of the ECDF over the observed support.

    theta is the smallest observed value y with F(y) >= tau. No analytic
    variance is produced; inference goes through the pigeonhole bootstrap
    (see :func:`weighted_quantile`).
    """
    data = quantile_data(sample, spec, tau)
    n = data.sorted_values.shape[0]
    k = max(int(np.ceil(n * tau - 1e-9)) - 1, 0)
    return EstimateResult(
        theta=np.array([data.sorted_values[k]]),
        scores=None,
        meta={"tau": tau, "n_units": n},
    )


def weighted_quantile(data: QuantileData, weights: PigeonholeWeights) -> np.ndarray:
    """Invert the W_j-weighted ECDF at tau over the observed support."""
    uw = weights.cell_weights()[data.sorted_cell_ids]
    total = int(uw.sum())
    if total <= 0:
        raise EmptySampleError("bootstrap draw left no units in the sample")
    cum = np.cumsum(uw)
    k = int(np.searchsorted(cum, data.tau * total - 1e-9, side="left"))
    return np.array([data.sorted_values[k]])


# ---------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------


def _no_jacobian(meat: np.ndarray) -> np.ndarray:
    raise UnsupportedError("nonsmooth model has no Jacobian; use the bootstrap")


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
    """Fit estimator ``kind`` ("mean", "ratio", "ols", "quantile" or "gmm").

    ``spec`` is the :class:`LinearModelSpec` for "ols" and the
    :class:`EcdfSpec` (with level ``tau``) for "quantile". "gmm" fits
    ``model`` with the optimizer ``config`` and ``two_step`` of
    :func:`multiway.gmm.gmm_fit`.
    """
    if kind == "mean":
        res = mean_estimate(sample)
        sums = cell_sums(sample, identity_statistic(sample.obs_dim))
        return Fitted(kind, res.theta, res.scores, None, weighted_mean, sums, res.meta)
    if kind == "ratio":
        res = ratio_estimate(sample)
        sums = ratio_cell_sums(sample)
        return Fitted(kind, res.theta, res.scores, None, weighted_ratio, sums, res.meta)
    if kind == "ols":
        res = ols_fit(sample, spec)
        bread = partial(_ols_bread, res.meta["jhat"])
        # meta goes into the estimate diagnostics JSON: no jhat, and this key order
        meta = {key: res.meta[key] for key in ("n_units", "residual_norm", "gram_condition")}
        data = ols_cell_data(sample, spec)
        return Fitted(kind, res.theta, res.scores, bread, weighted_ols, data, meta)
    if kind == "quantile":
        res = quantile_estimate(sample, spec, tau)
        data = quantile_data(sample, spec, tau)
        return Fitted(kind, res.theta, None, None, weighted_quantile, data, res.meta)
    if kind == "gmm":
        res = gmm_fit(sample, model, config=config, two_step=two_step)
        scores = cell_moment_sums(sample, model, res.theta)
        bread = (
            _no_jacobian if res.jhat is None else partial(gmm_variance, res.jhat, xi=res.weight)
        )
        hook = gmm_bootstrap_estimator(model, config=config, warm_start=res.theta)
        meta = {
            "objective_value": res.objective_value,
            "n_evaluations": res.trace["n_evaluations"],
        }
        return Fitted(kind, res.theta, scores, bread, hook, sample, meta)
    raise ConfigError(f"unknown estimator {kind!r}")
