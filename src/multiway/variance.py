"""Multiway cluster-robust variance estimators and Wald confidence regions.

All three estimators consume a dense array of per-cell score vectors D_j
(centered cell sums for means, linearized scores for ratios, per-cell
score sums for regression or moment models) and target the asymptotic
variance sum_i lambda_i Cov(S_1, S_2_i) with plug-in weights
lambda_i = c_min / C_i. Pair sums over cells sharing clusters are never
enumerated; they are collapsed to margin sums, so everything is
O(pi_c * m) per dimension subset.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import special

from .data import CellSums, Dimensions, subset_margin_sum
from .errors import ConfigError, DegenerateDesignError, SingularVarianceError

__all__ = [
    "CenteredScores",
    "VarianceEstimate",
    "WaldRegion",
    "estimate_variance",
    "sigma_subset",
    "vhat1",
    "vhat2",
    "vhat_cgm",
    "wald_region",
]

# Variance matrices whose eigenvalue spread exceeds this are treated as singular.
CONDITION_CAP = 1e12


class CenteredScores(CellSums):
    """Per-cell score vectors D_j feeding the variance estimators.

    Same dense layout as :class:`CellSums`. For mean-type estimators the
    scores sum to (numerically) zero across cells; regression and moment
    scores are used as-is.
    """


@dataclass(frozen=True)
class VarianceEstimate:
    """A symmetric estimate of sum_i lambda_i Cov(S_1, S_2_i)."""

    matrix: np.ndarray
    kind: str
    lambda_hats: np.ndarray
    adjustments: dict

    @property
    def out_dim(self) -> int:
        return self.matrix.shape[0]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "matrix": self.matrix.tolist(),
            "lambda": self.lambda_hats.tolist(),
            "adjustments": self.adjustments,
        }


def _pair_sum(scores: CellSums, axes: Sequence[int]) -> np.ndarray:
    """sum over pairs (j, j') agreeing on every axis in ``axes`` of D_j D_j'.

    Equals M'M for the joint margin sums M, which is how it is computed.
    """
    m = subset_margin_sum(scores, axes)
    return m.T @ m


def _combine(scores: CellSums, coef: Callable[[tuple[int, ...]], float]) -> np.ndarray:
    """sum of coef(T) * (pair sum over cells agreeing on T) over the nonempty
    axis subsets T, by size and then lexicographically; a zero coefficient
    skips its pair sum. Every variance estimator is one coefficient row."""
    k = scores.dims.k
    out = np.zeros((scores.out_dim, scores.out_dim))
    for r in range(1, k + 1):
        for axes in itertools.combinations(range(k), r):
            c = coef(axes)
            if c:
                out += c * _pair_sum(scores, axes)
    return out


def vhat1(scores: CenteredScores) -> VarianceEstimate:
    """Positive-by-construction estimator: outer products of margin averages.

    For each dimension i it averages g g' over the C_i per-cluster margin
    averages g of the scores, weighted by c_min / C_i. Per dimension that
    weight collapses to c_min / pi_c^2 on the raw margin sums, so only the
    one-way subsets carry a coefficient.
    """
    dims = scores.dims
    scale = dims.c_min / dims.pi_c**2
    return VarianceEstimate(
        matrix=_combine(scores, lambda axes: scale if len(axes) == 1 else 0.0),
        kind="v1",
        lambda_hats=dims.lambda_hats(),
        adjustments={"per_dimension": [1.0] * dims.k},
    )


def vhat2(scores: CenteredScores) -> VarianceEstimate:
    """Average of score cross products over pairs sharing exactly one cluster.

    Dimension i contributes (c_min / C_i) times the average of D_j D_j''
    over A_i = {(j, j'): j_i = j'_i, j_s != j'_s for all s != i}. The A_i
    sum is assembled by inclusion-exclusion over the subsets containing i
    instead of pair enumeration. Not necessarily positive semidefinite.
    """
    dims = scores.dims
    if dims.k >= 2:
        for s, c in enumerate(dims.counts):
            if c < 2:
                raise DegenerateDesignError(
                    f"dimension axis {s} has a single cluster; "
                    "no pairs share exactly one cluster"
                )
    lambda_hats = dims.lambda_hats()
    out = np.zeros((scores.out_dim, scores.out_dim))
    for i in range(dims.k):
        n_pairs = dims.counts[i] * math.prod(
            c * (c - 1) for s, c in enumerate(dims.counts) if s != i
        )
        acc = _combine(scores, lambda axes: (-1.0) ** (len(axes) - 1) if i in axes else 0.0)
        out += lambda_hats[i] / n_pairs * acc
    return VarianceEstimate(
        matrix=out,
        kind="v2",
        lambda_hats=lambda_hats,
        adjustments={"per_dimension": [1.0] * dims.k},
    )


def _cgm_factor(dims: Dimensions, axes: tuple[int, ...], preset: str) -> float:
    if preset == "unit":
        return 1.0
    if preset == "cgm":
        prod = math.prod(dims.counts[a] for a in axes)
        if prod <= 1:
            raise DegenerateDesignError(
                f"cgm adjustment undefined for subset {axes}: prod(C) = {prod}"
            )
        return prod / (prod - 1)
    raise ValueError(f"unknown adjustment preset {preset!r}")


def vhat_cgm(scores: CenteredScores, adjustment: str = "unit") -> VarianceEstimate:
    """Inclusion-exclusion estimator over shared-cluster pair sums.

    c_min * sum over nonempty dimension subsets T of
    (-1)^(|T| + 1) * c_T / pi_c^2 * (pair sum over cells agreeing on T),
    so one-way terms enter positively and the k=2 case reduces to
    vhat1 minus the diagonal-pair correction. ``adjustment`` selects the
    finite-sample factors c_T: "unit" (all 1, identities exact) or "cgm"
    (prod C / (prod C - 1) over the subset).
    """
    dims = scores.dims
    scale = dims.c_min / dims.pi_c**2

    def coef(axes):
        return (-1.0) ** (len(axes) + 1) * _cgm_factor(dims, axes, adjustment) * scale

    return VarianceEstimate(
        matrix=_combine(scores, coef),
        kind="cgm",
        lambda_hats=dims.lambda_hats(),
        adjustments={"preset": adjustment},
    )


def estimate_variance(
    scores: CenteredScores, kind: str, adjustment: str = "unit"
) -> VarianceEstimate:
    """The variance estimator named by ``kind``: "v1", "v2" or "cgm".

    ``adjustment`` is the :func:`vhat_cgm` preset and only applies to "cgm".
    """
    if kind == "v1":
        return vhat1(scores)
    if kind == "v2":
        return vhat2(scores)
    if kind == "cgm":
        return vhat_cgm(scores, adjustment=adjustment)
    raise ConfigError(f"unknown variance kind {kind!r}")


def sigma_subset(
    scores: CenteredScores, axes: Sequence[int], adjustment: float = 1.0
) -> np.ndarray:
    """One inclusion-exclusion building block: adjustment / pi_c^2 times the
    pair sum over cells agreeing on every axis in ``axes``."""
    if not axes:
        raise ValueError("axes subset must be nonempty")
    return adjustment / scores.dims.pi_c**2 * _pair_sum(scores, axes)


def _invert_pd(matrix: np.ndarray, what: str) -> np.ndarray:
    sym = 0.5 * (matrix + matrix.T)
    evals, evecs = np.linalg.eigh(sym)
    if evals[0] <= 0 or evals[-1] > CONDITION_CAP * evals[0]:
        raise SingularVarianceError(
            f"{what} is singular or indefinite "
            f"(eigenvalues in [{evals[0]:.3g}, {evals[-1]:.3g}])"
        )
    return (evecs / evals) @ evecs.T


@dataclass(frozen=True)
class WaldRegion:
    """Chi-square confidence ellipsoid for theta around theta_hat.

    Membership: c_min (theta - theta_hat)' V^-1 (theta - theta_hat) <=
    chi2_m(1 - alpha). ``intervals`` are the per-coordinate normal
    intervals theta_r +/- z_{1-alpha/2} sqrt(V_rr / c_min).
    """

    center: np.ndarray
    matrix: np.ndarray
    precision: np.ndarray
    c_min: int
    alpha: float
    threshold: float
    intervals: np.ndarray

    def contains(self, theta) -> bool:
        d = np.asarray(theta, dtype=np.float64) - self.center
        return float(self.c_min * d @ self.precision @ d) <= self.threshold

    def to_json_dict(self) -> dict:
        return {
            "center": self.center.tolist(),
            "alpha": self.alpha,
            "chi2_threshold": self.threshold,
            "intervals": self.intervals.tolist(),
        }


def wald_region(
    theta_hat, v_hat: VarianceEstimate | np.ndarray, dims: Dimensions, alpha: float
) -> WaldRegion:
    """Build the chi-square ellipsoid and per-coordinate intervals.

    Raises :class:`SingularVarianceError` when the variance matrix is
    indefinite or its condition number exceeds ``CONDITION_CAP`` (expected
    for vhat2 / vhat_cgm on degenerate data).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    center = np.atleast_1d(np.asarray(theta_hat, dtype=np.float64))
    matrix = v_hat.matrix if isinstance(v_hat, VarianceEstimate) else np.asarray(v_hat)
    matrix = np.atleast_2d(matrix)
    m = center.shape[0]
    if matrix.shape != (m, m):
        raise ValueError(f"variance shape {matrix.shape} does not match theta ({m},)")
    precision = _invert_pd(matrix, "variance estimate")
    # ndtri and 2 * gammaincinv(m / 2, .) are the normal and chi-square
    # quantiles that scipy.stats evaluates, without importing scipy.stats.
    half = special.ndtri(1 - alpha / 2) * np.sqrt(np.diag(matrix) / dims.c_min)
    return WaldRegion(
        center=center,
        matrix=matrix,
        precision=precision,
        c_min=dims.c_min,
        alpha=alpha,
        threshold=float(2 * special.gammaincinv(m / 2, 1 - alpha)),
        intervals=np.column_stack((center - half, center + half)),
    )
