"""Multiway cluster-robust variance estimators and Wald confidence regions.

All three estimators consume a dense array of per-cell score vectors D_j
(centered cell sums for means, linearized scores for ratios, per-cell
score sums for regression or moment models) and target the asymptotic
variance sum_i lambda_i Cov(S_1, S_2_i) with plug-in weights
lambda_i = c_min / C_i. Each estimator is a weighted sum of the pair sums
P_T over cells agreeing on the dimensions in T. Pairs are never
enumerated: P_T = M_T'M_T for the joint margin sums M_T, which costs
O(pi_c * m) per dimension subset, and each P_T is computed once per score
set, on first request, and shared by every estimator that reads it.

:class:`Fitted`, the one result type of every estimator, applies them:
its variance is the estimator of its scores, then its bread.

``wald_region`` takes its normal and chi-square quantiles from
:func:`multiway.tails.wald_quantiles`, which solves for them in
:mod:`decimal` and rounds them to float once, so they are correctly
rounded. It imports that module, and with it :mod:`decimal`, when first
called.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import smallmat
from .data import CellSums, Dimensions, crossprod, pair_counts, subset_margin_sum
from .errors import ConfigError, DegenerateDesignError, SingularVarianceError, UnsupportedError

__all__ = [
    "CenteredScores",
    "Fitted",
    "VarianceEstimate",
    "WaldRegion",
    "check_alpha",
    "estimate_variance",
    "sigma_subset",
    "vhat1",
    "vhat2",
    "vhat_cgm",
    "wald_region",
]

# The vhat_cgm finite-sample presets.
ADJUSTMENTS = ("unit", "cgm")
# Matrices whose eigenvalue spread exceeds this are treated as singular.
CONDITION_CAP = 1e12


def check_condition(spectrum, error: type[Exception], what: str) -> None:
    """Raise ``error`` unless the ascending ``spectrum`` is positive, spreads
    at most ``CONDITION_CAP`` and has no NaN end; the message is ``what``
    followed by the spectrum's range. Every caller takes its spectrum from
    :func:`multiway.smallmat.singular_values`: the singular values of a
    square matrix, or their squares for J' Xi J, or those of a symmetric
    matrix that passed a Cholesky factorisation, which are its eigenvalues."""
    lo, hi = spectrum[0], spectrum[-1]
    if not (lo > 0 and hi <= CONDITION_CAP * lo):
        raise error(f"{what} (spectrum in [{lo:.3g}, {hi:.3g}])")


def check_alpha(alpha: float) -> float:
    """``alpha`` if it is a level in the open interval (0, 1); otherwise a
    ConfigError naming ``alpha`` (NaN is refused too)."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha: must be in (0, 1), got {alpha}")
    return alpha


class CenteredScores(CellSums):
    """Per-cell score vectors D_j feeding the variance estimators.

    Same dense layout as :class:`CellSums`. For mean-type estimators the
    scores sum to (numerically) zero across cells; regression and moment
    scores are used as-is.

    The pair sums are kept once computed, so ``values`` must not change in
    place after the first estimate; no code in this package does so.
    """

    @cached_property
    def _pair_sums(self) -> dict[tuple[int, ...], np.ndarray]:
        return {}

    def pair_sum(self, axes: Sequence[int]) -> np.ndarray:
        """P_T, the sum of D_j D_j' over cell pairs agreeing on every axis in
        ``axes`` (in any order): M'M for the joint margin sums M, computed
        on the first request and returned read-only."""
        key = tuple(sorted({int(a) for a in axes}))
        table = self._pair_sums
        if key not in table:
            m = subset_margin_sum(self, key)
            table[key] = crossprod(m, m)
            table[key].flags.writeable = False
        return table[key]


@dataclass(frozen=True)
class VarianceEstimate:
    """A symmetric estimate of sum_i lambda_i Cov(S_1, S_2_i)."""

    matrix: np.ndarray
    kind: str
    lambda_hats: np.ndarray
    adjustments: dict

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "matrix": self.matrix.tolist(),
            "lambda": self.lambda_hats.tolist(),
            "adjustments": self.adjustments,
        }


def _combine(scores: CenteredScores, coef: Callable[[tuple[int, ...]], float]) -> np.ndarray:
    """sum of coef(T) * P_T over the nonempty axis subsets T, by size and
    then lexicographically; a zero coefficient skips its pair sum. Every
    variance estimator is one coefficient row."""
    k = scores.dims.k
    out = np.zeros((scores.out_dim, scores.out_dim))
    for r in range(1, k + 1):
        for axes in itertools.combinations(range(k), r):
            c = coef(axes)
            if c:
                out += c * scores.pair_sum(axes)
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
    over A_i = {(j, j'): j_i = j'_i, j_s != j'_s for all s != i}. Each A_i
    sum is the inclusion-exclusion over the subsets containing i, so the
    estimator is one coefficient row: subset T gets
    (-1)^(|T|-1) * sum over i in T of lambda_i / |A_i|, and each pair sum
    is read once. Not necessarily positive semidefinite.
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
    per_pair = [lambda_hats[i] / pair_counts(dims, i)[0] for i in range(dims.k)]

    def coef(axes):
        return (-1.0) ** (len(axes) - 1) * sum(per_pair[i] for i in axes)

    return VarianceEstimate(
        matrix=_combine(scores, coef),
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
    raise ConfigError(f"adjustment: unknown preset {preset!r}")


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


def no_jacobian(meat: np.ndarray) -> np.ndarray:
    """The bread of a nonsmooth GMM fit, which has no Jacobian: a refusal."""
    raise UnsupportedError("variance: nonsmooth model has no Jacobian; use the bootstrap")


@dataclass(frozen=True)
class Fitted:
    """One estimator fitted to one sample, as every estimator returns it.

    ``scores`` feed the variance estimators (None: no analytic variance).
    ``bread`` maps a meat matrix to the sandwich (None: the meat is the
    variance). ``hook(prepared, weights)`` re-estimates theta under
    pigeonhole weights for :func:`multiway.bootstrap.run_bootstrap`.
    ``meta`` holds the fit's facts (the unit count, optimizer and condition
    diagnostics, the Jacobian of OLS and GMM); ``estimate`` writes its
    number entries, in order, as the diagnostics of its JSON output.
    """

    kind: str
    theta: np.ndarray
    scores: CenteredScores | None
    bread: Callable[[np.ndarray], np.ndarray] | None
    hook: Callable
    prepared: object
    meta: dict

    @property
    def has_variance(self) -> bool:
        """Whether :meth:`variance` has what it needs: False for quantiles,
        which have no scores, and for a nonsmooth GMM fit, whose bread has
        no Jacobian."""
        return self.scores is not None and self.bread is not no_jacobian

    def variance(self, kind: str, adjustment: str = "unit") -> VarianceEstimate:
        """Variance of theta: the :func:`estimate_variance` meat of the
        scores first, then the bread."""
        if self.scores is None:
            raise UnsupportedError(
                "variance: quantiles have no analytic variance; use the bootstrap"
            )
        meat = estimate_variance(self.scores, kind, adjustment)
        if self.bread is None:
            return meat
        return replace(meat, matrix=self.bread(meat.matrix))


def sigma_subset(scores: CenteredScores, axes: Sequence[int]) -> np.ndarray:
    """One inclusion-exclusion building block: 1 / pi_c^2 times the pair
    sum over cells agreeing on every axis in ``axes`` (nonempty)."""
    return 1.0 / scores.dims.pi_c**2 * scores.pair_sum(axes)


def _invert_pd(matrix: np.ndarray, what: str) -> np.ndarray:
    sym = (0.5 * (matrix + matrix.T)).tolist()
    refusal = f"{what} is singular or indefinite"
    try:
        inverse = smallmat.spd_inverse(sym)
    except smallmat.NotPositiveDefinite as exc:
        raise SingularVarianceError(f"{refusal} ({exc})") from None
    check_condition(smallmat.singular_values(sym), SingularVarianceError, refusal)
    return np.array(inverse)


@dataclass(frozen=True)
class WaldRegion:
    """Chi-square confidence ellipsoid for theta around theta_hat.

    Membership: c_min (theta - theta_hat)' V^-1 (theta - theta_hat) <= x
    with P(chi2_m > x) = alpha. ``intervals`` are the per-coordinate normal
    intervals theta_r +/- z sqrt(V_rr / c_min) with P(Z > z) = alpha / 2.
    """

    center: np.ndarray
    matrix: np.ndarray
    precision: np.ndarray
    c_min: int
    alpha: float
    threshold: float
    intervals: np.ndarray

    def contains(self, theta) -> bool:
        d = (np.asarray(theta, dtype=np.float64) - self.center).tolist()
        form = smallmat.dot(d, smallmat.matvec(self.precision.tolist(), d))
        return self.c_min * form <= self.threshold

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

    The threshold is the x with P(chi2_m > x) = alpha and the half-widths
    scale the z with P(Z > z) = alpha / 2, both exact upper-tail quantiles
    correctly rounded to float by :func:`multiway.tails.wald_quantiles`,
    which caches them per (m, alpha): only the first region of a process
    at a given level and dimension solves for them.

    Raises :class:`SingularVarianceError` when the variance matrix is
    indefinite or its condition number exceeds ``CONDITION_CAP`` (expected
    for vhat2 / vhat_cgm on degenerate data).
    """
    check_alpha(alpha)
    center = np.atleast_1d(np.asarray(theta_hat, dtype=np.float64))
    matrix = v_hat.matrix if isinstance(v_hat, VarianceEstimate) else np.asarray(v_hat)
    matrix = np.atleast_2d(matrix)
    m = center.shape[0]
    if matrix.shape != (m, m):
        raise ValueError(f"variance shape {matrix.shape} does not match theta ({m},)")
    precision = _invert_pd(matrix, "variance estimate")
    from .tails import wald_quantiles  # deferred: decimal is needed only here

    z, threshold = wald_quantiles(m, alpha)
    half = z * np.sqrt(np.diag(matrix) / dims.c_min)
    return WaldRegion(
        center=center,
        matrix=matrix,
        precision=precision,
        c_min=dims.c_min,
        alpha=alpha,
        threshold=threshold,
        intervals=np.column_stack((center - half, center + half)),
    )
