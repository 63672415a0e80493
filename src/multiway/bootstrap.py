"""Pigeonhole bootstrap: weight draws, replication, and confidence intervals.

Resampling draws clusters with replacement independently in each
dimension; cell j is kept W_j = prod_i W^i_{j_i} times, where W^i is the
count vector of C_i uniform draws over that dimension's clusters. Every
bootstrap sample therefore contains exactly pi_c cells, and the weights
of a replicate depend only on (master seed, replicate index).
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np

from .data import CellSums, Dimensions
from .errors import InsufficientReplicatesError, MultiwayError, ShapeError
from .seeding import stream_rng

__all__ = [
    "BootstrapReplicates",
    "PercentileRegion",
    "PigeonholeWeights",
    "QUANTILE_RULE",
    "SymmetricAbsRegion",
    "draw_weights",
    "percentile_ci",
    "run_bootstrap",
    "symmetric_abs_ci",
    "weighted_cell_sums",
]

# Empirical quantiles are the ceil(n * q)-th order statistic (left-continuous
# inverse ECDF); the small slack guards the float representation of q.
QUANTILE_RULE = "ceil-order-statistic"


def _order_statistic(sorted_values: np.ndarray, q: float) -> float:
    n = sorted_values.shape[0]
    k = int(math.ceil(n * q - 1e-9))
    return float(sorted_values[min(max(k, 1), n) - 1])


@dataclass(frozen=True)
class PigeonholeWeights:
    """Per-dimension multinomial draw counts defining cell weights.

    ``per_dim_counts[i]`` sums to C_i; the weight of cell j is the product
    of its clusters' counts, so weights sum to pi_c exactly.
    """

    dims: Dimensions
    per_dim_counts: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.per_dim_counts) != self.dims.k:
            raise ShapeError("need one count vector per dimension")
        for i, (w, c) in enumerate(zip(self.per_dim_counts, self.dims.counts)):
            if w.shape != (c,) or int(w.sum()) != c:
                raise ShapeError(f"dimension {i}: counts must be (C_i,) summing to C_i")

    @classmethod
    def identity(cls, dims: Dimensions) -> PigeonholeWeights:
        """Every cluster drawn exactly once; resampling is a no-op."""
        return cls(dims, tuple(np.ones(c, dtype=np.int64) for c in dims.counts))

    def cell_weights(self) -> np.ndarray:
        """W_j for every cell, flat row-major order, shape (pi_c,)."""
        grid = reduce(np.multiply.outer, self.per_dim_counts)
        return grid.reshape(-1)


def draw_weights(dims: Dimensions, rng: np.random.Generator) -> PigeonholeWeights:
    """One pigeonhole draw: per dimension, C_i uniform draws tallied to counts."""
    counts = tuple(
        np.bincount(rng.integers(0, c, size=c), minlength=c) for c in dims.counts
    )
    return PigeonholeWeights(dims, counts)


def weighted_cell_sums(sums: CellSums, weights: PigeonholeWeights) -> CellSums:
    """Resampled cell sums W_j S_j (identical to replicating cell j W_j times)."""
    if weights.dims != sums.dims:
        raise ShapeError("weights drawn for different dimensions than the sums")
    return CellSums(sums.dims, weights.cell_weights()[:, None] * sums.values)


@dataclass(frozen=True)
class BootstrapReplicates:
    """Replicate estimates theta*_b with bookkeeping for failed replicates."""

    thetas: np.ndarray
    indices: np.ndarray
    theta_hat: np.ndarray
    n_requested: int
    seed: int

    @property
    def n_failed(self) -> int:
        return self.n_requested - self.thetas.shape[0]

    @property
    def n_params(self) -> int:
        return self.thetas.shape[1]


# Exceptions that count a replicate as failed; anything else (TypeError,
# KeyError, ...) is a programming error and propagates. RuntimeError stays
# in because hooks signal run-time failures with it (ConvergenceError is one).
_REPLICATE_FAILURES = (
    MultiwayError, np.linalg.LinAlgError, FloatingPointError, RuntimeError
)


def run_bootstrap(
    estimator: Callable,
    sample,
    b: int,
    seed: int,
    n_workers: int = 1,
) -> BootstrapReplicates:
    """Run ``b`` pigeonhole replicates of a weighted re-estimation procedure.

    ``estimator(sample, weights)`` must return the parameter vector for the
    given :class:`PigeonholeWeights`; with identity weights it must
    reproduce the unweighted estimate, which is stored as ``theta_hat``.
    Replicate b draws its weights from the stream (seed, b), so results are
    identical for any ``n_workers``. Replicates that raise a
    :class:`MultiwayError`, ``LinAlgError``, ``FloatingPointError`` or
    ``RuntimeError``, or return non-finite values, are dropped and counted;
    more than 1% failures emits a warning. Any other exception propagates.
    """
    if b < 1:
        raise ValueError("need at least one replicate")
    dims: Dimensions = sample.dims
    theta_hat = np.atleast_1d(
        np.asarray(estimator(sample, PigeonholeWeights.identity(dims)), dtype=np.float64)
    )

    def one(idx: int):
        w = draw_weights(dims, stream_rng(seed, idx))
        try:
            theta = np.atleast_1d(np.asarray(estimator(sample, w), dtype=np.float64))
        except _REPLICATE_FAILURES:
            return None
        return theta if np.all(np.isfinite(theta)) else None

    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            rows = list(pool.map(one, range(b)))
    else:
        rows = [one(idx) for idx in range(b)]

    kept = [(idx, t) for idx, t in enumerate(rows) if t is not None]
    n_failed = b - len(kept)
    if n_failed > 0.01 * b:
        warnings.warn(
            f"{n_failed}/{b} bootstrap replicates failed", RuntimeWarning, stacklevel=2
        )
    if not kept:
        raise InsufficientReplicatesError("every bootstrap replicate failed")
    indices = np.array([idx for idx, _ in kept], dtype=np.int64)
    thetas = np.vstack([t for _, t in kept])
    return BootstrapReplicates(
        thetas=thetas, indices=indices, theta_hat=theta_hat, n_requested=b, seed=seed
    )


@dataclass(frozen=True)
class SymmetricAbsRegion:
    """{theta : |theta_hat - theta| <= q*}, Euclidean norm for p > 1."""

    center: np.ndarray
    radius: float
    alpha: float

    def contains(self, theta) -> bool:
        d = np.asarray(theta, dtype=np.float64) - self.center
        return float(np.linalg.norm(d)) <= self.radius

    @property
    def interval(self) -> tuple[float, float]:
        if self.center.shape[0] != 1:
            raise ValueError("interval endpoints only defined for scalar parameters")
        c = float(self.center[0])
        return (c - self.radius, c + self.radius)

    def to_json_dict(self) -> dict:
        out = {
            "method": "symmetric-abs",
            "center": self.center.tolist(),
            "radius": self.radius,
            "alpha": self.alpha,
            "quantile_rule": QUANTILE_RULE,
        }
        if self.center.shape[0] == 1:
            out["interval"] = list(self.interval)
        return out


@dataclass(frozen=True)
class PercentileRegion:
    """Coordinate-wise percentile box [q_{a/2}, q_{1-a/2}] of the replicates."""

    lower: np.ndarray
    upper: np.ndarray
    alpha: float

    def contains(self, theta) -> bool:
        t = np.atleast_1d(np.asarray(theta, dtype=np.float64))
        return bool(np.all((self.lower <= t) & (t <= self.upper)))

    @property
    def intervals(self) -> np.ndarray:
        return np.column_stack((self.lower, self.upper))

    def to_json_dict(self) -> dict:
        return {
            "method": "percentile",
            "intervals": self.intervals.tolist(),
            "alpha": self.alpha,
            "quantile_rule": QUANTILE_RULE,
        }


def symmetric_abs_ci(reps: BootstrapReplicates, alpha: float) -> SymmetricAbsRegion:
    """Region from the (1 - alpha) conditional quantile of |theta* - theta_hat|."""
    n = reps.thetas.shape[0]
    if n < 1.0 / alpha:
        raise InsufficientReplicatesError(
            f"{n} replicates cannot resolve the {1 - alpha:.3f} quantile"
        )
    devs = np.sort(np.linalg.norm(reps.thetas - reps.theta_hat, axis=1))
    return SymmetricAbsRegion(
        center=reps.theta_hat, radius=_order_statistic(devs, 1 - alpha), alpha=alpha
    )


def percentile_ci(reps: BootstrapReplicates, alpha: float) -> PercentileRegion:
    """Coordinate-wise empirical quantile interval of the replicates."""
    n = reps.thetas.shape[0]
    if n < 2.0 / alpha:
        raise InsufficientReplicatesError(
            f"{n} replicates cannot resolve the {alpha / 2:.4f} quantile"
        )
    sorted_cols = np.sort(reps.thetas, axis=0)
    lower = np.array([_order_statistic(sorted_cols[:, r], alpha / 2) for r in range(reps.n_params)])
    upper = np.array(
        [_order_statistic(sorted_cols[:, r], 1 - alpha / 2) for r in range(reps.n_params)]
    )
    return PercentileRegion(lower=lower, upper=upper, alpha=alpha)
