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
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np

from .data import Dimensions, row_sum
from .errors import (
    ConfigError, EmptySampleError, InsufficientReplicatesError, MultiwayError, ShapeError
)
from .seeding import stream_raw, stream_rng
from .variance import check_alpha

__all__ = [
    "BootstrapReplicates",
    "PercentileRegion",
    "PigeonholeWeights",
    "QUANTILE_RULE",
    "SymmetricAbsRegion",
    "draw_weights",
    "min_replicates",
    "order_statistic",
    "percentile_ci",
    "run_bootstrap",
    "symmetric_abs_ci",
]

# Empirical quantiles are the ceil(n * q)-th order statistic (left-continuous
# inverse ECDF); the small slack guards the float representation of q.
QUANTILE_RULE = "ceil-order-statistic"


def min_replicates(interval: str, alpha: float) -> int:
    """Fewest replicates that resolve the quantiles an interval reads:
    1/alpha for "symmetric-abs" (the 1 - alpha quantile) and 2/alpha for
    "percentile" (the alpha/2 quantile). An alpha outside (0, 1) is a
    ConfigError."""
    return math.ceil({"symmetric-abs": 1.0, "percentile": 2.0}[interval] / check_alpha(alpha))


def order_statistic(sorted_values: np.ndarray, q, counts: np.ndarray | None = None):
    """The first of ``sorted_values`` (along axis 0) whose cumulative count
    reaches q times the total (less 1e-9), one row per level of an array q.
    Without ``counts`` each value counts once: index ceil(n q - 1e-9) - 1.
    A zero total is an EmptySampleError."""
    cum = np.arange(1, sorted_values.shape[0] + 1) if counts is None else np.cumsum(counts)
    total = cum[-1] if cum.size else 0
    if total <= 0:
        raise EmptySampleError("no units to take an order statistic of")
    return sorted_values[np.searchsorted(cum, np.asarray(q) * total - 1e-9, side="left")]


@dataclass(frozen=True)
class PigeonholeWeights:
    """Per-dimension multinomial draw counts defining cell weights.

    ``per_dim_counts[i]`` holds C_i nonnegative whole counts summing to C_i;
    the weight of cell j is the product of its clusters' counts, so weights
    sum to pi_c exactly.
    """

    dims: Dimensions
    per_dim_counts: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.per_dim_counts) != self.dims.k:
            raise ShapeError("need one count vector per dimension")
        for i, (w, c) in enumerate(zip(self.per_dim_counts, self.dims.counts)):
            whole = w.shape == (c,) and ((w >= 0) & (w == np.trunc(w))).all()
            if not whole or int(w.sum()) != c:
                raise ShapeError(
                    f"dimension {i}: counts must be (C_i,) nonnegative whole numbers "
                    "summing to C_i"
                )

    @classmethod
    def identity(cls, dims: Dimensions) -> PigeonholeWeights:
        """Every cluster drawn exactly once; resampling is a no-op."""
        return cls(dims, tuple(np.ones(c, dtype=np.int64) for c in dims.counts))

    @classmethod
    def _drawn(cls, dims: Dimensions, per_dim_counts: tuple) -> PigeonholeWeights:
        """Counts from a block draw, which sum to C_i by construction, unchecked."""
        weights = object.__new__(cls)
        object.__setattr__(weights, "dims", dims)
        object.__setattr__(weights, "per_dim_counts", per_dim_counts)
        return weights

    def cell_weights(self) -> np.ndarray:
        """W_j for every cell, flat row-major order, shape (pi_c,)."""
        grid = reduce(np.multiply.outer, self.per_dim_counts)
        return grid.reshape(-1)

    def weighted_sum(self, values: np.ndarray) -> np.ndarray:
        """sum_j W_j values_j over per-cell rows (pi_c, ...), one dimension's
        counts at a time, so no (pi_c,) weight vector is built; each is a
        row-order :func:`multiway.data.row_sum`, the same bits on every CPU."""
        out = values
        for counts in self.per_dim_counts:
            out = row_sum(out.reshape(counts.size, -1), counts)
        return out.reshape(values.shape[1:])


def draw_weights(dims: Dimensions, rng: np.random.Generator) -> PigeonholeWeights:
    """One pigeonhole draw: per dimension, C_i uniform draws tallied to counts."""
    counts = tuple(
        np.bincount(rng.integers(0, c, size=c), minlength=c) for c in dims.counts
    )
    return PigeonholeWeights(dims, counts)


# Replicates whose counts are drawn together, and the 32-bit draws one block holds.
_BLOCK = 256
_BLOCK_DRAWS = 1 << 20


def _replicate_weights(dims: Dimensions, seed: int, b: int):
    """Yield ``draw_weights(dims, stream_rng(seed, idx))`` for idx = 0, ..., b - 1,
    the same counts bit for bit, drawn a block of replicates at a time.

    ``integers(0, C, size=C)`` is Lemire's bounded method on 32-bit draws:
    the value is the high word of draw * C, rejected while the low word is
    below 2**32 % C. PCG64 hands out each 64-bit output as its low then its
    high half and keeps an unused high half for the next call, so the
    dimensions with C_i > 1 read one stream of halves (C_i = 1 reads none).
    The block takes the first sum(C_i) halves of every replicate; a
    replicate with a rejected draw among them is redrawn by the scalar path.
    Per dimension one (count, C_i) array of 64-bit products is the only
    temporary as large as the counts: its low words are read through a
    32-bit view, and the high words become each replicate's bins in place.
    """
    n = sum(c for c in dims.counts if c > 1)
    block = max(1, min(_BLOCK, _BLOCK_DRAWS // max(n, 1)))
    for first in range(0, b, block):
        count = min(block, b - first)
        raw = stream_raw(seed, first, count, (n + 1) // 2)
        halves = raw.astype("<u8", copy=False).view("<u4")[:, :n]
        counts, rejected, start = [], np.zeros(count, dtype=bool), 0
        for c in dims.counts:
            if c == 1:
                counts.append(np.ones((count, 1), dtype=np.int64))
                continue
            m = halves[:, start:start + c].astype("<u8")
            start += c
            m *= np.uint64(c)
            rejected |= (m.view("<u4")[:, ::2] < np.uint32(2**32 % c)).any(axis=1)
            m >>= np.uint64(32)  # the cell drawn, then its bin among the block's
            m += np.arange(0, count * c, c, dtype=np.uint64)[:, None]
            bins = m.view("<i8").ravel()
            counts.append(np.bincount(bins, minlength=count * c).reshape(count, c))
        for row in range(count):
            if rejected[row]:
                yield draw_weights(dims, stream_rng(seed, first + row))
            else:
                yield PigeonholeWeights._drawn(dims, tuple(w[row] for w in counts))


@dataclass(frozen=True)
class BootstrapReplicates:
    """Replicate estimates theta*_b with bookkeeping for failed replicates."""

    thetas: np.ndarray
    indices: np.ndarray
    theta_hat: np.ndarray
    n_requested: int

    @property
    def n_failed(self) -> int:
        return self.n_requested - self.thetas.shape[0]

    @property
    def n_params(self) -> int:
        return self.thetas.shape[1]


# Exceptions that count a replicate as failed: the package's own refusals
# (ConvergenceError, SingularDesignError, ...) and LinAlgError, which no
# estimator of the package raises (their matrices go through smallmat) but
# a caller's own hook that uses numpy.linalg may. Anything else (TypeError,
# NotImplementedError, RecursionError, ...) is a programming error and propagates.
_REPLICATE_FAILURES = (MultiwayError, np.linalg.LinAlgError)


def run_bootstrap(
    estimator: Callable,
    sample,
    theta_hat,
    b: int,
    seed: int,
) -> BootstrapReplicates:
    """Run ``b`` pigeonhole replicates of a weighted re-estimation procedure
    around the full-sample estimate ``theta_hat``.

    ``estimator(sample, weights)`` must return the parameter vector for the
    given :class:`PigeonholeWeights`; it is called exactly ``b`` times.
    ``theta_hat`` is stored as given, the centre of the regions built from
    the replicates. Replicate b draws its weights from the stream (seed, b),
    and the replicates run one after another on the calling thread, so the
    estimator need not be thread-safe. Replicates that raise a
    :class:`MultiwayError` or ``LinAlgError``, or return non-finite values,
    are dropped and counted; more than 1% failures emits a warning, and if
    every replicate fails the InsufficientReplicatesError counts them by
    exception class and quotes the first message. Any other exception,
    RuntimeError included, propagates. A ``b`` below 1 is a ConfigError
    naming ``b``.
    """
    if b < 1:
        raise ConfigError(f"b: need at least one replicate, got {b}")
    indices, thetas, failed = [], [], []  # failed: "<exception class>: <message>"
    for idx, w in enumerate(_replicate_weights(sample.dims, seed, b)):
        try:
            theta = np.atleast_1d(np.asarray(estimator(sample, w), dtype=np.float64))
        except _REPLICATE_FAILURES as exc:
            failed.append(f"{type(exc).__name__}: {exc}")
            continue
        if np.isfinite(theta).all():
            indices.append(idx)
            thetas.append(theta)
        else:
            failed.append("non-finite estimate")

    n_failed = b - len(indices)
    if n_failed > 0.01 * b:
        warnings.warn(
            f"{n_failed}/{b} bootstrap replicates failed", RuntimeWarning, stacklevel=2
        )
    if not indices:
        counts = Counter(f.partition(":")[0] for f in failed)
        raise InsufficientReplicatesError(
            f"b: all {b} bootstrap replicates failed "
            f"({', '.join(f'{c} x{n}' for c, n in counts.items())}); first: {failed[0]}"
        )
    return BootstrapReplicates(
        thetas=np.vstack(thetas),
        indices=np.array(indices, dtype=np.int64),
        theta_hat=np.atleast_1d(np.asarray(theta_hat, dtype=np.float64)),
        n_requested=b,
    )


@dataclass(frozen=True)
class SymmetricAbsRegion:
    """{theta : |theta_hat - theta| <= q*}, Euclidean norm for p > 1."""

    center: np.ndarray
    radius: float
    alpha: float

    def contains(self, theta) -> bool:
        return float(_distances(theta, self.center)[0]) <= self.radius

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


def _distances(thetas, center: np.ndarray) -> np.ndarray:
    """|theta - center| for each row theta of ``thetas`` (or for ``thetas``
    itself): the one expression of the symmetric-abs radius and of its
    membership, so a replicate at the radius lies in its region. The bits
    are those of numpy's 2-norm of each row, which computes the same."""
    d = np.atleast_2d(np.asarray(thetas, dtype=np.float64) - center)
    return np.sqrt(np.add.reduce(d * d, axis=1))


def symmetric_abs_ci(reps: BootstrapReplicates, alpha: float) -> SymmetricAbsRegion:
    """Region from the (1 - alpha) conditional quantile of |theta* - theta_hat|."""
    n = reps.thetas.shape[0]
    if n < min_replicates("symmetric-abs", alpha):
        raise InsufficientReplicatesError(
            f"b: {n} successful replicates cannot resolve the {1 - alpha:.3f} quantile"
        )
    devs = np.sort(_distances(reps.thetas, reps.theta_hat))
    return SymmetricAbsRegion(
        center=reps.theta_hat, radius=float(order_statistic(devs, 1 - alpha)), alpha=alpha
    )


def percentile_ci(reps: BootstrapReplicates, alpha: float) -> PercentileRegion:
    """Coordinate-wise empirical quantile interval of the replicates."""
    n = reps.thetas.shape[0]
    if n < min_replicates("percentile", alpha):
        raise InsufficientReplicatesError(
            f"b: {n} successful replicates cannot resolve the {alpha / 2:.4f} quantile"
        )
    lower, upper = order_statistic(np.sort(reps.thetas, axis=0), [alpha / 2, 1 - alpha / 2])
    return PercentileRegion(lower=lower, upper=upper, alpha=alpha)
