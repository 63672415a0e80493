"""GMM estimation with multiway cluster-robust inference.

Moment restrictions are at the unit level: the estimator minimizes
M(theta) = |Xi^(1/2) m_bar(theta)| with m_bar the per-cell moment sums
averaged over all pi_c cells. The sandwich variance is
(J' Xi J)^-1 J' Xi H Xi J (J' Xi J)^-1 with H built exactly like the
positive multiway variance estimator, applied to the per-cell moment
sums. Includes ready-made moment models for quantile IV and the probit
pseudo-score.

scipy is imported where it is called: ``scipy.special`` by the probit
link and ``scipy.optimize`` by Nelder-Mead, so importing this module
loads numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .bootstrap import PigeonholeWeights
from .data import ClusteredSample, cell_subsample, check_columns, sum_by_cell
from .errors import (
    ConvergenceError,
    EmptySampleError,
    ModelError,
    ShapeError,
    SingularDesignError,
    SingularVarianceError,
)
from .seeding import check_seed, stream_rng
from .variance import CenteredScores, check_condition, vhat1

__all__ = [
    "GmmResult",
    "MomentModel",
    "OptimizerConfig",
    "WeightMatrix",
    "cell_moment_sums",
    "gmm_bootstrap_estimator",
    "gmm_fit",
    "gmm_hhat",
    "gmm_jhat",
    "gmm_objective",
    "gmm_variance",
    "moment_bar",
    "probit_score_moments",
    "quantile_iv_moments",
]

@dataclass(frozen=True)
class MomentModel:
    """A vector-valued moment function m(y, theta) with L >= p.

    ``fn`` maps a stacked observation array (n, obs_dim) and a parameter
    vector (p,) to per-unit moments (n, L). ``jacobian``, when available,
    returns per-unit derivatives (n, L, p). ``smooth`` controls whether a
    finite-difference Jacobian fallback and derivative-based optimization
    are allowed; indicator-based moments must set it to False.

    The rows may come in any memory layout: m_bar and J_hat sum each
    entry's column of unit values in unit order, with the same bits for
    every layout. Unit-major rows, the transpose of a fresh (L, n) or
    (L, p, n) buffer as the probit model returns, are the cheap layout:
    each column is then one contiguous run.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    n_params: int
    n_moments: int
    bounds: np.ndarray
    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    smooth: bool = True

    def __post_init__(self):
        if self.n_moments < self.n_params:
            raise ModelError(
                f"underidentified: L={self.n_moments} < p={self.n_params}"
            )
        try:
            b = np.asarray(self.bounds, dtype=np.float64)
        except (TypeError, ValueError):  # ragged or not numbers
            b = np.empty((0, 0))
        if b.shape != (self.n_params, 2) or np.any(b[:, 0] >= b[:, 1]):
            raise ModelError("bounds: must be a (p, 2) box with lower < upper")
        if not np.all(np.isfinite(b)):
            raise ModelError("bounds: the parameter box must be compact (finite bounds)")
        object.__setattr__(self, "bounds", b)

    def moments(self, values: np.ndarray, theta: np.ndarray) -> np.ndarray:
        out = np.asarray(self.fn(values, theta), dtype=np.float64)
        if out.shape != (values.shape[0], self.n_moments):
            raise ModelError(
                f"moment function returned {out.shape}, "
                f"expected ({values.shape[0]}, {self.n_moments})"
            )
        return out


@dataclass(frozen=True)
class WeightMatrix:
    """Symmetric positive definite L x L GMM weight.

    A matrix that is not square raises ShapeError; one that is not
    symmetric positive definite raises SingularVarianceError, since the
    two-step weight is the inverse of a variance estimate."""

    xi: np.ndarray

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=np.float64)
        if xi.ndim != 2 or xi.shape[0] != xi.shape[1]:
            raise ShapeError("weight matrix must be square")
        scale = max(np.abs(xi).max(), 1e-300)
        if np.abs(xi - xi.T).max() > 1e-12 * scale:
            raise SingularVarianceError("weight matrix must be symmetric")
        if np.linalg.eigvalsh(xi)[0] <= 0:
            raise SingularVarianceError("weight matrix must be positive definite")
        object.__setattr__(self, "xi", 0.5 * (xi + xi.T))

    @classmethod
    def identity(cls, n_moments: int) -> WeightMatrix:
        return cls(np.eye(n_moments))

    @cached_property
    def root(self) -> np.ndarray:
        """A with A'A = Xi (the transposed Cholesky factor), so |A m| = sqrt(m' Xi m)."""
        return np.linalg.cholesky(self.xi).T


@dataclass(frozen=True)
class OptimizerConfig:
    """Minimizer knobs: multistart count, eval budget and tolerances."""

    n_starts: int = 5
    max_evals: int = 10000
    tol: float = 1e-9
    seed: int = 0
    grid_points: int = 201
    grid_rounds: int = 8

    def __post_init__(self):
        check_seed(self.seed)


@dataclass(frozen=True)
class GmmResult:
    theta: np.ndarray
    objective_value: float
    jhat: np.ndarray | None
    weight: WeightMatrix
    trace: dict = field(default_factory=dict)


def _unit_mean(rows: np.ndarray, unit_weights: np.ndarray | None, pi_c: int) -> np.ndarray:
    """(1/pi_c) times the sum of the (weighted) per-unit rows, added in unit order.

    ``rows`` is (n, ...) in any memory layout. Each entry's column of n
    unit values (times the unit weights, when given) goes to one contiguous
    run of an (entries, n) buffer, where ``np.add.accumulate`` adds it one
    unit after another; ``sum`` would add it pairwise. The sums are
    the same bits for C-, F- and unit-major rows; unit-major rows (the
    transpose of a (..., n) buffer, as the probit model returns) are also
    read in contiguous runs, so they are the cheap layout. An empty
    ``rows`` sums to zeros.
    """
    n = rows.shape[0]
    if n == 0:
        return np.zeros(rows.shape[1:])
    cols = rows.reshape(n, -1).T
    out = np.empty(cols.shape)
    if unit_weights is not None:
        cols = np.multiply(cols, unit_weights, out=out)
    np.add.accumulate(cols, axis=1, out=out)
    return out[:, -1].reshape(rows.shape[1:]) / pi_c


def moment_bar(
    sample: ClusteredSample,
    model: MomentModel,
    theta: np.ndarray,
    unit_weights: np.ndarray | None = None,
) -> np.ndarray:
    """m_bar(theta) = (1/pi_c) sum over cells of the (weighted) moment sums.

    The unit rows are added one after another in unit order, for every
    moment layout, so a unit whose weight is 0 adds an exact zero: dropping
    it (as the bootstrap hook does) leaves m_bar bit for bit the same.
    """
    if sample.n_units == 0:
        raise EmptySampleError("GMM needs at least one unit")
    return _unit_mean(model.moments(sample.values, theta), unit_weights, sample.dims.pi_c)


def cell_moment_sums(
    sample: ClusteredSample, model: MomentModel, theta: np.ndarray
) -> CenteredScores:
    """Per-cell moment sums D_j(theta), the scores feeding the H estimator."""
    m = model.moments(sample.values, theta)
    return CenteredScores(sample.dims, sum_by_cell(sample, m))


def gmm_objective(
    sample: ClusteredSample,
    model: MomentModel,
    xi: WeightMatrix,
    theta,
    unit_weights: np.ndarray | None = None,
) -> float:
    """M(theta) = |Xi^(1/2) m_bar(theta)|; nonnegative, zero iff m_bar = 0."""
    theta = np.asarray(theta, dtype=np.float64)
    mb = moment_bar(sample, model, theta, unit_weights)
    return float(math.sqrt(max(mb @ xi.xi @ mb, 0.0)))


def gmm_jhat(
    sample: ClusteredSample,
    model: MomentModel,
    theta: np.ndarray,
    unit_weights: np.ndarray | None = None,
) -> np.ndarray:
    """J_hat = (1/pi_c) sum of per-unit moment derivatives at theta.

    Falls back to central differences on m_bar (step max(1e-6, 1e-6 |theta_r|))
    for smooth models without an analytic Jacobian; indicator-based models
    raise instead.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if model.jacobian is not None:
        return _unit_mean(_jacobian_rows(sample, model, theta), unit_weights, sample.dims.pi_c)
    if not model.smooth:
        raise ModelError(
            "model has no analytic Jacobian and finite differences are "
            "disabled for nonsmooth moments"
        )
    out = np.empty((model.n_moments, model.n_params))
    for r in range(model.n_params):
        h = max(1e-6, 1e-6 * abs(theta[r]))
        up, dn = theta.copy(), theta.copy()
        up[r] += h
        dn[r] -= h
        out[:, r] = (
            moment_bar(sample, model, up, unit_weights)
            - moment_bar(sample, model, dn, unit_weights)
        ) / (2 * h)
    return out


def _jacobian_rows(sample: ClusteredSample, model: MomentModel, theta) -> np.ndarray:
    """The analytic per-unit moment derivatives (n, L, p) at theta."""
    d = np.asarray(model.jacobian(sample.values, theta), dtype=np.float64)
    if d.shape != (sample.n_units, model.n_moments, model.n_params):
        raise ModelError(f"jacobian returned {d.shape}")
    return d


def gmm_hhat(sample: ClusteredSample, model: MomentModel, theta) -> np.ndarray:
    """Multiway meat: the positive variance estimator applied to the
    (uncentered) per-cell moment sums."""
    theta = np.asarray(theta, dtype=np.float64)
    return vhat1(cell_moment_sums(sample, model, theta)).matrix


def gmm_variance(jhat: np.ndarray, hhat: np.ndarray, xi: WeightMatrix) -> np.ndarray:
    """The sandwich (J' Xi J)^-1 J' Xi H Xi J (J' Xi J)^-1, symmetrized.

    An over-identified J (L > p) is first reduced to the square pair
    (J' Xi J, J' Xi H Xi J). A square J, where Xi cancels, must be finite
    with singular values that pass ``check_condition``; V = J^-1 H J^-T
    then comes from two solves with J, which do not square its condition."""
    if jhat.shape[0] > jhat.shape[1]:
        jxi = jhat.T @ xi.xi
        jhat, hhat = jxi @ jhat, jxi @ hhat @ jxi.T
    if not np.isfinite(jhat).all():
        raise SingularDesignError("J is not finite")
    s = np.linalg.svd(jhat, compute_uv=False)
    check_condition(s[::-1], SingularDesignError, "J is singular")
    v = np.linalg.solve(jhat, np.linalg.solve(jhat, hhat).T).T
    return 0.5 * (v + v.T)


# ---------------------------------------------------------------------
# Minimization
# ---------------------------------------------------------------------


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, n: int = 1) -> bool:
        self.used += n
        return self.used <= self.limit


def _gauss_newton(residual, jac_residual, start, bounds, tol, budget):
    """Projected Gauss-Newton with halving backtracking.

    ``residual(theta)`` is Xi^(1/2) m_bar; the objective f is half its
    squared norm. Returns (theta, value, converged).

    A candidate is accepted only if fc < f - 1e-12 (1 + f). Once
    f - 1e-12 (1 + f) <= 0 (f below about 1e-12) no candidate can pass,
    since fc >= 0 (and a NaN fc fails the comparison), so the point is
    returned as stationary at the top of the iteration, before the
    Jacobian and the line search. The line search would have rejected
    every halving and returned the same theta and value, so both keep
    their bits; only the evaluation count falls. The one outcome that
    changes: where the budget would have run out inside that futile
    search (or the skipped Gauss-Newton step would have been singular),
    the point is now reported as converged instead of not.
    """
    lo, hi = bounds[:, 0], bounds[:, 1]
    eye = np.eye(len(start))
    n = max(len(start), 1)
    theta = np.clip(start, lo, hi)
    if not budget.spend():
        return theta, np.inf, False
    r = residual(theta)
    f = 0.5 * float(r @ r)
    for _ in range(200):
        if f - 1e-12 * (1 + f) <= 0:
            return theta, math.sqrt(2 * f), True
        jr = jac_residual(theta)
        jrt = jr.T
        jtj = jrt @ jr
        ridge = 1e-12 * max(float(jtj.trace()) / n, 1e-300)
        try:
            step = -np.linalg.solve(jtj + ridge * eye, jrt @ r)
        except np.linalg.LinAlgError:
            return theta, math.sqrt(2 * f), False
        t, improved = 1.0, False
        cand, rc, fc = theta, r, f
        for _ in range(40):
            cand = (theta + t * step).clip(lo, hi)
            if not budget.spend():
                return theta, math.sqrt(2 * f), False
            rc = residual(cand)
            fc = 0.5 * float(rc @ rc)
            if fc < f - 1e-12 * (1 + f):
                improved = True
                break
            t *= 0.5
        if not improved:
            # no descent left along the Gauss-Newton direction: stationary
            return theta, math.sqrt(2 * f), True
        dropped = f - fc
        prev, theta, r, f = theta, cand, rc, fc
        if dropped < tol * (1 + f) or abs(theta - prev).max() < tol * (1 + abs(theta).max()):
            return theta, math.sqrt(2 * f), True
    return theta, math.sqrt(2 * f), False


def _grid_refine(value, bounds, n_points, rounds, budget):
    """Bracketing grid search for scalar, possibly piecewise-constant objectives."""
    lo, hi = float(bounds[0, 0]), float(bounds[0, 1])
    best_x, best_f = lo, np.inf
    for _ in range(rounds):
        xs = np.linspace(lo, hi, n_points)
        fs = np.empty(n_points)
        for i, x in enumerate(xs):
            if not budget.spend():
                return np.array([best_x]), best_f, False
            fs[i] = value(np.array([x]))
        b = int(np.argmin(fs))
        if fs[b] < best_f:
            best_f, best_x = float(fs[b]), float(xs[b])
        lo, hi = xs[max(b - 1, 0)], xs[min(b + 1, n_points - 1)]
    return np.array([best_x]), best_f, True


def _starts(model: MomentModel, config: OptimizerConfig) -> list[np.ndarray]:
    center = model.bounds.mean(axis=1)
    rng = stream_rng(config.seed)
    out = [center]
    for _ in range(max(config.n_starts - 1, 0)):
        out.append(rng.uniform(model.bounds[:, 0], model.bounds[:, 1]))
    return out


def _warm_rows(sample: ClusteredSample, model: MomentModel, theta: np.ndarray):
    """(per-unit moments, per-unit Jacobians or None) at theta, for ``_minimize``."""
    if sample.n_units == 0:
        raise EmptySampleError("GMM needs at least one unit")
    m = model.moments(sample.values, theta)
    return m, None if model.jacobian is None else _jacobian_rows(sample, model, theta)


def _minimize(sample, model, xi, config, unit_weights=None, starts=None, warm=None):
    """Minimize the weighted moment norm; returns (theta, value, evaluations).

    ``warm``, from ``_warm_rows`` on ``sample``, holds the per-unit moment
    and Jacobian rows at the first start clipped to the box, where
    Gauss-Newton takes its first residual and its first Jacobian: those two
    weight and sum the rows instead of calling the model, with the same
    bits. Later evaluations, and every one of the other starts, call it.
    """
    if sample.n_units == 0:
        raise EmptySampleError("GMM needs at least one unit")
    budget = _Budget(config.max_evals)
    if model.smooth:
        root, values, pi_c = xi.root, sample.values, sample.dims.pi_c
        m_rows, d_rows = warm or (None, None)

        def residual(theta):
            nonlocal m_rows
            rows, m_rows = m_rows, None
            if rows is None:
                rows = model.moments(values, theta)
            return root @ _unit_mean(rows, unit_weights, pi_c)

        def jac_residual(theta):
            nonlocal d_rows
            if d_rows is None:
                return root @ gmm_jhat(sample, model, theta, unit_weights)
            rows, d_rows = d_rows, None
            return root @ _unit_mean(rows, unit_weights, pi_c)

        best = (None, np.inf, False)
        for start in starts or _starts(model, config):
            theta, val, ok = _gauss_newton(
                residual, jac_residual, start, model.bounds, config.tol, budget
            )
            m_rows = d_rows = None  # the warm rows are the first start's
            if val < best[1]:
                best = (theta, val, ok)
            if budget.used >= budget.limit:
                break
        theta, val, ok = best
        if theta is None or not ok:
            raise ConvergenceError(
                f"Gauss-Newton exhausted {budget.used} evaluations",
                best_theta=theta,
                best_value=val,
            )
        return theta, val, budget.used

    def value(theta):
        return gmm_objective(sample, model, xi, theta, unit_weights)

    if model.n_params == 1:
        theta, val, ok = _grid_refine(
            value, model.bounds, config.grid_points, config.grid_rounds, budget
        )
        if not ok:
            raise ConvergenceError(
                "grid search exhausted its budget", best_theta=theta, best_value=val
            )
        return theta, val, budget.used

    from scipy import optimize  # deferred: slow to import, needed only here

    best = (None, np.inf)
    any_converged = False
    per_start = max(config.max_evals // max(config.n_starts, 1), 100)
    for start in starts or _starts(model, config):
        res = optimize.minimize(
            value,
            np.clip(start, model.bounds[:, 0], model.bounds[:, 1]),
            method="Nelder-Mead",
            bounds=model.bounds,
            options={"maxfev": per_start, "xatol": 1e-7, "fatol": 1e-10},
        )
        budget.spend(int(res.nfev))
        any_converged = any_converged or bool(res.success)
        if res.fun < best[1]:
            best = (res.x, float(res.fun))
    if best[0] is None or not any_converged:
        raise ConvergenceError(
            "Nelder-Mead exhausted its budget on every start",
            best_theta=best[0],
            best_value=best[1],
        )
    return best[0], best[1], budget.used


def gmm_fit(
    sample: ClusteredSample,
    model: MomentModel,
    xi: WeightMatrix | None = None,
    config: OptimizerConfig | None = None,
    two_step: bool = False,
) -> GmmResult:
    """Minimize the weighted moment norm over the parameter box.

    Smooth models run multistart Gauss-Newton on Xi^(1/2) m_bar; nonsmooth
    scalar models use a bracketing grid refine, and nonsmooth multivariate
    models Nelder-Mead. ``two_step=True`` refits with
    Xi = (H(theta_1) + ridge I)^-1 from a first identity-weighted pass.
    An unidentified smooth model raises SingularDesignError: Xi^(1/2) J at
    theta-hat must be finite with squared singular values (J' Xi J's
    eigenvalues, unformed) that pass ``check_condition``. The sandwich is
    ``Fitted.variance``; nonsmooth models carry ``jhat=None`` and go
    through the pigeonhole bootstrap.
    """
    xi = xi or WeightMatrix.identity(model.n_moments)
    config = config or OptimizerConfig()
    if xi.xi.shape[0] != model.n_moments:
        raise ModelError("weight matrix size does not match the moment dimension")

    theta, val, evals = _minimize(sample, model, xi, config)
    if two_step:
        h1 = gmm_hhat(sample, model, theta)
        ridge = 1e-10 * max(np.trace(h1), 1e-300) / model.n_moments
        xi = WeightMatrix(np.linalg.inv(h1 + ridge * np.eye(model.n_moments)))
        theta, val, evals2 = _minimize(sample, model, xi, config)
        evals += evals2

    jhat = None
    if model.jacobian is not None or model.smooth:
        jhat = gmm_jhat(sample, model, theta)
        root_j = xi.root @ jhat
        if not np.isfinite(root_j).all():
            raise SingularDesignError(f"J is not finite at theta={theta}")
        s = np.linalg.svd(root_j, compute_uv=False)
        check_condition(s[::-1] ** 2, SingularDesignError, "J' Xi J is singular")
    trace = {"n_evaluations": evals, "two_step": two_step}
    return GmmResult(theta=theta, objective_value=val, jhat=jhat, weight=xi, trace=trace)


def _take_units(rows: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """``rows[kept]`` for (n, ...) rows and in-range ``kept``, unit-major: a
    transposed (..., k) buffer."""
    n, shape = rows.shape[0], rows.shape[1:]
    # mode="clip" skips the bounds check, which makes take along axis 1 about 4x slower
    cols = rows.reshape(n, -1).T.take(kept, axis=1, mode="clip")
    return cols.T.reshape((kept.size, *shape))


def gmm_bootstrap_estimator(
    model: MomentModel,
    xi: WeightMatrix | None = None,
    config: OptimizerConfig | None = None,
    *,
    warm_start: np.ndarray,
) -> Callable[[ClusteredSample, PigeonholeWeights], np.ndarray]:
    """Weighted re-estimation hook for :func:`multiway.bootstrap.run_bootstrap`.

    Every per-cell moment sum is multiplied by the cell weight W_j
    (equivalent to replicating cells). Every replicate starts from
    ``warm_start`` alone (typically the full-sample estimate), not from the
    multistart of ``config``.

    Each replicate re-optimizes on the units of the cells with W_j != 0
    only (about 60% of the cells of a 2-way design draw W_j = 0), keeping
    ``dims`` so that m_bar still divides by pi_c. The units dropped would
    add exact zeros ``0 * m`` to the weighted sums, which ``moment_bar``
    and ``gmm_jhat`` add in unit order, so both keep their full-sample
    bits for every moment layout and theta is the same bit for bit. When
    no unit has a nonzero weight the full sample is used, and for
    identity weights the sample itself.

    For a smooth model, the per-unit moment and Jacobian rows at the warm
    start are computed once, on the first sample the hook sees, and kept
    while it sees the same sample object; each replicate takes the index
    of its kept units once, gathers its values, unit weights and warm
    rows (unit-major, column by column) with it, and weights and sums
    those rows for its first residual and Jacobian instead of calling the
    model.

    Cost: from the warm start a probit replicate takes about three moment
    evaluations and two Jacobians (30x30: 2.9 and 2.0 per replicate),
    because its first ones come from the warm-start rows, Gauss-Newton
    returns once the objective reaches its floor, with no last Jacobian or
    line search, and each Jacobian at an accepted step reuses the link
    values of the moment evaluation just before it. On the 30x30 poisson:4
    bootstrap (about 1,850 kept units a replicate, 2-core Xeon host) a
    replicate takes about 630 µs of CPU time, draws included (760 µs
    before the unit-major layout); ``log_ndtr`` takes about 145 µs of it
    and the unit-order accumulation about 115 µs, both fixed by the bits.
    """
    xi = xi or WeightMatrix.identity(model.n_moments)
    config = config or OptimizerConfig()
    starts = [np.asarray(warm_start, dtype=np.float64)]
    # Gauss-Newton's first point, where a smooth model's warm-start rows are taken
    anchor = np.clip(starts[0], model.bounds[:, 0], model.bounds[:, 1]) if model.smooth else None
    full = None  # (sample, its _warm_rows at anchor), replaced whole

    def estimator(sample: ClusteredSample, weights: PigeonholeWeights) -> np.ndarray:
        nonlocal full
        w = weights.cell_weights()
        ids = sample.unit_cell_ids
        warm = None
        if anchor is not None:
            hit = full
            if hit is None or hit[0] is not sample:
                hit = full = (sample, _warm_rows(sample, model, anchor))
            warm = hit[1]
        cells = w != 0
        kept = cells[ids].nonzero()[0]
        if 0 < kept.size < sample.n_units:
            uw = w[ids[kept]].astype(np.float64)
            sample = cell_subsample(sample, cells, kept)
            if warm is not None:
                warm = tuple(None if r is None else _take_units(r, kept) for r in warm)
        else:
            uw = w[ids].astype(np.float64)
        theta, _, _ = _minimize(sample, model, xi, config, uw, starts, warm)
        return theta

    return estimator


# ---------------------------------------------------------------------
# Ready-made moment models
# ---------------------------------------------------------------------


def quantile_iv_moments(
    tau: float,
    outcome_index: int,
    x_indices,
    z_indices,
    bounds=None,
) -> MomentModel:
    """m = Z (tau - 1{W - X'theta <= 0}): instrumental quantile moments.

    Nonsmooth: no Jacobian, finite differences disabled, derivative-free
    optimization only. The per-unit design (W, X, Z, column checks passed)
    of the last sample is cached as in :func:`probit_score_moments`: a
    one-tuple keyed on the ``values`` array itself, replaced whole.
    """
    if not 0.0 < tau < 1.0:
        raise ModelError(f"tau: must be in (0, 1), got {tau}")
    x_idx = [int(i) for i in x_indices]
    z_idx = [int(i) for i in z_indices]
    p, L = len(x_idx), len(z_idx)
    if L < p:
        raise ModelError(f"z_indices: {L} instruments cannot identify {p} coefficients")
    if bounds is None:
        bounds = np.tile([-10.0, 10.0], (p, 1))
    design = None

    def unit_design(values):
        nonlocal design
        hit = design
        if hit is not None and hit[0] is values:
            return hit[1]
        check_columns(
            values.shape[1], outcome_index=(outcome_index,), x_indices=x_idx, z_indices=z_idx
        )
        out = (values[:, outcome_index], values[:, x_idx], values[:, z_idx])
        design = (values, out)
        return out

    def fn(values, theta):
        w, x, z = unit_design(values)
        ind = (w - x @ theta <= 0).astype(np.float64)
        return z * (tau - ind)[:, None]

    return MomentModel(
        fn=fn, n_params=p, n_moments=L, bounds=bounds, jacobian=None, smooth=False
    )


def _probit_lam(q: np.ndarray) -> np.ndarray:
    from scipy import special  # deferred: slow to import, needed only here

    # phi(q)/Phi(q) evaluated in the log domain; stable for large |q|; in
    # place, in the order of exp(-0.5 q^2 - log(2 pi) / 2 - log Phi(q))
    t = np.square(q)
    t *= -0.5
    t -= 0.5 * math.log(2 * math.pi)
    t -= special.log_ndtr(q)
    return np.exp(t, out=t)


def probit_score_moments(
    outcome_index: int = 0, x_index: int = 1, bounds=None
) -> MomentModel:
    """Probit pseudo-score moments s = lam * (1, X)' with the analytic Hessian.

    lam = (2Y - 1) phi(q) / Phi(q) at q = (2Y - 1)(b0 + b1 X); minimizing
    the moment norm is the probit pseudo-MLE, which ignores within- and
    cross-cell correlation (the multiway sandwich puts it back). The
    moments (n, 2) and the Jacobian (n, 2, 2) are unit-major: transposed
    views of fresh (2, n) and (2, 2, n) buffers, one contiguous column per
    entry, which ``_unit_mean`` sums without a strided pass.

    Two one-tuple caches, each keyed on the ``values`` array itself, read
    once and replaced whole, so threads sharing the model never see a torn
    entry; ``values`` must not be modified in place between calls:

    - the per-unit design of the last sample (the column and binary checks
      passed, then the 1-d columns sign 2Y - 1, X and X * X), built once
      per sample rather than once per evaluation;
    - the last link values (eta, lam, with X and X * X), also keyed on the
      dtype and bytes of theta, so the Jacobian at a point whose moments
      were just evaluated (every accepted Gauss-Newton step) reuses the
      ``log_ndtr`` work.
    """
    if bounds is None:
        bounds = np.tile([-5.0, 5.0], (2, 1))
    design = last = None

    def unit_design(values):
        nonlocal design
        hit = design
        if hit is not None and hit[0] is values:
            return hit[1]
        check_columns(values.shape[1], outcome_index=(outcome_index,), x_index=(x_index,))
        # contiguous copies first: the ops below run several times faster on them
        y = values[:, outcome_index].copy()
        if not ((y == 0) | (y == 1)).all():
            raise ModelError("outcome_index: the probit outcome must be binary in {0, 1}")
        x = values[:, x_index].copy()
        out = (2.0 * y - 1.0, x, x * x)
        design = (values, out)
        return out

    def link(values, theta):
        """(x, x * x, eta, lam) at theta."""
        nonlocal last
        theta = np.asarray(theta)
        key = (theta.dtype, theta.tobytes())
        hit = last
        if hit is not None and hit[0] is values and hit[1] == key:
            return hit[2]
        sign, x, xx = unit_design(values)
        eta = theta[0] + theta[1] * x
        lam = sign * _probit_lam(sign * eta)
        out = (x, xx, eta, lam)
        last = (values, key, out)
        return out

    def fn(values, theta):
        x, _, _, lam = link(values, theta)
        out = np.empty((2, lam.shape[0]))
        out[0] = lam
        np.multiply(lam, x, out=out[1])
        return out.T

    def jacobian(values, theta):
        x, xx, eta, lam = link(values, theta)
        g = -lam * (eta + lam)
        out = np.empty((2, 2, g.shape[0]))
        out[0, 0] = g
        np.multiply(g, x, out=out[0, 1])
        out[1, 0] = out[0, 1]
        np.multiply(g, xx, out=out[1, 1])
        return out.transpose(2, 0, 1)

    return MomentModel(
        fn=fn, n_params=2, n_moments=2, bounds=bounds, jacobian=jacobian, smooth=True
    )
