"""GMM estimation with multiway cluster-robust inference.

Moment restrictions are at the unit level: the estimator minimizes
M(theta) = |Xi^(1/2) m_bar(theta)| with m_bar the per-cell moment sums
averaged over all pi_c cells. The sandwich variance is
(J' Xi J)^-1 J' Xi H Xi J (J' Xi J)^-1 with H built exactly like the
positive multiway variance estimator, applied to the per-cell moment
sums. Includes ready-made moment models for quantile IV and the probit
pseudo-score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import special

from .bootstrap import PigeonholeWeights
from .data import ClusteredSample, sum_by_cell
from .errors import (
    ConvergenceError,
    EmptySampleError,
    ModelError,
    SingularDesignError,
)
from .seeding import stream_rng
from .variance import CenteredScores, vhat1

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

BREAD_CONDITION_CAP = 1e12


@dataclass(frozen=True)
class MomentModel:
    """A vector-valued moment function m(y, theta) with L >= p.

    ``fn`` maps a stacked observation array (n, obs_dim) and a parameter
    vector (p,) to per-unit moments (n, L). ``jacobian``, when available,
    returns per-unit derivatives (n, L, p). ``smooth`` controls whether a
    finite-difference Jacobian fallback and derivative-based optimization
    are allowed; indicator-based moments must set it to False.
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
        b = np.asarray(self.bounds, dtype=np.float64)
        if b.shape != (self.n_params, 2) or np.any(b[:, 0] >= b[:, 1]):
            raise ModelError("bounds must be a (p, 2) box with lower < upper")
        if not np.all(np.isfinite(b)):
            raise ModelError("parameter box must be compact (finite bounds)")
        object.__setattr__(self, "bounds", b)

    def moments(self, values: np.ndarray, theta: np.ndarray) -> np.ndarray:
        try:
            out = np.asarray(self.fn(values, theta), dtype=np.float64)
        except Exception as exc:
            raise ModelError(f"moment evaluation failed at theta={theta}") from exc
        if out.shape != (values.shape[0], self.n_moments):
            raise ModelError(
                f"moment function returned {out.shape}, "
                f"expected ({values.shape[0]}, {self.n_moments})"
            )
        return out


@dataclass(frozen=True)
class WeightMatrix:
    """Symmetric positive definite L x L GMM weight."""

    xi: np.ndarray

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=np.float64)
        if xi.ndim != 2 or xi.shape[0] != xi.shape[1]:
            raise ValueError("weight matrix must be square")
        scale = max(np.abs(xi).max(), 1e-300)
        if np.abs(xi - xi.T).max() > 1e-12 * scale:
            raise ValueError("weight matrix must be symmetric")
        if np.linalg.eigvalsh(xi)[0] <= 0:
            raise ValueError("weight matrix must be positive definite")
        object.__setattr__(self, "xi", 0.5 * (xi + xi.T))

    @classmethod
    def identity(cls, n_moments: int) -> WeightMatrix:
        return cls(np.eye(n_moments))


@dataclass(frozen=True)
class OptimizerConfig:
    """Minimizer knobs: multistart count, eval budget and tolerances."""

    n_starts: int = 5
    max_evals: int = 10000
    tol: float = 1e-9
    seed: int = 0
    grid_points: int = 201
    grid_rounds: int = 8


@dataclass(frozen=True)
class GmmResult:
    theta: np.ndarray
    objective_value: float
    jhat: np.ndarray | None
    hhat: np.ndarray
    vhat: np.ndarray | None
    weight: WeightMatrix
    trace: dict = field(default_factory=dict)


def moment_bar(
    sample: ClusteredSample,
    model: MomentModel,
    theta: np.ndarray,
    unit_weights: np.ndarray | None = None,
) -> np.ndarray:
    """m_bar(theta) = (1/pi_c) sum over cells of the (weighted) moment sums."""
    if sample.n_units == 0:
        raise EmptySampleError("GMM needs at least one unit")
    m = model.moments(sample.values, theta)
    if unit_weights is not None:
        m = m * unit_weights[:, None]
    return m.sum(axis=0) / sample.dims.pi_c


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
        d = np.asarray(model.jacobian(sample.values, theta), dtype=np.float64)
        if d.shape != (sample.n_units, model.n_moments, model.n_params):
            raise ModelError(f"jacobian returned {d.shape}")
        if unit_weights is not None:
            d = d * unit_weights[:, None, None]
        return d.sum(axis=0) / sample.dims.pi_c
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


def gmm_hhat(sample: ClusteredSample, model: MomentModel, theta) -> np.ndarray:
    """Multiway meat: the positive variance estimator applied to the
    (uncentered) per-cell moment sums."""
    theta = np.asarray(theta, dtype=np.float64)
    return vhat1(cell_moment_sums(sample, model, theta)).matrix


def gmm_variance(jhat: np.ndarray, hhat: np.ndarray, xi: WeightMatrix) -> np.ndarray:
    """(J' Xi J)^-1 J' Xi H Xi J (J' Xi J)^-1, symmetrized."""
    jxi = jhat.T @ xi.xi
    bread = jxi @ jhat
    evals = np.linalg.eigvalsh(0.5 * (bread + bread.T))
    if evals[0] <= 0 or evals[-1] > BREAD_CONDITION_CAP * evals[0]:
        raise SingularDesignError(
            f"J' Xi J is singular (eigenvalues in [{evals[0]:.3g}, {evals[-1]:.3g}])"
        )
    half = np.linalg.solve(bread, jxi)
    v = half @ hhat @ half.T
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


def _sqrt_weight(xi: WeightMatrix) -> np.ndarray:
    # A with A'A = Xi, so |A m| = sqrt(m' Xi m)
    return np.linalg.cholesky(xi.xi).T


def _gauss_newton(residual, jac_residual, start, bounds, tol, budget):
    """Projected Gauss-Newton with halving backtracking.

    ``residual(theta)`` is Xi^(1/2) m_bar; the objective is half its
    squared norm. Returns (theta, value, converged).
    """
    theta = np.clip(start, bounds[:, 0], bounds[:, 1])
    if not budget.spend():
        return theta, np.inf, False
    r = residual(theta)
    f = 0.5 * float(r @ r)
    for _ in range(200):
        jr = jac_residual(theta)
        jtj = jr.T @ jr
        ridge = 1e-12 * max(np.trace(jtj) / max(len(theta), 1), 1e-300)
        try:
            step = -np.linalg.solve(jtj + ridge * np.eye(len(theta)), jr.T @ r)
        except np.linalg.LinAlgError:
            return theta, math.sqrt(2 * f), False
        t, improved = 1.0, False
        cand, rc, fc = theta, r, f
        for _ in range(40):
            cand = np.clip(theta + t * step, bounds[:, 0], bounds[:, 1])
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
        moved = np.max(np.abs(cand - theta))
        dropped = f - fc
        theta, r, f = cand, rc, fc
        if moved < tol * (1 + np.max(np.abs(theta))) or dropped < tol * (1 + f):
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


def _minimize(sample, model, xi, config, unit_weights=None, starts=None):
    sqrt_xi = _sqrt_weight(xi)
    budget = _Budget(config.max_evals)

    def value(theta):
        return gmm_objective(sample, model, xi, theta, unit_weights)

    if model.smooth:

        def residual(theta):
            return sqrt_xi @ moment_bar(sample, model, theta, unit_weights)

        def jac_residual(theta):
            return sqrt_xi @ gmm_jhat(sample, model, theta, unit_weights)

        best = (None, np.inf, False)
        for start in starts or _starts(model, config):
            theta, val, ok = _gauss_newton(
                residual, jac_residual, start, model.bounds, config.tol, budget
            )
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
    For nonsmooth models the result carries ``jhat=None`` and ``vhat=None``;
    inference then goes through the pigeonhole bootstrap.
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

    hhat = gmm_hhat(sample, model, theta)
    jhat = vhat = None
    if model.jacobian is not None or model.smooth:
        jhat = gmm_jhat(sample, model, theta)
        vhat = gmm_variance(jhat, hhat, xi)
    return GmmResult(
        theta=theta,
        objective_value=val,
        jhat=jhat,
        hhat=hhat,
        vhat=vhat,
        weight=xi,
        trace={"n_evaluations": evals, "two_step": two_step},
    )


def gmm_bootstrap_estimator(
    model: MomentModel,
    xi: WeightMatrix | None = None,
    config: OptimizerConfig | None = None,
    warm_start: np.ndarray | None = None,
) -> Callable[[ClusteredSample, PigeonholeWeights], np.ndarray]:
    """Weighted re-estimation hook for :func:`multiway.bootstrap.run_bootstrap`.

    Every per-cell moment sum is multiplied by the cell weight W_j
    (equivalent to replicating cells). ``warm_start`` (typically the full-
    sample estimate) replaces the default multistart for speed.
    """
    starts = None if warm_start is None else [np.asarray(warm_start, dtype=np.float64)]

    def estimator(sample: ClusteredSample, weights: PigeonholeWeights) -> np.ndarray:
        uw = weights.cell_weights()[sample.unit_cell_ids].astype(np.float64)
        xi_eff = xi or WeightMatrix.identity(model.n_moments)
        theta, _, _ = _minimize(
            sample, model, xi_eff, config or OptimizerConfig(), uw, starts
        )
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
    optimization only.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    x_idx = [int(i) for i in x_indices]
    z_idx = [int(i) for i in z_indices]
    p, L = len(x_idx), len(z_idx)
    if bounds is None:
        bounds = np.tile([-10.0, 10.0], (p, 1))

    def fn(values, theta):
        w = values[:, outcome_index]
        x = values[:, x_idx]
        z = values[:, z_idx]
        ind = (w - x @ theta <= 0).astype(np.float64)
        return z * (tau - ind)[:, None]

    return MomentModel(
        fn=fn, n_params=p, n_moments=L, bounds=bounds, jacobian=None, smooth=False
    )


def _probit_lam(q: np.ndarray) -> np.ndarray:
    # phi(q)/Phi(q) evaluated in the log domain; stable for large |q|
    log_phi = -0.5 * q**2 - 0.5 * math.log(2 * math.pi)
    return np.exp(log_phi - special.log_ndtr(q))


def probit_score_moments(
    outcome_index: int, x_index: int, bounds=None
) -> MomentModel:
    """Probit pseudo-score moments s = lam * (1, X)' with the analytic Hessian.

    lam = (2Y - 1) phi(q) / Phi(q) at q = (2Y - 1)(b0 + b1 X); minimizing
    the moment norm is the probit pseudo-MLE, which ignores within- and
    cross-cell correlation (the multiway sandwich puts it back).
    """
    if bounds is None:
        bounds = np.tile([-5.0, 5.0], (2, 1))

    def parts(values, theta):
        y = values[:, outcome_index]
        if not np.all((y == 0) | (y == 1)):
            raise ModelError("probit outcome must be binary in {0, 1}")
        x = values[:, x_index]
        sign = 2.0 * y - 1.0
        eta = theta[0] + theta[1] * x
        lam = sign * _probit_lam(sign * eta)
        return x, eta, lam

    def fn(values, theta):
        x, _, lam = parts(values, theta)
        return lam[:, None] * np.column_stack([np.ones_like(x), x])

    def jacobian(values, theta):
        x, eta, lam = parts(values, theta)
        scale = -lam * (eta + lam)
        xx = np.empty((x.shape[0], 2, 2))
        xx[:, 0, 0] = 1.0
        xx[:, 0, 1] = xx[:, 1, 0] = x
        xx[:, 1, 1] = x * x
        return scale[:, None, None] * xx

    return MomentModel(
        fn=fn, n_params=2, n_moments=2, bounds=bounds, jacobian=jacobian, smooth=True
    )
