"""GMM estimation with multiway cluster-robust inference.

Moment restrictions are at the unit level: the estimator minimizes
M(theta) = |Xi^(1/2) m_bar(theta)| with m_bar the per-cell moment sums
averaged over all pi_c cells. The sandwich variance is
(J' Xi J)^-1 J' Xi H Xi J (J' Xi J)^-1 with H built exactly like the
positive multiway variance estimator, applied to the per-cell moment
sums. Includes ready-made moment models for quantile IV and the probit
pseudo-score.

The probit link is a numpy kernel (``_probit_lam``) and Nelder-Mead a
numpy port of scipy's bounded variant (``_nelder_mead``), so every fit
here needs numpy only.

Every small matrix operation here runs in :mod:`multiway.smallmat`, in
Python floats and a fixed order: the weight's positive-definiteness check
and root, the two-step inverse, the identification check, Gauss-Newton's
products and step, the objective's quadratic form and the sandwich
``gmm_variance`` (which OLS shares). The fit, its variance and every
bootstrap replicate therefore call no BLAS or LAPACK, and their bits do
not depend on the host's OpenBLAS kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial, reduce
from typing import Callable, NamedTuple

import numpy as np

from . import smallmat
from .bootstrap import PigeonholeWeights
from .data import ClusteredSample, Dimensions, check_columns, row_sum, sum_by_cell
from .errors import (
    ConfigError,
    ConvergenceError,
    EmptySampleError,
    ModelError,
    ShapeError,
    SingularDesignError,
    SingularVarianceError,
)
from .seeding import check_seed, stream_rng
from .variance import CenteredScores, Fitted, check_condition, no_jacobian, vhat1

__all__ = [
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
    entry's column of unit values in unit order with
    :func:`multiway.data.row_sum`, with the same bits for every layout.
    C-ordered rows, as the probit model returns, are the cheap layout: the
    sum reads them in place, others are copied to C order first.
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

    A matrix that is not square raises ShapeError; one that is not finite,
    symmetric and positive definite raises SingularVarianceError, since the
    two-step weight is the inverse of a variance estimate. Positive definite
    means that the Cholesky factorisation of the symmetrized matrix
    (:func:`multiway.smallmat.cholesky`) finds positive pivots; ``root``,
    A with A'A = Xi (the transposed factor), so |A m| = sqrt(m' Xi m),
    comes from that factor."""

    xi: np.ndarray
    root: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=np.float64)
        if xi.ndim != 2 or xi.shape[0] != xi.shape[1]:
            raise ShapeError("weight matrix must be square")
        if not np.isfinite(xi).all():
            raise SingularVarianceError("weight matrix must be finite")
        scale = max(np.abs(xi).max(), 1e-300)
        if np.abs(xi - xi.T).max() > 1e-12 * scale:
            raise SingularVarianceError("weight matrix must be symmetric")
        xi = 0.5 * (xi + xi.T)
        try:
            low = smallmat.cholesky(xi.tolist())
        except smallmat.NotPositiveDefinite:
            raise SingularVarianceError("weight matrix must be positive definite") from None
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "root", np.array(list(zip(*low))))

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

    def __post_init__(self):
        check_seed(self.seed)
        for key in ("n_starts", "max_evals"):
            if getattr(self, key) < 1:
                raise ConfigError(f"optimizer.{key}: must be >= 1, got {getattr(self, key)}")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ConfigError(f"optimizer.tol: must be finite and >= 0, got {self.tol}")


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
    if len(sample.values) == 0:
        raise EmptySampleError("GMM needs at least one unit")
    return row_sum(model.moments(sample.values, theta), unit_weights) / sample.dims.pi_c


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
    mb = moment_bar(sample, model, theta, unit_weights).tolist()
    return math.sqrt(max(smallmat.dot(mb, smallmat.matvec(xi.xi.tolist(), mb)), 0.0))


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
        return row_sum(_jacobian_rows(sample, model, theta), unit_weights) / sample.dims.pi_c
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
    if d.shape != (len(sample.values), model.n_moments, model.n_params):
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
    j, h = jhat.tolist(), hhat.tolist()
    if len(j) > len(j[0]):
        jxi = smallmat.matmul(list(zip(*j)), xi.xi.tolist())
        j, h = smallmat.matmul(jxi, j), smallmat.matmul(smallmat.matmul(jxi, h), list(zip(*jxi)))
    if not smallmat.isfinite(j):
        raise SingularDesignError("J is not finite")
    check_condition(smallmat.singular_values(j), SingularDesignError, "J is singular")
    try:
        v = np.array(smallmat.solve(j, list(zip(*smallmat.solve(j, h))))).T
    except smallmat.Singular as exc:
        raise SingularDesignError(f"J is singular ({exc})") from None
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


def _floats(v):
    """A residual or its Jacobian as (nested) lists of Python floats."""
    return v.tolist() if isinstance(v, np.ndarray) else v


def _gauss_newton(residual, jac_residual, start, bounds, tol, budget):
    """Projected Gauss-Newton with halving backtracking, in Python floats.

    ``residual(theta)`` is Xi^(1/2) m_bar, a vector, and ``jac_residual``
    its L x p Jacobian, each as a list (of rows) or an array; the objective
    f is half the squared norm of the residual. Both receive theta as a
    float64 array. Returns (theta, value, converged).

    Every product, the normal equations (J'J + ridge I) step = -J'r and
    their Cholesky solve go through :mod:`multiway.smallmat`, in a fixed
    order. A Jacobian that is not finite, or a step that is not, raises
    SingularDesignError, the refusal of :func:`gmm_fit`; a Cholesky that
    fails on the normal matrix ends the start unconverged.

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
    lo, hi = bounds[:, 0].tolist(), bounds[:, 1].tolist()
    n = max(len(lo), 1)
    theta = [min(max(v, a), b) for v, a, b in zip(start.tolist(), lo, hi)]
    if not budget.spend():
        return np.array(theta), np.inf, False
    r = _floats(residual(np.array(theta)))
    f = 0.5 * smallmat.dot(r, r)
    if not f < math.inf:  # no candidate can be compared with a NaN or infinite f
        return np.array(theta), math.sqrt(2 * f), False
    for _ in range(200):
        if f - 1e-12 * (1 + f) <= 0:
            return np.array(theta), math.sqrt(2 * f), True
        jr = _floats(jac_residual(np.array(theta)))
        if not smallmat.isfinite(jr):
            raise SingularDesignError(f"J is not finite at theta={np.array(theta)}")
        jtj = smallmat.gram(jr)
        ridge = 1e-12 * max(smallmat.trace(jtj) / n, 1e-300)
        try:
            step = smallmat.cho_solve(smallmat.cholesky(jtj, ridge), smallmat.tmatvec(jr, r))
        except smallmat.NotPositiveDefinite:
            return np.array(theta), math.sqrt(2 * f), False
        if not smallmat.isfinite([step]):
            raise SingularDesignError(f"J is not finite at theta={np.array(theta)}")
        t, improved = 1.0, False
        for _ in range(40):
            cand = [min(max(v - t * d, a), b) for v, d, a, b in zip(theta, step, lo, hi)]
            if not budget.spend():
                return np.array(theta), math.sqrt(2 * f), False
            rc = _floats(residual(np.array(cand)))
            fc = 0.5 * smallmat.dot(rc, rc)
            if fc < f - 1e-12 * (1 + f):
                improved = True
                break
            t *= 0.5
        if not improved:
            # no descent left along the Gauss-Newton direction: stationary
            return np.array(theta), math.sqrt(2 * f), True
        dropped = f - fc
        moved = max(abs(v - w) for v, w in zip(cand, theta))
        theta, r, f = cand, rc, fc
        if dropped < tol * (1 + f) or moved < tol * (1 + max(map(abs, theta))):
            return np.array(theta), math.sqrt(2 * f), True
    return np.array(theta), math.sqrt(2 * f), False


# The bracketing grid: 201 points a round for 8 rounds, 1,608 of the default max_evals.
_GRID_POINTS = 201
_GRID_ROUNDS = 8


def _grid_refine(value, bounds, budget):
    """Bracketing grid search for scalar, possibly piecewise-constant objectives.

    Returns (theta, value, converged); a budget that runs out mid-round
    returns the best point evaluated so far, unconverged."""
    lo, hi = float(bounds[0, 0]), float(bounds[0, 1])
    best_x, best_f = lo, np.inf
    for _ in range(_GRID_ROUNDS):
        xs = np.linspace(lo, hi, _GRID_POINTS)
        fs = np.full(_GRID_POINTS, np.inf)  # a point the budget refuses stays inf
        for i, x in enumerate(xs):
            if not budget.spend():
                break
            fs[i] = value(np.array([x]))
        b = int(np.argmin(fs))
        if fs[b] < best_f:
            best_f, best_x = float(fs[b]), float(xs[b])
        if budget.used > budget.limit:
            return np.array([best_x]), best_f, False
        lo, hi = xs[max(b - 1, 0)], xs[min(b + 1, _GRID_POINTS - 1)]
    return np.array([best_x]), best_f, True


def _starts(model: MomentModel, config: OptimizerConfig) -> list[np.ndarray]:
    center = model.bounds.mean(axis=1)
    rng = stream_rng(config.seed)
    out = [center]
    for _ in range(config.n_starts - 1):
        out.append(rng.uniform(model.bounds[:, 0], model.bounds[:, 1]))
    return out


def _warm_rows(sample: ClusteredSample, model: MomentModel, theta: np.ndarray):
    """(per-unit moments, per-unit Jacobians or None) at theta, for ``_minimize``."""
    if sample.n_units == 0:
        raise EmptySampleError("GMM needs at least one unit")
    m = model.moments(sample.values, theta)
    return m, None if model.jacobian is None else _jacobian_rows(sample, model, theta)


class _Spent(Exception):
    """A Nelder-Mead start asked for an evaluation past its budget."""


def _nelder_mead(value, x0, lo, hi, maxfev):
    """Bounded Nelder-Mead on ``value`` from ``x0`` in the box [lo, hi];
    returns (x, its value, evaluations, converged).

    The standard coefficients (reflection 1, expansion 2, contraction and
    shrink 1/2), every trial point clipped to the box, stopping when the
    simplex spans at most 1e-7 and its values 1e-10, or when ``maxfev``
    evaluations are spent, mid-iteration if need be. The expressions, the
    ``np.argsort`` orderings and the stop are scipy's non-adaptive
    ``minimize(method="Nelder-Mead", bounds=...)``, so the two agree bit for
    bit. The first simplex moves each coordinate of x0 by a tenth of the
    box width, inward where the step would leave the box: scipy's default
    (5% of each coordinate, 0.00025 at zero) can see a single value of a
    step-function objective and stop at x0.
    """
    n, nfev = len(x0), 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _Spent
        nfev += 1
        return value(x)

    def ordered(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    step = 0.1 * (hi - lo)
    sim = np.vstack([x0, x0 + np.diag(np.where(x0 + step > hi, -step, step))])
    sim = np.clip(np.where(sim > hi, 2 * hi - sim, sim), lo, hi)
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _Spent:
        pass
    sim, fsim = ordered(*ordered(sim, fsim))  # as scipy: argsort can reorder ties
    while nfev < maxfev:
        if (np.max(np.abs(sim[1:] - sim[0])) <= 1e-7
                and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-10):
            break
        try:
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = np.clip(2 * xbar - sim[-1], lo, hi)
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = np.clip(3 * xbar - 2 * sim[-1], lo, hi)
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # contract outside
                    xc = np.clip(1.5 * xbar - 0.5 * sim[-1], lo, hi)
                    fxc = f(xc)
                    shrink = not fxc <= fxr  # a NaN shrinks, as in scipy
                else:  # contract inside
                    xc = np.clip(0.5 * xbar + 0.5 * sim[-1], lo, hi)
                    fxc = f(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = np.clip(sim[0] + 0.5 * (sim[j] - sim[0]), lo, hi)
                        fsim[j] = f(sim[j])
        except _Spent:
            pass
        sim, fsim = ordered(sim, fsim)
    return sim[0], np.min(fsim), nfev, nfev < maxfev


class _Units(NamedTuple):
    """The units a bootstrap replicate keeps, on the full sample's ``dims``."""

    dims: Dimensions
    values: np.ndarray


def _minimize(sample, model, xi, config, unit_weights=None, starts=None, warm=None):
    """Minimize the weighted moment norm; returns (theta, value, evaluations).

    Of ``sample`` only ``dims`` and ``values`` are read, so a replicate's
    kept units (:class:`_Units`) serve as well as a :class:`ClusteredSample`.
    ``warm``, from ``_warm_rows`` on ``sample``, holds the per-unit moment
    and Jacobian rows at the first start clipped to the box, where
    Gauss-Newton takes its first residual and its first Jacobian: those two
    weight and sum the rows instead of calling the model, with the same
    bits. Later evaluations, and every one of the other starts, call it.
    """
    if len(sample.values) == 0:
        raise EmptySampleError("GMM needs at least one unit")
    budget = _Budget(config.max_evals)
    if model.smooth:
        root, values, pi_c = xi.root.tolist(), sample.values, sample.dims.pi_c
        m_rows, d_rows = warm or (None, None)

        def residual(theta):
            nonlocal m_rows
            rows, m_rows = m_rows, None
            if rows is None:
                rows = model.moments(values, theta)
            return smallmat.matvec(root, (row_sum(rows, unit_weights) / pi_c).tolist())

        def jac_residual(theta):
            nonlocal d_rows
            if d_rows is None:
                jhat = gmm_jhat(sample, model, theta, unit_weights)
            else:
                rows, d_rows = d_rows, None
                jhat = row_sum(rows, unit_weights) / pi_c
            return smallmat.matmul(root, jhat.tolist())

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
        made = min(budget.used, budget.limit)  # the refused last spend made no evaluation
        if theta is None or not ok:
            raise ConvergenceError(
                f"Gauss-Newton did not converge in {made} of max_evals={budget.limit} "
                "evaluations",
                best_theta=theta,
                best_value=val,
            )
        return theta, val, made

    def value(theta):
        return gmm_objective(sample, model, xi, theta, unit_weights)

    if model.n_params == 1:
        theta, val, ok = _grid_refine(value, model.bounds, budget)
        if not ok:
            raise ConvergenceError(
                "grid search exhausted its budget", best_theta=theta, best_value=val
            )
        return theta, val, budget.used

    best = (None, np.inf)
    any_converged = False
    per_start = config.max_evals // config.n_starts
    lo, hi = model.bounds[:, 0], model.bounds[:, 1]
    for start in starts or _starts(model, config):
        x, fun, nfev, ok = _nelder_mead(value, np.clip(start, lo, hi), lo, hi, per_start)
        budget.spend(nfev)
        any_converged = any_converged or ok
        if fun < best[1]:
            best = (x, float(fun))
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
) -> Fitted:
    """Minimize the weighted moment norm over the parameter box.

    Smooth models run multistart Gauss-Newton on Xi^(1/2) m_bar; nonsmooth
    scalar models use a bracketing grid refine, and nonsmooth multivariate
    models Nelder-Mead. ``two_step=True`` refits with
    Xi = (H(theta_1) + ridge I)^-1 from a first identity-weighted pass.
    An unidentified smooth model raises SingularDesignError: Xi^(1/2) J at
    theta-hat must be finite with squared singular values (J' Xi J's
    eigenvalues, unformed) that pass ``check_condition``.

    The :class:`Fitted` scores are the per-cell moment sums at theta-hat,
    its bread :func:`gmm_variance` of J and the final Xi (a refusal for a
    nonsmooth model, which has no J: use the bootstrap), its hook
    :func:`gmm_bootstrap_estimator` warm-started at theta-hat. ``meta``
    holds ``objective_value``, ``n_evaluations``, ``n_units``, ``jhat`` (J
    or None) and ``weight`` (the final Xi).
    """
    xi = xi or WeightMatrix.identity(model.n_moments)
    config = config or OptimizerConfig()
    if xi.xi.shape[0] != model.n_moments:
        raise ModelError("weight matrix size does not match the moment dimension")

    theta, val, evals = _minimize(sample, model, xi, config)
    if two_step:
        h1 = gmm_hhat(sample, model, theta).tolist()
        ridge = 1e-10 * max(smallmat.trace(h1), 1e-300) / model.n_moments
        try:
            xi = WeightMatrix(np.array(smallmat.spd_inverse(h1, ridge)))
        except smallmat.NotPositiveDefinite:
            raise SingularVarianceError("weight matrix must be positive definite") from None
        theta, val, evals2 = _minimize(sample, model, xi, config)
        evals += evals2

    jhat, bread = None, no_jacobian
    if model.jacobian is not None or model.smooth:
        jhat = gmm_jhat(sample, model, theta)
        root_j = smallmat.matmul(xi.root.tolist(), jhat.tolist())
        if not smallmat.isfinite(root_j):
            raise SingularDesignError(f"J is not finite at theta={theta}")
        s = smallmat.singular_values(root_j)
        check_condition([v * v for v in s], SingularDesignError, "J' Xi J is singular")
        bread = partial(gmm_variance, jhat, xi=xi)
    scores = cell_moment_sums(sample, model, theta)
    hook = gmm_bootstrap_estimator(model, xi=xi, config=config, warm_start=theta)
    meta = {"objective_value": val, "n_evaluations": evals, "n_units": sample.n_units,
            "jhat": jhat, "weight": xi}
    return Fitted("gmm", theta, scores, bread, hook, sample, meta)


def gmm_bootstrap_estimator(
    model: MomentModel,
    xi: WeightMatrix | None = None,
    config: OptimizerConfig | None = None,
    *,
    warm_start: np.ndarray,
) -> Callable[[ClusteredSample, PigeonholeWeights], np.ndarray]:
    """Weighted re-estimation hook for :func:`multiway.bootstrap.run_bootstrap`.

    Every unit's moments are multiplied by its cell's weight W_j, the
    product of its clusters' draw counts (equivalent to replicating cells).
    Every replicate starts from ``warm_start`` alone (typically the
    full-sample estimate), not from the multistart of ``config``.

    Each replicate re-optimizes on the units with W_j != 0 only (about 60%
    of the cells of a 2-way design draw W_j = 0): their values and the full
    sample's ``dims``, so that m_bar still divides by pi_c, are all it
    passes on, and nothing of length pi_c is built. The units dropped would
    add exact zeros ``0 * m`` to the weighted sums, which ``moment_bar``
    and ``gmm_jhat`` add in unit order, so both keep their full-sample
    bits for every moment layout and theta is the same bit for bit. A draw
    that keeps no unit raises EmptySampleError, a failed replicate.

    The units' cluster coordinates and, for a smooth model, their moment
    and Jacobian rows at the warm start are computed once, on the first
    sample the hook sees, and kept while it sees the same sample object.
    Each replicate multiplies its counts at those coordinates into unit
    weights, takes the index of its kept units once, gathers their values,
    weights and warm rows (C-ordered, along the unit axis) with it, and
    weights and sums those rows for its first residual and Jacobian
    instead of calling the model.

    Cost: from the warm start a probit replicate takes about three moment
    evaluations and two Jacobians (30x30: 2.9 and 2.0 per replicate),
    because its first ones come from the warm-start rows, Gauss-Newton
    returns once the objective reaches its floor, with no last Jacobian or
    line search, and each Jacobian at an accepted step reuses the link
    values of the moment evaluation just before it. On the 30x30 poisson:4
    bootstrap (about 1,950 kept units a replicate, 2-core Xeon host) a
    replicate takes about 500 µs of CPU time, draws included; the link
    kernel ``_probit_lam`` takes about 195 µs of it (3.0 calls of about
    65 µs, some 50 numpy calls each) and the seven unit-order sums
    (``np.einsum``) about 95 µs, both fixed by the bits. Gauss-Newton's
    2 x 2 algebra, in Python floats (:mod:`multiway.smallmat`), costs
    about what numpy's small-array calls did, and loads no BLAS or LAPACK
    code.
    """
    xi = xi or WeightMatrix.identity(model.n_moments)
    config = config or OptimizerConfig()
    starts = [np.asarray(warm_start, dtype=np.float64)]
    # Gauss-Newton's first point, where a smooth model's warm-start rows are taken
    anchor = np.clip(starts[0], model.bounds[:, 0], model.bounds[:, 1]) if model.smooth else None
    full = None  # (sample, unit coordinates, _warm_rows at anchor or None), replaced whole

    def estimator(sample: ClusteredSample, weights: PigeonholeWeights) -> np.ndarray:
        nonlocal full
        hit = full
        if hit is None or hit[0] is not sample:
            coords = np.unravel_index(sample.unit_cell_ids, sample.dims.counts)
            warm = None if anchor is None else _warm_rows(sample, model, anchor)
            hit = full = (sample, coords, warm)
        _, coords, warm = hit
        uw = reduce(np.multiply, [w.take(c) for w, c in zip(weights.per_dim_counts, coords)])
        kept = (uw != 0).nonzero()[0]  # a bool mask's nonzero is twice as fast as int64's
        if warm is not None:
            warm = tuple(None if r is None else r.take(kept, axis=0) for r in warm)
        units = _Units(sample.dims, sample.values.take(kept, axis=0))
        uw = uw.take(kept).astype(np.float64)
        theta, _, _ = _minimize(units, model, xi, config, uw, starts, warm)
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
    optimization only. X'theta is summed column by column, in a fixed
    order. The per-unit design (W, the columns of X, Z, column checks
    passed) of the last sample is cached as in :func:`probit_score_moments`: a
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
        out = (values[:, outcome_index], [values[:, i].copy() for i in x_idx], values[:, z_idx])
        design = (values, out)
        return out

    def fn(values, theta):
        w, xs, z = unit_design(values)
        index = xs[0] * theta[0]
        for k in range(1, p):  # X'theta column by column, in a fixed order
            index += xs[k] * theta[k]
        ind = (w - index <= 0).astype(np.float64)
        return z * (tau - ind)[:, None]

    return MomentModel(
        fn=fn, n_params=p, n_moments=L, bounds=bounds, jacobian=None, smooth=False
    )


# The error function as rational approximations of Cody (1969), in the form of
# Cephes' ndtr.c (Moshier 1989), highest power first: erf(t) = t T(t^2) / U(t^2)
# for |t| < 1 and erfcx(t) = exp(t^2) erfc(t) = P(t) / Q(t) for 1 <= t < 8,
# R(t) / S(t) above. U, Q and S are monic.
_CEPHES_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
             7.00332514112805075473e3, 5.55923013010394962768e4)
_CEPHES_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
             4.59432382970980127987e3, 2.26290000613890934246e4, 4.92673942608635921086e4)
_CEPHES_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
             4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
             9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_CEPHES_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
             9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
             1.65666309194161350182e3, 5.57535340817727675546e2)
_CEPHES_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
             6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_CEPHES_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
             1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_SQRT2 = math.sqrt(2.0)
_SQRT_PI_OVER_2 = math.sqrt(math.pi / 2.0)  # half of sqrt(2 pi) = exp(-q^2 / 2) / phi(q)
_FAR = 8.0 * _SQRT2  # q below -_FAR is t below -8, where R / S takes over from P / Q
_ASYMPTOTE = -1e8  # below, lam(q) = -q - 1/q + ... rounds to -q
# At or below q = -_TAIL the probit Jacobian takes q + lam(q) from its series
# (``_left_slope``): there lam's few ulps of error, times about q^2 in
# q + lam(q), would exceed 1e-11, while five terms leave 8e-17 at q = -100.
_TAIL = 100.0


def _rescaled(coeffs, scale):
    """The coefficients of p(scale * v) as a polynomial in v."""
    last = len(coeffs) - 1
    return [c * scale ** (last - k) for k, c in enumerate(coeffs)]


# Each pair of real polynomials is one complex Horner: since the variable has
# no imaginary part, (a + ib) v + (c + id) has parts a v + c and b v + d exactly.
# Centre, in v = q^2: 32 U(v / 2), monic, and 32 T(v / 2) sqrt(pi) / 2, so that q
# times their ratio is sqrt(pi/2) erf(t); tails, in v = |q|: sqrt(pi/2) P(v / sqrt 2)
# and Q(v / sqrt 2).
_CENTRE = tuple(map(
    complex, [32 * c for c in _rescaled(_CEPHES_U, 0.5)],
    [0.0, *(16 * math.sqrt(math.pi) * c for c in _rescaled(_CEPHES_T, 0.5))],
))
_TAILS = tuple(map(
    complex, [c * _SQRT_PI_OVER_2 for c in _rescaled(_CEPHES_P, 1 / _SQRT2)],
    _rescaled(_CEPHES_Q, 1 / _SQRT2),
))


def _horner(coeffs, v: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] v^(d - k), d = len(coeffs) - 1 >= 1, on a new array."""
    if coeffs[0] == 1:  # monic: v + c1 is 1 v + c1 exactly, with one call less
        out = v + coeffs[1]
    else:
        out = np.multiply(v, coeffs[0])
        out += coeffs[1]
    for c in coeffs[2:]:
        out *= v
        out += c
    return out


def _probit_lam(q: np.ndarray) -> np.ndarray:
    """lam(q) = phi(q) / Phi(q), the inverse Mills ratio, for a float64 array
    q, with numpy alone.

    With t = q / sqrt 2 and e = exp(-q^2 / 2), so that phi = e / sqrt(2 pi):

    - |t| < 1: Phi = (1 + erf t) / 2, so lam = e / (sqrt(pi/2) (1 + erf t));
    - |t| >= 1: Phi = e erfcx(-t) / 2 below and 1 - e erfcx(t) / 2 above,
      so lam = e / |sqrt(2 pi) [q > 0] - sqrt(pi/2) e erfcx(|t|)|. For
      q <= -sqrt 2 that is sqrt(2/pi) / erfcx(-t): e cancels, with no log
      and nothing subtracted. Below t = -8, R / S replaces P / Q, and below
      q = -1e8 lam is -q. |q| is capped at 40 in P / Q and in e, which
      changes nothing above 0: there Phi rounds to 1 beyond q = 8.3, and e
      underflows to 0 at 38.6, where phi does.

    Relative error against mpmath: a few ulps for q <= 8; above, that of
    exp(-q^2 / 2) with q^2 rounded, up to about 4e-14 where lam nears the
    smallest normal number. NaN maps to NaN. Only elementwise ufuncs run
    (no BLAS, no einsum), so an element's bits depend on its q alone, not
    on the other elements of the array.
    """
    out = np.empty(q.shape)
    centre = np.abs(q) < _SQRT2
    i = centre.nonzero()[0]
    if i.size:
        qc = q.take(i)
        v = np.multiply(qc, qc, out=np.empty(qc.shape, np.complex128))
        w = _horner(_CENTRE, v)
        e = np.multiply(v.real, -0.5)
        np.exp(e, out=e)
        den = np.divide(w.imag, w.real)
        den *= qc
        den += _SQRT_PI_OVER_2
        out[i] = np.divide(e, den, out=den)
    j = np.logical_not(centre, out=centre).nonzero()[0]
    if j.size:
        qt = q.take(j)
        v = np.minimum(np.abs(qt), 40.0, out=np.empty(qt.shape, np.complex128))
        w = _horner(_TAILS, v)
        e = np.multiply(v.real, v.real)
        e *= -0.5
        np.exp(e, out=e)
        den = np.copysign(_SQRT_PI_OVER_2, qt)
        den += _SQRT_PI_OVER_2  # sqrt(2 pi) above, 0 below
        den -= np.divide(w.real, w.imag) * e
        np.abs(den, out=den)
        far = np.fmin.reduce(qt) < -_FAR
        if far:  # their e may be 0, and their P / Q is off its range
            k = (qt < -_FAR).nonzero()[0]
            den[k] = 1.0
        lam = np.divide(e, den, out=den)
        if far:
            lam[k] = _far_left(qt.take(k))
        out[j] = lam
    return out


def _far_left(q: np.ndarray) -> np.ndarray:
    """lam(q) for q < -8 sqrt 2: sqrt(2/pi) S(s) / R(s) at s = -q / sqrt 2, -q below -1e8."""
    s = np.maximum(q, _ASYMPTOTE) * (-1 / _SQRT2)
    lam = _horner(_CEPHES_S, s)
    lam /= _horner(_CEPHES_R, s)
    lam /= _SQRT_PI_OVER_2
    return np.where(q < _ASYMPTOTE, -q, lam)


def _left_slope(q: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The probit Jacobian's -lam(q) (q + lam(q)) for q <= -_TAIL, lam = lam(q).

    With x = -q, q + lam(q) = 1/x - 2/x^3 + 10/x^5 - 74/x^7 + 706/x^9 - ...
    (the reciprocal of the Mills ratio's series, Abramowitz & Stegun
    26.2.12), so -lam (q + lam) is -(lam / x) times 1 - 2u + 10u^2 - 74u^3 +
    706u^4 with u = 1/x^2: nothing cancels, and lam / x, about 1, neither
    overflows nor underflows however far out q is."""
    x = np.negative(q)
    u = np.divide(1.0, x)
    u *= u
    poly = _horner((706.0, -74.0, 10.0, -2.0, 1.0), u)
    poly *= np.divide(lam, x)
    return np.negative(poly, out=poly)


def probit_score_moments(
    outcome_index: int = 0, x_index: int = 1, bounds=None
) -> MomentModel:
    """Probit pseudo-score moments s = (2Y - 1) lam(q) (1, X)' with the analytic Hessian.

    lam(q) = phi(q) / Phi(q) is the inverse Mills ratio at q = (2Y - 1)(b0 +
    b1 X), from a numpy kernel (no scipy) accurate to a few ulps below q = 8
    and finite for every finite q, however far into the left tail an unscaled
    regressor puts it; minimizing the moment norm is the probit pseudo-MLE,
    which ignores within- and cross-cell correlation (the multiway sandwich
    puts it back). The moments (n, 2) and the Jacobian (n, 2, 2) are fresh
    C-ordered arrays, which :func:`multiway.data.row_sum` sums in place and
    the bootstrap hook gathers along the unit axis.

    Two one-tuple caches, each keyed on the ``values`` array itself, read
    once and replaced whole, so threads sharing the model never see a torn
    entry; ``values`` must not be modified in place between calls:

    - the per-unit design of the last sample (the column and binary checks
      passed, then the 1-d columns sign 2Y - 1, X and X * X), built once
      per sample rather than once per evaluation;
    - the last link values (eta, q and lam(q), with the design), also keyed
      on the dtype and bytes of theta, so the Jacobian at a point whose
      moments were just evaluated (every accepted Gauss-Newton step) reuses
      the kernel's work.

    The Jacobian's g = -lam(q) (q + lam(q)), written -(sign lam)(eta + sign
    lam), loses about q^2 times lam's few ulps where lam(q) -> -q; at or
    below q = -100 it comes from ``_left_slope`` instead, so that g is
    within 1e-11 of its value everywhere, and within 1e-14 in that tail.
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
        """(sign, x, x * x, eta, q = sign * eta, lam(q)) at theta."""
        nonlocal last
        theta = np.asarray(theta)
        key = (theta.dtype, theta.tobytes())
        hit = last
        if hit is not None and hit[0] is values and hit[1] == key:
            return hit[2]
        sign, x, xx = unit_design(values)
        eta = theta[0] + theta[1] * x
        q = sign * eta
        out = (sign, x, xx, eta, q, _probit_lam(q))
        last = (values, key, out)
        return out

    def fn(values, theta):
        sign, x, _, _, _, lam = link(values, theta)
        out = np.empty((lam.shape[0], 2))
        np.multiply(sign, lam, out=out[:, 0])
        np.multiply(out[:, 0], x, out=out[:, 1])
        return out

    def jacobian(values, theta):
        sign, x, xx, eta, q, lam = link(values, theta)
        lam_s = sign * lam
        out = np.empty((lam.shape[0], 2, 2))
        g = np.multiply(np.negative(lam_s), eta + lam_s, out=out[:, 0, 0])
        if q.size and np.fmin.reduce(q) <= -_TAIL:
            k = (q <= -_TAIL).nonzero()[0]
            g[k] = _left_slope(q.take(k), lam.take(k))
        np.multiply(g, x, out=out[:, 0, 1])
        out[:, 1, 0] = out[:, 0, 1]
        np.multiply(g, xx, out=out[:, 1, 1])
        return out

    return MomentModel(
        fn=fn, n_params=2, n_moments=2, bounds=bounds, jacobian=jacobian, smooth=True
    )
