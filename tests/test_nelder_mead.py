"""The numpy Nelder-Mead port against scipy's bounded, non-adaptive
``minimize(method="Nelder-Mead")``, bit for bit: the point, its objective,
the evaluations spent and the converged flag, start by start, on the
quantile-IV designs of ``test_gmm.py`` and ``test_optimizer_budget.py``
and at per-start budgets from 0 to the default. scipy is a test-only
reference here; the package does not import it.
"""

import numpy as np
import pytest
from scipy import optimize

from multiway import ConvergenceError, Dimensions
from multiway.data import sample_from_cell_ids
from multiway.gmm import (
    OptimizerConfig, WeightMatrix, _nelder_mead, _starts, gmm_fit, gmm_objective,
    quantile_iv_moments,
)
from test_gmm import _intercept_and_slope, _two_regressors
from test_optimizer_budget import _design

DEFAULT = OptimizerConfig()
BUDGETS = [0, 1, 2, 10, DEFAULT.max_evals // DEFAULT.n_starts]


def _wide(p):
    """W = X beta + U on 6x5 cells with p - 1 normal regressors and a constant."""
    rng = np.random.default_rng(10 + p)
    ids = rng.integers(0, 30, 400)
    x = np.column_stack([np.ones(400), rng.normal(size=(400, p - 1))])
    w = x @ np.linspace(-1.0, 1.0, p) + rng.normal(size=400)
    sample = sample_from_cell_ids(Dimensions((6, 5)), ids, np.column_stack([w, x]))
    cols = list(range(1, p + 1))
    return sample, quantile_iv_moments(0.5, 0, cols, cols, bounds=[(-4, 4)] * p)


DESIGNS = {
    "two-regressors": lambda: _two_regressors()[1:],
    "intercept-and-slope": lambda: _intercept_and_slope()[1:],
    "intercept-and-slope-3": lambda: (
        _intercept_and_slope()[1],
        quantile_iv_moments(0.5, 0, [1, 2], [1, 2], bounds=[(-3, 3), (-3, 3)]),
    ),
    "budget-design": lambda: (_design(), quantile_iv_moments(0.5, 0, [1, 2], [1, 2])),
    "budget-design-tau": lambda: (_design(), quantile_iv_moments(0.25, 0, [1, 2], [1, 2])),
    "three-coefficients": lambda: _wide(3),
    "four-coefficients": lambda: _wide(4),
}


def _scipy(value, x0, lo, hi, maxfev):
    step = 0.1 * (hi - lo)
    simplex = np.vstack([x0, x0 + np.diag(np.where(x0 + step > hi, -step, step))])
    return optimize.minimize(
        value, x0, method="Nelder-Mead", bounds=np.column_stack([lo, hi]),
        options={"maxfev": maxfev, "xatol": 1e-7, "fatol": 1e-10,
                 "initial_simplex": simplex},
    )


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("design", list(DESIGNS))
def test_port_equals_scipy_bit_for_bit(design, budget):
    sample, model = DESIGNS[design]()
    xi = WeightMatrix.identity(model.n_moments)

    def value(theta):
        return gmm_objective(sample, model, xi, theta)

    lo, hi = model.bounds[:, 0], model.bounds[:, 1]
    for start in _starts(model, DEFAULT):
        x0 = np.clip(start, lo, hi)
        x, fun, nfev, ok = _nelder_mead(value, x0, lo, hi, budget)
        ref = _scipy(value, x0, lo, hi, budget)
        assert x.tobytes() == ref.x.tobytes()
        assert np.float64(fun).tobytes() == np.float64(ref.fun).tobytes()
        assert (nfev, ok) == (ref.nfev, ref.success)
        assert nfev <= budget


@pytest.mark.parametrize("design", ["two-regressors", "intercept-and-slope"])
def test_fit_is_the_best_of_scipy_starts(design):
    # the multistart fit keeps the best start, so it reaches scipy's theta
    # and objective
    sample, model = DESIGNS[design]()
    xi = WeightMatrix.identity(model.n_moments)

    def value(theta):
        return gmm_objective(sample, model, xi, theta)

    lo, hi = model.bounds[:, 0], model.bounds[:, 1]
    per_start = DEFAULT.max_evals // DEFAULT.n_starts
    runs = [_scipy(value, np.clip(s, lo, hi), lo, hi, per_start) for s in _starts(model, DEFAULT)]
    best = min(runs, key=lambda r: r.fun)
    fit = gmm_fit(sample, model)
    assert fit.theta.tobytes() == best.x.tobytes()
    assert fit.meta["objective_value"] == best.fun
    assert fit.meta["n_evaluations"] == sum(r.nfev for r in runs)


def test_a_budget_below_one_evaluation_per_start_evaluates_nothing():
    # max_evals 3 < n_starts 5: every start gets 3 // 5 = 0 evaluations
    sample, model = DESIGNS["budget-design"]()
    calls = []

    def value(theta):
        calls.append(theta)
        return 0.0

    x, fun, nfev, ok = _nelder_mead(value, np.zeros(2), -np.ones(2), np.ones(2), 0)
    assert (calls, nfev, ok, fun) == ([], 0, False, np.inf)
    with pytest.raises(ConvergenceError, match="Nelder-Mead") as exc:
        gmm_fit(sample, model, config=OptimizerConfig(n_starts=5, max_evals=3))
    assert exc.value.best_theta is None
