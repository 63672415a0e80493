"""Gauss-Newton refuses a non-finite Jacobian or step instead of calling the
point stationary.

A NaN step fails every halving of the line search; before this refusal the
loop returned that theta as converged, so a bootstrap replicate whose
Jacobian turned non-finite after its first step came back as a success.
"""

import math
import warnings

import numpy as np
import pytest

from multiway import Dimensions
from multiway.bootstrap import run_bootstrap
from multiway.data import sample_from_cell_ids
from multiway.errors import InsufficientReplicatesError, SingularDesignError
from multiway.gmm import MomentModel, _Budget, _gauss_newton, gmm_bootstrap_estimator

BOX = np.tile([-10.0, 10.0], (2, 1))


def _residual(t):
    return np.array([t[0] - 1.0, t[1] - 2.0])


def test_a_nan_jacobian_raises():
    with pytest.raises(SingularDesignError, match=r"J is not finite at theta=\[0. 0.\]"):
        _gauss_newton(_residual, lambda t: np.full((2, 2), np.nan), np.zeros(2), BOX, 1e-9,
                      _Budget(100))


def test_a_jacobian_that_turns_nan_after_the_first_step_raises():
    calls = []

    def jac(t):
        calls.append(t.copy())
        return [[1.0, 0.5], [0.0, 1.0]] if len(calls) == 1 else [[math.nan, 0.0], [0.0, 1.0]]

    def residual(t):  # nonlinear, so one step does not reach the floor
        return [math.exp(t[0]) - 2.0, t[1] - 2.0]

    with pytest.raises(SingularDesignError, match="J is not finite"):
        _gauss_newton(residual, jac, np.zeros(2), BOX, 1e-9, _Budget(100))
    assert len(calls) == 2


def test_a_finite_jacobian_whose_step_overflows_raises():
    # J'J is subnormal, the ridge keeps its Cholesky going, and J'r / J'J overflows
    jac = [[1e-156, 0.0], [0.0, 1e-156]]
    with pytest.raises(SingularDesignError, match="J is not finite"):
        _gauss_newton(lambda t: [1e154, 0.0], lambda t: jac, np.zeros(2), BOX, 1e-9,
                      _Budget(100))


def test_a_normal_matrix_the_cholesky_refuses_ends_the_start_unconverged():
    # finite J whose J'J overflows: no step, as a LinAlgError from solve used to do
    theta, value, ok = _gauss_newton(_residual, lambda t: [[1e200, 0.0], [0.0, 1.0]],
                                     np.zeros(2), BOX, 1e-9, _Budget(100))
    assert not ok and theta.tolist() == [0.0, 0.0] and value == math.sqrt(5.0)


def test_a_finite_problem_still_converges():
    theta, value, ok = _gauss_newton(_residual, lambda t: np.eye(2), np.zeros(2), BOX, 1e-9,
                                     _Budget(100))
    assert ok and np.allclose(theta, [1.0, 2.0], rtol=1e-11) and value < 1e-11


def _exp_sample():
    rng = np.random.default_rng(11)
    dims = Dimensions((8, 8))
    ids = np.repeat(np.arange(dims.pi_c), rng.poisson(3.0, dims.pi_c))
    y = rng.lognormal(0.5, 0.4, size=ids.shape[0])
    return sample_from_cell_ids(dims, ids, y[:, None])


def _exp_model(nan_from):
    """m = y - exp(theta), whose Jacobian is NaN for theta > ``nan_from``."""

    def jacobian(values, theta):
        d = -math.exp(theta[0]) if theta[0] <= nan_from else math.nan
        return np.full((values.shape[0], 1, 1), d)

    return MomentModel(
        fn=lambda v, t: v - math.exp(t[0]), n_params=1, n_moments=1,
        bounds=np.array([[-5.0, 5.0]]), jacobian=jacobian,
    )


def test_bootstrap_replicates_with_a_nan_jacobian_fail_and_are_counted():
    sample = _exp_sample()
    theta_hat = np.array([math.log(sample.values[:, 0].mean())])
    # NaN above theta-hat: replicates whose first step goes up fail on
    # their second Jacobian, the others converge as before
    hook = gmm_bootstrap_estimator(_exp_model(theta_hat[0]), warm_start=theta_hat)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        reps = run_bootstrap(hook, sample, theta_hat, b=60, seed=2)
    assert 0 < reps.n_failed < 60
    assert (reps.thetas[:, 0] <= theta_hat[0]).all()
    assert any("bootstrap replicates failed" in str(w.message) for w in caught)

    everywhere = gmm_bootstrap_estimator(_exp_model(-math.inf), warm_start=theta_hat)
    with pytest.raises(InsufficientReplicatesError, match=r"SingularDesignError x60"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_bootstrap(everywhere, sample, theta_hat, b=60, seed=2)
