"""One sandwich: ``gmm_variance`` builds every bread, OLS's included.

OLS is exactly identified GMM with Xi = I, so its variance J^-1 H J^-T is
``gmm_variance`` of its square J, solved directly rather than through
J' J, which would square the condition number."""

import numpy as np
import pytest

from multiway import Dimensions, LinearModelSpec, SingularDesignError, load_sample, ols_fit
from multiway.gmm import MomentModel, WeightMatrix, gmm_fit, gmm_variance
from multiway.variance import estimate_variance, vhat1

from oracles import all_coords

DIMS = (6, 5)
SPEC = LinearModelSpec(outcome_index=0, regressor_indices=(1,))


def _ols_sample(x_center, x_scale, per_cell, seed):
    rng = np.random.default_rng(seed)
    coords = all_coords(DIMS) * per_cell
    x = x_center + x_scale * rng.normal(size=len(coords))
    y = 1.0 + 0.5 * x + rng.normal(size=len(coords))
    return load_sample([(c, [a, b]) for c, a, b in zip(coords, y, x)], Dimensions(DIMS))


def _two_solves(j, h):
    # the bread OLS used before it moved into gmm_variance, in LAPACK
    v = np.linalg.solve(j, np.linalg.solve(j, h).T).T
    return 0.5 * (v + v.T)


@pytest.mark.parametrize("kind", ["v1", "v2", "cgm"])
def test_ols_variance_is_the_two_solve_sandwich_byte_for_byte(kind):
    res = ols_fit(_ols_sample(0.0, 1.0, 2, seed=1), SPEC)
    meat = estimate_variance(res.scores, kind).matrix
    got = res.variance(kind).matrix
    sandwich = gmm_variance(res.meta["jhat"], meat, WeightMatrix.identity(2))
    assert got.tobytes() == sandwich.tobytes()
    np.testing.assert_allclose(got, _two_solves(res.meta["jhat"], meat), rtol=1e-12, atol=0)


def test_ill_conditioned_ols_design_is_accepted_bit_for_bit():
    # a regressor centred at 100: J' J would spread past the 1e12 cap
    res = ols_fit(_ols_sample(100.0, 1.0, 4, seed=0), SPEC)
    assert res.meta["gram_condition"] > 1e8
    h = vhat1(res.scores).matrix
    got = gmm_variance(res.meta["jhat"], h, WeightMatrix.identity(2))
    assert got.tobytes() == res.variance("v1").matrix.tobytes()


def _mean_moment_jhat():
    """J of the 2-d mean moment y - theta: -(mean cell size) I."""
    values = np.random.default_rng(5).normal(size=(3 * 30, 2))
    coords = all_coords(DIMS) * 3
    sample = load_sample([(c, v.tolist()) for c, v in zip(coords, values)], Dimensions(DIMS))
    model = MomentModel(
        fn=lambda v, t: v - t,
        n_params=2,
        n_moments=2,
        bounds=np.array([[-10.0, 10.0]] * 2),
        jacobian=lambda v, t: np.broadcast_to(-np.eye(2), (v.shape[0], 2, 2)),
    )
    jhat = gmm_fit(sample, model).meta["jhat"]
    np.testing.assert_array_equal(jhat, -3.0 * np.eye(2))
    return jhat


def _nonsymmetric_jhat():
    return np.random.default_rng(6).normal(size=(3, 3))


@pytest.mark.parametrize("make_j", [_nonsymmetric_jhat, _mean_moment_jhat])
def test_square_j_sandwich_matches_the_inverse(make_j):
    j = make_j()
    rng = np.random.default_rng(7)
    a = rng.normal(size=j.shape)
    h = a @ a.T
    jinv = np.linalg.inv(j)
    expected = jinv @ h @ jinv.T
    # Xi cancels for a square J
    xi = WeightMatrix(a.T @ a + np.eye(len(j)))
    for weight in (WeightMatrix.identity(len(j)), xi):
        np.testing.assert_allclose(gmm_variance(j, h, weight), expected, rtol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_j_raises_singular_design(bad):
    j = np.array([[2.0, 0.5], [0.1, bad]])
    with pytest.raises(SingularDesignError, match="not finite"):
        gmm_variance(j, np.eye(2), WeightMatrix.identity(2))
