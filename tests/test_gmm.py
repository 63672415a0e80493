"""Tests for the GMM layer: objective, fit, sandwich pieces, moment models."""

import math

import numpy as np
import pytest

from multiway import (
    ConvergenceError, Dimensions, ModelError, UnsupportedError, load_sample, ratio_estimate
)
from multiway.errors import SingularVarianceError
from multiway.gmm import (
    MomentModel,
    OptimizerConfig,
    WeightMatrix,
    cell_moment_sums,
    gmm_bootstrap_estimator,
    gmm_fit,
    gmm_hhat,
    gmm_jhat,
    gmm_objective,
    gmm_variance,
    moment_bar,
    probit_score_moments,
    quantile_iv_moments,
)
from multiway.bootstrap import draw_weights
from multiway.data import sample_from_cell_ids
from multiway.variance import vhat1
from multiway.estimators import quantile_estimate, EcdfSpec
from multiway.estimators import fit as estimators_fit

from oracles import all_coords, vhat1_pairs


def sample_from_values(values, counts):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    coords = all_coords(counts)
    records = [
        (coords[i % len(coords)], row.tolist()) for i, row in enumerate(values)
    ]
    return load_sample(records, Dimensions(counts))


def mean_moment(bounds=((-10.0, 10.0),)):
    return MomentModel(
        fn=lambda v, t: v[:, [0]] - t[0],
        n_params=1,
        n_moments=1,
        bounds=np.asarray(bounds),
        jacobian=lambda v, t: np.full((v.shape[0], 1, 1), -1.0),
    )


def linear_iv_moment(y_col, x_cols, z_cols, bounds):
    x_cols, z_cols = list(x_cols), list(z_cols)

    def fn(values, theta):
        resid = values[:, y_col] - values[:, x_cols] @ theta
        return values[:, z_cols] * resid[:, None]

    def jacobian(values, theta):
        return -values[:, z_cols][:, :, None] * values[:, x_cols][:, None, :]

    return MomentModel(
        fn=fn,
        n_params=len(x_cols),
        n_moments=len(z_cols),
        bounds=np.asarray(bounds),
        jacobian=jacobian,
    )


# -- objective ---------------------------------------------------------


def test_objective_zero_at_pooled_mean():
    rng = np.random.default_rng(1)
    sample = sample_from_values(rng.normal(size=30), (3, 2))
    model = mean_moment()
    theta = sample.values[:, 0].sum() / sample.n_units
    assert gmm_objective(sample, model, WeightMatrix.identity(1), [theta]) < 1e-12


def test_objective_identity_weight_is_euclidean_norm():
    rng = np.random.default_rng(2)
    sample = sample_from_values(rng.normal(size=(20, 3)), (2, 2))
    model = linear_iv_moment(0, [1], [1, 2], [(-5, 5)])
    theta = np.array([0.3])
    mb = moment_bar(sample, model, theta)
    got = gmm_objective(sample, model, WeightMatrix.identity(2), theta)
    assert got == pytest.approx(np.linalg.norm(mb), rel=1e-12)


def test_objective_matches_composition_oracle():
    rng = np.random.default_rng(3)
    sample = sample_from_values(rng.normal(size=(24, 3)), (2, 3))
    model = linear_iv_moment(0, [1], [1, 2], [(-5, 5)])
    a = rng.normal(size=(2, 2))
    xi = WeightMatrix(a @ a.T + 2 * np.eye(2))
    theta = np.array([rng.normal()])
    # per-unit loop oracle
    total = np.zeros(2)
    for row in sample.values:
        total += np.array([row[1], row[2]]) * (row[0] - row[1] * theta[0])
    mb = total / sample.dims.pi_c
    expected = math.sqrt(mb @ xi.xi @ mb)
    got = gmm_objective(sample, model, xi, theta)
    assert got == pytest.approx(expected, rel=1e-10)


def test_objective_scale_invariant_argmin():
    rng = np.random.default_rng(4)
    sample = sample_from_values(rng.normal(size=40), (4, 2))
    model = mean_moment()
    f1 = gmm_fit(sample, model, WeightMatrix(np.array([[1.0]])))
    f2 = gmm_fit(sample, model, WeightMatrix(np.array([[7.0]])))
    assert f1.theta[0] == pytest.approx(f2.theta[0], abs=1e-8)
    assert f2.meta["objective_value"] == pytest.approx(
        math.sqrt(7) * f1.meta["objective_value"], rel=1e-6, abs=1e-12
    )


@pytest.mark.parametrize(
    "xi", [np.full((2, 2), np.nan), [[np.inf, 0.0], [0.0, 1.0]]], ids=["nan", "inf"]
)
def test_weight_matrix_refuses_non_finite_entries(xi):
    # caught before the symmetry check, whose NaN comparison would let NaN through
    with pytest.raises(SingularVarianceError, match="^weight matrix must be finite$"):
        WeightMatrix(xi)


# -- fit ---------------------------------------------------------------


def test_fit_mean_moment_reproduces_ratio_estimate():
    rng = np.random.default_rng(5)
    sample = sample_from_values(rng.normal(size=45), (3, 3))
    res = gmm_fit(sample, mean_moment())
    expected = ratio_estimate(sample).theta
    np.testing.assert_allclose(res.theta, expected, atol=1e-8)


def test_fit_linear_iv_matches_2sls_closed_form():
    rng = np.random.default_rng(6)
    n = 60
    z = rng.normal(size=n)
    x = 0.8 * z + 0.3 * rng.normal(size=n)
    y = 1.5 * x + rng.normal(size=n)
    sample = sample_from_values(np.column_stack([y, x, z]), (3, 3))
    model = linear_iv_moment(0, [1], [2], [(-5, 5)])
    res = gmm_fit(sample, model)
    closed_form = (z @ y) / (z @ x)
    assert res.theta[0] == pytest.approx(closed_form, abs=1e-8)


def test_fit_optimizer_audit_grid():
    rng = np.random.default_rng(7)
    sample = sample_from_values(rng.normal(size=30), (5, 2))
    model = mean_moment()
    xi = WeightMatrix.identity(1)
    res = gmm_fit(sample, model, xi)
    grid = np.linspace(-10, 10, 100)
    vals = [gmm_objective(sample, model, xi, [t]) for t in grid]
    assert res.meta["objective_value"] <= min(vals) + 1e-9


def test_fit_two_step_runs():
    rng = np.random.default_rng(8)
    n = 50
    z1, z2 = rng.normal(size=n), rng.normal(size=n)
    x = z1 + 0.5 * z2 + 0.2 * rng.normal(size=n)
    y = -0.7 * x + rng.normal(size=n)
    sample = sample_from_values(np.column_stack([y, x, z1, z2]), (5, 2))
    model = linear_iv_moment(0, [1], [2, 3], [(-5, 5)])
    res = gmm_fit(sample, model, two_step=True)
    assert not np.array_equal(res.meta["weight"].xi, np.eye(2))
    assert abs(res.theta[0] + 0.7) < 0.5
    v = gmm_variance(res.meta["jhat"], gmm_hhat(sample, model, res.theta), res.meta["weight"])
    assert v.shape == (1, 1)


# -- jhat / hhat / variance --------------------------------------------


def test_jhat_mean_moment_is_minus_mean_cell_size():
    rng = np.random.default_rng(9)
    sample = sample_from_values(rng.normal(size=33), (3, 2))
    j = gmm_jhat(sample, mean_moment(), np.array([0.0]))
    assert j[0, 0] == pytest.approx(-sample.n_units / sample.dims.pi_c, rel=1e-12)


def test_jhat_linear_iv():
    rng = np.random.default_rng(10)
    vals = rng.normal(size=(40, 3))
    sample = sample_from_values(vals, (2, 2))
    model = linear_iv_moment(0, [1], [2], [(-5, 5)])
    j = gmm_jhat(sample, model, np.array([0.4]))
    expected = -(sample.values[:, 2] @ sample.values[:, 1]) / sample.dims.pi_c
    assert j[0, 0] == pytest.approx(expected, rel=1e-12)


def test_jhat_finite_difference_matches_analytic():
    rng = np.random.default_rng(11)
    vals = np.column_stack([rng.uniform(1, 2, size=30)])
    sample = sample_from_values(vals, (3, 2))

    def fn(v, t):
        return np.exp(t[0] * v[:, [0]]) - t[1]

    def jac(v, t):
        out = np.empty((v.shape[0], 1, 2))
        out[:, 0, 0] = v[:, 0] * np.exp(t[0] * v[:, 0])
        out[:, 0, 1] = -1.0
        return out

    stacked = MomentModel(
        lambda v, t: np.hstack([fn(v, t), v[:, [0]] * fn(v, t)]),
        2,
        2,
        np.array([[-2, 2], [-5, 5]]),
        jacobian=lambda v, t: np.concatenate(
            [jac(v, t), v[:, [0]][:, :, None] * jac(v, t)], axis=1
        ),
    )
    theta = np.array([0.5, 1.3])
    analytic = gmm_jhat(sample, stacked, theta)
    no_jac = MomentModel(stacked.fn, 2, 2, stacked.bounds, jacobian=None, smooth=True)
    fd = gmm_jhat(sample, no_jac, theta)
    np.testing.assert_allclose(fd, analytic, rtol=1e-5)


def test_jhat_nonsmooth_without_jacobian_raises():
    sample = sample_from_values(np.ones((4, 3)), (2, 2))
    model = quantile_iv_moments(0.5, 0, [1], [2])
    with pytest.raises(ModelError):
        gmm_jhat(sample, model, np.array([0.0]))


def test_hhat_zero_when_cell_sums_vanish():
    sample = sample_from_values(np.zeros(8), (2, 2))
    h = gmm_hhat(sample, mean_moment(), np.array([0.0]))
    np.testing.assert_array_equal(h, [[0.0]])


def test_hhat_one_way_collapse():
    rng = np.random.default_rng(12)
    sample = sample_from_values(rng.normal(size=24), (6,))
    theta = np.array([0.3])
    d = cell_moment_sums(sample, mean_moment(), theta).values
    h = gmm_hhat(sample, mean_moment(), theta)
    np.testing.assert_allclose(h, d.T @ d / 6, rtol=1e-12)


def test_hhat_matches_pair_sum_oracle():
    rng = np.random.default_rng(13)
    sample = sample_from_values(rng.normal(size=(30, 3)), (3, 3))
    model = linear_iv_moment(0, [1], [1, 2], [(-5, 5)])
    theta = np.array([0.7])
    h = gmm_hhat(sample, model, theta)
    d = cell_moment_sums(sample, model, theta).values
    np.testing.assert_allclose(h, vhat1_pairs(d, (3, 3)), rtol=1e-12)


def test_variance_identity_bread():
    rng = np.random.default_rng(14)
    h = rng.normal(size=(2, 2))
    h = h @ h.T
    v = gmm_variance(np.eye(2), h, WeightMatrix.identity(2))
    np.testing.assert_allclose(v, h, rtol=1e-12)


def test_variance_mean_moment_equals_ratio_construction():
    rng = np.random.default_rng(15)
    sample = sample_from_values(rng.normal(size=36), (3, 3))
    res = estimators_fit("gmm", sample, model=mean_moment())
    ratio = ratio_estimate(sample)
    expected = vhat1(ratio.scores).matrix
    np.testing.assert_allclose(res.variance("v1").matrix, expected, rtol=1e-8)


def test_variance_matches_composition_oracle():
    rng = np.random.default_rng(16)
    j = rng.normal(size=(3, 2))
    h = rng.normal(size=(3, 3))
    h = h @ h.T
    a = rng.normal(size=(3, 3))
    xi = WeightMatrix(a @ a.T + np.eye(3))
    bread_inv = np.linalg.inv(j.T @ xi.xi @ j)
    expected = bread_inv @ j.T @ xi.xi @ h @ xi.xi @ j @ bread_inv
    got = gmm_variance(j, h, xi)
    np.testing.assert_allclose(got, expected, rtol=1e-12)


# -- quantile IV -------------------------------------------------------


def test_quantile_iv_reduces_to_pooled_median():
    rng = np.random.default_rng(17)
    w = rng.normal(size=36)
    vals = np.column_stack([w, np.ones(36), np.ones(36)])
    sample = sample_from_values(vals, (3, 3))
    model = quantile_iv_moments(0.5, 0, [1], [2], bounds=[(-5, 5)])
    res = gmm_fit(sample, model)
    med = quantile_estimate(sample, EcdfSpec(0), 0.5).theta[0]
    # the objective is flat between adjacent order statistics, so compare
    # through the ECDF level rather than the point itself
    below_fit = np.mean(w <= res.theta[0])
    below_med = np.mean(w <= med)
    assert below_fit == pytest.approx(below_med, abs=1 / 36)


def test_quantile_iv_extreme_theta():
    rng = np.random.default_rng(18)
    n = 20
    w = rng.uniform(1, 2, size=n)
    z = rng.uniform(0.5, 1.5, size=n)
    vals = np.column_stack([w, np.ones(n), z])
    sample = sample_from_values(vals, (2, 2))
    tau = 0.3
    model = quantile_iv_moments(tau, 0, [1], [2], bounds=[(-5, 5)])
    zbar = z.sum() / sample.dims.pi_c
    # theta = -5: w - x theta = w + 5 > 0, indicators all zero
    np.testing.assert_allclose(
        moment_bar(sample, model, np.array([-5.0])), [tau * zbar], rtol=1e-12
    )
    # theta = +5: indicators all one
    np.testing.assert_allclose(
        moment_bar(sample, model, np.array([5.0])), [(tau - 1) * zbar], rtol=1e-12
    )


def test_quantile_iv_recovers_known_theta():
    # W = X theta0 + U with median-zero U: the conditional median is X theta0
    theta0 = 1.25
    reps = 20
    fits = []
    for r in range(reps):
        rng = np.random.default_rng(100 + r)
        n = 900
        x = rng.uniform(0.5, 2.0, size=n)
        u = rng.normal(size=n)
        w = x * theta0 + u
        sample = sample_from_values(np.column_stack([w, x, x]), (30, 30))
        model = quantile_iv_moments(0.5, 0, [1], [2], bounds=[(-5, 5)])
        fits.append(gmm_fit(sample, model).theta[0])
    fits = np.asarray(fits)
    se_of_mean = fits.std(ddof=1) / math.sqrt(reps)
    assert abs(fits.mean() - theta0) < 3 * se_of_mean + 1e-3


def _two_regressors():
    theta0 = np.array([1.0, -0.5])
    rng = np.random.default_rng(1)
    n = 900
    x1 = rng.uniform(0.5, 2.0, size=n)
    x2 = rng.uniform(-1.0, 1.0, size=n)
    w = x1 * theta0[0] + x2 * theta0[1] + rng.normal(size=n)
    sample = sample_from_values(np.column_stack([w, x1, x2, x1, x2]), (30, 30))
    model = quantile_iv_moments(0.5, 0, [1, 2], [3, 4], bounds=[(-5, 5), (-5, 5)])
    return theta0, sample, model


def _intercept_and_slope():
    """A constant regressor in the default +-10 box: on 300 units the
    objective is a step function flat over scipy's default start simplex."""
    theta0 = np.array([0.5, 1.5])
    rng = np.random.default_rng(3)
    ids = rng.integers(0, 30, 300)
    x2 = rng.normal(size=300)
    w = theta0[0] + theta0[1] * x2 + rng.normal(size=300)
    values = np.column_stack([w, np.ones(300), x2])
    sample = sample_from_cell_ids(Dimensions((6, 5)), ids, values)
    return theta0, sample, quantile_iv_moments(0.5, 0, [1, 2], [1, 2])


@pytest.mark.parametrize("design", [_two_regressors, _intercept_and_slope])
def test_quantile_iv_two_parameters_nelder_mead(design):
    # p = 2 exercises the derivative-free multistart path
    theta0, sample, model = design()
    fit = estimators_fit("gmm", sample, model=model)
    with pytest.raises(UnsupportedError, match="Jacobian"):
        fit.variance("v1")
    assert np.all(np.abs(fit.theta - theta0) < 0.35)
    # moment norm at the optimum beats the norm at the truth's neighborhood scale
    obj_true = gmm_objective(sample, model, WeightMatrix.identity(2), theta0)
    assert fit.meta["objective_value"] <= obj_true + 1e-9


def test_nelder_mead_spends_from_max_evals():
    # each of the 5 starts gets 50 // 5 = 10 evaluations, too few to converge;
    # a floor of 100 per start would spend 415 of the 50 and converge
    _, sample, _ = _intercept_and_slope()
    model = quantile_iv_moments(0.5, 0, [1, 2], [1, 2], bounds=[(-3, 3), (-3, 3)])
    with pytest.raises(ConvergenceError, match="Nelder-Mead"):
        gmm_fit(sample, model, config=OptimizerConfig(n_starts=5, max_evals=50))


def test_quantile_iv_validates_tau():
    with pytest.raises(ValueError):
        quantile_iv_moments(1.5, 0, [1], [2])


# -- probit ------------------------------------------------------------


def test_probit_lambda_at_zero():
    model = probit_score_moments(0, 1)
    vals = np.array([[1.0, 0.7]])
    m = model.moments(vals, np.array([0.0, 0.0]))
    root_2_over_pi = math.sqrt(2 / math.pi)
    assert m[0, 0] == pytest.approx(root_2_over_pi, abs=1e-4)
    assert m[0, 1] == pytest.approx(0.7 * root_2_over_pi, abs=1e-4)


def test_probit_sign_symmetry():
    model = probit_score_moments(0, 1)
    x = 0.42
    beta = np.array([0.3, -0.8])
    s0 = model.moments(np.array([[0.0, x]]), beta)
    s1 = model.moments(np.array([[1.0, x]]), -beta)
    np.testing.assert_allclose(s0, -s1, rtol=1e-12)


def test_probit_rejects_non_binary_outcome():
    model = probit_score_moments(0, 1)
    with pytest.raises(ModelError):
        model.moments(np.array([[0.5, 1.0]]), np.array([0.0, 0.0]))


def test_probit_jacobian_matches_finite_differences():
    rng = np.random.default_rng(19)
    n = 25
    vals = np.column_stack([rng.integers(0, 2, size=n).astype(float), rng.normal(size=n)])
    sample = sample_from_values(vals, (5, 5))
    model = probit_score_moments(0, 1)
    theta = np.array([0.2, 0.9])
    analytic = gmm_jhat(sample, model, theta)
    fd_model = MomentModel(model.fn, 2, 2, model.bounds, jacobian=None, smooth=True)
    fd = gmm_jhat(sample, fd_model, theta)
    np.testing.assert_allclose(analytic, fd, rtol=1e-5)


def test_probit_recovers_coefficients():
    rng = np.random.default_rng(20)
    n = 400
    beta = np.array([0.0, 1.0])
    x = rng.normal(size=n)
    ystar = beta[0] + beta[1] * x + rng.normal(size=n)
    y = (ystar > 0).astype(float)
    sample = sample_from_values(np.column_stack([y, x]), (20, 20))
    res = estimators_fit("gmm", sample, model=probit_score_moments(0, 1))
    se = np.sqrt(np.diag(res.variance("v1").matrix) / sample.dims.c_min)
    assert np.all(np.abs(res.theta - beta) < 3 * se)
    assert np.all(np.abs(res.theta - beta) < 0.5)


def test_probit_stable_at_extreme_index():
    model = probit_score_moments(0, 1)
    m = model.moments(np.array([[1.0, 30.0], [0.0, 30.0]]), np.array([0.0, 1.0]))
    assert np.all(np.isfinite(m))
    # Phi(-30) underflows naive evaluation; lambda ~ |index| there
    assert m[1, 0] == pytest.approx(-30.0, rel=0.05)


# -- bootstrap hook ----------------------------------------------------


def test_gmm_bootstrap_estimator_identity_weights():
    rng = np.random.default_rng(21)
    sample = sample_from_values(rng.normal(size=32), (4, 2))
    model = mean_moment()
    fit = gmm_fit(sample, model)
    est = gmm_bootstrap_estimator(model, warm_start=fit.theta)
    from multiway import PigeonholeWeights

    same = est(sample, PigeonholeWeights.identity(sample.dims))
    np.testing.assert_allclose(same, fit.theta, atol=1e-9)


def test_gmm_bootstrap_estimator_matches_weighted_closed_form():
    rng = np.random.default_rng(22)
    sample = sample_from_values(rng.normal(size=24), (3, 2))
    model = mean_moment()
    fit = gmm_fit(sample, model)
    est = gmm_bootstrap_estimator(model, warm_start=fit.theta)
    w = draw_weights(sample.dims, rng)
    uw = w.cell_weights()[sample.unit_cell_ids]
    if uw.sum() == 0:
        pytest.skip("degenerate draw")
    expected = (uw * sample.values[:, 0]).sum() / uw.sum()
    got = est(sample, w)
    assert got[0] == pytest.approx(expected, abs=1e-8)
