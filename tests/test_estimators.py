"""Tests for mean, ratio, OLS and quantile estimators."""

import numpy as np
import pytest

from multiway import (
    Dimensions,
    EcdfSpec,
    EmptySampleError,
    LinearModelSpec,
    PigeonholeWeights,
    SingularDesignError,
    draw_weights,
    load_sample,
    mean_estimate,
    ols_fit,
    ols_sandwich,
    quantile_estimate,
    ratio_estimate,
)
from multiway.estimators import (
    OlsCellData,
    quantile_data,
    ratio_cell_sums,
    weighted_mean,
    weighted_ols,
    weighted_quantile,
    weighted_ratio,
)
from multiway.data import cell_sums

from oracles import all_coords, vhat1_pairs


def random_sample(rng, counts, n_records, obs_dim=1):
    coords = all_coords(counts)
    records = [
        (coords[rng.integers(0, len(coords))], rng.normal(size=obs_dim).tolist())
        for _ in range(n_records)
    ]
    return load_sample(records, Dimensions(counts), obs_dim=obs_dim)


# -- mean --------------------------------------------------------------


def test_mean_single_cell():
    sample = load_sample([((1, 1), [7.0])], Dimensions((1, 1)))
    res = mean_estimate(sample)
    assert res.theta.tolist() == [7.0]
    np.testing.assert_array_equal(res.scores.values, [[0.0]])


def test_mean_of_cell_sums():
    records = [((1, 1), [1.0]), ((1, 2), [2.0]), ((2, 1), [3.0]), ((2, 2), [4.0])]
    res = mean_estimate(load_sample(records, Dimensions((2, 2))))
    assert res.theta.tolist() == [2.5]


def test_mean_matches_per_unit_oracle():
    rng = np.random.default_rng(41)
    sample = random_sample(rng, (3, 4), 80, obs_dim=2)
    res = mean_estimate(sample)
    np.testing.assert_allclose(
        res.theta, sample.values.sum(axis=0) / sample.dims.pi_c, rtol=1e-12
    )


def test_mean_scores_sum_to_zero():
    rng = np.random.default_rng(43)
    sample = random_sample(rng, (4, 3), 60)
    res = mean_estimate(sample)
    total = np.abs(res.scores.values.sum(axis=0))
    assert np.all(total <= 1e-10 * np.abs(res.scores.values).sum(axis=0) + 1e-14)


def test_weighted_mean_identity_reproduces_theta():
    rng = np.random.default_rng(47)
    sample = random_sample(rng, (3, 3), 50)
    sums = cell_sums(sample)
    res = mean_estimate(sample)
    got = weighted_mean(sums, PigeonholeWeights.identity(sample.dims))
    np.testing.assert_array_equal(got, res.theta)


# -- ratio -------------------------------------------------------------


def test_ratio_equals_mean_for_unit_cells():
    records = [(c, [float(i)]) for i, c in enumerate(all_coords((3, 2)))]
    sample = load_sample(records, Dimensions((3, 2)))
    np.testing.assert_allclose(
        ratio_estimate(sample).theta, mean_estimate(sample).theta, rtol=1e-12
    )


def test_ratio_single_occupied_cell():
    sample = load_sample([((1, 1), [2.0]), ((1, 1), [4.0])], Dimensions((2, 1)))
    assert ratio_estimate(sample).theta.tolist() == [3.0]


def test_ratio_matches_per_unit_oracle():
    rng = np.random.default_rng(53)
    sample = random_sample(rng, (3, 3), 70, obs_dim=2)
    res = ratio_estimate(sample)
    np.testing.assert_allclose(
        res.theta, sample.values.mean(axis=0), rtol=1e-12
    )


def test_ratio_scores_sum_to_zero():
    rng = np.random.default_rng(59)
    sample = random_sample(rng, (4, 4), 90)
    res = ratio_estimate(sample)
    total = np.abs(res.scores.values.sum(axis=0))
    assert np.all(total <= 1e-10 * np.abs(res.scores.values).sum(axis=0) + 1e-14)


def test_ratio_empty_sample():
    with pytest.raises(EmptySampleError):
        ratio_estimate(load_sample([], Dimensions((2, 2))))


def test_weighted_ratio_identity_reproduces_theta():
    rng = np.random.default_rng(61)
    sample = random_sample(rng, (3, 3), 40)
    sums = ratio_cell_sums(sample)
    got = weighted_ratio(sums, PigeonholeWeights.identity(sample.dims))
    np.testing.assert_array_equal(got, ratio_estimate(sample).theta)


# -- OLS ---------------------------------------------------------------


def make_linear_sample(rng, counts, n, beta, noise=0.0):
    coords = all_coords(counts)
    records = []
    for _ in range(n):
        x = rng.normal(size=len(beta) - 1)
        y = beta[0] + x @ beta[1:] + noise * rng.normal()
        records.append(
            (coords[rng.integers(0, len(coords))], [y, *x.tolist()])
        )
    return load_sample(records, Dimensions(counts))


def test_ols_intercept_only_equals_ratio_mean():
    rng = np.random.default_rng(67)
    sample = random_sample(rng, (3, 3), 50)
    res = ols_fit(sample, LinearModelSpec(outcome_index=0))
    np.testing.assert_allclose(res.theta, ratio_estimate(sample).theta, rtol=1e-12)


def test_ols_perfect_fit():
    rng = np.random.default_rng(71)
    beta = np.array([1.0, -2.0, 0.5])
    sample = make_linear_sample(rng, (2, 3), 40, beta, noise=0.0)
    res = ols_fit(sample, LinearModelSpec(0, (1, 2), intercept=True))
    np.testing.assert_allclose(res.theta, beta, atol=1e-10)
    np.testing.assert_allclose(res.scores.values, 0.0, atol=1e-9)
    v = ols_sandwich(res).matrix
    np.testing.assert_allclose(v, 0.0, atol=1e-9)


def test_ols_matches_normal_equations_oracle():
    rng = np.random.default_rng(73)
    sample = make_linear_sample(rng, (4, 4), 60, np.array([0.5, 1.0]), noise=1.0)
    res = ols_fit(sample, LinearModelSpec(0, (1,), intercept=True))
    X = np.column_stack([np.ones(sample.n_units), sample.values[:, 1]])
    y = sample.values[:, 0]
    expected = np.linalg.solve(X.T @ X, X.T @ y)
    np.testing.assert_allclose(res.theta, expected, rtol=1e-10)


def test_ols_residual_orthogonality():
    rng = np.random.default_rng(79)
    sample = make_linear_sample(rng, (3, 3), 80, np.array([0.0, 2.0]), noise=2.0)
    res = ols_fit(sample, LinearModelSpec(0, (1,)))
    X = np.column_stack([np.ones(sample.n_units), sample.values[:, 1]])
    u = sample.values[:, 0] - X @ res.theta
    lhs = np.abs((X * u[:, None]).sum(axis=0))
    rhs = 1e-8 * (np.abs(X) * np.abs(u[:, None])).sum(axis=0) + 1e-12
    assert np.all(lhs <= rhs)


def test_ols_singular_design():
    # duplicated regressor
    rng = np.random.default_rng(83)
    coords = all_coords((2, 2))
    records = []
    for _ in range(30):
        x = rng.normal()
        records.append((coords[rng.integers(0, 4)], [rng.normal(), x, x]))
    sample = load_sample(records, Dimensions((2, 2)))
    with pytest.raises(SingularDesignError):
        ols_fit(sample, LinearModelSpec(0, (1, 2)))


def test_ols_sandwich_one_way_is_textbook_crve():
    rng = np.random.default_rng(89)
    sample = make_linear_sample(rng, (6,), 50, np.array([1.0, 0.3]), noise=1.5)
    res = ols_fit(sample, LinearModelSpec(0, (1,)))
    v = ols_sandwich(res).matrix / sample.dims.c_min

    X = np.column_stack([np.ones(sample.n_units), sample.values[:, 1]])
    u = sample.values[:, 0] - X @ res.theta
    gram_inv = np.linalg.inv(X.T @ X)
    scores = np.zeros((6, 2))
    np.add.at(scores, sample.unit_cell_ids, X * u[:, None])
    textbook = gram_inv @ (scores.T @ scores) @ gram_inv
    np.testing.assert_allclose(v, textbook, rtol=1e-10)


def test_ols_sandwich_matches_pair_sum_oracle():
    rng = np.random.default_rng(97)
    sample = make_linear_sample(rng, (3, 3), 40, np.array([0.0, 1.0]), noise=1.0)
    res = ols_fit(sample, LinearModelSpec(0, (1,)))
    v = ols_sandwich(res).matrix
    jinv = np.linalg.inv(res.meta["jhat"])
    h = vhat1_pairs(res.scores.values, (3, 3))
    np.testing.assert_allclose(v, jinv @ h @ jinv, rtol=1e-10)


def test_weighted_ols_identity_reproduces_theta():
    rng = np.random.default_rng(101)
    sample = make_linear_sample(rng, (3, 3), 50, np.array([1.0, -1.0]), noise=0.5)
    spec = LinearModelSpec(0, (1,))
    res = ols_fit(sample, spec)
    data = OlsCellData(sample, *spec.design(sample.values))
    got = weighted_ols(data, PigeonholeWeights.identity(sample.dims))
    np.testing.assert_allclose(got, res.theta, rtol=1e-12)


def test_weighted_ols_matches_replication_oracle():
    rng = np.random.default_rng(103)
    sample = make_linear_sample(rng, (3, 2), 30, np.array([0.5, 2.0]), noise=1.0)
    spec = LinearModelSpec(0, (1,))
    data = OlsCellData(sample, *spec.design(sample.values))
    w = draw_weights(sample.dims, rng)
    weights = w.cell_weights()
    unit_w = weights[sample.unit_cell_ids].astype(float)
    X = np.column_stack([np.ones(sample.n_units), sample.values[:, 1]])
    y = sample.values[:, 0]
    Xw = X * unit_w[:, None]
    expected = np.linalg.solve(Xw.T @ X, Xw.T @ y)
    np.testing.assert_allclose(weighted_ols(data, w), expected, rtol=1e-10)


# -- quantiles ---------------------------------------------------------


def pooled_sample(values, counts=(2, 2)):
    coords = all_coords(counts)
    records = [
        (coords[i % len(coords)], [float(v)]) for i, v in enumerate(values)
    ]
    return load_sample(records, Dimensions(counts))


def ecdf(values, y):
    """Fraction of the pooled values <= y."""
    return float(np.mean(np.asarray(values) <= y))


def test_quantile_odd_count_median():
    sample = pooled_sample([1.0, 2.0, 3.0])
    assert quantile_estimate(sample, EcdfSpec(), 0.5).theta.tolist() == [2.0]


def test_quantile_even_count_median_left_inverse():
    sample = pooled_sample([1.0, 2.0, 3.0, 4.0])
    assert quantile_estimate(sample, EcdfSpec(), 0.5).theta.tolist() == [2.0]


def test_quantile_constant_values():
    sample = pooled_sample([3.25] * 7, (2, 2))
    for tau in (0.1, 0.5, 0.9):
        assert quantile_estimate(sample, EcdfSpec(), tau).theta.tolist() == [3.25]


def test_quantile_generalized_inverse_invariants():
    rng = np.random.default_rng(113)
    values = np.round(rng.normal(size=40), 1)
    sample = pooled_sample(values, (4, 2))
    spec = EcdfSpec()
    for tau in (0.1, 0.25, 0.5, 0.8, 0.95):
        theta = quantile_estimate(sample, spec, tau).theta[0]
        assert ecdf(values, theta) >= tau
        below = values[values < theta]
        if below.size:
            assert ecdf(values, below.max()) < tau


def test_weighted_quantile_identity_and_replication_oracle():
    rng = np.random.default_rng(127)
    values = rng.normal(size=36)
    sample = pooled_sample(values, (3, 3))
    data = quantile_data(sample, EcdfSpec(), 0.5)
    res = quantile_estimate(sample, EcdfSpec(), 0.5)
    same = weighted_quantile(data, PigeonholeWeights.identity(sample.dims))
    np.testing.assert_array_equal(same, res.theta)

    w = draw_weights(sample.dims, rng)
    got = weighted_quantile(data, w)
    unit_w = w.cell_weights()[sample.unit_cell_ids]
    replicated = np.repeat(sample.values[:, 0], unit_w)
    replicated_sample = pooled_sample(replicated, (1,))
    expected = quantile_estimate(replicated_sample, EcdfSpec(), 0.5).theta
    np.testing.assert_array_equal(got, expected)
