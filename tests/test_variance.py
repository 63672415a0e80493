"""Tests for the three variance estimators and Wald regions."""

import numpy as np
import pytest

from multiway import (
    CenteredScores,
    DegenerateDesignError,
    Dimensions,
    SingularVarianceError,
    sigma_subset,
    vhat1,
    vhat2,
    vhat_cgm,
    wald_region,
)

from oracles import (
    random_dims,
    random_scores,
    sigma_subset_pairs,
    vhat1_pairs,
    vhat2_pairs,
    vhat_cgm_pairs,
)


def scores_of(counts, values):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    return CenteredScores(Dimensions(counts), values)


# -- vhat1 -------------------------------------------------------------


def test_vhat1_zero_scores():
    v = vhat1(scores_of((2, 3), np.zeros(6)))
    np.testing.assert_array_equal(v.matrix, [[0.0]])


def test_vhat1_one_way_collapses():
    d = np.array([1.0, -2.0, 0.5, 3.0])
    v = vhat1(scores_of((4,), d))
    np.testing.assert_allclose(v.matrix[0, 0], np.mean(d**2), rtol=1e-12)


def test_vhat1_matches_pair_sum_oracle():
    rng = np.random.default_rng(101)
    counts = (3, 3)
    d = random_scores(rng, counts, 1)
    got = vhat1(scores_of(counts, d)).matrix
    np.testing.assert_allclose(got, vhat1_pairs(d, counts), rtol=1e-12)


def test_vhat1_psd_on_random_instances():
    rng = np.random.default_rng(19)
    for _ in range(200):
        counts = random_dims(rng)
        m = int(rng.integers(1, 4))
        v = vhat1(scores_of(counts, random_scores(rng, counts, m))).matrix
        evals = np.linalg.eigvalsh(v)
        assert evals.min() >= -1e-10 * max(np.trace(v), 1e-300)


# -- vhat2 -------------------------------------------------------------


def test_vhat2_constant_scores():
    v = np.array([1.5, -0.5])
    counts = (3, 4)
    d = np.tile(v, (12, 1))
    got = vhat2(scores_of(counts, d)).matrix
    lam = min(counts) / np.array(counts, dtype=float)
    np.testing.assert_allclose(got, lam.sum() * np.outer(v, v), rtol=1e-12)


def test_vhat2_can_be_negative():
    # Alternating-sign scores on a 2x2 design: every A_i cross product is -1.
    d = np.array([1.0, -1.0, -1.0, 1.0])
    got = vhat2(scores_of((2, 2), d)).matrix
    np.testing.assert_allclose(got, [[-2.0]], rtol=1e-12)


def test_vhat2_matches_pair_sum_oracle():
    rng = np.random.default_rng(103)
    counts = (3, 4)
    d = random_scores(rng, counts, 1)
    got = vhat2(scores_of(counts, d)).matrix
    np.testing.assert_allclose(got, vhat2_pairs(d, counts), rtol=1e-12)


def test_vhat2_degenerate_dimension():
    with pytest.raises(DegenerateDesignError, match="axis 1"):
        vhat2(scores_of((3, 1), np.zeros(3)))


# -- vhat_cgm ----------------------------------------------------------


def test_vhat_cgm_zero_scores():
    np.testing.assert_array_equal(vhat_cgm(scores_of((2, 2), np.zeros(4))).matrix, [[0.0]])


def test_vhat_cgm_two_way_identity():
    rng = np.random.default_rng(107)
    counts = (3, 5)
    d = random_scores(rng, counts, 2)
    s = scores_of(counts, d)
    correction = min(counts) / np.prod(counts) ** 2 * (d.T @ d)
    np.testing.assert_allclose(
        vhat_cgm(s).matrix + correction, vhat1(s).matrix, rtol=1e-12
    )


def test_vhat_cgm_three_way_matches_expansion():
    rng = np.random.default_rng(109)
    counts = (2, 2, 2)
    d = random_scores(rng, counts, 1)
    got = vhat_cgm(scores_of(counts, d)).matrix
    np.testing.assert_allclose(got, vhat_cgm_pairs(d, counts), rtol=1e-12)


def test_vhat_cgm_adjusted_matches_oracle():
    rng = np.random.default_rng(111)
    counts = (3, 2)
    d = random_scores(rng, counts, 1)
    got = vhat_cgm(scores_of(counts, d), adjustment="cgm").matrix

    def factor(axes):
        prod = float(np.prod([counts[a] for a in axes]))
        return prod / (prod - 1)

    np.testing.assert_allclose(got, vhat_cgm_pairs(d, counts, factor), rtol=1e-12)


def test_one_way_estimators_coincide():
    rng = np.random.default_rng(113)
    d = random_scores(rng, (6,), 2)
    s = scores_of((6,), d)
    np.testing.assert_allclose(vhat1(s).matrix, vhat2(s).matrix, rtol=1e-12)
    np.testing.assert_allclose(vhat1(s).matrix, vhat_cgm(s).matrix, rtol=1e-12)


def test_scale_equivariance():
    rng = np.random.default_rng(127)
    counts = (3, 4)
    d = random_scores(rng, counts, 2)
    for est in (vhat1, vhat2, vhat_cgm):
        base = est(scores_of(counts, d)).matrix
        scaled = est(scores_of(counts, 2.5 * d)).matrix
        np.testing.assert_allclose(scaled, 2.5**2 * base, rtol=1e-12)


# -- sigma_subset ------------------------------------------------------


def test_sigma_subset_full_subset_is_diagonal_pairs():
    rng = np.random.default_rng(131)
    counts = (2, 3)
    d = random_scores(rng, counts, 2)
    got = sigma_subset(scores_of(counts, d), (0, 1))
    np.testing.assert_allclose(got, d.T @ d / np.prod(counts) ** 2, rtol=1e-12)


def test_sigma_subset_singleton_is_vhat1_summand():
    rng = np.random.default_rng(137)
    counts = (4, 3)
    d = random_scores(rng, counts, 1)
    s = scores_of(counts, d)
    cmin = min(counts)
    total = sum(cmin * sigma_subset(s, (i,)) for i in range(2))
    np.testing.assert_allclose(total, vhat1(s).matrix, rtol=1e-12)


def test_sigma_subset_matches_pair_oracle():
    rng = np.random.default_rng(139)
    counts = (2, 3)
    d = random_scores(rng, counts, 1)
    got = sigma_subset(scores_of(counts, d), (0, 1))
    np.testing.assert_allclose(got, sigma_subset_pairs(d, counts, (0, 1)), rtol=1e-12)


def test_sigma_subset_empty():
    with pytest.raises(ValueError):
        sigma_subset(scores_of((2, 2), np.zeros(4)), ())


# -- wald regions ------------------------------------------------------


def test_wald_interval_scalar_unit_variance():
    region = wald_region([0.0], np.array([[1.0]]), Dimensions((1,)), 0.05)
    np.testing.assert_allclose(region.threshold, 3.8415, atol=5e-5)
    np.testing.assert_allclose(region.intervals, [[-1.9600, 1.9600]], atol=5e-5)


def test_wald_identity_metric_membership():
    dims = Dimensions((4, 4))
    region = wald_region([0.0, 0.0], np.eye(2), dims, 0.05)
    # membership reduces to c_min |theta|^2 <= chi2_2(0.95)
    r = np.sqrt(region.threshold / dims.c_min)
    assert region.contains([0.0, 0.99 * r])
    assert not region.contains([0.0, 1.01 * r])


def test_wald_center_always_member():
    region = wald_region([1.0, -2.0], 0.1 * np.eye(2), Dimensions((3, 3)), 0.5)
    assert region.contains([1.0, -2.0])


def test_wald_rejects_indefinite_matrix():
    with pytest.raises(SingularVarianceError):
        wald_region([0.0], np.array([[-1.0]]), Dimensions((2, 2)), 0.05)
    with pytest.raises(SingularVarianceError):
        wald_region([0.0, 0.0], np.diag([1.0, 1e-15]), Dimensions((2, 2)), 0.05)


def test_variance_estimate_to_json():
    v = vhat1(scores_of((2, 2), np.ones(4)))
    d = v.to_json_dict()
    assert d["kind"] == "v1"
    assert d["lambda"] == [1.0, 1.0]
    assert isinstance(d["matrix"][0][0], float)


def test_cgm_adjustment_refuses_a_single_cluster_subset():
    # c_T = prod / (prod - 1) is undefined at prod = 1: a refusal, not a division by zero
    scores = scores_of((1, 4), np.arange(4.0))
    with pytest.raises(DegenerateDesignError, match=r"subset \(0,\): prod\(C\) = 1"):
        vhat_cgm(scores, adjustment="cgm")


def test_condition_check_accepts_a_spread_of_exactly_the_cap():
    from multiway.variance import CONDITION_CAP, check_condition

    assert CONDITION_CAP == 1e12
    check_condition(np.array([1.0, 1e12]), SingularVarianceError, "v")
    for spectrum in ([1.0, np.nextafter(1e12, np.inf)], [1.0, 2e12], [0.0, 1.0], [np.nan, 1.0]):
        with pytest.raises(SingularVarianceError, match=r"^v \(spectrum in"):
            check_condition(np.array(spectrum), SingularVarianceError, "v")
