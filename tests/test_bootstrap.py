"""Tests for pigeonhole weight draws, resampling, and bootstrap CIs."""

import numpy as np
import pytest

from multiway import (
    CellSums,
    ConfigError,
    ConvergenceError,
    Dimensions,
    InsufficientReplicatesError,
    PigeonholeWeights,
    ShapeError,
    draw_weights,
    percentile_ci,
    run_bootstrap,
    symmetric_abs_ci,
)
from multiway.bootstrap import BootstrapReplicates
from multiway.seeding import stream_rng


def test_weight_identities_on_every_draw():
    dims = Dimensions((5, 7, 2))
    rng = np.random.default_rng(0)
    for _ in range(200):
        w = draw_weights(dims, rng)
        for i, c in enumerate(dims.counts):
            assert int(w.per_dim_counts[i].sum()) == c
        assert int(w.cell_weights().sum()) == dims.pi_c


def test_single_cluster_dimension_never_varies():
    dims = Dimensions((1, 4))
    rng = np.random.default_rng(1)
    for _ in range(50):
        w = draw_weights(dims, rng)
        assert w.per_dim_counts[0].tolist() == [1]


@pytest.mark.parametrize(
    "counts",
    [[2, -1, 2], [1.5, 0.5, 1.0], [3.0, np.nan, 0.0]],
    ids=["negative", "fractional", "nan"],
)
def test_weights_refuse_counts_that_are_not_whole_draws(counts):
    # each vector sums to C_i = 3 (nan aside), so only the new check refuses it
    dims = Dimensions((2, 3))
    with pytest.raises(ShapeError, match="dimension 1"):
        PigeonholeWeights(dims, (np.array([1, 1]), np.array(counts)))


def test_weight_moments_small_monte_carlo():
    # E W = 1 and E W_j W_j' = 1{j=j'} + 1 - 1/C within 4 standard errors;
    # the full-size check lives in the acceptance suite.
    dims = Dimensions((5, 7))
    rng = np.random.default_rng(2)
    n = 20000
    w1 = np.empty((n, 5))
    for r in range(n):
        w1[r] = draw_weights(dims, rng).per_dim_counts[0]
    c = 5.0
    for stat, target, name in [
        (w1[:, 0], 1.0, "mean"),
        ((w1[:, 0] - 1) * (w1[:, 1] - 1), -1.0 / c, "cross"),
        ((w1[:, 0] - 1) ** 2, 1.0 - 1.0 / c, "square"),
    ]:
        se = stat.std(ddof=1) / np.sqrt(n)
        assert abs(stat.mean() - target) < 4 * se, name


def test_run_bootstrap_constant_estimator():
    dims = Dimensions((3, 3))
    sums = CellSums(dims, np.ones((9, 1)))
    reps = run_bootstrap(lambda s, w: np.array([4.25]), sums, [4.25], b=20, seed=0)
    assert np.all(reps.thetas == 4.25)
    assert reps.theta_hat.tolist() == [4.25]
    assert reps.n_failed == 0


@pytest.mark.parametrize("b", [0, -3])
def test_run_bootstrap_refuses_fewer_than_one_replicate(b):
    sums = CellSums(Dimensions((3, 3)), np.ones((9, 1)))
    with pytest.raises(ConfigError, match=rf"^b: need at least one replicate, got {b}$"):
        run_bootstrap(lambda s, w: np.array([1.0]), sums, [1.0], b=b, seed=0)


def mean_est(s, w):
    return (w.cell_weights()[:, None] * s.values).mean(axis=0)


def test_run_bootstrap_deterministic_across_runs():
    dims = Dimensions((4, 4))
    rng = np.random.default_rng(4)
    sums = CellSums(dims, rng.normal(size=(16, 1)))
    a = run_bootstrap(mean_est, sums, sums.values.mean(axis=0), b=50, seed=123)
    b = run_bootstrap(mean_est, sums, sums.values.mean(axis=0), b=50, seed=123)
    np.testing.assert_array_equal(a.thetas, b.thetas)


def test_run_bootstrap_failures_recorded():
    dims = Dimensions((2, 2))
    sums = CellSums(dims, np.ones((4, 1)))

    def flaky(s, w):
        if w.cell_weights()[0] >= 2:
            raise ConvergenceError("boom")
        return np.array([1.0])

    with pytest.warns(RuntimeWarning):
        reps = run_bootstrap(flaky, sums, [1.0], b=100, seed=5)
    assert reps.n_failed > 0
    assert reps.thetas.shape[0] + reps.n_failed == 100


def test_run_bootstrap_variance_tracks_vhat1():
    # sample variance of the replicate means should approximate vhat1 / c_min
    from multiway import CenteredScores, vhat1

    dims = Dimensions((20, 20))
    rng = np.random.default_rng(6)
    a1 = rng.normal(size=20)
    a2 = rng.normal(size=20)
    s = (a1[:, None] + a2[None, :] + rng.normal(size=(20, 20))).reshape(-1, 1)
    sums = CellSums(dims, s)
    reps = run_bootstrap(mean_est, sums, s.mean(axis=0), b=500, seed=7)
    boot_var = reps.thetas[:, 0].var(ddof=1)
    plug_in = vhat1(CenteredScores(dims, s - s.mean(axis=0))).matrix[0, 0] / dims.c_min
    assert 0.75 * plug_in < boot_var < 1.25 * plug_in


def make_reps(values, theta=0.0):
    values = np.asarray(values, dtype=float)[:, None]
    return BootstrapReplicates(
        thetas=values,
        indices=np.arange(len(values)),
        theta_hat=np.array([theta]),
        n_requested=len(values),
    )


def test_symmetric_abs_order_statistic_rule():
    reps = make_reps(np.arange(1, 101), theta=0.0)
    region = symmetric_abs_ci(reps, alpha=0.05)
    assert region.radius == 95.0
    assert region.interval == (-95.0, 95.0)


def test_symmetric_abs_degenerate_replicates():
    reps = make_reps(np.full(50, 2.5), theta=2.5)
    region = symmetric_abs_ci(reps, alpha=0.05)
    assert region.radius == 0.0
    assert region.contains([2.5]) and not region.contains([2.6])


def test_symmetric_abs_center_membership():
    reps = make_reps(np.random.default_rng(8).normal(size=200), theta=0.0)
    for alpha in (0.01, 0.2, 0.9):
        assert symmetric_abs_ci(reps, alpha).contains([0.0])


def test_symmetric_abs_region_contains_every_replicate_within_its_radius():
    # the radius is one replicate's distance, so that replicate and every
    # nearer one must be members; membership measures distance the same way
    rng = np.random.default_rng(10)
    for p in (1, 2, 3):
        for _ in range(100):
            reps = BootstrapReplicates(
                thetas=rng.normal(size=(40, p)),
                indices=np.arange(40),
                theta_hat=rng.normal(size=p),
                n_requested=40,
            )
            region = symmetric_abs_ci(reps, alpha=0.05)
            devs = np.linalg.norm(reps.thetas - reps.theta_hat, axis=1)
            for theta, dev in zip(reps.thetas, devs):
                assert region.contains(theta) == (dev <= region.radius)


def test_symmetric_abs_requires_enough_replicates():
    with pytest.raises(InsufficientReplicatesError):
        symmetric_abs_ci(make_reps([1.0, 2.0]), alpha=0.05)


def test_percentile_order_statistic_rule():
    reps = make_reps(np.arange(1, 101))
    region = percentile_ci(reps, alpha=0.10)
    assert region.lower.tolist() == [5.0]
    assert region.upper.tolist() == [95.0]


def test_percentile_constant_replicates():
    region = percentile_ci(make_reps(np.full(100, 3.0)), alpha=0.10)
    assert region.lower.tolist() == [3.0] and region.upper.tolist() == [3.0]


def test_percentile_close_to_symmetric_for_symmetric_replicates():
    rng = np.random.default_rng(9)
    vals = rng.normal(size=4001)
    vals = np.concatenate([vals, -vals])  # exactly symmetric around 0
    reps = make_reps(vals, theta=0.0)
    sym = symmetric_abs_ci(reps, alpha=0.10)
    per = percentile_ci(reps, alpha=0.10)
    gap = np.diff(np.sort(np.abs(vals))).max()
    assert abs(per.upper[0] - sym.interval[1]) <= 2 * gap + 1e-12
    assert abs(per.lower[0] - sym.interval[0]) <= 2 * gap + 1e-12


def test_stream_rng_is_pure_function_of_path():
    a = stream_rng(42, 3).normal(size=4)
    b = stream_rng(42, 3).normal(size=4)
    c = stream_rng(42, 4).normal(size=4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
