"""Tests for the data-generating processes and the coverage harness."""

from dataclasses import replace

import numpy as np
import pytest

from multiway import Dimensions, UnsupportedError
from multiway import simulation
from multiway.errors import ConfigError, InsufficientReplicatesError
from multiway.simulation import (
    CellSizeLaw,
    DgpSpec,
    McConfig,
    analytic_asymptotic_variance,
    generate,
    run_coverage,
    true_theta,
)


def additive(counts=(5, 5), **kw):
    kw.setdefault("sigma_factors", (1.0,) * len(counts))
    return DgpSpec(variant="additive", **kw)


def test_generate_noiseless_dgp_is_all_zero():
    dgp = additive(sigma_factors=(0.0, 0.0), sigma_cell=0.0, sigma_unit=0.0)
    sample, theta0 = generate(dgp, Dimensions((5, 5)), seed=1)
    assert theta0.tolist() == [0.0]
    np.testing.assert_array_equal(sample.values, 0.0)
    assert sample.n_units == 25


def test_generate_deterministic():
    dgp = additive(cell_sizes=CellSizeLaw(kind="one_plus_poisson", mu=2.0))
    dims = Dimensions((4, 6))
    s1, _ = generate(dgp, dims, seed=99)
    s2, _ = generate(dgp, dims, seed=99)
    np.testing.assert_array_equal(s1.values, s2.values)
    np.testing.assert_array_equal(s1.offsets, s2.offsets)
    s3, _ = generate(dgp, dims, seed=100)
    assert not np.array_equal(s1.values, s3.values)


def _replicated_pair_cov(seed0, reps, shift):
    # per replication: mean product of centered values over cell pairs at
    # the given (row, column) shift; replications are independent, so the
    # spread across them is a valid Monte Carlo standard error
    dims = Dimensions((60, 60))
    dgp = additive(counts=(60, 60))
    stats = []
    for r in range(reps):
        sample, _ = generate(dgp, dims, seed=seed0 + r)
        s = sample.values[:, 0].reshape(60, 60)
        s = s - s.mean()
        dr, dc = shift
        a = s[: 60 - dr, : 60 - dc]
        b = s[dr:, dc:]
        stats.append(float(np.mean(a * b)))
    stats = np.asarray(stats)
    return stats.mean(), stats.std(ddof=1) / np.sqrt(reps)


def test_generate_cross_cell_covariance_matches_factor_variance():
    # cells sharing only the dimension-0 cluster have Cov(S, S') = sigma_0^2
    cov, se = _replicated_pair_cov(seed0=700, reps=30, shift=(0, 1))
    assert abs(cov - 1.0) < 3 * se + 0.01


def test_generate_no_shared_cluster_correlation_is_zero():
    cov, se = _replicated_pair_cov(seed0=800, reps=30, shift=(1, 1))
    assert abs(cov) < 3 * se + 0.01


def test_generate_cluster_relabelling_preserves_pooled_summaries():
    # exchangeability by construction: permuting the clusters of one
    # dimension rearranges cells but leaves every pooled summary unchanged
    dims = Dimensions((6, 4))
    sample, _ = generate(additive(counts=(6, 4)), dims, seed=11)
    grid = sample.values[:, 0].reshape(6, 4)
    perm = np.random.default_rng(0).permutation(6)
    permuted = grid[perm]
    np.testing.assert_array_equal(
        np.sort(permuted.ravel()), np.sort(grid.ravel())
    )


def test_generate_product_variant():
    dgp = DgpSpec(variant="product", sigma_cell=0.0)
    dims = Dimensions((50, 50))
    sample, theta0 = generate(dgp, dims, seed=3)
    assert theta0.tolist() == [0.0]
    assert sample.n_units == dims.pi_c
    s = sample.values[:, 0].reshape(50, 50)
    # rank-one structure: every 2x2 minor of the noiseless product is zero
    minors = s[:-1, :-1] * s[1:, 1:] - s[:-1, 1:] * s[1:, :-1]
    np.testing.assert_allclose(minors, 0.0, atol=1e-12)


def test_generate_product_requires_two_way():
    with pytest.raises(ValueError):
        generate(DgpSpec(variant="product"), Dimensions((3, 3, 3)), seed=0)


def test_generate_probit_marginal_law():
    dgp = DgpSpec(
        variant="probit",
        sigma_factors=(0.0, 0.0),
        sigma_unit=1.0,
        beta=(0.5, 0.0),
        error_rho=(0.0, 0.0),
    )
    sample, theta0 = generate(dgp, Dimensions((60, 60)), seed=4)
    assert theta0.tolist() == [0.5, 0.0]
    # with beta1 = 0, P(Y=1) = Phi(0.5) ~ 0.6915
    from scipy.stats import norm

    p = sample.values[:, 0].mean()
    assert abs(p - norm.cdf(0.5)) < 3 * np.sqrt(0.5 / sample.n_units) + 0.01


def test_generate_factor_linked_sizes():
    dgp = additive(
        cell_sizes=CellSizeLaw(kind="one_plus_poisson", mu=3.0, factor_linked=True)
    )
    dims = Dimensions((50, 50))
    # sizes covary with the first factor, so the per-unit mean is positive;
    # check the quadrature value against independent replications
    reps = 40
    means = []
    theta0 = None
    for r in range(reps):
        sample, theta0 = generate(dgp, dims, seed=500 + r)
        assert np.all(sample.cell_sizes >= 1)
        means.append(sample.values[:, 0].mean())
    means = np.asarray(means)
    assert theta0[0] > 0.05
    se = means.std(ddof=1) / np.sqrt(reps)
    assert abs(means.mean() - theta0[0]) < 3 * se


def test_true_theta_dispatch():
    dgp = additive()
    assert true_theta(dgp, "ratio").tolist() == [0.0]
    assert true_theta(dgp, "mean").tolist() == [0.0]
    assert true_theta(dgp, "median").tolist() == [0.0]
    linked = additive(
        cell_sizes=CellSizeLaw(kind="one_plus_poisson", mu=2.0, factor_linked=True)
    )
    assert true_theta(linked, "ratio")[0] > 0
    assert true_theta(linked, "mean")[0] > true_theta(linked, "ratio")[0]
    with pytest.raises(UnsupportedError):
        true_theta(linked, "median")
    with pytest.raises(UnsupportedError):
        true_theta(dgp, "probit")


def test_analytic_variance_zero_factors():
    dgp = additive(sigma_factors=(0.0, 0.0))
    np.testing.assert_array_equal(
        analytic_asymptotic_variance(dgp, Dimensions((4, 4))), [[0.0]]
    )


def test_analytic_variance_hand_expansion():
    dgp = additive(
        counts=(10, 20), sigma_factors=(np.sqrt(2.0), np.sqrt(3.0)),
    )
    v = analytic_asymptotic_variance(dgp, Dimensions((10, 20)))
    assert v[0, 0] == pytest.approx(1.0 * 2.0 + 0.5 * 3.0, rel=1e-12)


def test_analytic_variance_one_way():
    dgp = DgpSpec(variant="additive", sigma_factors=(1.5,), cell_sizes=CellSizeLaw(n=3))
    v = analytic_asymptotic_variance(dgp, Dimensions((7,)))
    assert v[0, 0] == pytest.approx(9 * 1.5**2, rel=1e-12)


def test_analytic_variance_unsupported():
    with pytest.raises(UnsupportedError):
        analytic_asymptotic_variance(DgpSpec(variant="product"), Dimensions((3, 3)))
    with pytest.raises(UnsupportedError):
        analytic_asymptotic_variance(
            additive(cell_sizes=CellSizeLaw(kind="one_plus_poisson", mu=1.0)),
            Dimensions((3, 3)),
        )


def test_config_validation():
    dgp = additive()
    dims = Dimensions((5, 5))
    with pytest.raises(ConfigError, match="replications"):
        McConfig(dgp=dgp, dims=dims, replications=0)
    with pytest.raises(ConfigError, match="bootstrap_b"):
        McConfig(
            dgp=dgp, dims=dims, replications=2, methods=("boot-symabs",), bootstrap_b=5
        )
    # the percentile interval needs 2 / alpha replicates, symmetric-abs 1 / alpha
    with pytest.raises(ConfigError, match="bootstrap_b"):
        McConfig(
            dgp=dgp, dims=dims, replications=2, methods=("boot-percentile",), bootstrap_b=20
        )
    McConfig(dgp=dgp, dims=dims, replications=2, methods=("boot-symabs",), bootstrap_b=20)
    with pytest.raises(ConfigError, match="methods"):
        McConfig(dgp=dgp, dims=dims, replications=2, methods=("wald-v9",))
    with pytest.raises(ConfigError):
        McConfig(
            dgp=dgp, dims=dims, replications=2, estimator="median", methods=("wald-v1",)
        )


def test_run_coverage_trivial_noiseless():
    dgp = additive(sigma_factors=(0.0, 0.0), sigma_cell=0.0, sigma_unit=0.0)
    config = McConfig(dgp=dgp, dims=Dimensions((5, 5)), replications=1)
    report = run_coverage(config)
    # theta_hat = theta0 = 0 exactly; the degenerate variance makes the
    # Wald region fail per replication, which must be recorded, not crash
    m = report.methods[0]
    assert m.n_failed == 1 and m.n_used == 0


def test_run_coverage_small_smoke_and_determinism():
    dgp = additive()
    config = McConfig(
        dgp=dgp,
        dims=Dimensions((10, 10)),
        replications=20,
        methods=("wald-v1", "wald-v2", "wald-cgm", "boot-symabs", "boot-percentile"),
        bootstrap_b=50,
        estimator="ratio",
        seed=42,
    )
    r1 = run_coverage(config)
    r2 = run_coverage(config)
    assert r1.to_json_dict() == r2.to_json_dict()
    wald = r1.methods[0]
    assert wald.n_used == 20
    assert 0.5 <= wald.coverage <= 1.0
    assert r1.mean_boot_se is not None and r1.mean_boot_se[0] > 0
    assert len(r1.theta_mc_sd) == 1


def test_run_coverage_counts_each_replication_once_per_method(monkeypatch):
    # a refused percentile interval fails boot-percentile alone; every method
    # counts each replication either as used or as failed
    def refuse(reps, alpha):
        raise InsufficientReplicatesError("refused")

    monkeypatch.setattr(simulation, "percentile_ci", refuse)
    config = McConfig(
        dgp=additive(),
        dims=Dimensions((6, 6)),
        replications=6,
        methods=("wald-v1", "boot-symabs", "boot-percentile"),
        bootstrap_b=40,
        seed=5,
    )
    report = {m.method: m for m in run_coverage(config).methods}
    for m in report.values():
        assert m.n_used + m.n_failed == 6
    assert report["boot-symabs"].n_failed == 0
    assert report["boot-percentile"].n_used == 0


def test_run_coverage_workers_do_not_change_report():
    dgp = additive()
    base = dict(
        dgp=dgp,
        dims=Dimensions((8, 8)),
        replications=12,
        methods=("wald-v1", "boot-symabs"),
        bootstrap_b=40,
        seed=7,
    )
    serial = run_coverage(McConfig(**base, n_workers=1))
    parallel = run_coverage(McConfig(**base, n_workers=4))
    assert serial.to_json_dict() == parallel.to_json_dict()


def test_run_coverage_flags_degenerate_dgp():
    config = McConfig(
        dgp=DgpSpec(variant="product", sigma_cell=0.05),
        dims=Dimensions((30, 30)),
        replications=5,
        methods=("wald-v1",),
        estimator="mean",
        seed=3,
    )
    report = run_coverage(config)
    assert report.near_zero_variance_count >= 4


def test_run_coverage_median_bootstrap():
    config = McConfig(
        dgp=additive(),
        dims=Dimensions((10, 10)),
        replications=10,
        methods=("boot-symabs",),
        bootstrap_b=40,
        estimator="median",
        seed=11,
    )
    report = run_coverage(config)
    assert report.methods[0].n_used == 10


def test_config_refuses_a_duplicated_method():
    with pytest.raises(ConfigError, match="^methods: 'wald-v1' is listed twice"):
        McConfig(dgp=additive(), dims=Dimensions((4, 4)), replications=2,
                 methods=("wald-v1", "wald-v2", "wald-v1"))


@pytest.mark.parametrize("workers, replications, started", [(8, 3, 3), (2, 5, 2), (4, 1, None)])
def test_run_coverage_starts_no_more_processes_than_replications(
    workers, replications, started, monkeypatch
):
    import concurrent.futures

    sizes = []

    class RecordingPool:
        """Records its size and runs the replications in process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    config = McConfig(dgp=additive(), dims=Dimensions((4, 4)), replications=replications,
                      n_workers=workers)
    report = run_coverage(config)
    assert sizes == ([] if started is None else [started])
    assert report.to_json_dict() == run_coverage(replace(config, n_workers=1)).to_json_dict()
