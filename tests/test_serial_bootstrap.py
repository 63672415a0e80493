"""The bootstrap runs every replicate on the calling thread, which lets the
estimator hooks build per-fit data lazily."""

import threading
from types import SimpleNamespace

import numpy as np

from multiway import Dimensions, LinearModelSpec, load_sample, run_bootstrap
from multiway.data import cell_sums, sample_from_cell_ids
from multiway.estimators import OlsCellData, fit, ratio_cell_sums, weighted_ols

from oracles import all_coords


def linear_sample(seed, counts=(4, 5), n=120):
    rng = np.random.default_rng(seed)
    coords = all_coords(counts)
    records = []
    for _ in range(n):
        x = rng.normal()
        records.append((coords[rng.integers(0, len(coords))], [1.0 + 2.0 * x + rng.normal(), x]))
    return load_sample(records, Dimensions(counts))


def test_run_bootstrap_calls_the_hook_only_on_the_callers_thread():
    sample = linear_sample(1)
    seen = []

    def hook(data, weights):
        seen.append(threading.get_ident())
        return weighted_ols(data, weights)

    data = OlsCellData(sample, *LinearModelSpec(0, (1,)).design(sample.values))
    reps = run_bootstrap(hook, data, [1.0, 2.0], 40, 7)
    assert reps.n_failed == 0
    assert len(seen) == 40
    assert set(seen) == {threading.get_ident()}


def test_fit_ols_builds_the_cell_blocks_when_the_hook_first_reads_them():
    sample = linear_sample(2)
    spec = LinearModelSpec(0, (1,))
    data = fit("ols", sample, spec=spec).prepared
    assert "xtx" not in vars(data) and "xty" not in vars(data)

    reps = run_bootstrap(weighted_ols, data, [1.0, 2.0], 30, 11)
    assert "xtx" in vars(data) and "xty" in vars(data)

    # the eager per-cell blocks, scattered with np.add.at into zeros
    X = np.column_stack([np.ones(sample.n_units), sample.values[:, 1]])
    y = sample.values[:, 0]
    ids = sample.unit_cell_ids
    xtx = np.zeros((sample.dims.pi_c, 2, 2))
    xty = np.zeros((sample.dims.pi_c, 2))
    np.add.at(xtx, ids, X[:, :, None] * X[:, None, :])
    np.add.at(xty, ids, X * y[:, None])
    np.testing.assert_array_equal(data.xtx, xtx)
    np.testing.assert_array_equal(data.xty, xty)

    eager_data = SimpleNamespace(dims=sample.dims, xtx=xtx, xty=xty)
    eager = run_bootstrap(weighted_ols, eager_data, [1.0, 2.0], 30, 11)
    fresh = run_bootstrap(
        weighted_ols, OlsCellData(sample, *spec.design(sample.values)), [1.0, 2.0], 30, 11
    )
    for other in (eager, fresh):
        np.testing.assert_array_equal(reps.thetas, other.thetas)
        np.testing.assert_array_equal(reps.indices, other.indices)


def test_ratio_cell_sums_last_column_is_the_count_statistic_sum():
    for sample in (linear_sample(3), load_sample([], Dimensions((2, 3)), obs_dim=2)):
        sums = ratio_cell_sums(sample).values
        ones = np.ones((sample.n_units, 1))
        counts = cell_sums(sample_from_cell_ids(sample.dims, sample.unit_cell_ids, ones)).values
        assert sums.dtype == np.float64
        np.testing.assert_array_equal(sums[:, -1:], counts)
