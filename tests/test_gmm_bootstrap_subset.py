"""The GMM bootstrap hook re-optimizes on the units of nonzero-weight cells only.

Each check compares the hook with ``_minimize`` on the full sample under the
replicate's unit weights, zero-weight units included: theta must agree bit
for bit.
"""

import tracemalloc

import numpy as np
import pytest

import multiway.gmm as gmm
from multiway import Dimensions, PigeonholeWeights
from multiway.bootstrap import draw_weights, run_bootstrap
from multiway.data import sample_from_cell_ids
from multiway.errors import EmptySampleError
from multiway.gmm import (
    MomentModel,
    OptimizerConfig,
    WeightMatrix,
    gmm_bootstrap_estimator,
    gmm_fit,
    gmm_jhat,
    moment_bar,
    probit_score_moments,
    quantile_iv_moments,
)
from multiway.seeding import stream_rng

N_DRAWS = 50
GRID = OptimizerConfig()


def _sample(counts, mu, seed):
    """Columns: w, x1, x2, z1 (= x1), z2 (= x2), binary y; Poisson cell sizes."""
    rng = np.random.default_rng(seed)
    dims = Dimensions(counts)
    ids = np.repeat(np.arange(dims.pi_c), rng.poisson(mu, dims.pi_c))
    n = ids.shape[0]
    x1 = rng.uniform(0.5, 2.0, n)
    x2 = rng.uniform(-1.0, 1.0, n)
    e = rng.normal(size=n)
    w = x1 - 0.5 * x2 + e
    y = (0.3 + 0.8 * x1 + e > 0).astype(np.float64)
    return sample_from_cell_ids(dims, ids, np.column_stack([w, x1, x2, x1, x2, y]))


PATHS = {
    # Gauss-Newton on the smooth probit score
    "probit": (probit_score_moments(5, 1), (20, 20), 3.0, OptimizerConfig()),
    # bracketing grid on a scalar nonsmooth model
    "quantile_iv_grid": (
        quantile_iv_moments(0.5, 0, [1], [3], bounds=[(-5, 5)]),
        (12, 12),
        3.0,
        GRID,
    ),
    # Nelder-Mead on a two-parameter nonsmooth model
    "quantile_iv_nelder_mead": (
        quantile_iv_moments(0.5, 0, [1, 2], [3, 4], bounds=[(-5, 5), (-5, 5)]),
        (8, 8),
        3.0,
        OptimizerConfig(),
    ),
}


def _reference(sample, model, config, weights, warm):
    """theta from the full sample with zero-weight units left in."""
    uw = weights.cell_weights()[sample.unit_cell_ids].astype(np.float64)
    xi = WeightMatrix.identity(model.n_moments)
    return gmm._minimize(sample, model, xi, config, uw, [warm])[0]


@pytest.fixture
def minimized_samples(monkeypatch):
    """Record the sample of every ``_minimize`` call."""
    seen = []
    original = gmm._minimize

    def spy(sample, *args, **kwargs):
        seen.append(sample)
        return original(sample, *args, **kwargs)

    monkeypatch.setattr(gmm, "_minimize", spy)
    return seen


@pytest.mark.parametrize("path", sorted(PATHS))
def test_hook_theta_bit_identical_to_full_sample(path):
    model, counts, mu, config = PATHS[path]
    sample = _sample(counts, mu, seed=3)
    warm = gmm_fit(sample, model, config=config).theta
    hook = gmm_bootstrap_estimator(model, config=config, warm_start=warm)
    subset_draws = 0
    for b in range(N_DRAWS):
        weights = draw_weights(sample.dims, stream_rng(11, b))
        uw = weights.cell_weights()[sample.unit_cell_ids]
        subset_draws += 0 < np.count_nonzero(uw) < sample.n_units
        got = hook(sample, weights)
        assert got.tobytes() == _reference(sample, model, config, weights, warm).tobytes(), b
    assert subset_draws == N_DRAWS


def test_replicate_minimizes_over_nonzero_weight_units(minimized_samples):
    model, counts, mu, config = PATHS["probit"]
    sample = _sample(counts, mu, seed=4)
    hook = gmm_bootstrap_estimator(model, config=config, warm_start=np.array([0.3, 0.8]))
    weights = draw_weights(sample.dims, stream_rng(5, 0))
    w = weights.cell_weights()
    hook(sample, weights)
    (sub,) = minimized_samples
    assert sub.dims == sample.dims
    np.testing.assert_array_equal(sub.values, sample.values[w[sample.unit_cell_ids] != 0])


SUM_MODELS = {
    # C-ordered (n, 2) moments with an analytic Jacobian
    "probit": (probit_score_moments(5, 1), [0.2, 0.7]),
    # one moment, and two column-ordered ones (values[:, z] is F-ordered)
    "quantile_iv_one_moment": (quantile_iv_moments(0.5, 0, [1], [3]), [0.9]),
    "quantile_iv_two_moments": (
        quantile_iv_moments(0.5, 0, [1, 2], [3, 4]),
        [0.9, -0.4],
    ),
}


@pytest.mark.parametrize("name", sorted(SUM_MODELS))
def test_moment_sums_bit_identical_on_subset(name):
    # m_bar and J_hat add the unit rows in unit order whatever their
    # layout, so dropping exact zero terms leaves them unchanged
    model, theta = SUM_MODELS[name]
    theta = np.array(theta)
    sample = _sample((20, 20), 3.0, seed=6)
    for b in range(N_DRAWS):
        w = draw_weights(sample.dims, stream_rng(13, b)).cell_weights()
        uw = w[sample.unit_cell_ids].astype(np.float64)
        keep = uw != 0
        sub = sample_from_cell_ids(sample.dims, sample.unit_cell_ids[keep], sample.values[keep])
        kept = uw[keep]
        assert (
            moment_bar(sub, model, theta, kept).tobytes()
            == moment_bar(sample, model, theta, uw).tobytes()
        ), b
        if model.jacobian is not None:
            assert (
                gmm_jhat(sub, model, theta, kept).tobytes()
                == gmm_jhat(sample, model, theta, uw).tobytes()
            ), b


def test_replicate_takes_first_residual_and_jacobian_from_warm_rows():
    """The model is not called at the warm start on a replicate's units:
    the rows taken there on the full sample are weighted and summed."""
    calls = []
    probit = probit_score_moments(5, 1)

    def spy(fn):
        def wrapper(values, theta):
            calls.append(np.asarray(theta).tobytes())
            return fn(values, theta)

        return wrapper

    model = MomentModel(
        fn=spy(probit.fn), n_params=2, n_moments=2, bounds=probit.bounds,
        jacobian=spy(probit.jacobian),
    )
    sample = _sample((20, 20), 3.0, seed=9)
    warm = gmm_fit(sample, probit).theta
    hook = gmm_bootstrap_estimator(model, warm_start=warm)
    # the first call takes the warm-start rows on the full sample
    hook(sample, PigeonholeWeights.identity(sample.dims))
    for b in range(5):
        weights = draw_weights(sample.dims, stream_rng(17, b))
        calls.clear()
        theta = hook(sample, weights)
        assert calls and warm.tobytes() not in calls, b
        expected = _reference(sample, probit, OptimizerConfig(), weights, warm)
        assert theta.tobytes() == expected.tobytes(), b


def _sparse_sample():
    """3x3 lattice with units in row 1 only: cells (1,1), (1,2) and (1,3)."""
    rng = np.random.default_rng(8)
    dims = Dimensions((3, 3))
    ids = np.repeat(np.arange(3), 4)
    x1 = rng.uniform(0.5, 2.0, ids.shape[0])
    y = (rng.normal(size=ids.shape[0]) + x1 > 1.0).astype(np.float64)
    w = rng.normal(size=ids.shape[0])
    return sample_from_cell_ids(dims, ids, np.column_stack([w, x1, x1, y]))


SPARSE_MODELS = pytest.mark.parametrize(
    "model,config",
    [
        (probit_score_moments(3, 1), OptimizerConfig()),
        (quantile_iv_moments(0.5, 0, [1], [2], bounds=[(-5, 5)]), GRID),
    ],
    ids=["probit", "quantile_iv_grid"],
)


@SPARSE_MODELS
def test_no_nonzero_unit_fails_the_replicate(model, config):
    sample = _sparse_sample()
    # row 1 drawn zero times: every occupied cell gets weight 0
    weights = PigeonholeWeights(
        sample.dims, (np.array([0, 3, 0]), np.array([1, 1, 1]))
    )
    assert not weights.cell_weights()[sample.unit_cell_ids].any()
    hook = gmm_bootstrap_estimator(model, config=config, warm_start=np.full(model.n_params, 0.25))
    with pytest.raises(EmptySampleError):
        hook(sample, weights)


@SPARSE_MODELS
def test_run_bootstrap_counts_an_empty_draw_as_failed(model, config):
    sample = _sparse_sample()
    warm = np.full(model.n_params, 0.25)
    hook = gmm_bootstrap_estimator(model, config=config, warm_start=warm)
    # the occupied cells are row 1's: a draw keeps none of them when cluster 1
    # of the first dimension is drawn zero times
    empty = sum(
        draw_weights(sample.dims, stream_rng(5, b)).per_dim_counts[0][0] == 0 for b in range(40)
    )
    assert empty == 15
    with pytest.warns(RuntimeWarning, match="15/40 bootstrap replicates failed"):
        reps = run_bootstrap(hook, sample, warm, 40, 5)
    assert reps.n_failed == empty


def test_replicate_on_a_large_lattice_allocates_by_its_units(monkeypatch):
    """On 2048x2048 (4.2 million cells) a replicate of 40 units builds no
    array of length pi_c: no cell weight vector, mask or cell offsets."""
    rng = np.random.default_rng(12)
    dims = Dimensions((2048, 2048))
    x = rng.normal(size=40)
    y = (0.3 + 0.8 * x + rng.normal(size=40) > 0).astype(np.float64)
    ids = rng.choice(dims.pi_c, size=40, replace=False)
    sample = sample_from_cell_ids(dims, ids, np.column_stack([y, x]))
    model = probit_score_moments(0, 1)
    hook = gmm_bootstrap_estimator(model, warm_start=gmm_fit(sample, model).theta)
    # the first call takes the unit coordinates and the warm-start rows
    hook(sample, PigeonholeWeights.identity(dims))
    weights = draw_weights(dims, stream_rng(3, 0))

    def refuse(self):
        raise AssertionError("cell_weights() called")

    monkeypatch.setattr(PigeonholeWeights, "cell_weights", refuse)
    tracemalloc.start()
    try:
        theta = hook(sample, weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(theta).all()
    assert peak < 2**20
