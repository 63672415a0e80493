"""Every estimator returns a `Fitted`, and `fit` is a thin dispatch over them;
the variance estimators are coefficient rows over one pair-sum table per
score set, which computes each pair sum once."""

import itertools
from dataclasses import fields

import numpy as np
import pytest

import multiway.estimators
import multiway.simulation
import multiway.variance
from multiway import (
    CenteredScores,
    Dimensions,
    EcdfSpec,
    Fitted,
    LinearModelSpec,
    PigeonholeWeights,
    mean_estimate,
    ols_fit,
    ols_sandwich,
    quantile_estimate,
    ratio_estimate,
    sigma_subset,
    vhat1,
    vhat2,
    vhat_cgm,
)
from multiway.cli import main
from multiway.estimators import fit
from multiway.gmm import gmm_fit, probit_score_moments, quantile_iv_moments
from multiway.simulation import CellSizeLaw, DgpSpec, McConfig, generate

OLS_SPEC = LinearModelSpec(0, (1,))
QUANTILE_SPEC = EcdfSpec(1)
PROBIT = probit_score_moments(0, 1)

# estimator -> (fit options, the direct estimator call)
DIRECT = {
    "mean": ({}, lambda s: mean_estimate(s)),
    "ratio": ({}, lambda s: ratio_estimate(s)),
    "ols": ({"spec": OLS_SPEC}, lambda s: ols_fit(s, OLS_SPEC)),
    "quantile": (
        {"spec": QUANTILE_SPEC, "tau": 0.3},
        lambda s: quantile_estimate(s, QUANTILE_SPEC, 0.3),
    ),
    "gmm": ({"model": PROBIT}, lambda s: gmm_fit(s, PROBIT)),
}


@pytest.fixture(scope="module")
def sample():
    dgp = DgpSpec(variant="probit", cell_sizes=CellSizeLaw("one_plus_poisson", mu=2.0))
    return generate(dgp, Dimensions((7, 6)), 5)[0]


def assert_same_arrays(a, b):
    """Equal type and bit-identical array fields (dataclass) or arrays."""
    assert type(a) is type(b)
    if hasattr(a, "__dataclass_fields__"):
        for f in fields(a):
            assert_same_arrays(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b)
    else:
        assert a == b


@pytest.mark.parametrize("kind", list(DIRECT))
def test_direct_estimator_returns_fitted_whose_hook_reproduces_theta(kind, sample):
    res = DIRECT[kind][1](sample)
    assert isinstance(res, Fitted)
    assert res.kind == kind
    got = res.hook(res.prepared, PigeonholeWeights.identity(sample.dims))
    np.testing.assert_allclose(got, res.theta, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", list(DIRECT))
def test_fit_equals_direct_estimator_field_by_field(kind, sample):
    options, direct = DIRECT[kind]
    got, want = fit(kind, sample, **options), direct(sample)
    assert got.kind == want.kind
    np.testing.assert_array_equal(got.theta, want.theta)
    if want.scores is None:
        assert got.scores is None
    else:
        assert_same_arrays(got.scores, want.scores)
    assert_same_arrays(got.prepared, want.prepared)
    if kind == "gmm":  # each fit warm-starts a hook closure of its own
        identity = PigeonholeWeights.identity(sample.dims)
        assert got.hook(got.prepared, identity).tobytes() == want.hook(
            want.prepared, identity
        ).tobytes()
    else:
        assert got.hook is want.hook
    assert list(got.meta) == list(want.meta)
    for key, value in want.meta.items():
        assert_same_arrays(got.meta[key], value)
    assert got.has_variance is want.has_variance
    if want.has_variance:
        assert got.variance("v1").matrix.tobytes() == want.variance("v1").matrix.tobytes()


@pytest.mark.parametrize("kind", list(DIRECT))
def test_has_variance_of_the_direct_estimators(kind, sample):
    fitted = fit(kind, sample, **DIRECT[kind][0])
    assert fitted.has_variance is (kind != "quantile")


def test_has_variance_is_false_for_a_nonsmooth_gmm_fit(sample):
    smooth = fit("gmm", sample, model=probit_score_moments(0, 1))
    nonsmooth = fit("gmm", sample, model=quantile_iv_moments(0.5, 0, [1], [1]))
    assert smooth.has_variance and smooth.variance("v1").matrix.shape == (2, 2)
    assert not nonsmooth.has_variance and nonsmooth.scores is not None


def test_fit_ols_meta_keeps_the_diagnostics_key_order(sample):
    meta = fit("ols", sample, spec=OLS_SPEC).meta
    assert list(meta) == ["n_units", "residual_norm", "gram_condition", "jhat"]


@pytest.mark.parametrize("vkind", ["v1", "v2", "cgm"])
def test_ols_sandwich_accepts_the_registry_fit(vkind, sample):
    fitted = fit("ols", sample, spec=OLS_SPEC)
    np.testing.assert_array_equal(
        ols_sandwich(fitted, vkind).matrix, ols_sandwich(ols_fit(sample, OLS_SPEC), vkind).matrix
    )


def test_ols_sandwich_rejects_a_mean_result(sample):
    with pytest.raises(ValueError, match="ols_fit"):
        ols_sandwich(mean_estimate(sample))


def test_fit_quantile_sorts_the_pooled_values_once(sample, monkeypatch):
    calls = []
    original = multiway.estimators.quantile_data

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(multiway.estimators, "quantile_data", counting)
    fit("quantile", sample, spec=QUANTILE_SPEC, tau=0.3)
    assert len(calls) == 1


def count_margin_passes(monkeypatch) -> list:
    """The axes of every ``multiway.variance.subset_margin_sum`` call from now on."""
    calls = []
    original = multiway.variance.subset_margin_sum

    def counting(sums, axes):
        calls.append(tuple(axes))
        return original(sums, axes)

    monkeypatch.setattr(multiway.variance, "subset_margin_sum", counting)
    return calls


def random_scores(counts) -> CenteredScores:
    rng = np.random.default_rng(len(counts))
    dims = Dimensions(counts)
    return CenteredScores(dims, rng.normal(size=(dims.pi_c, 2)))


@pytest.mark.parametrize("counts, n_subsets", [((5, 4), 3), ((4, 3, 3), 7)])
def test_vhat2_computes_each_pair_sum_once(counts, n_subsets, monkeypatch):
    rng = np.random.default_rng(len(counts))
    dims = Dimensions(counts)
    scores = CenteredScores(dims, rng.normal(size=(dims.pi_c, 2)))
    calls = []
    original = multiway.variance.subset_margin_sum

    def counting(sums, axes):
        calls.append(tuple(axes))
        return original(sums, axes)

    monkeypatch.setattr(multiway.variance, "subset_margin_sum", counting)
    vhat2(scores)
    assert len(calls) == n_subsets
    all_subsets = [
        axes for r in range(1, dims.k + 1) for axes in itertools.combinations(range(dims.k), r)
    ]
    assert calls == all_subsets


def count_margin_passes(monkeypatch) -> list:
    """The axes of every ``multiway.variance.subset_margin_sum`` call from now on."""
    calls = []
    original = multiway.variance.subset_margin_sum

    def counting(sums, axes):
        calls.append(tuple(axes))
        return original(sums, axes)

    monkeypatch.setattr(multiway.variance, "subset_margin_sum", counting)
    return calls


def random_scores(counts) -> CenteredScores:
    rng = np.random.default_rng(len(counts))
    dims = Dimensions(counts)
    return CenteredScores(dims, rng.normal(size=(dims.pi_c, 2)))


@pytest.mark.parametrize(
    "dgp, dims, n_subsets", [("additive", "5,4", 3), ("additive3", "4,3,3", 7)]
)
def test_estimate_with_three_variances_computes_each_pair_sum_once(
    dgp, dims, n_subsets, tmp_path, monkeypatch
):
    data = tmp_path / "d.csv"
    assert main(["simulate", "--dgp", dgp, "--dims", dims, "--seed", "2", "-o", str(data)]) == 0
    calls = count_margin_passes(monkeypatch)
    argv = ["estimate", "--input", str(data), "--dims", dims, "--variance", "v1,v2,cgm"]
    assert main([*argv, "-o", str(tmp_path / "e.json")]) == 0
    # v1, v2 and cgm, plus the two-way identity diagnostic on a 2-way input
    assert len(calls) == n_subsets
    assert len(set(calls)) == n_subsets


def test_mc_replication_with_three_wald_methods_computes_each_pair_sum_once(monkeypatch):
    dgp = DgpSpec(variant="additive")
    config = McConfig(
        dgp=dgp,
        dims=Dimensions((20, 20)),
        replications=1,
        methods=("wald-v1", "wald-v2", "wald-cgm"),
    )
    calls = count_margin_passes(monkeypatch)
    out = multiway.simulation._one_replication(config, 0)
    assert all(outcome is not None for outcome in out["outcomes"].values())
    assert "near_zero_variance" in out
    assert sorted(calls) == [(0,), (0, 1), (1,)]


@pytest.mark.parametrize("counts", [(5, 4), (4, 3, 3)])
def test_vhat1_reads_only_the_one_way_pair_sums(counts, monkeypatch):
    scores = random_scores(counts)
    calls = count_margin_passes(monkeypatch)
    vhat1(scores)
    assert calls == [(i,) for i in range(len(counts))]


def test_sigma_subset_is_the_same_for_any_axis_order(monkeypatch):
    scores = random_scores((5, 4))
    calls = count_margin_passes(monkeypatch)
    first = sigma_subset(scores, (0, 1))
    second = sigma_subset(scores, (1, 0))
    assert first.tobytes() == second.tobytes()
    assert calls == [(0, 1)]


def test_pair_sum_table_is_read_only():
    scores = random_scores((5, 4))
    table = scores.pair_sum((1,))
    with pytest.raises(ValueError):
        table[0, 0] = 0.0
    assert sigma_subset(scores, (1,)).tobytes() == (1.0 / 20**2 * table).tobytes()


@pytest.mark.parametrize("counts", [(5, 4), (4, 3, 3)])
def test_warm_table_gives_the_bytes_of_a_fresh_one(counts):
    warm = random_scores(counts)
    sigma_subset(warm, tuple(reversed(range(len(counts)))))
    vhat_cgm(warm, "cgm")
    for est in (vhat1, vhat2, vhat_cgm):
        fresh = CenteredScores(warm.dims, warm.values.copy())
        assert est(warm).matrix.tobytes() == est(fresh).matrix.tobytes()
