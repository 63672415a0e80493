"""Every estimator returns a `Fitted`, and `fit` is a thin dispatch over them;
`vhat2` is one coefficient row that computes each pair sum once."""

import itertools
from dataclasses import fields

import numpy as np
import pytest

import multiway.estimators
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
    vhat2,
)
from multiway.estimators import fit
from multiway.simulation import CellSizeLaw, DgpSpec, generate

OLS_SPEC = LinearModelSpec(0, (1,))
QUANTILE_SPEC = EcdfSpec(1)

# estimator -> (fit options, the direct estimator call)
DIRECT = {
    "mean": ({}, lambda s: mean_estimate(s)),
    "ratio": ({}, lambda s: ratio_estimate(s)),
    "ols": ({"spec": OLS_SPEC}, lambda s: ols_fit(s, OLS_SPEC)),
    "quantile": (
        {"spec": QUANTILE_SPEC, "tau": 0.3},
        lambda s: quantile_estimate(s, QUANTILE_SPEC, 0.3),
    ),
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
    np.testing.assert_array_equal(got.theta, want.theta)
    if want.scores is None:
        assert got.scores is None
    else:
        assert_same_arrays(got.scores, want.scores)
    assert_same_arrays(got.prepared, want.prepared)
    assert got.hook is want.hook
    want_meta = {key: v for key, v in want.meta.items() if key != "jhat"}
    assert got.meta == want_meta


def test_fit_ols_meta_keeps_the_diagnostics_key_order(sample):
    meta = fit("ols", sample, spec=OLS_SPEC).meta
    assert list(meta) == ["n_units", "residual_norm", "gram_condition"]
    assert "jhat" in ols_fit(sample, OLS_SPEC).meta


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
