"""Tests for the estimator registry (`estimators.fit`) and the variance switch."""

import numpy as np
import pytest

from multiway import (
    CenteredScores,
    ClusteredSample,
    ConfigError,
    DegenerateDesignError,
    Dimensions,
    EcdfSpec,
    LinearModelSpec,
    PigeonholeWeights,
    UnsupportedError,
    mean_estimate,
    ols_fit,
    ols_sandwich,
    quantile_estimate,
    ratio_estimate,
    vhat1,
    vhat2,
    vhat_cgm,
)
from multiway.estimators import fit
from multiway.gmm import gmm_fit, probit_score_moments, quantile_iv_moments
from multiway.simulation import CellSizeLaw, DgpSpec, generate
from multiway.variance import estimate_variance

OLS_SPEC = LinearModelSpec(0, (1,))
QUANTILE_SPEC = EcdfSpec(1)
PROBIT = probit_score_moments(0, 1)

# estimator -> (fit options, direct estimate of theta, direct v1 variance matrix)
CASES = {
    "mean": (
        {},
        lambda s: mean_estimate(s).theta,
        lambda s: vhat1(mean_estimate(s).scores).matrix,
    ),
    "ratio": (
        {},
        lambda s: ratio_estimate(s).theta,
        lambda s: vhat1(ratio_estimate(s).scores).matrix,
    ),
    "ols": (
        {"spec": OLS_SPEC},
        lambda s: ols_fit(s, OLS_SPEC).theta,
        lambda s: ols_sandwich(ols_fit(s, OLS_SPEC)).matrix,
    ),
    "quantile": (
        {"spec": QUANTILE_SPEC, "tau": 0.3},
        lambda s: quantile_estimate(s, QUANTILE_SPEC, 0.3).theta,
        None,
    ),
    "gmm": (
        {"model": PROBIT},
        lambda s: gmm_fit(s, PROBIT).theta,
        lambda s: gmm_fit(s, PROBIT).vhat,
    ),
}
WITH_VARIANCE = [k for k, case in CASES.items() if case[2] is not None]


@pytest.fixture(scope="module")
def sample():
    # binary y and a continuous x: every estimator has something to fit
    dgp = DgpSpec(variant="probit", cell_sizes=CellSizeLaw("one_plus_poisson", mu=2.0))
    return generate(dgp, Dimensions((7, 6)), 11)[0]


@pytest.fixture(scope="module")
def fitted(sample):
    return {kind: fit(kind, sample, **CASES[kind][0]) for kind in CASES}


@pytest.mark.parametrize("kind", list(CASES))
def test_fit_theta_equals_direct_estimator(kind, sample, fitted):
    assert fitted[kind].kind == kind
    np.testing.assert_array_equal(fitted[kind].theta, CASES[kind][1](sample))


@pytest.mark.parametrize("kind", list(CASES))
def test_hook_with_identity_weights_reproduces_theta(kind, sample, fitted):
    f = fitted[kind]
    got = f.hook(f.prepared, PigeonholeWeights.identity(sample.dims))
    rtol = 1e-6 if kind == "gmm" else 1e-12
    np.testing.assert_allclose(got, f.theta, rtol=rtol, atol=1e-12)


@pytest.mark.parametrize("kind", WITH_VARIANCE)
def test_variance_v1_equals_direct_variance(kind, sample, fitted):
    np.testing.assert_array_equal(fitted[kind].variance("v1").matrix, CASES[kind][2](sample))


@pytest.mark.parametrize("kind", WITH_VARIANCE)
def test_unknown_variance_kind_is_config_error(kind, fitted):
    with pytest.raises(ConfigError, match="v9"):
        fitted[kind].variance("v9")


@pytest.mark.parametrize("vkind", ["v1", "v2", "cgm", "v9"])
def test_quantile_has_no_analytic_variance(vkind, fitted):
    with pytest.raises(UnsupportedError):
        fitted["quantile"].variance(vkind)


def test_unknown_estimator_is_config_error(sample):
    with pytest.raises(ConfigError, match="median"):
        fit("median", sample)


def test_ols_sandwich_unknown_kind_is_config_error(sample):
    with pytest.raises(ConfigError):
        ols_sandwich(ols_fit(sample, OLS_SPEC), kind="v9")


def test_variance_keeps_meat_metadata_under_the_bread(fitted):
    v = fitted["ols"].variance("cgm", "cgm")
    assert v.kind == "cgm"
    assert v.adjustments == {"preset": "cgm"}


def test_nonsmooth_gmm_meat_errors_come_before_the_missing_bread():
    rng = np.random.default_rng(3)
    x = rng.uniform(0.5, 2.0, 8)
    values = np.column_stack([1.5 * x + rng.normal(size=8), x, x])
    sample = ClusteredSample(Dimensions((8, 1)), values, np.arange(9))
    model = quantile_iv_moments(0.5, 0, [1], [2], bounds=np.array([[-5.0, 5.0]]))
    f = fit("gmm", sample, model=model)
    with pytest.raises(DegenerateDesignError):
        f.variance("v2")
    with pytest.raises(UnsupportedError, match="Jacobian"):
        f.variance("v1")


@pytest.mark.parametrize("counts", [(5, 4), (4, 3, 3)])
def test_estimate_variance_names_the_three_estimators(counts):
    rng = np.random.default_rng(len(counts))
    dims = Dimensions(counts)
    scores = CenteredScores(dims, rng.normal(size=(dims.pi_c, 2)))
    for kind, direct in [
        ("v1", vhat1(scores)),
        ("v2", vhat2(scores)),
        ("cgm", vhat_cgm(scores, "cgm")),
    ]:
        got = estimate_variance(scores, kind, "cgm")
        np.testing.assert_array_equal(got.matrix, direct.matrix)
        assert got.to_json_dict() == direct.to_json_dict()
    with pytest.raises(ConfigError, match="v9"):
        estimate_variance(scores, "v9")
