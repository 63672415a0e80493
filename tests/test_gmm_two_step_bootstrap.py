"""The two-step GMM bootstrap re-estimates with the two-step weight.

The hook at identity weights reproduces the estimate only if every
replicate solves with the fitted weight Xi = (H(theta_1) + ridge I)^-1,
not the identity. The over-identified quantile-IV case below has
instruments on very different scales, so the identity and two-step
weights give different estimates. The symmetric-abs region of
``bootstrap`` is centred on the printed theta for every estimator.
"""

import json

import numpy as np
import pytest

from multiway import Dimensions, run_bootstrap
from multiway.bootstrap import PigeonholeWeights
from multiway.cli import main
from multiway.data import sample_from_cell_ids
from multiway.dataio import write_dataset_csv, write_json
from multiway.estimators import fit
from multiway.gmm import probit_score_moments, quantile_iv_moments
from multiway.simulation import CellSizeLaw, DgpSpec, generate

QIV = {"family": "quantile_iv", "tau": 0.5, "outcome_index": 0,
       "x_indices": [1], "z_indices": [2, 3]}


def quantile_iv_sample(seed=2, counts=(12, 12), n=600):
    """W = X + heavy-tailed, heteroskedastic noise; instruments 50 Z1 and Z2."""
    rng = np.random.default_rng(seed)
    dims = Dimensions(counts)
    cells = rng.integers(0, dims.pi_c, n)
    z1, z2 = rng.normal(size=n), rng.normal(size=n)
    x = 0.5 * z1 + z2 + 0.5 * rng.normal(size=n)
    w = x + rng.standard_t(3, size=n) + 0.8 * x * rng.normal(size=n)
    return sample_from_cell_ids(dims, cells, np.column_stack([w, x, 50 * z1, z2]))


def probit_sample():
    dgp = DgpSpec(variant="probit", cell_sizes=CellSizeLaw("one_plus_poisson", mu=3.0))
    sample, _ = generate(dgp, Dimensions((10, 10)), seed=4)
    return sample


def qiv_model():
    return quantile_iv_moments(0.5, 0, [1], [2, 3])


def test_case_separates_the_one_step_and_two_step_estimates():
    sample = quantile_iv_sample()
    one = fit("gmm", sample, model=qiv_model())
    two = fit("gmm", sample, model=qiv_model(), two_step=True)
    assert abs(one.theta[0] - two.theta[0]) > 0.05


@pytest.mark.parametrize("two_step", [False, True])
@pytest.mark.parametrize("case", ["quantile_iv", "probit"])
def test_identity_weight_replicate_reproduces_the_estimate(case, two_step):
    if case == "quantile_iv":
        sample, model = quantile_iv_sample(), qiv_model()
    else:
        sample, model = probit_sample(), probit_score_moments(0, 1)
    fitted = fit("gmm", sample, model=model, two_step=two_step)
    theta = fitted.hook(fitted.prepared, PigeonholeWeights.identity(sample.dims))
    assert theta.tobytes() == fitted.theta.tobytes()
    reps = run_bootstrap(fitted.hook, fitted.prepared, fitted.theta, 5, 3)
    assert reps.theta_hat.tobytes() == fitted.theta.tobytes()


# case -> (sample, estimator flags, model config or None)
CENTRED = {
    "mean": (quantile_iv_sample, ["--estimator", "mean"], None),
    "ratio": (quantile_iv_sample, ["--estimator", "ratio"], None),
    "ols": (quantile_iv_sample, ["--estimator", "ols", "--outcome", "0", "--regressors", "1"],
            None),
    "quantile": (quantile_iv_sample, ["--estimator", "quantile", "--tau", "0.5"], None),
    "gmm-probit": (probit_sample, ["--estimator", "gmm"],
                   {"family": "probit", "outcome_index": 0, "x_index": 1}),
    "gmm-quantile-iv-two-step": (quantile_iv_sample, ["--estimator", "gmm"],
                                 {**QIV, "xi": "two_step"}),
}


@pytest.mark.parametrize("case", list(CENTRED))
def test_bootstrap_cli_centres_the_two_step_region_on_theta(tmp_path, case):
    make, flags, config = CENTRED[case]
    data, model, base = tmp_path / "d.csv", tmp_path / "model.json", tmp_path / "boot"
    sample = make()
    write_dataset_csv(data, sample)
    if config is not None:
        write_json(model, config)
        flags = [*flags, "--model-config", model]
    dims = ",".join(map(str, sample.dims.counts))
    argv = ["bootstrap", "--input", data, "--dims", dims, *flags,
            "--b", "40", "--seed", "1", "-o", base]
    assert main([str(a) for a in argv]) == 0
    ci = json.loads((tmp_path / "boot.ci.json").read_text())
    assert ci["symmetric_abs"]["center"] == ci["theta"]
