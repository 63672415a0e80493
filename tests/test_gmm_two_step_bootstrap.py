"""The two-step GMM bootstrap re-estimates with the two-step weight.

``run_bootstrap`` stores the identity-weight replicate as ``theta_hat``,
the centre of the symmetric-abs region, and requires it to reproduce the
estimate. For a two-step fit that holds only if every replicate solves
with the fitted weight Xi = (H(theta_1) + ridge I)^-1, not the identity.
The over-identified quantile-IV case below has instruments on very
different scales, so the identity and two-step weights give different
estimates.
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
    reps = run_bootstrap(fitted.hook, fitted.prepared, 5, 3)
    assert reps.theta_hat.tobytes() == fitted.theta.tobytes()


def test_bootstrap_cli_centres_the_two_step_region_on_theta(tmp_path):
    data, model, base = tmp_path / "qiv.csv", tmp_path / "model.json", tmp_path / "boot"
    write_dataset_csv(data, quantile_iv_sample())
    write_json(model, {**QIV, "xi": "two_step"})
    argv = ["bootstrap", "--input", data, "--dims", "12,12", "--estimator", "gmm",
            "--model-config", model, "--b", "40", "--seed", "1", "-o", base]
    assert main([str(a) for a in argv]) == 0
    ci = json.loads((tmp_path / "boot.ci.json").read_text())
    assert ci["symmetric_abs"]["center"] == ci["theta"]
