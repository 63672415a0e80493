"""An unidentified GMM model is refused at the fit, before any variance or
bootstrap: the Jacobian at theta-hat must have full column rank."""

import json

import numpy as np
import pytest

from multiway import Dimensions, SingularDesignError, load_sample
from multiway.cli import main
from multiway.dataio import write_dataset_csv
from multiway.estimators import fit
from multiway.gmm import MomentModel, probit_score_moments

from oracles import all_coords

DIMS = (6, 5)


def _sample(x):
    """A binary outcome with regressor column ``x``, two units per cell."""
    rng = np.random.default_rng(3)
    coords = all_coords(DIMS) * 2
    y = rng.integers(0, 2, size=len(coords)).astype(np.float64)
    x = np.broadcast_to(np.asarray(x, dtype=np.float64), y.shape)
    return load_sample(
        [(c, [yv, xv]) for c, yv, xv in zip(coords, y, x)], Dimensions(DIMS)
    )


@pytest.fixture
def constant_regressor_csv(tmp_path):
    # b0 + 2 b1 is identified, b0 and b1 are not: J has rank 1
    path = tmp_path / "constant.csv"
    write_dataset_csv(path, _sample(2.0))
    config = tmp_path / "probit.json"
    config.write_text(json.dumps({"family": "probit", "outcome_index": 0, "x_index": 1}))
    return path, config


def test_fit_refuses_a_constant_regressor():
    with pytest.raises(SingularDesignError):
        fit("gmm", _sample(2.0), model=probit_score_moments(0, 1))


def test_fit_accepts_a_varying_regressor():
    x = np.random.default_rng(4).normal(size=2 * np.prod(DIMS))
    res = fit("gmm", _sample(x), model=probit_score_moments(0, 1))
    assert np.all(np.isfinite(res.variance("v1").matrix))


@pytest.mark.parametrize("command", ["estimate", "bootstrap"])
def test_cli_refuses_a_constant_regressor_with_exit_4(
    command, constant_regressor_csv, tmp_path, capsys
):
    data, config = constant_regressor_csv
    out = tmp_path / "out"
    argv = [command, "--input", data, "--dims", "6,5", "--estimator", "gmm",
            "--model-config", config, "-o", out]
    if command == "bootstrap":
        argv += ["--b", "40", "--seed", "1"]
    assert main([str(a) for a in argv]) == 4
    assert "singular" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["constant.csv", "probit.json"]


def test_fit_refuses_a_nan_jacobian():
    model = MomentModel(
        fn=lambda v, t: v[:, [0]] - t[0],
        n_params=1,
        n_moments=1,
        bounds=np.array([[-10.0, 10.0]]),
        jacobian=lambda v, t: np.full((v.shape[0], 1, 1), np.nan),
    )
    with pytest.raises(SingularDesignError):
        fit("gmm", _sample(0.0), model=model)
