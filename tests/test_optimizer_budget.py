"""An optimizer that spends its whole ``max_evals`` without converging
raises ConvergenceError with the best point it found, and the command line
exits 5 with no output file: Gauss-Newton (smooth models), the bracketing
grid (one nonsmooth coefficient) and Nelder-Mead (several)."""

import json

import numpy as np
import pytest

from multiway import ConvergenceError, Dimensions
from multiway.cli import main
from multiway.data import sample_from_cell_ids
from multiway.dataio import write_dataset_csv
from multiway.gmm import (
    OptimizerConfig, WeightMatrix, gmm_fit, gmm_objective, quantile_iv_moments
)


def _design():
    """300 units on 6x5: a median regression W = 0.5 + 1.5 X + U, its
    constant regressor, X, and a binary outcome for the probit."""
    rng = np.random.default_rng(3)
    ids = rng.integers(0, 30, 300)
    x = rng.normal(size=300)
    w = 0.5 + 1.5 * x + rng.normal(size=300)
    ybin = (x + rng.normal(size=300) > 0).astype(np.float64)
    values = np.column_stack([w, np.ones(300), x, ybin])
    return sample_from_cell_ids(Dimensions((6, 5)), ids, values)


def test_grid_budget_below_one_round_raises_with_a_best_theta():
    # 100 evaluations end inside the grid's first round of 201 points; the
    # best of those 100 is the point reported
    sample = _design()
    model = quantile_iv_moments(0.5, 0, [2], [2], bounds=[(-5, 5)])
    with pytest.raises(ConvergenceError, match="grid search") as exc:
        gmm_fit(sample, model, config=OptimizerConfig(max_evals=100))
    xs = np.linspace(-5.0, 5.0, 201)[:100]
    fs = [gmm_objective(sample, model, WeightMatrix.identity(1), [x]) for x in xs]
    assert np.isfinite(exc.value.best_value) and exc.value.best_value == min(fs)
    assert exc.value.best_theta.tolist() == [xs[int(np.argmin(fs))]]


def test_nelder_mead_with_no_converged_start_raises_with_a_best_theta():
    # 5 // 5 = one evaluation per start: none of the five converges
    model = quantile_iv_moments(0.5, 0, [1, 2], [1, 2])
    with pytest.raises(ConvergenceError, match="Nelder-Mead") as exc:
        gmm_fit(_design(), model, config=OptimizerConfig(n_starts=5, max_evals=5))
    theta = exc.value.best_theta
    assert theta.shape == (2,) and np.all(np.abs(theta) <= 10.0)
    assert np.isfinite(exc.value.best_value)


MODELS = {
    "gauss-newton": (
        {"family": "probit", "outcome_index": 3, "x_index": 2, "optimizer": {"max_evals": 1}},
        "Gauss-Newton did not converge in 1 of max_evals=1 evaluations",
    ),
    "grid": (
        {"family": "quantile_iv", "tau": 0.5, "outcome_index": 0, "x_indices": [2],
         "z_indices": [2], "optimizer": {"max_evals": 100}},
        "grid search",
    ),
    "nelder-mead": (
        {"family": "quantile_iv", "tau": 0.5, "outcome_index": 0, "x_indices": [1, 2],
         "z_indices": [1, 2], "optimizer": {"n_starts": 5, "max_evals": 5}},
        "Nelder-Mead",
    ),
}


@pytest.mark.parametrize("optimizer", list(MODELS))
@pytest.mark.parametrize("command", ["estimate", "bootstrap"])
def test_exhausted_budget_exits_5_with_no_output(optimizer, command, tmp_path, capsys):
    doc, message = MODELS[optimizer]
    data, model = tmp_path / "d.csv", tmp_path / "model.json"
    write_dataset_csv(data, _design())
    model.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = [command, "--input", str(data), "--dims", "6,5", "--estimator", "gmm",
            "--model-config", str(model), "-o", str(out)]
    if command == "bootstrap":
        argv += ["--b", "40"]
    assert main(argv) == 5
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "model.json"]
