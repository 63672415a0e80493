"""Boundary cases of the bootstrap's counting rules.

Each test sits exactly on a threshold that a one-character change to the
code would move: the replicate floor of ``--b`` and ``--alpha``, the 1%
failed-replicate warning, the float slack of the ceil order statistic,
and the empty-draw check of the ratio hook.
"""

import warnings

import numpy as np
import pytest

from multiway import (
    CellSums,
    Dimensions,
    EcdfSpec,
    EmptySampleError,
    PigeonholeWeights,
    load_sample,
    quantile_estimate,
    run_bootstrap,
)
from multiway.bootstrap import BootstrapReplicates, min_replicates, percentile_ci, symmetric_abs_ci
from multiway.cli import main
from multiway.estimators import weighted_ratio


def test_min_replicates_rounds_up():
    # 2 / 0.03 = 66.67 and 1 / 0.03 = 33.33
    assert min_replicates("percentile", 0.03) == 67
    assert min_replicates("symmetric-abs", 0.03) == 34
    assert min_replicates("percentile", 0.05) == 40


@pytest.mark.parametrize("b,code", [(66, 2), (67, 0)])
def test_bootstrap_b_below_two_over_alpha_exits_2(tmp_path, b, code, capsys):
    data = tmp_path / "d.csv"
    assert main(["simulate", "--dgp", "additive", "--dims", "4,4", "--seed", "1",
                 "-o", str(data)]) == 0
    argv = ["bootstrap", "--input", str(data), "--dims", "4,4", "--estimator", "mean",
            "--b", str(b), "--alpha", "0.03", "--seed", "2", "-o", str(tmp_path / "boot")]
    assert main(argv) == code
    if code:
        assert "--b: 66 replicates cannot resolve --alpha 0.03; need at least 67" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "boot.ci.json").exists()


def _failing_first(n_fail):
    """A hook whose first call returns the estimate and whose next
    ``n_fail`` calls raise."""
    calls = []

    def hook(sums, weights):
        calls.append(None)
        if 1 < len(calls) <= n_fail + 1:
            raise np.linalg.LinAlgError("singular")
        return np.array([1.0])

    return hook


@pytest.mark.parametrize("n_fail,warned", [(1, False), (2, True)])
def test_failure_warning_starts_above_one_percent(n_fail, warned):
    sums = CellSums(Dimensions((3, 3)), np.ones((9, 1)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        reps = run_bootstrap(_failing_first(n_fail), sums, [1.0], b=100, seed=0)
    assert reps.n_failed == n_fail
    messages = [str(w.message) for w in caught]
    assert messages == ([f"{n_fail}/100 bootstrap replicates failed"] if warned else [])


def _reps(values, theta=0.0):
    values = np.asarray(values, dtype=np.float64)[:, None]
    n = values.shape[0]
    return BootstrapReplicates(values, np.arange(n), np.array([theta]), n)


def test_order_statistic_slack_absorbs_the_float_excess():
    # 10 * (1 - 0.7) is 3.0000000000000004 in floats; the 3rd order statistic
    assert symmetric_abs_ci(_reps(np.arange(1.0, 11.0)), alpha=0.7).radius == 3.0
    # 25 * 0.56 / 2 is 7.000000000000001: the 7th (and the 18th)
    per = percentile_ci(_reps(np.arange(1.0, 26.0)), alpha=0.56)
    assert per.lower.tolist() == [7.0] and per.upper.tolist() == [18.0]


def test_order_statistic_slack_is_below_a_real_excess():
    # 1000 * (1 - alpha) is 900.0000005: ceil reads the 901st
    alpha = 0.0999999995
    assert symmetric_abs_ci(_reps(np.arange(1.0, 1001.0)), alpha).radius == 901.0


def test_quantile_slack_absorbs_the_float_excess():
    # 25 * 0.28 is 7.000000000000001 in floats; the 7th of 25 values
    coords = [(i, j) for i in range(1, 6) for j in range(1, 6)]
    sample = load_sample([(c, [float(v)]) for v, c in enumerate(coords, 1)], Dimensions((5, 5)))
    assert quantile_estimate(sample, EcdfSpec(), 0.28).theta.tolist() == [7.0]


def test_ratio_hook_refuses_a_draw_with_no_units():
    # the drawn cell holds no units, so the weighted unit count is exactly zero
    sums = CellSums(Dimensions((2, 1)), np.array([[0.0, 0.0], [5.0, 3.0]]))
    w = PigeonholeWeights(Dimensions((2, 1)), (np.array([2, 0]), np.array([1])))
    with pytest.raises(EmptySampleError, match="no units"):
        weighted_ratio(sums, w)
