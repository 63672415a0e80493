"""run_bootstrap counts numerical failures as failed replicates and
re-raises programming errors."""

import numpy as np
import pytest

from multiway import CellSums, Dimensions, run_bootstrap
from multiway.errors import ConvergenceError


def sums():
    return CellSums(Dimensions((3, 3)), np.ones((9, 1)))


def is_identity(w):
    return bool(np.all(w.cell_weights() == 1))


def failing_on_replicates(exc):
    def hook(s, w):
        if is_identity(w):
            return np.array([1.0])
        raise exc

    return hook


def test_programming_error_in_hook_propagates():
    with pytest.raises(TypeError, match="bad operand"):
        run_bootstrap(failing_on_replicates(TypeError("bad operand")), sums(), b=5, seed=1)


@pytest.mark.parametrize(
    "exc",
    [
        ConvergenceError("no convergence"),
        np.linalg.LinAlgError("singular"),
        FloatingPointError("overflow"),
    ],
)
def test_numerical_failure_counts_as_failed_replicate(exc):
    def hook(s, w):
        if is_identity(w) or w.cell_weights()[0] == 0:
            return np.array([1.0])
        raise exc

    with pytest.warns(RuntimeWarning, match="bootstrap replicates failed"):
        reps = run_bootstrap(hook, sums(), b=40, seed=3)
    assert 0 < reps.n_failed < 40
    assert reps.thetas.shape == (40 - reps.n_failed, 1)
