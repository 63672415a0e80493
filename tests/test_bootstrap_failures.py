"""run_bootstrap counts numerical failures as failed replicates and
re-raises programming errors."""

import numpy as np
import pytest

from multiway import CellSums, Dimensions, load_sample, run_bootstrap
from multiway.errors import ConvergenceError, InsufficientReplicatesError
from multiway.gmm import MomentModel, gmm_bootstrap_estimator, gmm_fit


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


def mean_moment_failing_below(n_units):
    """The moment y - theta, whose function raises a TypeError (a bug, not
    a refusal) on any sample with fewer than ``n_units`` units."""

    def fn(values, theta):
        if values.shape[0] < n_units:
            raise TypeError("bad operand")
        return values[:, :1] - theta

    return MomentModel(fn, n_params=1, n_moments=1, bounds=[[-10.0, 10.0]])


def gmm_sample():
    cells = [(i, j) for i in range(1, 4) for j in range(1, 4)]
    return load_sample([(c, [float(sum(c))]) for c in cells], Dimensions((3, 3)))


def gmm_hook_failing_on_replicates():
    """A GMM bootstrap hook whose moment function raises a TypeError on the
    cell subsamples of the replicates, and the sample it runs on."""
    sample = gmm_sample()
    model = mean_moment_failing_below(sample.n_units)
    theta = gmm_fit(sample, model).theta
    return gmm_bootstrap_estimator(model, warm_start=theta), sample


def raising(exc_type):
    return lambda: (failing_on_replicates(exc_type("bad operand")), sums())


# case -> (hook, sample) whose replicates raise a programming error, "bad operand"
HOOKS = {
    "hook": raising(TypeError),
    "gmm moment function": gmm_hook_failing_on_replicates,
    "FloatingPointError": raising(FloatingPointError),
    "NotImplementedError": raising(NotImplementedError),
    "RecursionError": raising(RecursionError),
}
PROGRAMMING_ERRORS = (TypeError, FloatingPointError, NotImplementedError, RecursionError)


@pytest.mark.parametrize("case", list(HOOKS))
def test_programming_error_in_hook_propagates(case):
    hook, prepared = HOOKS[case]()
    with pytest.raises(PROGRAMMING_ERRORS, match="bad operand"):
        run_bootstrap(hook, prepared, [1.0], b=5, seed=1)


def test_programming_error_in_moment_function_propagates_from_gmm_fit():
    sample = gmm_sample()
    with pytest.raises(TypeError, match="bad operand"):
        gmm_fit(sample, mean_moment_failing_below(sample.n_units + 1))


@pytest.mark.parametrize(
    "exc",
    [
        ConvergenceError("no convergence"),
        np.linalg.LinAlgError("singular"),
    ],
)
def test_numerical_failure_counts_as_failed_replicate(exc):
    def hook(s, w):
        if is_identity(w) or w.cell_weights()[0] == 0:
            return np.array([1.0])
        raise exc

    with pytest.warns(RuntimeWarning, match="bootstrap replicates failed"):
        reps = run_bootstrap(hook, sums(), [1.0], b=40, seed=3)
    assert 0 < reps.n_failed < 40
    assert reps.thetas.shape == (40 - reps.n_failed, 1)


def test_all_failed_replicates_are_counted_by_exception_class():
    seen = []

    def hook(s, w):
        if is_identity(w):
            return np.array([1.0])
        seen.append(len(seen))
        if len(seen) % 3 == 0:
            return np.array([np.nan])
        if len(seen) % 3 == 1:
            raise ConvergenceError(f"start {len(seen)} did not converge")
        raise np.linalg.LinAlgError("singular")

    with pytest.warns(RuntimeWarning), pytest.raises(InsufficientReplicatesError) as info:
        run_bootstrap(hook, sums(), [1.0], b=7, seed=3)
    assert str(info.value) == (
        "b: all 7 bootstrap replicates failed (ConvergenceError x3, LinAlgError x2, "
        "non-finite estimate x2); first: ConvergenceError: start 1 did not converge"
    )
