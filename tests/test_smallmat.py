"""The small fixed-order matrix kernel, and the paths that run on it.

``multiway.smallmat`` does every p x p and L x p matrix of the package in
Python floats. Its results are compared here with ``numpy.linalg`` (the
reference, in this file only) on random and ill-conditioned matrices, and
the smallest singular value with mpmath, since LAPACK's own is accurate
only relative to the largest. The probit fit, its variance and bootstrap
replicates, the quantile-IV grid fit, the OLS fit with its three variances
and its bootstrap, and the Wald region then run with every ``numpy.linalg``
function refusing, and child processes write the same bytes under two
OpenBLAS kernel sets.
"""

import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from multiway import Dimensions, LinearModelSpec, ols_fit, smallmat
from multiway.bootstrap import PigeonholeWeights, draw_weights, run_bootstrap
from multiway.data import sample_from_cell_ids
from multiway.errors import SingularDesignError, SingularVarianceError
from multiway.estimators import weighted_ols
from multiway.gmm import (
    WeightMatrix,
    gmm_fit,
    gmm_objective,
    probit_score_moments,
    quantile_iv_moments,
)
from multiway.seeding import stream_rng
from multiway.variance import wald_region

EPS = np.finfo(np.float64).eps
SRC = Path(__file__).resolve().parents[1] / "src"


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _spd(rng, n, cond):
    """A random SPD matrix with eigenvalues spread log-evenly over [1/cond, 1]."""
    q = _orthogonal(rng, n)
    eig = np.geomspace(1.0, 1.0 / cond, n) if n > 1 else np.ones(1)
    a = (q * eig) @ q.T
    return 0.5 * (a + a.T)


CASES = [(n, cond, seed) for n in (1, 2, 3, 5) for cond in (1.0, 1e3, 1e8, 1e12)
         for seed in range(3)]


@pytest.mark.parametrize("n,cond,seed", CASES)
def test_cholesky_solve_and_inverse_match_numpy(n, cond, seed):
    rng = np.random.default_rng(100 * n + seed)
    a = _spd(rng, n, cond) * 10.0 ** rng.integers(-3, 4)
    low = np.array(smallmat.cholesky(a.tolist()))
    assert np.array_equal(low, np.tril(low))
    scale = np.abs(a).max()
    assert np.abs(low @ low.T - a).max() <= 8 * n * EPS * scale
    ref = np.linalg.cholesky(a)
    assert np.abs(low - ref).max() <= 8 * n * EPS * cond * np.abs(ref).max()

    b = rng.normal(size=n)
    x = np.array(smallmat.cho_solve(low.tolist(), b.tolist()))
    x_ref = np.linalg.solve(a, b)
    assert np.abs(x - x_ref).max() <= 16 * n * EPS * cond * np.abs(x_ref).max()

    inv = np.array(smallmat.spd_inverse(a.tolist()))
    assert np.array_equal(inv, inv.T)
    inv_ref = np.linalg.inv(a)
    assert np.abs(inv - inv_ref).max() <= 16 * n * EPS * cond * np.abs(inv_ref).max()


def test_shift_adds_to_the_diagonal():
    a = [[4.0, 1.0], [1.0, 3.0]]
    shifted = [[4.5, 1.0], [1.0, 3.5]]
    assert smallmat.cholesky(a, 0.5) == smallmat.cholesky(shifted)
    assert smallmat.spd_inverse(a, 0.5) == smallmat.spd_inverse(shifted)


@pytest.mark.parametrize(
    "a",
    [
        [[1.0, 2.0], [2.0, 1.0]],  # indefinite
        [[1.0, 1.0], [1.0, 1.0]],  # singular
        [[0.0]],
        [[-1.0]],
        [[1.0, 0.0], [math.nan, 1.0]],
        [[math.nan, 0.0], [0.0, 1.0]],
        [[1.0, 0.0], [0.0, math.inf]],
        [[1.0, 0.0], [-math.inf, 1.0]],
    ],
)
def test_refuses_what_is_not_positive_definite(a):
    with pytest.raises(smallmat.NotPositiveDefinite):
        smallmat.cholesky(a)
    with pytest.raises(smallmat.NotPositiveDefinite):
        smallmat.spd_inverse(a)


def test_products_match_numpy_and_add_in_index_order():
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=(4, 3)), rng.normal(size=(3, 2))
    x, y = rng.normal(size=3), rng.normal(size=4)
    close = {"rtol": 1e-14, "atol": 1e-14}
    assert np.allclose(smallmat.matmul(a.tolist(), b.tolist()), a @ b, **close)
    assert np.allclose(smallmat.matvec(a.tolist(), x.tolist()), a @ x, **close)
    assert np.allclose(smallmat.tmatvec(a.tolist(), y.tolist()), a.T @ y, **close)
    g = smallmat.gram(a.tolist())
    assert np.allclose(g, a.T @ a, **close)
    assert np.array_equal(np.array(g), np.array(g).T)
    assert smallmat.trace(g) == g[0][0] + g[1][1] + g[2][2]
    # the order is fixed: products added one after another from the first
    assert smallmat.dot(x.tolist(), x.tolist()) == np.add.accumulate(x * x)[-1]
    assert smallmat.dot([1e16, 1.0, -1e16], [1.0, 1.0, 1.0]) == 0.0


@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (2, 2), (3, 2), (5, 3), (4, 4)])
@pytest.mark.parametrize("cond", [1.0, 1e4, 1e8, 1e12])
def test_singular_values_match_numpy(shape, cond):
    rng = np.random.default_rng(sum(shape) + int(math.log10(cond)))
    m, n = shape
    s = np.geomspace(1.0, 1.0 / cond, n) if n > 1 else np.ones(1)
    a = _orthogonal(rng, m)[:, :n] * s @ _orthogonal(rng, n).T * 3.0
    got = smallmat.singular_values(a.tolist())
    ref = np.linalg.svd(a, compute_uv=False)[::-1]
    assert got == sorted(got)
    # LAPACK's absolute accuracy, relative to the largest singular value
    assert np.abs(np.array(got) - ref).max() <= 16 * m * EPS * ref[-1]


@pytest.mark.parametrize("grade", [1e-4, 1e-8, 1e-12])
def test_smallest_singular_value_is_accurate_relative_to_itself(grade):
    """Columns of very different norms (a well-conditioned matrix times a
    graded diagonal): one-sided Jacobi keeps a small relative error in the
    smallest singular value, checked against mpmath at 50 digits."""
    rng = np.random.default_rng(int(-math.log10(grade)))
    for m, n in [(2, 2), (3, 2), (4, 3)]:
        a = rng.normal(size=(m, n)) * np.geomspace(1.0, grade, n)
        got = smallmat.singular_values(a.tolist())
        with mpmath.workdps(50):
            ref = sorted(float(v) for v in mpmath.svd_r(mpmath.matrix(a.tolist()),
                                                         compute_uv=False))
        rel = [abs(g - r) / r for g, r in zip(got, ref)]
        assert max(rel) <= 64 * EPS, (m, n, rel)


def test_singular_values_of_extreme_scales_and_zero_columns():
    for scale in (1e-300, 1e-150, 1e150, 1e300):
        a = np.array([[3.0, 1.0], [1.0, 2.0], [0.5, -1.0]]) * scale
        got = np.array(smallmat.singular_values(a.tolist()))
        ref = np.linalg.svd(a / scale, compute_uv=False)[::-1] * scale
        assert np.allclose(got, ref, rtol=1e-14, atol=0), scale
    assert smallmat.singular_values([[0.0, 0.0], [0.0, 0.0]]) == [0.0, 0.0]
    assert smallmat.singular_values([[1.0, 0.0], [0.0, 0.0]]) == [0.0, 1.0]
    assert smallmat.isfinite([[1.0, 2.0]]) and not smallmat.isfinite([[1.0, math.nan]])


SOLVE_CASES = [(n, cond, seed) for n in (1, 2, 3, 4) for cond in (1.0, 1e4, 1e8)
               for seed in range(3)]


@pytest.mark.parametrize("n,cond,seed", SOLVE_CASES)
def test_solve_matches_numpy_within_a_backward_error_bound(n, cond, seed):
    rng = np.random.default_rng(1000 + 100 * n + seed)
    s = np.geomspace(1.0, 1.0 / cond, n) if n > 1 else np.ones(1)
    a = _orthogonal(rng, n) * s @ _orthogonal(rng, n).T * 10.0 ** rng.integers(-3, 4)
    b = rng.normal(size=(n, 3))
    x = np.array(smallmat.solve(a.tolist(), b.tolist()))
    assert x.shape == (n, 3)
    # x solves a system within a few ulps of a: small residuals, column by column
    scale = n * np.abs(a).max() * np.abs(x).max(axis=0) + np.abs(b).max(axis=0)
    assert (np.abs(a @ x - b).max(axis=0) <= 4 * n * EPS * scale).all()
    # so it is within cond(a) ulps of numpy's solution
    x_ref = np.linalg.solve(a, b)
    assert np.abs(x - x_ref).max() <= 4 * n * EPS * cond * np.abs(x_ref).max()


def test_solve_swaps_rows_past_a_zero_pivot():
    assert smallmat.solve([[0.0, 2.0], [4.0, 1.0]], [[2.0], [9.0]]) == [[2.0], [1.0]]
    # the second pivot is zero once the first column is eliminated
    a = [[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]]
    assert smallmat.solve(a, [[3.0], [6.0], [5.0]]) == [[1.0], [2.0], [3.0]]


@pytest.mark.parametrize(
    "a",
    [
        [[1.0, 2.0], [2.0, 4.0]],
        [[0.0, 0.0], [0.0, 1.0]],
        [[0.0]],
        [[1.0, math.nan], [0.0, 1.0]],  # no pivot reads the NaN
        [[math.inf, 0.0], [0.0, 1.0]],
        [[1e308, 1e308], [-1e308, 1e308]],  # the second pivot overflows
    ],
)
def test_solve_refuses_singular_and_non_finite_matrices(a):
    with pytest.raises(smallmat.Singular):
        smallmat.solve(a, [[1.0] for _ in a])


# ---------------------------------------------------------------------
# The fit, variance and bootstrap paths with numpy.linalg refusing
# ---------------------------------------------------------------------


def _probit_sample(counts=(10, 10), seed=3):
    rng = np.random.default_rng(seed)
    dims = Dimensions(counts)
    ids = np.repeat(np.arange(dims.pi_c), rng.poisson(3.0, dims.pi_c))
    x = rng.normal(size=ids.shape[0])
    y = (0.3 + 0.8 * x + rng.normal(size=ids.shape[0]) > 0).astype(np.float64)
    z = x + 0.5 * rng.normal(size=ids.shape[0])
    return sample_from_cell_ids(dims, ids, np.column_stack([y, x, z]))


@pytest.fixture
def no_linalg(monkeypatch):
    """Every function of numpy.linalg raises."""

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg was called")

    for name, obj in vars(np.linalg).items():
        if callable(obj) and not inspect.isclass(obj) and not name.startswith("_"):
            monkeypatch.setattr(np.linalg, name, refuse)


def test_probit_fit_and_bootstrap_need_no_numpy_linalg(no_linalg):
    sample = _probit_sample()
    with pytest.raises(AssertionError, match="numpy.linalg was called"):
        np.linalg.solve(np.eye(2), np.ones(2))
    fitted = gmm_fit(sample, probit_score_moments(0, 1))
    assert np.isfinite(fitted.theta).all()
    for kind in ("v1", "cgm"):
        v = fitted.variance(kind).matrix
        assert v.shape == (2, 2) and np.isfinite(v).all()
    reps = run_bootstrap(fitted.hook, sample, fitted.theta, b=20, seed=5)
    assert reps.n_failed == 0 and reps.thetas.shape == (20, 2)


def test_ols_fit_variances_wald_regions_and_bootstrap_need_no_numpy_linalg(no_linalg):
    sample = _probit_sample()
    fitted = ols_fit(sample, LinearModelSpec(outcome_index=1, regressor_indices=(2,)))
    assert np.isfinite(fitted.theta).all() and fitted.meta["gram_condition"] >= 1.0
    for kind in ("v1", "cgm"):
        region = wald_region(fitted.theta, fitted.variance(kind), sample.dims, 0.05)
        assert region.contains(fitted.theta)
        assert not region.contains(fitted.theta + 10 * np.sqrt(np.diag(region.matrix)))
    with pytest.raises(SingularVarianceError, match="indefinite"):  # v2 is, on this sample
        wald_region(fitted.theta, fitted.variance("v2"), sample.dims, 0.05)
    reps = run_bootstrap(fitted.hook, fitted.prepared, fitted.theta, b=20, seed=5)
    assert reps.n_failed == 0 and reps.thetas.shape == (20, 2)


def test_quantile_iv_grid_fit_needs_no_numpy_linalg(no_linalg):
    sample = _probit_sample()
    model = quantile_iv_moments(0.5, 1, [2], [0, 2])
    fitted = gmm_fit(sample, model)
    assert fitted.theta.shape == (1,) and fitted.meta["jhat"] is None
    xi = WeightMatrix(np.array([[2.0, 0.5], [0.5, 1.0]]))
    value = gmm_objective(sample, model, xi, fitted.theta)
    assert math.isfinite(value) and value >= 0


def test_weight_matrix_refusals_and_root_from_the_factor():
    xi = WeightMatrix(np.array([[4.0, 2.0], [2.0, 3.0]]))
    assert np.allclose(xi.root.T @ xi.root, xi.xi, rtol=0, atol=4 * EPS)
    assert np.array_equal(xi.root, np.triu(xi.root))
    assert np.array_equal(WeightMatrix.identity(3).root, np.eye(3))
    for bad in ([[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]], [[0.0]]):
        with pytest.raises(SingularVarianceError, match="positive definite"):
            WeightMatrix(np.array(bad))


def test_a_singular_weighted_gram_is_a_failed_replicate():
    # the regressor is nonzero in cell (1, 1) only and sums to 0 there, so a
    # replicate that gives that cell no weight has the Gram [[n, 0], [0, 0]]
    dims = Dimensions((3, 3))
    ids = np.repeat(np.arange(dims.pi_c), 2)
    x = np.where(ids == 0, np.tile([1.0, -1.0], dims.pi_c), 0.0)
    y = np.random.default_rng(2).normal(size=ids.shape[0])
    sample = sample_from_cell_ids(dims, ids, np.column_stack([y, x]))
    fitted = ols_fit(sample, LinearModelSpec(outcome_index=0, regressor_indices=(1,)))
    drop = PigeonholeWeights(dims, (np.array([0, 3, 0]), np.array([3, 0, 0])))
    with pytest.raises(SingularDesignError, match="Gram matrix is singular"):
        weighted_ols(fitted.prepared, drop)
    b, seed = 40, 1
    with pytest.warns(RuntimeWarning, match="bootstrap replicates failed"):
        reps = run_bootstrap(fitted.hook, fitted.prepared, fitted.theta, b=b, seed=seed)
    kept = [idx for idx in range(b)
            if draw_weights(dims, stream_rng(seed, idx)).cell_weights()[0] > 0]
    assert 0 < len(kept) < b and reps.indices.tolist() == kept


# ---------------------------------------------------------------------
# The same bytes under two OpenBLAS kernel sets
# ---------------------------------------------------------------------

BOOTSTRAP_FILES = ("", (".replicates.csv", ".ci.json"))
# run -> (command before --input and --dims, the suffix of its -o path, and
# the suffixes that path takes in the files it writes)
CHILD_RUNS = {
    "bootstrap-gmm": (["bootstrap", "--estimator", "gmm", "--model-config", "{model}",
                       "--b", "99", "--seed", "7"], *BOOTSTRAP_FILES),
    "estimate-ols": (["estimate", "--estimator", "ols", "--outcome", "1", "--regressors", "0",
                      "--variance", "v1,v2,cgm"], ".json", ("",)),
    "bootstrap-ols": (["bootstrap", "--estimator", "ols", "--outcome", "1", "--regressors", "0",
                       "--b", "99", "--seed", "7"], *BOOTSTRAP_FILES),
}


def _child_bytes(tmp_path, coretype, run):
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env.update(OPENBLAS_CORETYPE=coretype, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")])))
    data, model = tmp_path / "probit.csv", tmp_path / "probit.json"
    model.write_text('{"family": "probit", "outcome_index": 0, "x_index": 1}')
    cli = [sys.executable, "-m", "multiway.cli"]
    if not data.exists():
        subprocess.run(cli + ["simulate", "--dgp", "probit", "--dims", "12,12",
                              "--cell-sizes", "poisson:4", "--seed", "3", "-o", str(data)],
                       env=env, check=True, capture_output=True)
    args, out_suffix, suffixes = CHILD_RUNS[run]
    out = str(tmp_path / f"{run}-{coretype}") + out_suffix
    subprocess.run(cli + [a.format(model=model) for a in args]
                   + ["--input", str(data), "--dims", "12,12", "-o", out],
                   env=env, check=True, capture_output=True)
    return [Path(out + suffix).read_bytes() for suffix in suffixes]


def test_probit_bootstrap_bytes_do_not_depend_on_the_blas_kernels(tmp_path):
    haswell = _child_bytes(tmp_path, "Haswell", "bootstrap-gmm")
    prescott = _child_bytes(tmp_path, "Prescott", "bootstrap-gmm")
    assert haswell[0].count(b"\n") == 100  # header and 99 replicates
    assert haswell == prescott


@pytest.mark.parametrize("run", ["estimate-ols", "bootstrap-ols"])
def test_ols_bytes_do_not_depend_on_the_blas_kernels(tmp_path, run):
    haswell = _child_bytes(tmp_path, "Haswell", run)
    prescott = _child_bytes(tmp_path, "Prescott", run)
    if run == "bootstrap-ols":
        assert haswell[0].count(b"\n") == 100
    else:
        assert all(f'"{kind}"'.encode() in haswell[0] for kind in ("v1", "v2", "cgm"))
    assert haswell == prescott
