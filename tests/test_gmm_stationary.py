"""Gauss-Newton returns as stationary once no descent is possible.

The reference below is the Gauss-Newton loop as it was before the early
return, stepping through the same fixed-order kernel
(:mod:`multiway.smallmat`) as the package, together with a probit model
that recomputes (x, eta, lam) on every call. Each check runs the same fit through the reference and through
the package and compares theta and the objective value by ``tobytes()``:
the early return skips only a line search that could accept no candidate,
and the probit cache hands back the same bits it would recompute.
"""

import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import multiway.gmm as gmm
from multiway import Dimensions, smallmat
from multiway.bootstrap import draw_weights, run_bootstrap
from multiway.cli import main
from multiway.data import sample_from_cell_ids
from multiway.dataio import write_dataset_csv
from multiway.errors import ConvergenceError, ModelError, ShapeError
from multiway.gmm import (
    MomentModel,
    OptimizerConfig,
    WeightMatrix,
    gmm_bootstrap_estimator,
    gmm_fit,
    gmm_hhat,
    gmm_variance,
    probit_score_moments,
    quantile_iv_moments,
)
from multiway.seeding import stream_rng

N_DRAWS = 50


def _reference_gauss_newton(residual, jac_residual, start, bounds, tol, budget):
    lo, hi = bounds[:, 0].tolist(), bounds[:, 1].tolist()
    theta = [min(max(v, a), b) for v, a, b in zip(start.tolist(), lo, hi)]
    if not budget.spend():
        return np.array(theta), np.inf, False
    r = residual(np.array(theta))
    f = 0.5 * smallmat.dot(r, r)
    for _ in range(200):
        jr = jac_residual(np.array(theta))
        jtj = smallmat.gram(jr)
        ridge = 1e-12 * max(smallmat.trace(jtj) / max(len(theta), 1), 1e-300)
        try:
            step = smallmat.cho_solve(smallmat.cholesky(jtj, ridge), smallmat.tmatvec(jr, r))
        except smallmat.NotPositiveDefinite:
            return np.array(theta), math.sqrt(2 * f), False
        t, improved = 1.0, False
        cand, rc, fc = theta, r, f
        for _ in range(40):
            cand = [min(max(v - t * d, a), b) for v, d, a, b in zip(theta, step, lo, hi)]
            if not budget.spend():
                return np.array(theta), math.sqrt(2 * f), False
            rc = residual(np.array(cand))
            fc = 0.5 * smallmat.dot(rc, rc)
            if fc < f - 1e-12 * (1 + f):
                improved = True
                break
            t *= 0.5
        if not improved:
            return np.array(theta), math.sqrt(2 * f), True
        moved = max(abs(c - v) for c, v in zip(cand, theta))
        dropped = f - fc
        theta, r, f = cand, rc, fc
        if moved < tol * (1 + max(map(abs, theta))) or dropped < tol * (1 + f):
            return np.array(theta), math.sqrt(2 * f), True
    return np.array(theta), math.sqrt(2 * f), False


def _reference_probit(outcome_index, x_index):
    """The probit score model without the (x, eta, lam) cache."""

    def parts(values, theta):
        y = values[:, outcome_index]
        if not np.all((y == 0) | (y == 1)):
            raise ModelError("probit outcome must be binary in {0, 1}")
        x = values[:, x_index]
        sign = 2.0 * y - 1.0
        eta = theta[0] + theta[1] * x
        lam = sign * gmm._probit_lam(sign * eta)
        return x, eta, lam

    def fn(values, theta):
        x, _, lam = parts(values, theta)
        return lam[:, None] * np.column_stack([np.ones_like(x), x])

    def jacobian(values, theta):
        x, eta, lam = parts(values, theta)
        scale = -lam * (eta + lam)
        xx = np.empty((x.shape[0], 2, 2))
        xx[:, 0, 0] = 1.0
        xx[:, 0, 1] = xx[:, 1, 0] = x
        xx[:, 1, 1] = x * x
        return scale[:, None, None] * xx

    return MomentModel(
        fn=fn, n_params=2, n_moments=2, bounds=np.tile([-5.0, 5.0], (2, 1)),
        jacobian=jacobian,
    )


def _linear_iv(n_moments):
    """m = z (y - x'theta) with x = (1, x1) and z = (1, x1 + noise[, x1^2])."""
    z_idx = [1, 3, 4][:n_moments]

    def fn(values, theta):
        resid = values[:, 0] - values[:, [1, 2]] @ theta
        return values[:, z_idx] * resid[:, None]

    def jacobian(values, theta):
        return -values[:, z_idx][:, :, None] * values[:, None, [1, 2]]

    return MomentModel(
        fn=fn, n_params=2, n_moments=n_moments, bounds=np.tile([-10.0, 10.0], (2, 1)),
        jacobian=jacobian,
    )


def _sample(counts, mu, seed):
    """Columns: y (binary probit outcome), 1, x, z = x + noise, x^2, w (IV outcome)."""
    rng = np.random.default_rng(seed)
    dims = Dimensions(counts)
    ids = np.repeat(np.arange(dims.pi_c), rng.poisson(mu, dims.pi_c))
    n = ids.shape[0]
    x = rng.normal(size=n)
    e = rng.normal(size=n)
    y = (0.3 + 0.8 * x + e > 0).astype(np.float64)
    z = x + 0.5 * rng.normal(size=n)
    w = 1.0 - 0.7 * x + e
    return sample_from_cell_ids(dims, ids, np.column_stack([y, np.ones(n), x, z, x * x, w]))


def _iv_sample(counts, mu, seed):
    """Columns: w, 1, x, z, x^2 for the linear-IV model."""
    s = _sample(counts, mu, seed)
    v = s.values
    return type(s)(s.dims, np.ascontiguousarray(v[:, [5, 1, 2, 3, 4]]), s.offsets)


@pytest.fixture
def reference(monkeypatch):
    """Run a callable with the reference Gauss-Newton in place."""

    def run(fn, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(gmm, "_gauss_newton", _reference_gauss_newton)
            return fn(*args, **kwargs)

    return run


def test_probit_replicates_match_reference_over_draws(reference):
    sample = _sample((20, 20), 3.0, 1)
    theta_hat = gmm_fit(sample, probit_score_moments(0, 2)).theta
    new_model, ref_model = probit_score_moments(0, 2), _reference_probit(0, 2)
    new_hook = gmm_bootstrap_estimator(new_model, warm_start=theta_hat)
    ref_hook = gmm_bootstrap_estimator(ref_model, warm_start=theta_hat)
    xi, config = WeightMatrix.identity(2), OptimizerConfig()
    fewer = 0
    for b in range(N_DRAWS):
        w = draw_weights(sample.dims, stream_rng(7, b))
        assert new_hook(sample, w).tobytes() == reference(ref_hook, sample, w).tobytes()
        cells = w.cell_weights()
        keep = cells[sample.unit_cell_ids] != 0
        sub = sample_from_cell_ids(sample.dims, sample.unit_cell_ids[keep], sample.values[keep])
        uw = cells[sub.unit_cell_ids].astype(np.float64)
        new = gmm._minimize(sub, new_model, xi, config, uw, [theta_hat])
        ref = reference(gmm._minimize, sub, ref_model, xi, config, uw, [theta_hat])
        assert new[0].tobytes() == ref[0].tobytes()
        assert np.float64(new[1]).tobytes() == np.float64(ref[1]).tobytes()
        assert new[2] <= ref[2]
        fewer += new[2] < ref[2]
    # replicates that stop on the step tolerance first are unchanged; the
    # rest reach the floor and skip the futile search
    assert fewer > N_DRAWS // 4


@pytest.mark.parametrize("two_step", [False, True])
def test_gmm_fit_multistart_matches_reference(reference, two_step):
    sample = _sample((12, 10), 3.0, 2)
    config = OptimizerConfig(n_starts=5, seed=3)
    new_model, ref_model = probit_score_moments(0, 2), _reference_probit(0, 2)
    new = gmm_fit(sample, new_model, config=config, two_step=two_step)
    ref = reference(gmm_fit, sample, ref_model, config=config, two_step=two_step)
    assert new.theta.tobytes() == ref.theta.tobytes()
    new_meta, ref_meta = new.meta, ref.meta
    assert (
        np.float64(new_meta["objective_value"]).tobytes()
        == np.float64(ref_meta["objective_value"]).tobytes()
    )
    assert new_meta["jhat"].tobytes() == ref_meta["jhat"].tobytes()
    assert new_meta["weight"].xi.tobytes() == ref_meta["weight"].xi.tobytes()
    # the sandwich pieces of each fit, as Fitted.variance("v1") builds them
    new_h = gmm_hhat(sample, new_model, new.theta)
    ref_h = gmm_hhat(sample, ref_model, ref.theta)
    assert new_h.tobytes() == ref_h.tobytes()
    new_v = gmm_variance(new_meta["jhat"], new_h, new_meta["weight"])
    ref_v = gmm_variance(ref_meta["jhat"], ref_h, ref_meta["weight"])
    assert new_v.tobytes() == ref_v.tobytes()
    assert new_meta["n_evaluations"] < ref_meta["n_evaluations"]


@pytest.mark.parametrize("n_moments", [2, 3])
def test_linear_iv_matches_reference(reference, n_moments):
    model = _linear_iv(n_moments)
    config = OptimizerConfig(n_starts=3, seed=1)
    evals = []
    for seed in range(5):
        sample = _iv_sample((10, 8), 2.0, 10 + seed)
        new = gmm._minimize(sample, model, WeightMatrix.identity(n_moments), config)
        ref = reference(
            gmm._minimize, sample, model, WeightMatrix.identity(n_moments), config
        )
        assert new[0].tobytes() == ref[0].tobytes()
        assert np.float64(new[1]).tobytes() == np.float64(ref[1]).tobytes()
        evals.append((new[2], ref[2]))
    if n_moments == 2:
        # exactly identified: m_bar reaches ~0, so the futile search is skipped
        assert all(n < r for n, r in evals)
    else:
        # overidentified: the minimum stays above the floor, nothing changes
        assert all(n == r for n, r in evals)


def test_budget_spent_in_futile_search_now_converges(reference):
    """The one changed outcome: a budget that ends inside the futile line
    search used to raise ConvergenceError; the same theta is now a success."""
    sample = _sample((12, 10), 3.0, 4)
    model = probit_score_moments(0, 2)
    n = gmm_fit(sample, model, config=OptimizerConfig(n_starts=1)).meta["n_evaluations"]
    tight = OptimizerConfig(n_starts=1, max_evals=n)
    new = gmm_fit(sample, model, config=tight)
    with pytest.raises(ConvergenceError) as exc:
        reference(gmm_fit, sample, _reference_probit(0, 2), config=tight)
    assert exc.value.best_theta.tobytes() == new.theta.tobytes()
    assert new.meta["n_evaluations"] == n


def test_budget_spent_in_futile_search_cli_exit_code(tmp_path, reference):
    data = tmp_path / "p.csv"
    write_dataset_csv(data, _sample((8, 8), 3.0, 5))
    model = tmp_path / "model.json"

    def estimate(out, max_evals=10000):
        doc = {"family": "probit", "outcome_index": 0, "x_index": 2,
               "optimizer": {"max_evals": max_evals}}
        model.write_text(json.dumps(doc))
        return main(["estimate", "--input", str(data), "--dims", "8,8",
                     "--estimator", "gmm", "--model-config", str(model),
                     "--out", str(tmp_path / out)])

    assert estimate("free.json") == 0
    free = json.loads((tmp_path / "free.json").read_text())
    n = free["diagnostics"]["n_evaluations"]
    assert estimate("tight.json", n) == 0
    tight = json.loads((tmp_path / "tight.json").read_text())
    assert tight["theta"] == free["theta"]
    assert reference(estimate, "ref.json", n) == 5


def test_probit_cache_alternating_values_arrays():
    model, ref = probit_score_moments(0, 2), _reference_probit(0, 2)
    a = _sample((6, 5), 3.0, 6).values
    b = _sample((6, 5), 3.0, 7).values
    theta = np.array([0.2, 0.7])
    for values in (a, b, a, a, b, b, a):
        assert model.fn(values, theta).tobytes() == ref.fn(values, theta).tobytes()
        assert (
            model.jacobian(values, theta).tobytes() == ref.jacobian(values, theta).tobytes()
        )
    # same values, a different theta, then back
    for t in (theta, theta + 1e-9, theta, [0.2, 0.7]):
        assert model.fn(a, t).tobytes() == ref.fn(a, np.asarray(t)).tobytes()
    # an equal-valued copy is a different array: recomputed, same bits
    c = a.copy()
    assert model.jacobian(c, theta).tobytes() == ref.jacobian(c, theta).tobytes()


def test_probit_design_cache_matches_fresh_model():
    """The per-sample design is rebuilt when the values array changes:
    A, then B (same shape, other values), then A again each give a fresh
    model's bytes, and a later non-binary outcome is still refused."""
    model = probit_score_moments(0, 2)
    a = _sample((6, 5), 3.0, 6).values
    b = a.copy()
    b[:, 2] = np.random.default_rng(8).normal(size=b.shape[0])
    b[:, 0] = 1.0 - b[:, 0]
    for values in (a, b, a):
        for theta in (np.array([0.2, 0.7]), np.array([-0.1, 1.3])):
            fresh = probit_score_moments(0, 2)
            assert model.fn(values, theta).tobytes() == fresh.fn(values, theta).tobytes()
            assert (
                model.jacobian(values, theta).tobytes()
                == fresh.jacobian(values, theta).tobytes()
            )
    bad = a.copy()
    bad[3, 0] = 0.5
    with pytest.raises(ModelError, match="binary"):
        model.fn(bad, np.array([0.2, 0.7]))
    with pytest.raises(ModelError, match="binary"):
        model.jacobian(bad, np.array([0.2, 0.7]))


def test_quantile_iv_design_cache_matches_fresh_model():
    """The quantile IV design is rebuilt when the values array changes:
    A, then B, then A again each give a fresh model's bytes, and an array
    too narrow for the instrument column is still refused."""
    model = quantile_iv_moments(0.5, 0, [1], [2, 3])
    rng = np.random.default_rng(12)
    a = rng.normal(size=(40, 4))
    b = a.copy()
    b[:, 0] = rng.normal(size=40)
    b[:, 3] = rng.normal(size=40)
    for values in (a, b, a):
        for theta in (np.array([0.2]), np.array([-1.1])):
            fresh = quantile_iv_moments(0.5, 0, [1], [2, 3])
            assert model.fn(values, theta).tobytes() == fresh.fn(values, theta).tobytes()
    with pytest.raises(ShapeError, match="z_indices: column 3"):
        model.fn(a[:, :3], np.array([0.2]))


def test_probit_cache_reruns_match():
    sample = _sample((12, 12), 3.0, 8)
    model = probit_score_moments(0, 2)
    theta_hat = gmm_fit(sample, model).theta
    hook = gmm_bootstrap_estimator(model, warm_start=theta_hat)
    serial = run_bootstrap(hook, sample, theta_hat, b=40, seed=9)
    rerun = run_bootstrap(hook, sample, theta_hat, b=40, seed=9)
    assert rerun.thetas.tobytes() == serial.thetas.tobytes()
    assert rerun.indices.tobytes() == serial.indices.tobytes()
    assert rerun.theta_hat.tobytes() == serial.theta_hat.tobytes()
    ref = run_bootstrap(
        gmm_bootstrap_estimator(_reference_probit(0, 2), warm_start=theta_hat),
        sample, theta_hat, b=40, seed=9,
    )
    assert ref.thetas.tobytes() == serial.thetas.tobytes()


def test_probit_cache_thread_stress():
    """Threads sharing one model, each with its own values and theta, with a
    short switch interval: every result must equal the uncached one."""
    model, ref = probit_score_moments(0, 2), _reference_probit(0, 2)
    jobs = []
    for i in range(8):
        values = _sample((5, 4), 3.0, 20 + i).values
        theta = np.array([0.1 * i, 1.0 - 0.1 * i])
        jobs.append((values, theta, ref.fn(values, theta).tobytes(),
                     ref.jacobian(values, theta).tobytes()))

    def work(job):
        values, theta, m_ref, j_ref = job
        for _ in range(200):
            if model.fn(values, theta).tobytes() != m_ref:
                return False
            if model.jacobian(values, theta).tobytes() != j_ref:
                return False
        return True

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(work, job) for job in jobs]
            assert all(f.result(timeout=60) for f in futures)
    finally:
        sys.setswitchinterval(old)
