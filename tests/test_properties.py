"""Property-based tests of the structural invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from multiway import (
    CellSums,
    CenteredScores,
    Dimensions,
    draw_weights,
    pair_counts,
    subset_margin_sum,
    vhat1,
    vhat2,
    vhat_cgm,
)
from multiway.estimators import weighted_mean
from multiway.seeding import stream_rng

dims_strategy = st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=3).map(
    lambda c: Dimensions(tuple(c))
)


def scores_for(dims, seed, m=1):
    rng = np.random.default_rng(seed)
    return CenteredScores(dims, rng.normal(size=(dims.pi_c, m)))


@given(dims=dims_strategy, seed=st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_margin_sums_preserve_totals(dims, seed):
    sums = CellSums(dims, np.random.default_rng(seed).normal(size=(dims.pi_c, 2)))
    total = sums.values.sum(axis=0)
    for axis in range(dims.k):
        np.testing.assert_allclose(
            subset_margin_sum(sums, (axis,)).sum(axis=0), total, rtol=1e-12, atol=1e-12
        )


@given(dims=dims_strategy, seed=st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_weight_identities(dims, seed):
    w = draw_weights(dims, stream_rng(seed))
    for i, c in enumerate(dims.counts):
        assert int(w.per_dim_counts[i].sum()) == c
    assert int(w.cell_weights().sum()) == dims.pi_c


@given(dims=dims_strategy, seed=st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_weighted_sums_match_replication(dims, seed):
    rng = np.random.default_rng(seed)
    sums = CellSums(dims, rng.normal(size=(dims.pi_c, 1)))
    w = draw_weights(dims, stream_rng(seed, 1))
    resampled = weighted_mean(sums, w) * dims.pi_c
    replicated = np.repeat(sums.values, w.cell_weights(), axis=0).sum(axis=0)
    np.testing.assert_allclose(resampled, replicated, rtol=1e-12, atol=1e-12)


@given(dims=dims_strategy, seed=st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_vhat1_psd(dims, seed):
    v = vhat1(scores_for(dims, seed, m=2)).matrix
    evals = np.linalg.eigvalsh(v)
    assert evals.min() >= -1e-10 * max(np.trace(v), 1e-300)


@given(dims=dims_strategy, seed=st.integers(0, 2**31), scale=st.floats(0.1, 10))
@settings(max_examples=40, deadline=None)
def test_variance_scale_equivariance(dims, seed, scale):
    scores = scores_for(dims, seed)
    scaled = CenteredScores(dims, scale * scores.values)
    for est in (vhat1, vhat2, vhat_cgm):
        np.testing.assert_allclose(
            est(scaled).matrix, scale**2 * est(scores).matrix, rtol=1e-9
        )


@given(dims=dims_strategy, seed=st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_two_way_identity_generalizes(dims, seed):
    # vhat_cgm + c_min/pi_c^2 sum_j D_j D_j' = vhat1 holds exactly for k = 2
    if dims.k != 2:
        return
    scores = scores_for(dims, seed)
    d = scores.values
    corr = dims.c_min / dims.pi_c**2 * (d.T @ d)
    np.testing.assert_allclose(
        vhat_cgm(scores).matrix + corr, vhat1(scores).matrix, rtol=1e-12, atol=1e-15
    )


@given(dims=dims_strategy)
@settings(max_examples=40, deadline=None)
def test_pair_count_formulas(dims):
    for axis in range(dims.k):
        a, b = pair_counts(dims, axis)
        c = dims.counts
        assert a == c[axis] * math.prod(x * (x - 1) for s, x in enumerate(c) if s != axis)
        assert b == c[axis] * math.prod(x * x for s, x in enumerate(c) if s != axis)
        assert a <= b <= dims.pi_c**2
