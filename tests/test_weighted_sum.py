"""PigeonholeWeights.weighted_sum, the one weighted cell sum of the mean,
ratio and OLS bootstraps, and those hooks against the materialised resample.

One-column values are among the trailing shapes: there the last contraction
sums a single column, which ``np.einsum`` would add pairwise."""

import numpy as np
import pytest

from multiway import (
    Dimensions,
    EmptySampleError,
    LinearModelSpec,
    PigeonholeWeights,
    SingularDesignError,
    draw_weights,
    fit,
)
from multiway.data import sample_from_cell_ids
from multiway.seeding import stream_rng

from resample import materialise

# k = 1, 2 and 3, with single-cluster dimensions among them
LATTICES = [(7,), (5, 4), (3, 4, 2), (1, 6), (4, 1, 3)]
TRAILING = [(1,), (3,), (2, 2)]


def weight_sets(dims):
    """Identity weights, drawn weights, which leave clusters out, and one
    draw that keeps a single cluster per dimension (every other count zero)."""
    drawn = [draw_weights(dims, stream_rng(5, b)) for b in range(12)]
    lone = tuple(np.bincount([c - 1] * c, minlength=c) for c in dims.counts)
    return [PigeonholeWeights.identity(dims), *drawn, PigeonholeWeights(dims, lone)]


def row_order_sum(weights, values):
    """Each dimension's contraction as a loop over its rows, in order."""
    out = values
    for counts in weights.per_dim_counts:
        block = out.reshape(counts.size, -1)
        acc = np.zeros(block.shape[1])
        for i in range(counts.size):
            acc = acc + float(counts[i]) * block[i]
        out = acc
    return out.reshape(values.shape[1:])


@pytest.mark.parametrize("trailing", TRAILING, ids=str)
@pytest.mark.parametrize("counts", LATTICES, ids=str)
def test_weighted_sum_matches_the_dense_weights_and_the_row_order_loop(counts, trailing):
    dims = Dimensions(counts)
    values = np.random.default_rng(3).uniform(0.5, 1.5, size=(dims.pi_c, *trailing))
    for w in weight_sets(dims):
        got = w.weighted_sum(values)
        assert got.shape == trailing
        dense = np.tensordot(w.cell_weights().astype(np.float64), values, axes=1)
        np.testing.assert_allclose(got, dense, rtol=1e-13, atol=0)
        np.testing.assert_array_equal(got, row_order_sum(w, values))


def sparse_sample(counts, seed):
    """Three columns (y, x1, x2) on a lattice with empty cells."""
    dims = Dimensions(counts)
    rng = np.random.default_rng(seed)
    sizes = rng.poisson(1.5, size=dims.pi_c)
    sizes[:2] = (0, 3)
    n = int(sizes.sum())
    x = rng.normal(1.0, 1.0, size=(n, 2))
    y = 1.0 + x[:, 0] - 0.5 * x[:, 1] + rng.normal(size=n)
    ids = np.repeat(np.arange(dims.pi_c), sizes)
    return sample_from_cell_ids(dims, ids, np.column_stack([y, x]))


SPECS = {"mean": None, "ratio": None, "ols": LinearModelSpec(0, (1, 2))}


@pytest.mark.parametrize("counts", [(4, 3), (3, 2, 3)], ids=["2-way", "3-way"])
@pytest.mark.parametrize("kind", list(SPECS))
def test_replicate_is_the_fit_of_the_materialised_resample(kind, counts):
    sample = sparse_sample(counts, seed=len(counts))
    assert (sample.cell_sizes == 0).any()
    fitted = fit(kind, sample, spec=SPECS[kind])
    compared = 0
    for b in range(30):
        w = draw_weights(sample.dims, stream_rng(17, b))
        try:
            expected = fit(kind, materialise(sample, w), spec=SPECS[kind]).theta
        except (EmptySampleError, SingularDesignError):
            with pytest.raises((EmptySampleError, SingularDesignError)):
                fitted.hook(fitted.prepared, w)
            continue
        # relative to the largest coordinate too: a linear solve is accurate in
        # norm, so a small OLS coefficient of a draw whose Gram condition is
        # 440 moves by 1.1e-12 of itself (4e-14 of the largest)
        np.testing.assert_allclose(
            fitted.hook(fitted.prepared, w), expected,
            rtol=1e-12, atol=1e-12 * np.abs(expected).max(),
        )
        compared += 1
    assert compared >= 20


@pytest.mark.parametrize("kind", ["mean", "ratio"])
def test_mean_and_ratio_estimates_are_their_hooks_at_identity(kind):
    sample = sparse_sample((5, 4), seed=9)
    fitted = fit(kind, sample)
    hook = fitted.hook(fitted.prepared, PigeonholeWeights.identity(sample.dims))
    np.testing.assert_array_equal(hook, fitted.theta)


@pytest.mark.parametrize("kind", list(SPECS))
def test_linear_hooks_build_no_cell_weight_vector(kind, monkeypatch):
    sample = sparse_sample((4, 3), seed=2)
    fitted = fit(kind, sample, spec=SPECS[kind])
    w = draw_weights(sample.dims, stream_rng(1, 0))

    def refuse(self):
        raise AssertionError("cell_weights() called")

    monkeypatch.setattr(PigeonholeWeights, "cell_weights", refuse)
    assert np.isfinite(fitted.hook(fitted.prepared, w)).all()
