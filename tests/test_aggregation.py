"""sum_by_cell, the one per-cell scatter, against np.add.at bit for bit."""

import numpy as np
import pytest

from multiway.data import Dimensions, load_sample, sample_from_cell_ids, sum_by_cell


@pytest.mark.parametrize("shape", [(1,), (3,), (2, 2), (3, 3)])
def test_sum_by_cell_bit_identical_to_add_at(shape):
    rng = np.random.default_rng(4)
    n, dims = 5000, Dimensions((20, 15))  # some cells stay empty
    sample = sample_from_cell_ids(
        dims, rng.integers(0, dims.pi_c - 20, size=n), np.zeros((n, 1))
    )
    scale = 10.0 ** rng.integers(-8, 8, size=(n, *shape))
    rows = rng.standard_cauchy(size=(n, *shape)) * scale
    rows[::97] = -0.0
    expected = np.zeros((dims.pi_c, *shape))
    np.add.at(expected, sample.unit_cell_ids, rows)
    got = sum_by_cell(sample, rows)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_sum_by_cell_no_units():
    out = sum_by_cell(load_sample([], Dimensions((2, 2))), np.empty((0, 2, 2)))
    assert out.shape == (4, 2, 2)
    assert not out.any()
