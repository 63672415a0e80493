"""Tests for the sample container and margin aggregation."""

import numpy as np
import pytest

from multiway import (
    CellSums,
    Dimensions,
    ShapeError,
    cell_sums,
    load_sample,
    pair_counts,
    subset_margin_sum,
)
from multiway.data import sample_from_cell_ids

from oracles import all_coords, count_pairs, margin_by_loop


def cell_rows(sample, coords):
    """Observation rows of one cell (1-based coordinates), input order."""
    c = sample.dims.flat_index(coords)
    return sample.values[sample.offsets[c] : sample.offsets[c + 1]]


def make_random_sample(rng, counts, n_records, obs_dim=1):
    coords = all_coords(counts)
    records = [
        (coords[rng.integers(0, len(coords))], rng.normal(size=obs_dim).tolist())
        for _ in range(n_records)
    ]
    return records, load_sample(records, Dimensions(counts), obs_dim=obs_dim)


def test_load_sample_direct_placement():
    dims = Dimensions((2, 2))
    sample = load_sample([((1, 1), [2.0]), ((2, 2), [3.0])], dims)
    assert sample.cell_sizes.tolist() == [1, 0, 0, 1]
    assert cell_rows(sample, (1, 1)).tolist() == [[2.0]]
    assert cell_rows(sample, (2, 2)).tolist() == [[3.0]]


def test_load_sample_empty_input():
    sample = load_sample([], Dimensions((3, 3)))
    assert sample.n_units == 0
    assert sample.cell_sizes.tolist() == [0] * 9


def test_load_sample_counts_match_tally_oracle():
    rng = np.random.default_rng(7)
    records, sample = make_random_sample(rng, (4, 5), 100)
    assert sample.n_units == 100
    tally = {}
    for coords, _ in records:
        tally[coords] = tally.get(coords, 0) + 1
    for flat, coords in enumerate(all_coords((4, 5))):
        assert sample.cell_sizes[flat] == tally.get(coords, 0)


def test_load_sample_preserves_order_within_cell():
    dims = Dimensions((2, 2))
    sample = load_sample(
        [((1, 2), [1.0]), ((1, 1), [5.0]), ((1, 2), [2.0]), ((1, 2), [3.0])], dims
    )
    assert cell_rows(sample, (1, 2))[:, 0].tolist() == [1.0, 2.0, 3.0]


def test_load_sample_errors():
    dims = Dimensions((2, 2))
    with pytest.raises(IndexError):
        load_sample([((3, 1), [0.0])], dims)
    with pytest.raises(ShapeError):
        load_sample([((1, 1), [0.0]), ((1, 2), [0.0, 1.0])], dims)


def test_cell_sums_two_units():
    dims = Dimensions((1, 1))
    sample = load_sample([((1, 1), [2.0]), ((1, 1), [3.0])], dims)
    sums = cell_sums(sample)
    assert sums.values.tolist() == [[5.0]]


def test_cell_sums_counting_statistic_recovers_sizes():
    rng = np.random.default_rng(11)
    _, sample = make_random_sample(rng, (3, 4), 60)
    ones = sample_from_cell_ids(sample.dims, sample.unit_cell_ids, np.ones((60, 1)))
    sums = cell_sums(ones)
    np.testing.assert_array_equal(sums.values[:, 0], sample.cell_sizes)


def test_cell_sums_square_matches_loop_oracle():
    rng = np.random.default_rng(13)
    _, sample = make_random_sample(rng, (3, 3), 40, obs_dim=2)
    squares = sample_from_cell_ids(sample.dims, sample.unit_cell_ids, sample.values**2)
    sums = cell_sums(squares)
    expected = np.zeros_like(sums.values)
    for flat in range(sample.dims.pi_c):
        for row in sample.values[sample.offsets[flat] : sample.offsets[flat + 1]]:
            expected[flat] += row**2
    np.testing.assert_allclose(sums.values, expected, rtol=1e-12)


def test_margin_sum_rows_and_columns():
    dims = Dimensions((2, 2))
    sums = CellSums(dims, np.array([[1.0], [2.0], [3.0], [4.0]]))
    np.testing.assert_array_equal(subset_margin_sum(sums, (0,)), [[3.0], [7.0]])
    np.testing.assert_array_equal(subset_margin_sum(sums, (1,)), [[4.0], [6.0]])


def test_margin_sum_matches_enumeration():
    rng = np.random.default_rng(5)
    dims = Dimensions((3, 4, 2))
    sums = CellSums(dims, rng.normal(size=(dims.pi_c, 2)))
    got = subset_margin_sum(sums, (1,))
    expected = margin_by_loop(sums.grid(), dims.counts, 1)
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_margin_sum_total_is_preserved():
    rng = np.random.default_rng(29)
    dims = Dimensions((3, 2, 3))
    sums = CellSums(dims, rng.normal(size=(dims.pi_c, 3)))
    total = sums.values.sum(axis=0)
    for axis in range(dims.k):
        np.testing.assert_allclose(
            subset_margin_sum(sums, (axis,)).sum(axis=0), total, rtol=1e-12
        )


def test_margin_sum_axis_out_of_range():
    sums = CellSums(Dimensions((2, 2)), np.zeros((4, 1)))
    with pytest.raises(IndexError):
        subset_margin_sum(sums, (2,))


def test_subset_margin_full_and_singleton():
    rng = np.random.default_rng(3)
    dims = Dimensions((2, 3, 2))
    sums = CellSums(dims, rng.normal(size=(dims.pi_c, 2)))
    np.testing.assert_array_equal(subset_margin_sum(sums, (0, 1, 2)), sums.values)
    np.testing.assert_allclose(
        subset_margin_sum(sums, (1,)), margin_by_loop(sums.grid(), dims.counts, 1), rtol=1e-12
    )


def test_subset_margin_matches_enumeration():
    rng = np.random.default_rng(17)
    dims = Dimensions((2, 2, 2))
    sums = CellSums(dims, rng.normal(size=(dims.pi_c, 1)))
    got = subset_margin_sum(sums, (0, 2))
    expected = np.zeros((4, 1))
    for flat, coords in enumerate(all_coords(dims.counts)):
        group = (coords[0] - 1) * 2 + (coords[2] - 1)
        expected[group] += sums.values[flat]
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_subset_margin_empty_subset():
    sums = CellSums(Dimensions((2, 2)), np.zeros((4, 1)))
    with pytest.raises(ValueError):
        subset_margin_sum(sums, ())


@pytest.mark.parametrize(
    "counts, axis, expected",
    [
        ((3, 4), 0, (36, 48)),
        ((2, 2), 1, (4, 8)),
        ((5,), 0, (5, 5)),
    ],
)
def test_pair_counts_known_values(counts, axis, expected):
    assert pair_counts(Dimensions(counts), axis) == expected


def test_pair_counts_matches_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        counts = tuple(int(rng.integers(1, 5)) for _ in range(k))
        if np.prod(counts) > 256:
            continue
        dims = Dimensions(counts)
        for axis in range(k):
            assert pair_counts(dims, axis) == count_pairs(counts, axis)


def test_dimensions_validation():
    with pytest.raises(ValueError):
        Dimensions(())
    with pytest.raises(ValueError):
        Dimensions((2, 0))
    dims = Dimensions((3, 4))
    assert dims.pi_c == 12 and dims.c_min == 3
    assert np.unravel_index(dims.flat_index((2, 3)), dims.counts) == (1, 2)
