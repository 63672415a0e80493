"""Reading and writing a dataset hold little beyond the sample itself:
traced allocation peaks on a 200k-unit CSV stay under fixed bounds."""

import tracemalloc

import pytest

from multiway.cli import main
from multiway.data import Dimensions
from multiway.dataio import read_dataset, write_dataset_csv

DIMS = Dimensions((200, 200))


@pytest.fixture(scope="module")
def big_csv(tmp_path_factory):
    """``simulate``'s 200x200 poisson:4 file: about 200k units, 5 MB."""
    out = tmp_path_factory.mktemp("memory") / "d.csv"
    argv = ["simulate", "--dgp", "additive", "--dims", "200,200", "--cell-sizes", "poisson:4",
            "--seed", "1", "-o", str(out)]
    assert main(argv) == 0
    return out


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the allocations it traced, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_read_peaks_under_five_times_the_sample(big_csv):
    sample, peak = traced_peak(read_dataset, big_csv, DIMS)
    assert sample.n_units > 190_000
    sample_bytes = sample.values.nbytes + sample.offsets.nbytes
    assert peak <= 5 * sample_bytes, f"peak {peak / sample_bytes:.1f}x the sample's bytes"


def test_write_peaks_under_3_mb(big_csv, tmp_path):
    sample = read_dataset(big_csv, DIMS)
    out = tmp_path / "w.csv"
    _, peak = traced_peak(write_dataset_csv, out, sample)
    assert peak < 3 * 2**20, f"peak {peak / 2**20:.2f} MB"
    assert out.read_bytes() == big_csv.read_bytes()
