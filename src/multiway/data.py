"""Data model for multiway-clustered samples and margin aggregation.

A sample lives on a k-dimensional lattice of cells, one cluster per
dimension. Cell coordinates are 1-based tuples ``(j_1, ..., j_k)`` with
``1 <= j_i <= C_i`` (matching the on-disk formats); dimension indices in
function arguments are 0-based axes, numpy style. Cells are stored dense
in row-major order over the ``pi_c = prod(C_i)`` lattice, so every
aggregate below runs in O(pi_c * m) without enumerating cell pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, ShapeError

__all__ = [
    "MAX_CELLS",
    "CellSums",
    "ClusteredSample",
    "Dimensions",
    "cell_subsample",
    "cell_sums",
    "check_columns",
    "check_dense_lattice",
    "load_sample",
    "pair_counts",
    "sample_from_cell_ids",
    "subset_margin_sum",
    "sum_by_cell",
]


# Largest lattice the dense layout accepts: every per-cell array (offsets,
# cell sums, scores) has pi_c rows, 2 GiB per float64 column at this size.
MAX_CELLS = 2**28


@dataclass(frozen=True)
class Dimensions:
    """Cluster counts ``C = (C_1, ..., C_k)`` of a k-way layout."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if len(counts) < 1:
            raise ConfigError("dims: need at least one clustering dimension")
        if any(c < 1 for c in counts):
            raise ConfigError(f"dims: every dimension needs >= 1 cluster, got {counts}")
        object.__setattr__(self, "counts", counts)

    @property
    def k(self) -> int:
        return len(self.counts)

    @property
    def pi_c(self) -> int:
        """Total number of cells, prod(C_i)."""
        return math.prod(self.counts)

    @property
    def c_min(self) -> int:
        """Smallest cluster count; the asymptotic driver min(C_i)."""
        return min(self.counts)

    def lambda_hats(self) -> np.ndarray:
        """Plug-in dimension weights c_min / C_i."""
        return self.c_min / np.asarray(self.counts, dtype=np.float64)

    def flat_index(self, coords: Sequence[int]) -> int:
        """Row-major flat id of a 1-based coordinate tuple."""
        if len(coords) != self.k:
            raise IndexError(f"expected {self.k} coordinates, got {len(coords)}")
        flat = 0
        for c, n in zip(coords, self.counts):
            c = int(c)
            if not 1 <= c <= n:
                raise IndexError(f"coordinate {coords} out of bounds for C={self.counts}")
            flat = flat * n + (c - 1)
        return flat


@dataclass(frozen=True)
class ClusteredSample:
    """Immutable multiway-clustered sample.

    ``values`` holds all unit observation vectors stacked (n_units, obs_dim),
    grouped by cell: the units of the cell with flat id c occupy rows
    ``offsets[c]:offsets[c + 1]``, in their original input order.
    """

    dims: Dimensions
    values: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[1] < 1:
            raise ShapeError("values must be 2-d (n_units, obs_dim) with obs_dim >= 1")
        if self.offsets.shape != (self.dims.pi_c + 1,):
            raise ShapeError("offsets must have length pi_c + 1")

    @property
    def obs_dim(self) -> int:
        return self.values.shape[1]

    @property
    def n_units(self) -> int:
        return self.values.shape[0]

    @cached_property
    def cell_sizes(self) -> np.ndarray:
        """N_j for every cell, flat row-major order, shape (pi_c,)."""
        return np.diff(self.offsets)

    @cached_property
    def unit_cell_ids(self) -> np.ndarray:
        """Flat cell id of every unit row, shape (n_units,)."""
        return np.repeat(np.arange(self.dims.pi_c), self.cell_sizes)


@dataclass(frozen=True)
class CellSums:
    """Per-cell vector sums S_j, dense over the lattice: values (pi_c, out_dim)."""

    dims: Dimensions
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape[0] != self.dims.pi_c or self.values.ndim != 2:
            raise ShapeError(
                f"values shape {self.values.shape} does not match pi_c={self.dims.pi_c}"
            )

    @property
    def out_dim(self) -> int:
        return self.values.shape[1]

    def grid(self) -> np.ndarray:
        """View shaped (C_1, ..., C_k, out_dim)."""
        return self.values.reshape(*self.dims.counts, self.out_dim)


def load_sample(
    records: Iterable[tuple[Sequence[int], Sequence[float]]],
    dims: Dimensions,
    obs_dim: int | None = None,
) -> ClusteredSample:
    """Assemble a sample from (1-based cell coordinates, observation vector) records.

    Cells not named by any record are empty. Record order is preserved
    within each cell. ``obs_dim`` is inferred from the first record and
    only needed when ``records`` is empty (defaults to 1 then).
    """
    records = list(records)
    if obs_dim is not None:
        d = int(obs_dim)
    else:
        d = len(records[0][1]) if records else 1
    flat_ids = np.empty(len(records), dtype=np.int64)
    values = np.empty((len(records), d), dtype=np.float64)
    for r, (coords, y) in enumerate(records):
        flat_ids[r] = dims.flat_index(coords)
        if len(y) != d:
            raise ShapeError(
                f"record {r}: observation length {len(y)} != {d}"
            )
        values[r] = y
    return sample_from_cell_ids(dims, flat_ids, values)


def check_dense_lattice(dims: Dimensions) -> None:
    """Refuse, before anything of length pi_c is allocated, a lattice with
    more than :data:`MAX_CELLS` cells."""
    if dims.pi_c > MAX_CELLS:
        need = 8 * dims.pi_c
        raise ConfigError(
            f"dims {','.join(map(str, dims.counts))}: pi_c = {dims.pi_c} cells exceeds "
            f"the dense-lattice limit of {MAX_CELLS}; each per-cell float64 array "
            f"would need {need} bytes ({need / 2**30:.2f} GiB)"
        )


def check_columns(n_columns: int, **fields: Iterable[int]) -> None:
    """Refuse, naming its field, a column index outside [0, n_columns); a
    negative index would otherwise read a column from the end."""
    for name, indices in fields.items():
        for i in indices:
            if not 0 <= i < n_columns:
                raise ShapeError(
                    f"{name}: column {i} out of range for {n_columns} observation columns"
                )


def sample_from_cell_ids(
    dims: Dimensions, flat_ids: np.ndarray, values: np.ndarray
) -> ClusteredSample:
    """Group unit rows by flat cell id, keeping input order within each cell."""
    check_dense_lattice(dims)
    order = np.argsort(flat_ids, kind="stable")
    sizes = np.bincount(flat_ids, minlength=dims.pi_c)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    return ClusteredSample(dims, values[order], offsets.astype(np.int64))


def cell_subsample(
    sample: ClusteredSample, cells: np.ndarray, rows: np.ndarray | None = None
) -> ClusteredSample:
    """The units of the cells where the (pi_c,) mask ``cells`` is True, same dims.

    ``rows`` is the index of those units, ``np.flatnonzero(cells[sample.unit_cell_ids])``,
    for a caller that has it already.
    """
    sizes = np.where(cells, sample.cell_sizes, 0)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    if rows is None:
        rows = np.flatnonzero(cells[sample.unit_cell_ids])
    # take with the row indices copies the rows several times faster than a boolean mask
    return ClusteredSample(sample.dims, sample.values.take(rows, axis=0), offsets)


def sum_by_cell(sample: ClusteredSample, rows: np.ndarray) -> np.ndarray:
    """Per-cell sums of per-unit rows, shape (n_units, ...) -> (pi_c, ...).

    One ``np.bincount`` per column adds in unit order starting from 0.0, so
    the sums are bit-identical to ``np.add.at`` into zeros; empty cells are 0.
    """
    ids, n_cells = sample.unit_cell_ids, sample.dims.pi_c
    cols = rows.reshape(rows.shape[0], math.prod(rows.shape[1:]))
    out = np.empty((n_cells, cols.shape[1]))
    for j in range(cols.shape[1]):
        out[:, j] = np.bincount(ids, weights=cols[:, j], minlength=n_cells)
    return out.reshape((n_cells, *rows.shape[1:]))


def cell_sums(sample: ClusteredSample) -> CellSums:
    """S_j = sum of the observation vectors of the units of cell j; zero
    vector for empty cells."""
    return CellSums(sample.dims, sum_by_cell(sample, sample.values))


def subset_margin_sum(sums: CellSums, axes: Sequence[int]) -> np.ndarray:
    """Joint margin sums over a nonempty subset of dimensions.

    Cells agreeing on every dimension in ``axes`` are pooled. Returns shape
    (prod of the subset's C_i, out_dim), groups in row-major order of the
    subset coordinates. With all k axes this is S itself; with a single
    axis ``i`` row r sums the cells whose coordinate on ``i`` is cluster r + 1.
    """
    k = sums.dims.k
    axes = sorted(set(int(a) for a in axes))
    if not axes:
        raise ValueError("axes subset must be nonempty")
    if axes[0] < 0 or axes[-1] >= k:
        raise IndexError(f"axes {axes} out of range for k={k}")
    other = tuple(i for i in range(k) if i not in axes)
    out = sums.grid().sum(axis=other) if other else sums.grid()
    return out.reshape(-1, sums.out_dim)


def pair_counts(dims: Dimensions, axis: int) -> tuple[int, int]:
    """Count cell pairs agreeing on dimension ``axis``.

    Returns (|A_i|, |B_i|): pairs sharing exactly that cluster and no other,
    C_i * prod_{s != i} C_s (C_s - 1), and pairs sharing at least that
    cluster, C_i * prod_{s != i} C_s^2. Empty products are 1, so both
    collapse to C_i in the one-way case.
    """
    if not 0 <= axis < dims.k:
        raise IndexError(f"axis {axis} out of range for k={dims.k}")
    a = b = dims.counts[axis]
    for s, c in enumerate(dims.counts):
        if s != axis:
            a *= c * (c - 1)
            b *= c * c
    return a, b
