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
    "LATTICE_BYTES",
    "MAX_CELLS",
    "CellSums",
    "ClusteredSample",
    "Dimensions",
    "cell_sums",
    "check_columns",
    "check_dense_lattice",
    "crossprod",
    "load_sample",
    "pair_counts",
    "row_sum",
    "sample_from_cell_ids",
    "subset_margin_sum",
    "sum_by_cell",
]


# Largest lattice the dense layout accepts, so that every accepted lattice
# runs to an exit code in a 2,000,000 KiB address space (`ulimit -v 2000000`).
# On a 3-unit CSV the peak address space (VmPeak, 2-CPU x86-64, numpy 2.4.6)
# of `estimate --variance v1,v2,cgm` is 342,376 KiB at 2048x2048 and 932,200
# KiB at 4096x4096, and that of `bootstrap --estimator ratio --b 40` 342,396
# and 932,220 KiB: both grow by 48.0 bytes per cell over a fixed 149 MB and
# are the heaviest at 4096x4096. That slope allows 39.5 million cells. 2^24
# cells (4096x4096) leaves 1.0 GB for hosts whose BLAS starts more threads
# (each maps about 42 MB more).
MAX_CELLS = 2**24
# Budget for the float64 columns per cell that a fit keeps at its peak, beyond
# the sample's cell offsets and sizes (`estimators.cell_columns`): the 4 columns
# of the one-outcome ratio bootstrap above at MAX_CELLS, so that no accepted fit
# needs more address space than it. Measured as above between 2048x2048 and
# 4096x4096, a fit's VmPeak grows by 8 bytes per cell times 2 plus its columns.
# On 40 units: the ratio estimate and bootstrap of d columns by 2d + 2 (4 and
# 10 at d = 1 and 4), the probit GMM estimate and bootstrap by L + 1 = 3
# (959,200 and 959,212 KiB at 4096x4096), the quantile IV ones with L = 1 by 2
# (669,156 and 669,144 KiB); the quantile bootstrap grows by 3.04 columns. Before
# this budget, at 4096x4096 on 12 units with 4 or 8 observation columns, the
# OLS bootstrap with 2 regressors (16 columns) and the mean of 8 columns (16)
# died with a MemoryError and the mean of 4 (8) peaked at 1,614,580 KiB; all
# are refused now. The quantile bootstrap (1) peaks at 552,816 KiB there.
LATTICE_BYTES = 8 * 4 * MAX_CELLS


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


def check_dense_lattice(dims: Dimensions, columns: int = 0, what: str = "") -> None:
    """Refuse, before anything of length pi_c is allocated, a lattice with
    more than :data:`MAX_CELLS` cells, or one on which ``what`` (a fit)
    would keep ``columns`` float64 columns per cell of more than
    :data:`LATTICE_BYTES` in all."""
    name = ",".join(map(str, dims.counts))
    if dims.pi_c > MAX_CELLS:
        need = 8 * dims.pi_c
        raise ConfigError(
            f"dims {name}: pi_c = {dims.pi_c} cells exceeds "
            f"the dense-lattice limit of {MAX_CELLS}; each per-cell float64 array "
            f"would need {need} bytes ({need / 2**30:.2f} GiB)"
        )
    need = 8 * columns * dims.pi_c
    if need > LATTICE_BYTES:
        raise ConfigError(
            f"dims {name}: {what} keeps {columns} float64 columns per cell, {need} bytes "
            f"({need / 2**30:.2f} GiB) on pi_c = {dims.pi_c} cells, over the dense-lattice "
            f"budget of {LATTICE_BYTES} bytes ({LATTICE_BYTES / 2**30:.2f} GiB)"
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


def row_sum(rows: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """sum_i weights_i rows_i over the leading axis of (n, ...) ``rows``, one
    row after another, with the same bits on every CPU: the one weighted sum
    of the replicates, over cells (``PigeonholeWeights.weighted_sum``) and
    units (GMM's m_bar and J_hat), and of the products in :func:`crossprod`.
    C-ordered rows are read in place. With
    E >= 2 entries a row, ``np.einsum("ji,j->i")`` adds each column in row
    order, as ``np.add.accumulate`` does, where ``sum`` would add pairwise
    and BLAS in an order of its CPU's choosing; one column, which einsum
    adds pairwise too, goes through ``np.add.accumulate``.
    """
    n = rows.shape[0]
    if n == 0:
        return np.zeros(rows.shape[1:])
    cols = np.ascontiguousarray(rows.reshape(n, -1))
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
    if cols.shape[1] == 1:
        if weights is None:
            total = np.add.accumulate(cols[:, 0])[-1:]
        else:
            col = cols[:, 0] * weights
            total = np.add.accumulate(col, out=col)[-1:]
    elif weights is None:
        total = np.einsum("ji->i", cols)
    else:
        total = np.einsum("ji,j->i", cols, weights)
    return total.reshape(rows.shape[1:])


def crossprod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a'b over the leading axis of ``a`` and of (n,) or (n, k) ``b``: each
    entry adds the rows in order with :func:`row_sum`, column j of a'b being
    ``row_sum(a, b[:, j])``, so no (n, d, k) product is built and the
    entries (i, j) and (j, i) of a'a have the same bits."""
    if b.ndim == 1:
        return row_sum(a, b)
    return np.stack([row_sum(a, col) for col in b.T], axis=-1)


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
