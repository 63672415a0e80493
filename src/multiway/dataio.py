"""Dataset file formats.

CSV: header ``dim1,...,dimk,y1,...,yd``, one row per unit, 1-based
cluster coordinates; the cluster counts come from the caller. JSON:
``{"dims": [C1,...,Ck], "units": [{"cell": [j1,...,jk], "y": [...]},
...]}`` with the counts embedded. All output is UTF-8 with LF line
endings and shortest round-trip float formatting, so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import warnings
from pathlib import Path

import numpy as np

from .data import ClusteredSample, Dimensions, load_sample, sample_from_cell_ids
from .errors import ParseError

__all__ = [
    "read_dataset",
    "read_dataset_csv",
    "read_dataset_json",
    "write_dataset_csv",
    "write_json",
]

_BLOCK_ROWS = 1 << 16  # rows formatted per write
_NUMPY_ONLY_BLANKS = "\x1c\x1d\x1e\x1f"


def write_dataset_csv(path, sample: ClusteredSample) -> None:
    """Write one row per unit, cells in row-major order, in blocks of rows.

    Each block is formatted as one string: the coordinate prefix of each
    occupied cell once, then ``repr`` of every value (shortest round trip),
    so memory stays bounded by the block size whatever the lattice size.
    """
    dims = sample.dims
    header = [f"dim{i + 1}" for i in range(dims.k)] + [
        f"y{j + 1}" for j in range(sample.obs_dim)
    ]
    ids = sample.unit_cell_ids
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, sample.n_units, _BLOCK_ROWS):
            hi = lo + _BLOCK_ROWS
            cells, row_cell = np.unique(ids[lo:hi], return_inverse=True)
            coords = np.column_stack(np.unravel_index(cells, dims.counts)) + 1
            prefixes = [",".join(map(str, c)) + "," for c in coords.tolist()]
            columns = [map(repr, col) for col in sample.values[lo:hi].T.tolist()]
            rows = map(",".join, zip(*columns))
            row_prefixes = map(prefixes.__getitem__, row_cell.tolist())
            fh.write("\n".join(map(str.__add__, row_prefixes, rows)))
            fh.write("\n")


def _header_obs_dim(header: list[str], dims: Dimensions) -> int:
    """Observation columns named by a CSV header; ParseError (line 1) if malformed."""
    expected_prefix = [f"dim{i + 1}" for i in range(dims.k)]
    if [h.strip() for h in header[: dims.k]] != expected_prefix:
        raise ParseError(f"header must start with {','.join(expected_prefix)}", line=1)
    obs_dim = len(header) - dims.k
    if obs_dim < 1:
        raise ParseError("header has no observation columns", line=1)
    return obs_dim


def read_dataset_csv(path, dims: Dimensions) -> ClusteredSample:
    """Parse a CSV dataset; errors carry the 1-based line of the bad row.

    The body is parsed in one ``np.loadtxt`` call. Anything that call or
    the bounds check refuses is re-read by the row loop, which accepts
    the dialect forms numpy does not (quoted fields, ``1_0``) and raises
    the ParseError with its line number for every other refusal.
    """
    sample = _read_csv_block(path, dims)
    return sample if sample is not None else _read_csv_rows(path, dims)


def _read_csv_block(path, dims: Dimensions) -> ClusteredSample | None:
    """Vectorized parse; None when the row loop has to decide."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            line = fh.readline()
            if not line or '"' in line:
                return None
            obs_dim = _header_obs_dim(next(csv.reader([line])), dims)
            start = fh.tell()
            body = fh.read()
            # numpy's field parsers take some characters that int() and
            # float() refuse: \x1c-\x1f as blanks, some non-ASCII letters
            # as digits.
            if not body.isascii() or any(c in body for c in _NUMPY_ONLY_BLANKS):
                return None
            del body
            fh.seek(start)
            row = np.dtype([("cell", np.int64, (dims.k,)), ("y", np.float64, (obs_dim,))])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(fh, dtype=row, delimiter=",", comments=None, ndmin=1)
    except (ValueError, Warning):  # ParseError and UnicodeDecodeError included
        return None
    coords = table["cell"] - 1
    if not ((coords >= 0) & (coords < dims.counts)).all():
        return None
    flat_ids = np.ravel_multi_index(tuple(coords.T), dims.counts)
    return sample_from_cell_ids(dims, flat_ids, table["y"])


def _read_csv_rows(path, dims: Dimensions) -> ClusteredSample:
    """Row-by-row parse with ``csv`` and ``int``/``float``; locates the bad line."""
    records = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line=1) from None
        obs_dim = _header_obs_dim(header, dims)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != dims.k + obs_dim:
                raise ParseError(
                    f"expected {dims.k + obs_dim} fields, got {len(row)}", line=lineno
                )
            try:
                coords = tuple(int(v) for v in row[: dims.k])
                y = [float(v) for v in row[dims.k :]]
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            try:
                dims.flat_index(coords)
            except IndexError as exc:
                raise ParseError(str(exc), line=lineno) from None
            records.append((coords, y))
    return load_sample(records, dims, obs_dim=obs_dim)


def read_dataset_json(path) -> ClusteredSample:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(str(exc), line=exc.lineno) from None
    try:
        dims = Dimensions(tuple(int(c) for c in doc["dims"]))
        units = doc["units"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad dataset document: {exc}") from None
    records = []
    for i, unit in enumerate(units):
        try:
            records.append((tuple(int(c) for c in unit["cell"]), [float(v) for v in unit["y"]]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad unit entry {i}: {exc}") from None
    try:
        return load_sample(records, dims)
    except IndexError as exc:
        raise ParseError(str(exc)) from None


def read_dataset(path, dims: Dimensions | None = None) -> ClusteredSample:
    """Load a dataset by extension; CSV needs explicit cluster counts."""
    p = Path(path)
    if p.suffix.lower() == ".json":
        return read_dataset_json(p)
    if dims is None:
        raise ParseError("CSV datasets need cluster counts (--dims)")
    return read_dataset_csv(p, dims)


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
