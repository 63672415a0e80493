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

from .data import (
    ClusteredSample,
    Dimensions,
    check_dense_lattice,
    load_sample,
    sample_from_cell_ids,
)
from .errors import ParseError

__all__ = [
    "read_dataset",
    "read_dataset_csv",
    "read_dataset_json",
    "write_dataset_csv",
    "write_json",
]

# Version of the JSON documents the commands write (truth, estimate,
# bootstrap and mc reports).
SCHEMA_VERSION = 1
# Rows formatted per write. The write time is flat from 2^13 to 2^16
# rows, and the strings of a block are the writer's largest allocation:
# 1.3 MB traced at 2^13 rows, 5.2 MB at 2^15.
_BLOCK_ROWS = 1 << 13
# Characters per read when the CSV body is scanned before parsing.
_SCAN_CHARS = 1 << 20
_NUMPY_ONLY_BLANKS = "\x1c\x1d\x1e\x1f"


def write_dataset_csv(path, sample: ClusteredSample) -> None:
    """Write one row per unit, cells in row-major order, in blocks of rows.

    A sample's rows are already grouped by cell, so each block covers a
    run of occupied cells, read off ``offsets`` with no sort of cell ids.
    Each such cell's prefix, a line break (which ends the row before) and
    ``j1,...,jk,``, is built once from per-dimension coordinate strings,
    one per distinct coordinate in the block, and repeated per row by
    ``np.repeat``. Prefixes, ``repr`` of every value (shortest round trip)
    and the commas between values are interleaved in one list and written
    with one ``"".join`` per block, so ``repr`` is the only per-value
    Python work, and memory stays bounded by the block size whatever the
    lattice size.
    """
    dims, obs_dim, n_units = sample.dims, sample.obs_dim, sample.n_units
    header = [f"dim{i + 1}" for i in range(dims.k)] + [f"y{j + 1}" for j in range(obs_dim)]
    occupied = np.flatnonzero(sample.cell_sizes)
    # rows bounds[m]:bounds[m + 1] belong to the m-th occupied cell
    bounds = sample.offsets[np.append(occupied, dims.pi_c)]
    stride = 2 * obs_dim  # a row's pieces: its prefix, then its values with commas between
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header))
        for lo in range(0, n_units, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, n_units)
            first = np.searchsorted(bounds, lo, "right") - 1
            stop = np.searchsorted(bounds, hi)
            prefixes = np.full(stop - first, "\n", dtype=object)
            for coords in np.unravel_index(occupied[first:stop], dims.counts):
                present, index = np.unique(coords, return_inverse=True)
                prefixes += np.array([f"{c + 1}," for c in present.tolist()], dtype=object)[index]
            rows = np.diff(bounds[first : stop + 1].clip(lo, hi))
            parts = [","] * (stride * (hi - lo))
            parts[::stride] = np.repeat(prefixes, rows).tolist()
            for j, column in enumerate(sample.values[lo:hi].T.tolist()):
                parts[2 * j + 1 :: stride] = map(repr, column)
            fh.write("".join(parts))
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
    check_dense_lattice(dims)
    sample = _read_csv_block(path, dims)
    return sample if sample is not None else _read_csv_rows(path, dims)


def _read_csv_block(path, dims: Dimensions) -> ClusteredSample | None:
    """Vectorized parse; None when the row loop has to decide.

    Only the parse table, then the flat cell ids and a copy of the values,
    are held whole: the body is scanned in chunks, and the table is
    dropped before the reorder copies the values again.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            line = fh.readline()
            if not line or '"' in line:
                return None
            obs_dim = _header_obs_dim(next(csv.reader([line])), dims)
            start = fh.tell()
            # numpy's field parsers take some characters that int() and
            # float() refuse: \x1c-\x1f as blanks, some non-ASCII letters
            # as digits.
            while chunk := fh.read(_SCAN_CHARS):
                if not chunk.isascii() or any(c in chunk for c in _NUMPY_ONLY_BLANKS):
                    return None
            fh.seek(start)
            row = np.dtype([("cell", np.int64, (dims.k,)), ("y", np.float64, (obs_dim,))])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(fh, dtype=row, delimiter=",", comments=None, ndmin=1)
    except (ValueError, Warning):  # ParseError and UnicodeDecodeError included
        return None
    flat_ids = _flat_cell_ids(dims, table["cell"])
    if flat_ids is None:
        return None
    values = table["y"].copy()
    del table
    return sample_from_cell_ids(dims, flat_ids, values)


def _flat_cell_ids(dims: Dimensions, coords: np.ndarray) -> np.ndarray | None:
    """Row-major flat ids of 1-based (n, k) coordinates; None if any is out
    of bounds. Each column is checked by its min and max and folded into
    one int64 array in place, so no (n, k) temporary is made; ``dims``
    has passed :func:`check_dense_lattice`, so no id overflows."""
    flat = np.zeros(len(coords), dtype=np.int64)
    for i, count in enumerate(dims.counts):
        column = coords[:, i]
        if column.min(initial=1) < 1 or column.max(initial=1) > count:
            return None
        flat *= count
        flat += column
        flat -= 1
    return flat


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
    """Parse a JSON dataset.

    The units are gathered into one coordinate and one value array when
    every ``cell`` is a list of k ints in bounds and every ``y`` a list of
    numbers of one length; anything else is re-read by the unit loop,
    which raises the ParseError (or ShapeError for ragged ``y``).
    """
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
    check_dense_lattice(dims)
    if not isinstance(units, list):
        raise ParseError("units: expected an array of unit objects")
    sample = _json_units_block(units, dims)
    return sample if sample is not None else _json_units_loop(units, dims)


def _json_units_block(units, dims: Dimensions) -> ClusteredSample | None:
    """Vectorized build; None when the unit loop has to decide."""
    if not units:
        return None
    try:
        coords = np.array([unit["cell"] for unit in units])
        values = np.array([unit["y"] for unit in units])
    except (KeyError, TypeError, ValueError):  # ValueError: ragged lists
        return None
    # an int dtype means JSON integers (or booleans) only, which int() maps as numpy does
    if coords.dtype.kind != "i" or coords.shape != (len(units), dims.k):
        return None
    if values.dtype.kind not in "iuf" or values.ndim != 2:
        return None
    flat_ids = _flat_cell_ids(dims, coords)
    if flat_ids is None:
        return None
    return sample_from_cell_ids(dims, flat_ids, values.astype(np.float64))


def _json_units_loop(units, dims: Dimensions) -> ClusteredSample:
    """Unit-by-unit build with ``int``/``float``; names the bad unit."""
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
    """Load a dataset by extension; CSV needs explicit cluster counts. A
    file that cannot be read as a dataset is a ParseError naming it."""
    p = Path(path)
    is_json = p.suffix.lower() == ".json"
    if not is_json and dims is None:
        raise ParseError("CSV datasets need cluster counts (--dims)")
    try:
        return read_dataset_json(p) if is_json else read_dataset_csv(p, dims)
    # a refused line or document; not UTF-8; a field over csv's size limit
    except (ParseError, UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{p}: {exc}") from None


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
