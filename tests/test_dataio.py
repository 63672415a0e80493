"""CSV reader and writer: round trips, exact bytes and parity with the row loop.

The reference reader and writer below are the per-row implementations the
vectorized ones replaced. Every accepted file must give the same sample,
every refused file the same exception (message and line), and every
written file the same bytes.
"""

import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiway.data import Dimensions, load_sample, sample_from_cell_ids
from multiway.dataio import read_dataset_csv, write_dataset_csv
from multiway.errors import ParseError


def reference_write(path, sample):
    dims = sample.dims
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            [f"dim{i + 1}" for i in range(dims.k)]
            + [f"y{j + 1}" for j in range(sample.obs_dim)]
        )
        for flat in range(dims.pi_c):
            coords = dims.coords_of(flat)
            for row in sample.values[sample.offsets[flat] : sample.offsets[flat + 1]]:
                writer.writerow(list(coords) + [repr(float(v)) for v in row])


def reference_read(path, dims):
    records = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line=1) from None
        expected_prefix = [f"dim{i + 1}" for i in range(dims.k)]
        if [h.strip() for h in header[: dims.k]] != expected_prefix:
            raise ParseError(
                f"header must start with {','.join(expected_prefix)}", line=1
            )
        obs_dim = len(header) - dims.k
        if obs_dim < 1:
            raise ParseError("header has no observation columns", line=1)
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


def outcome(reader, path, dims):
    """("ok", value bits, offsets) or ("error", type, message, line)."""
    try:
        s = reader(path, dims)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("error", type(exc), str(exc), getattr(exc, "line", None))
    assert s.values.dtype == np.float64 and s.offsets.dtype == np.int64
    return ("ok", s.values.shape, s.values.tobytes(), s.offsets.tolist())


def assert_same_samples(a, b):
    assert a.dims == b.dims
    assert a.values.shape == b.values.shape
    assert a.values.tobytes() == b.values.tobytes()
    np.testing.assert_array_equal(a.offsets, b.offsets)


# --------------------------------------------------------------------- (a)

SPECIAL = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.2250738585072014e-308 / 3,
    1e16, -1e16, 1e-5, 0.1, 1.0 / 3.0, 1.7976931348623157e308,
]
values_strategy = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)


@st.composite
def samples(draw):
    counts = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    dims = Dimensions(counts)
    obs_dim = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(0, 3), min_size=dims.pi_c, max_size=dims.pi_c))
    n = sum(sizes)
    flat = draw(st.permutations(np.repeat(np.arange(dims.pi_c), sizes).tolist()))
    vals = draw(st.lists(values_strategy, min_size=n * obs_dim, max_size=n * obs_dim))
    values = np.array(vals, dtype=np.float64).reshape(n, obs_dim)
    return sample_from_cell_ids(dims, np.array(flat, dtype=np.int64), values)


@settings(max_examples=80, deadline=None)
@given(samples())
def test_write_read_round_trip_is_bit_exact(tmp_path_factory, sample):
    path = tmp_path_factory.mktemp("rt") / "d.csv"
    write_dataset_csv(path, sample)
    back = read_dataset_csv(path, sample.dims)
    assert back.values.shape == sample.values.shape
    assert back.values.view(np.uint64).tolist() == sample.values.view(np.uint64).tolist()
    np.testing.assert_array_equal(back.offsets, sample.offsets)


# --------------------------------------------------------------------- (b)


@settings(max_examples=80, deadline=None)
@given(samples())
def test_writer_bytes_equal_reference_writer(tmp_path_factory, sample):
    d = tmp_path_factory.mktemp("w")
    write_dataset_csv(d / "new.csv", sample)
    reference_write(d / "ref.csv", sample)
    assert (d / "new.csv").read_bytes() == (d / "ref.csv").read_bytes()


def test_writer_bytes_across_blocks(tmp_path, monkeypatch):
    # several blocks, and a cell split across a block boundary
    import multiway.dataio as dataio

    monkeypatch.setattr(dataio, "_BLOCK_ROWS", 7)
    rng = np.random.default_rng(3)
    dims = Dimensions((3, 4))
    flat = rng.integers(0, dims.pi_c, size=50)
    sample = sample_from_cell_ids(dims, flat, rng.normal(size=(50, 2)))
    write_dataset_csv(tmp_path / "new.csv", sample)
    reference_write(tmp_path / "ref.csv", sample)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_writer_empty_sample_is_header_only(tmp_path):
    sample = load_sample([], Dimensions((2, 3)), obs_dim=2)
    write_dataset_csv(tmp_path / "e.csv", sample)
    assert (tmp_path / "e.csv").read_bytes() == b"dim1,dim2,y1,y2\n"


# --------------------------------------------------------------------- (c)

H = "dim1,dim2,y1\n"
PARITY = {
    "plain": (H + "1,1,2.5\n2,2,-3\n1,1,4\n", (2, 2)),
    "short row": (H + "1,1,2\n1,1\n", (2, 2)),
    "extra field": (H + "1,1,2\n1,1,2.0,3\n", (2, 2)),
    "float coordinate": (H + "1.0,1,2\n", (2, 2)),
    "exponent coordinate": (H + "1e0,1,2\n", (2, 2)),
    "abc value": (H + "1,1,2\n2,1,abc\n", (2, 2)),
    "coordinate 0": (H + "1,1,2\n0,1,2\n", (2, 2)),
    "coordinate C+1": (H + "1,1,2\n1,3,2\n", (2, 2)),
    "negative coordinate": (H + "-1,1,2\n", (2, 2)),
    "coordinate past int64": (H + "99999999999999999999,1,2\n", (2, 2)),
    "bad header": ("dimX,dim2,y1\n1,1,2\n", (2, 2)),
    "header without observations": ("dim1,dim2\n1,1\n", (2, 2)),
    "quoted header": ('"dim1",dim2,y1\n1,1,2\n', (2, 2)),
    "header field spanning lines": ('"dim1\n",dim2,y1\n1,1,2\n', (2, 2)),
    "unterminated quote in header": ('dim1,dim2,"y1\n1,1,2\n', (2, 2)),
    "header only": (H, (2, 2)),
    "header only, no newline": ("dim1,dim2,y1", (2, 2)),
    "empty file": ("", (2, 2)),
    "blank first line": ("\n" + H + "1,1,2\n", (2, 2)),
    "whitespace-only line": (H + "1,1,2\n   \n2,2,3\n", (2, 2)),
    "blank lines": (H + "\n1,1,2\n\n\n2,2,3\n\n", (2, 2)),
    "blank lines then error": (H + "\n1,1,2\n\n1,x,3\n", (2, 2)),
    "quoted fields": (H + '"1",1,2\n2,"2","3.5"\n', (2, 2)),
    "quoted field with comma": (H + '1,1,"2,5"\n', (2, 2)),
    "underscore value": (H + "1,1,1_0\n", (2, 2)),
    "underscore coordinate": (H + "1_0,1,2\n", (12, 2)),
    "CRLF": ("dim1,dim2,y1\r\n1,1,2\r\n2,2,3\r\n", (2, 2)),
    "CRLF blank lines": ("dim1,dim2,y1\r\n\r\n1,1,2\r\n\r\n", (2, 2)),
    "bare CR": ("dim1,dim2,y1\r1,1,2\r2,2,3\r", (2, 2)),
    "no final newline": (H + "1,1,2\n2,2,3", (2, 2)),
    "spaces around fields": (H + " 1 , 2 , 3.5 \n", (2, 2)),
    "signs and leading zeros": (H + "+1,02,+3\n-0,1,2\n", (2, 2)),
    "special values": (H + "1,1,nan\n1,2,-inf\n2,1,Infinity\n2,2,-0.0\n1,1,5e-324\n", (2, 2)),
    "empty value": (H + "1,1,\n", (2, 2)),
    "comment marker": (H + "1,1,2 # note\n", (2, 2)),
    "hex value": (H + "1,1,0x10\n", (2, 2)),
    "unit separator blank": (H + "1,1,2\x1f\n", (2, 2)),
    "file separator in coordinate": (H + "\x1c1,1,2\n", (2, 2)),
    "non-ASCII digit": (H + "١,1,2\n", (2, 2)),
    "non-ASCII letter": (H + "Ǿ,1,2\n", (2, 2)),
    "no-break space": (H + "1,1,\xa02\n", (2, 2)),
    "NUL": (H + "1,1,2\x00\n", (2, 2)),
    "one dimension": ("dim1,y1,y2\n3,1,2\n1,-1,0.5\n", (3,)),
    "three dimensions": ("dim1,dim2,dim3,y1\n2,1,3,1\n1,1,1,2\n2,1,3,0\n", (2, 2, 3)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", list(PARITY))
def test_reader_parity_with_row_loop(tmp_path, name):
    text, counts = PARITY[name]
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    dims = Dimensions(counts)
    assert outcome(read_dataset_csv, path, dims) == outcome(reference_read, path, dims)


def test_header_only_file_reads_without_warning(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("dim1,y1,y2\n\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sample = read_dataset_csv(path, Dimensions((3,)))
    assert caught == []
    assert sample.values.shape == (0, 2)
    assert sample.offsets.tolist() == [0, 0, 0, 0]


def test_reader_error_names_the_line(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text(H + "\n1,1,2\n\n1,x,3\n")
    with pytest.raises(ParseError) as info:
        read_dataset_csv(path, Dimensions((2, 2)))
    assert info.value.line == 5
    assert str(info.value).startswith("line 5: ")


FIELD = st.text(alphabet="0123456789+-.eEnaifINF _\t\"x\x1c", max_size=5)


@pytest.mark.filterwarnings("error")
@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(FIELD, min_size=2, max_size=4), max_size=4), st.booleans())
def test_reader_parity_on_random_fields(tmp_path_factory, rows, crlf):
    end = "\r\n" if crlf else "\n"
    text = "dim1,dim2,y1" + end + "".join(",".join(r) + end for r in rows)
    path = tmp_path_factory.mktemp("fz") / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    dims = Dimensions((3, 2))
    assert outcome(read_dataset_csv, path, dims) == outcome(reference_read, path, dims)


def test_plain_file_takes_the_vectorized_path(tmp_path, monkeypatch):
    # the row loop calls Dimensions.flat_index once per row; the block parse never
    calls = []
    original = Dimensions.flat_index
    monkeypatch.setattr(
        Dimensions, "flat_index", lambda self, c: calls.append(c) or original(self, c)
    )
    rng = np.random.default_rng(5)
    dims = Dimensions((4, 3))
    sample = sample_from_cell_ids(dims, rng.integers(0, 12, size=40), rng.normal(size=(40, 2)))
    write_dataset_csv(tmp_path / "d.csv", sample)
    assert_same_samples(read_dataset_csv(tmp_path / "d.csv", dims), sample)
    assert calls == []
