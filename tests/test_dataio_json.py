"""JSON dataset reader: the vectorized build against the unit-by-unit loop."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiway import Dimensions
from multiway.data import load_sample, sample_from_cell_ids
from multiway.dataio import read_dataset_json
from multiway.errors import ParseError


def reference_read(path):
    """The record-by-record JSON reader the vectorized build replaced."""
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
    if not isinstance(units, list):
        raise ParseError("units: expected an array of unit objects")
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


def outcome(reader, path):
    """("ok", dims, value bits, offsets) or ("error", type, message, line)."""
    try:
        s = reader(path)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("error", type(exc), str(exc), getattr(exc, "line", None))
    assert s.values.dtype == np.float64 and s.offsets.dtype == np.int64
    return ("ok", s.dims, s.values.shape, s.values.tobytes(), s.offsets.tolist())


def doc(dims, *units):
    return {"dims": list(dims), "units": [{"cell": c, "y": y} for c, y in units]}


# name -> JSON text; the readers must agree on the sample or the exception
CASES = {
    # good documents
    "two_way": doc((3, 2), ([3, 1], [1.5, -2.0]), ([1, 2], [0.1, 7]), ([3, 1], [4.0, 5.0])),
    "one_way": doc((4,), ([2], [1.0]), ([4], [2.0]), ([2], [3.0])),
    "three_way": doc((2, 3, 2), ([2, 3, 1], [1.0]), ([1, 1, 2], [2.0]), ([2, 3, 1], [0.5])),
    "int_values": doc((2, 2), ([1, 1], [1, 2]), ([2, 2], [3, 4])),
    "big_int_values": doc((1,), ([1], [2**62 + 1]), ([1], [2**64 + 1]), ([1], [2**53 + 1])),
    "special_floats": '{"dims": [2], "units": [{"cell": [1], "y": [NaN, Infinity]}, '
    '{"cell": [2], "y": [-Infinity, -0.0]}, {"cell": [1], "y": [5e-324, 1e308]}]}',
    "empty_y": doc((2,), ([1], []), ([2], [])),
    "bool_coordinate": doc((2, 2), ([True, 2], [1.0]), ([2, 1], [2.0])),
    "bool_values": doc((2,), ([1], [True, False]), ([2], [False, True])),
    "extra_keys": '{"dims": [2], "units": [{"cell": [1], "y": [1.0], "w": 3}], "meta": 1}',
    "float_coordinate": doc((3,), ([2.0], [1.0]), ([2.7], [2.0])),
    "string_numbers": doc((3,), (["2"], ["1.5"]), ([1], ["-3"])),
    "string_cell": doc((3, 3), ("12", [1.0])),
    # out of range
    "zero_coordinate": doc((3, 2), ([0, 1], [1.0])),
    "coordinate_above_count": doc((3, 2), ([1, 1], [1.0]), ([1, 3], [2.0])),
    "negative_coordinate": doc((3,), ([-1], [1.0])),
    "huge_coordinate": doc((3,), ([1], [1.0]), ([2**70], [2.0])),
    "uint64_coordinate": doc((3,), ([2**63], [1.0])),
    # wrong arity
    "too_few_coordinates": doc((3, 2), ([1, 1], [1.0]), ([2], [2.0])),
    "too_many_coordinates": doc((3, 2), ([1, 1, 1], [1.0]), ([1, 1, 1], [2.0])),
    "one_way_given_two": doc((3,), ([1, 1], [1.0])),
    # ragged y
    "ragged_y_shorter": doc((2,), ([1], [1.0, 2.0]), ([2], [3.0])),
    "ragged_y_longer": doc((2,), ([1], [1.0]), ([2], [2.0, 3.0])),
    "ragged_and_out_of_range": doc((2,), ([1], [1.0]), ([2], [2.0, 3.0]), ([5], [1.0])),
    "scalar_y": doc((2,), ([1], 1.0)),
    "nested_y": doc((2,), ([1], [[1.0]])),
    # non-numeric fields
    "letter_value": doc((2,), ([1], ["a"])),
    "null_value": doc((2,), ([1], [None])),
    "null_coordinate": doc((2,), ([None], [1.0])),
    "letter_coordinate": doc((2,), (["a"], [1.0])),
    "nan_coordinate": '{"dims": [2], "units": [{"cell": [NaN], "y": [1.0]}]}',
    "dict_value": doc((2,), ([1], [{"a": 1}])),
    "list_coordinate": doc((2, 2), ([[1], 1], [1.0])),
    "late_bad_value_after_bad_bounds": doc((2,), ([9], [1.0]), ([1], ["x"])),
    # document shape
    "empty_units": doc((3, 2)),
    "units_object": '{"dims": [2], "units": {"cell": [1], "y": [1.0]}}',
    "units_number": '{"dims": [2], "units": 5}',
    "units_null": '{"dims": [2], "units": null}',
    "unit_is_list": '{"dims": [2], "units": [[1, 1.0]]}',
    "unit_is_string": '{"dims": [2], "units": ["cell"]}',
    "missing_cell": '{"dims": [2], "units": [{"y": [1.0]}]}',
    "missing_y": '{"dims": [2], "units": [{"cell": [1]}]}',
    "missing_units": '{"dims": [2]}',
    "bad_dims": '{"dims": [0], "units": []}',
    "not_json": '{"dims": [2], "units": [',
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_reader_parity_with_unit_loop(tmp_path, name):
    case = CASES[name]
    path = tmp_path / "d.json"
    path.write_text(case if isinstance(case, str) else json.dumps(case), encoding="utf-8")
    assert outcome(read_dataset_json, path) == outcome(reference_read, path)


FIELD = st.one_of(
    st.integers(-2, 4),
    st.floats(allow_nan=False, width=32),
    st.booleans(),
    st.none(),
    st.sampled_from(["1", "x", 2**64]),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(FIELD, min_size=1, max_size=3), st.lists(FIELD, min_size=0, max_size=2)
        ),
        max_size=4,
    )
)
def test_reader_parity_on_random_fields(tmp_path_factory, units):
    path = tmp_path_factory.mktemp("fz") / "d.json"
    path.write_text(json.dumps(doc((3, 2), *units)), encoding="utf-8")
    assert outcome(read_dataset_json, path) == outcome(reference_read, path)


def test_plain_document_takes_the_vectorized_path(tmp_path, monkeypatch):
    # the unit loop calls Dimensions.flat_index once per unit; the block build never
    calls = []
    original = Dimensions.flat_index
    monkeypatch.setattr(
        Dimensions, "flat_index", lambda self, c: calls.append(c) or original(self, c)
    )
    rng = np.random.default_rng(6)
    dims = Dimensions((4, 3))
    ids = rng.integers(0, 12, size=40)
    values = rng.normal(size=(40, 2))
    coords = np.column_stack(np.unravel_index(ids, dims.counts)) + 1
    units = [{"cell": c, "y": y} for c, y in zip(coords.tolist(), values.tolist())]
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"dims": list(dims.counts), "units": units}), encoding="utf-8")
    got = read_dataset_json(path)
    expected = sample_from_cell_ids(dims, ids, values)
    assert got.dims == expected.dims
    assert got.values.tobytes() == expected.values.tobytes()
    np.testing.assert_array_equal(got.offsets, expected.offsets)
    assert calls == []
