"""``serialization.write_json`` writes the bytes of ``json.dumps(obj, indent=2)``."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakeya.serialization import SLOT, Records, write_json


def written(obj) -> str:
    fh = io.StringIO()
    write_json(obj, fh)
    return fh.getvalue()


class CountingFile(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


# non-ASCII, control characters, quotes and backslashes, and the letter n
texts = st.text(st.characters(codec="utf-8"), max_size=8) | st.sampled_from(
    ["", "nan", "inf", "-inf", "null", 'a"b\\c', "\x00\x1f\x7f", "é✓😀"]
)
floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 1e-300, 5e-324, 1.7976931348623157e308]
)
leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | floats
    | floats.map(np.float64)
    | texts
)
keys = texts | st.integers() | floats | st.booleans() | st.none()
trees = st.recursive(
    leaves,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(keys, inner, max_size=4)
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(trees)
def test_bytes_equal_json_dumps_indent_2(obj):
    assert written(obj) == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        (),
        {"a": [], "b": {}, "c": ((),)},
        [math.nan, math.inf, -math.inf, np.float64(math.nan), np.float64(-math.inf)],
        {math.nan: 1, math.inf: 2, 1.5: 3, 7: 4, True: 5, False: 6, None: 7},
        {"error_estimate": np.float64(1.7763568394002505e-15)},
        [None, True, False, 0, -1, 10**30, "n", ["nan"]],
        "top-level string",
        3.25,
    ],
)
def test_edge_cases_equal_json_dumps(obj):
    assert written(obj) == json.dumps(obj, indent=2) + "\n"


def test_one_write_per_document():
    fh = CountingFile()
    write_json({"problems": [{"matrix": [[1.0, 0.0], [0.0, 1.0]], "side": 2.0}] * 50}, fh)
    assert fh.writes == 1


@pytest.mark.parametrize(
    "obj", [np.int64(3), {1, 2}, object(), {"a": [np.int64(1)]}, [1.0, np.bool_(True)]]
)
def test_unsupported_values_raise_type_error(obj):
    with pytest.raises(TypeError) as ours:
        written(obj)
    with pytest.raises(TypeError) as theirs:
        json.dumps(obj, indent=2)
    assert str(ours.value) == str(theirs.value)


def test_unsupported_keys_raise_type_error():
    with pytest.raises(TypeError, match="keys must be str, int, float, bool or None, not tuple"):
        written({(1, 2): 3})


# ---------------------------------------------------------------------------
# Records: one layout, filled by each row's leaves


def filled(layout, leaves):
    """``layout`` with each SLOT replaced by the next of ``leaves``, in written order."""
    if layout is SLOT:
        return next(leaves)
    if isinstance(layout, dict):
        return {k: filled(v, leaves) for k, v in layout.items()}
    if isinstance(layout, list):
        return [filled(v, leaves) for v in layout]
    return layout


def slot_count(layout) -> int:
    if layout is SLOT:
        return 1
    if isinstance(layout, dict):
        return sum(map(slot_count, layout.values()))
    if isinstance(layout, list):
        return sum(map(slot_count, layout))
    return 0


# keys a template must escape or a JSON string must quote
layout_keys = texts | st.sampled_from(
    ["%", "%r", "%%s", "100%", '"', "\\", "é", "\x00", "\x1f", "%(a)s", "n"]
)
layouts = st.recursive(
    st.just(SLOT) | st.just(SLOT) | st.none() | st.booleans() | st.integers() | texts,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(layout_keys, inner, max_size=3),
    max_leaves=12,
)
row_ints = st.integers() | st.sampled_from([2**63, -(2**63) - 1, 2**64 + 1, 10**400])
row_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, 1e-310, 1e16, 1e-5, 1.7976931348623157e308]
)


@st.composite
def records_cases(draw):
    layout = draw(layouts)
    count = slot_count(layout)
    rows = draw(st.lists(st.tuples(*[row_ints | row_floats] * count), max_size=4))
    return layout, rows, draw(st.integers(0, 3))


def nested(value, depth: int):
    """``value`` ``depth`` levels down, in dicts and lists."""
    for level in range(depth):
        value = {"level": [value, level]} if level % 2 else [{"%": value}]
    return value


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(records_cases())
def test_records_equal_json_dumps_of_their_dicts(case):
    layout, rows, depth = case
    records = Records(layout, rows)
    dicts = [filled(layout, iter(row)) for row in rows]
    assert written(records) == json.dumps(dicts, indent=2) + "\n"
    obj = {"schema_version": 1, "problems": nested(records, depth), "after": [1.5]}
    want = {"schema_version": 1, "problems": nested(dicts, depth), "after": [1.5]}
    assert written(obj) == json.dumps(want, indent=2) + "\n"


class Flag(int):
    pass


LAYOUT = {"a": [SLOT, SLOT], "b": SLOT}


@pytest.mark.parametrize(
    "row, error",
    [
        ((1, 2.0, True), TypeError),
        ((1, np.float64(2.0), 3), TypeError),
        ((np.int64(1), 2.0, 3), TypeError),
        ((1, Flag(2), 3.0), TypeError),
        ((1, math.nan, 3), ValueError),
        ((1, 2.0, math.inf), ValueError),
        ((-math.inf, 10**400, 3), ValueError),
        ((1, "2", 3), TypeError),
        ((1, None, 3), TypeError),
        ((1, 2.0), ValueError),
        ((1, 2.0, 3, 4), ValueError),
        ([1, 2.0, 3], TypeError),
    ],
)
def test_records_reject_a_row_that_json_does_not_write_as_its_repr(row, error):
    fh = CountingFile()
    with pytest.raises(error):
        write_json({"problems": Records(LAYOUT, [(1, 2.0, 3), row])}, fh)
    assert fh.writes == 0 and fh.getvalue() == ""


def test_a_slot_outside_records_raises():
    fh = CountingFile()
    with pytest.raises(TypeError, match="SLOT"):
        write_json({"a": [1.0, SLOT]}, fh)
    assert fh.writes == 0


def test_from_columns_fills_each_slot_from_its_column():
    columns = {
        "k": np.array([[1, 2], [3, 4], [5, 6]]),
        "x": {"m": np.arange(12.0).reshape(3, 2, 2), "s": np.array([0.5, -0.0, 1e16])},
    }
    records = Records.from_columns(columns)
    assert records.layout == {"k": [SLOT, SLOT], "x": {"m": [[SLOT] * 2] * 2, "s": SLOT}}
    assert records.rows[1] == (3, 4, 4.0, 5.0, 6.0, 7.0, -0.0)
    assert set(map(type, records.rows[2])) == {int, float}
    empty = Records.from_columns({k: v[:0] for k, v in columns.items() if k == "k"})
    assert empty.rows == [] and written({"p": empty}) == '{\n  "p": []\n}\n'
