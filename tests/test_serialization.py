"""``serialization.write_json`` writes the bytes of ``json.dumps(obj, indent=2)``."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakeya.serialization import write_json


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
