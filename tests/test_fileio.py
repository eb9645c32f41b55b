import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from verdoc.fileio import json_bytes

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(value=values)
@example(value={})
@example(value=[])
@example(value={"a": {}, "b": [], "c": [{}, [[]]]})
@example(value={"météo": "21°C ☀", " ": "\x00\x1f\"\\", "emoji": "\U0001f600"})
@example(value=[0, -1, 2**70, 0.0, -0.0, 1e-300, 1.5e300, float("nan"), float("-inf"), True, None])
def test_json_bytes_matches_indented_sorted_dumps(value):
    assert json_bytes(value) == (json.dumps(value, indent=2, sort_keys=True) + "\n").encode("utf-8")


def test_tuples_are_written_as_lists():
    value = {"pair": (1, ("a", None)), "empty": ()}
    assert json_bytes(value) == (json.dumps(value, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("value", [{1: "a"}, {"a": {None: 1}}, [object()], {"a": {1, 2}}])
def test_what_the_writer_cannot_write_is_a_type_error(value):
    with pytest.raises(TypeError):
        json_bytes(value)
