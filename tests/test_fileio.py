import pytest

from verdoc.fileio import json_bytes


def test_json_bytes_is_compact_sorted_ascii():
    value = {"b": [1, -0.5, 2**70, None, True], "a": {"météo": "☀\n"}, "c": {}}
    assert json_bytes(value) == (
        b'{"a":{"m\\u00e9t\\u00e9o":"\\u2600\\n"},"b":[1,-0.5,1180591620717411303424,null,true],"c":{}}\n'
    )


def test_tuples_are_written_as_lists():
    value = {"pair": (1, ("a", None)), "empty": ()}
    assert json_bytes(value) == b'{"empty":[],"pair":[1,["a",null]]}\n'


@pytest.mark.parametrize("value", [{(1, 2): "a"}, {"a": {1: "b", "c": 2}}, [object()], {"a": {1, 2}}])
def test_what_the_writer_cannot_write_is_a_type_error(value):
    with pytest.raises(TypeError):
        json_bytes(value)
