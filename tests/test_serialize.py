"""dumps_canonical against the standard library's encoder as the oracle.

The canonical text must be byte for byte json.dumps(v, sort_keys=True,
indent=2) plus a newline.  Examples are derandomized, so a run is
reproducible.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubkit.serialize import dumps_canonical


def oracle(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


# Keys and strings mix ASCII, escapes, non-ASCII and astral characters.
texts = st.text(
    st.sampled_from("ab\"\\\n\t\x00\x7fé中\U0001f600 ") | st.characters(), max_size=6
)
scalars = (
    st.none()
    | st.booleans()
    | st.sampled_from([0, 1, -1, True, False])
    | st.integers()
    | st.integers(-(10**30), 10**30)
    | texts
)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(texts, children, max_size=5),
    max_leaves=30,
)

ORACLE = settings(max_examples=100, deadline=None, derandomize=True)


@ORACLE
@given(value=json_values)
def test_matches_json_dumps(value):
    assert dumps_canonical(value) == oracle(value)


@ORACLE
@given(shared=json_values, other=json_values)
def test_shared_containers_match_json_dumps(shared, other):
    """One object at several depths and positions, as the search document
    shares one square dict between sets."""
    value = {"a": shared, "b": [shared, {"c": shared}], "d": (other, shared, shared)}
    assert dumps_canonical(value) == oracle(value)


def test_one_dict_at_two_depths():
    square = {"d": 4, "classes": [[[0, 1], [2, 3]], []]}
    value = {"top": square, "nested": [square, [square]], "empty": {}, "none": []}
    text = dumps_canonical(value)
    assert text == oracle(value)
    # the two depths indent the same dict differently
    assert '\n  "top": {\n    "classes"' in text
    assert '\n    {\n      "classes"' in text


@pytest.mark.parametrize("value", [1.5, {1: 2}, {"a": object()}, {b"x"}])
def test_rejects_what_it_does_not_encode(value):
    with pytest.raises(TypeError):
        dumps_canonical(value)
