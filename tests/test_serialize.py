"""dumps_canonical against the standard library's encoder as the oracle.

The canonical text must be byte for byte json.dumps(v, sort_keys=True,
indent=2) plus a newline.  Examples are derandomized, so a run is
reproducible.
"""

import enum
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubkit import Field, Point, build_mub_set, type_I_set
from mubkit.cli import main
from mubkit.serialize import _canonical_pieces, dumps_canonical, mub_set_to_json


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


class Letter(enum.IntEnum):
    A = 1


class Mapping(dict):
    pass


class Points(list):
    pass


def test_leaves_of_equal_hash_keep_their_own_text():
    """A list or tuple of exact ints is encoded once per depth and object,
    as a shared point tuple is.  [1, 0], [True, 0], (1, 0) and
    [Letter.A, 0] are equal, but only the exact ints are leaves; one tuple
    met at several depths keeps each depth's text.  Dict and list
    subclasses take the general path, not the exact-type one."""
    pair = [7, -3]
    shared = (7, -3)  # a tuple leaf's text is kept by id, per depth
    value = {
        "same": [[1, 0], [True, 0], (1, 0), [Letter.A, 0], [1, 0], [False, 0]],
        "empty": [[], (), [[]]],
        "big": [[-(10**30), 10**30], [-1, 0], [0, -1]],
        "depths": [pair, [pair, [pair]], {"p": pair}],
        "mixed": [[1, [2]], [1, "2"], [1, None], [[1, 0]]],
        "subclasses": [Mapping(b=[1, 0], a=Points([[1, 0]])), Points([1, 0]), Points()],
        "tuples": [
            shared, pair, [shared, pair, (shared, [shared])], {"t": shared, "l": pair},
            (True, 0), (1, 0), (Letter.A, 0), (True, 0), (), ((),), [(), ()], shared,
        ],
    }
    text = dumps_canonical(value)
    assert text == oracle(value)
    assert "true,\n" in text and "false,\n" in text
    with pytest.raises(TypeError):
        dumps_canonical([[1, 0], [1.0, 0]])


# Lists of a few small ints, and tuples drawn from a small pool of shared
# objects (as the documents share one tuple per point and unit entry),
# nested at several depths, so that one leaf recurs at different depths
# and positions of one document.
small_leaves = st.lists(st.integers(-2, 2), min_size=1, max_size=3)
SHARED_LEAVES = [(0, 0), (1, 0), (0, -1), (2, 1, 0), (True, 0), (Letter.A, 1), ()]
leafy_values = st.recursive(
    small_leaves | st.sampled_from(SHARED_LEAVES) | st.integers(-2, 2),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from("abc"), children, max_size=3),
    max_leaves=20,
)


@ORACLE
@given(value=leafy_values)
def test_repeated_leaves_match_json_dumps(value):
    assert dumps_canonical(value) == oracle(value)


def oracle_at_depth(value, k):
    """The oracle's text of value nested k lists deep, without those lists."""
    nested = value
    for _ in range(k):
        nested = [nested]
    text = oracle(nested)
    openers = "".join("[\n" + "  " * (j + 1) for j in range(k))
    closers = "".join("\n" + "  " * j + "]" for j in reversed(range(k))) + "\n"
    assert text.startswith(openers) and text.endswith(closers)
    return text[len(openers) : -len(closers)] if k else text


# Lists whose items are all leaves already typed at their depth are joined
# whole; these documents mix such lists with ones that must not be.
P, L = (1, 2), [1, 2]
LISTS_OF_LEAVES = {
    "one leaf in many lists and at two depths": {
        "a": [[P, P]] * 3 + [[P], (P, P, P)],
        "b": [[[P, P], [P]], [[P, P], [P]], [P, P]],
    },
    "typed leaves, then a list holding [True, 1]": [[P, P], [P, [True, 1]], [[True, 1]], [P, P]],
    "a (1, 2) tuple next to a [1, 2] list": [[P, L], [L, P], [P, L, P], [L, L], (P, P)],
    "empty lists": [[P, []], [], [[], []], [P, P, []], [P], [P, ()]],
    "a bool or an int subclass in an int leaf": [
        [P, P], [(1, True), P], [[Letter.A, 2], P], (P, [2, Letter.A]), [P, P], [P, (1, True)],
    ],
}


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("name", LISTS_OF_LEAVES)
def test_lists_of_typed_leaves_match_json_dumps(name, k):
    """At the top, where dumps_canonical starts, and nested k deep."""
    value = LISTS_OF_LEAVES[name]
    assert "".join(_canonical_pieces(value, k)) == oracle_at_depth(value, k)
    if not k:
        assert dumps_canonical(value) == oracle(value)


@pytest.mark.parametrize("k", range(3))
def test_a_list_of_typed_leaves_is_one_piece(k):
    """The first list types the leaf; each later list of it is one join."""
    value = {"a": [[P, P]] * 3, "b": [[L, P, L]] * 2}
    pieces = _canonical_pieces(value, k)
    assert "".join(pieces) == oracle_at_depth(value, k)
    assert pieces.count("".join(_canonical_pieces([P, P], k + 2))) == 2
    assert pieces.count("".join(_canonical_pieces([L, P, L], k + 2))) == 1


def test_d16_type_i_mub_document_matches_json_dumps():
    """The library-built d = 16 type I MUB document, the text the
    benchmark's library op writes."""
    f16 = Field(4)
    mubs = build_mub_set(type_I_set(Point(f16.one, f16.zero), Point(f16.zero, f16.one)))
    doc = mub_set_to_json(mubs, None)
    assert dumps_canonical(doc) == oracle(doc)


def test_mub_gen_d8_type_ii_document_matches_json_dumps(capsys):
    """The document holds only dicts, lists, strings and ints, so parsing
    it loses nothing the oracle prints."""
    assert main(["mub", "gen", "--d", "8", "--type", "II", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == oracle(json.loads(out))


@pytest.mark.parametrize("value", [1.5, {1: 2}, {"a": object()}, {b"x"}])
def test_rejects_what_it_does_not_encode(value):
    with pytest.raises(TypeError):
        dumps_canonical(value)
