"""Malformed input: every document exits 0, 1 or 2 and nothing escapes main.

Arbitrary JSON values, and valid d = 4 set and MUB files with parts
replaced or deleted, go through `squares verify`, `squares classify` and
`mub verify`.  Examples are derandomized, so a run is reproducible.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mubkit import build_mub_set
from mubkit.cli import main
from mubkit.serialize import complete_set_to_json, mub_set_to_json

KEYS = (
    "d", "classes", "squares", "type", "v1", "v2", "bases", "states", "num",
    "norm_sq", "class_of_state", "structure",
)
COMMANDS = (("squares", "verify"), ("squares", "classify"), ("mub", "verify"))

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 33)
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), children, max_size=5),
    max_leaves=20,
)

FUZZ = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def paths(doc, prefix=()):
    """Every key/index path into a parsed document, containers included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from paths(value, prefix + (key,))


@st.composite
def mutated(draw, doc):
    """The document with one to three parts replaced by arbitrary values or
    deleted."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(paths(doc))))
        if not path:
            return draw(json_values)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(json_values)
        else:
            del parent[path[-1]]
    return doc


def run(tmp_path, doc, command) -> int:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([*command, str(path)])


@pytest.fixture(scope="module")
def set_doc(d4_type_ii_set):
    return complete_set_to_json(d4_type_ii_set)


@pytest.fixture(scope="module")
def mub_doc(d4_type_ii_set):
    return mub_set_to_json(build_mub_set(d4_type_ii_set), None)


@FUZZ
@given(doc=json_values)
def test_arbitrary_json_never_escapes_main(tmp_path, doc):
    for command in COMMANDS:
        assert run(tmp_path, doc, command) in (0, 1, 2)


@FUZZ
@given(data=st.data())
def test_mutated_set_file_never_escapes_main(tmp_path, set_doc, data):
    doc = data.draw(mutated(set_doc))
    for command in COMMANDS[:2]:
        assert run(tmp_path, doc, command) in (0, 1, 2)


@FUZZ
@given(data=st.data())
def test_mutated_mub_file_never_escapes_main(tmp_path, mub_doc, data):
    doc = data.draw(mutated(mub_doc))
    assert run(tmp_path, doc, COMMANDS[2]) in (0, 1, 2)


def test_deeply_nested_json_exits_2_with_one_line(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    for command in COMMANDS:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main([*command, str(path)]) == 2, command
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_reported_malformed_documents_exit_2(tmp_path, mub_doc):
    bad_map = json.loads(json.dumps(mub_doc))
    bad_map["bases"][0]["class_of_state"] = ["a", 1]
    cases = [
        ({"d": 4, "classes": [1, 2, 3, 4]}, COMMANDS[:2]),
        ({"d": 4, "squares": {"a": 1}}, COMMANDS[:1]),
        (bad_map, COMMANDS[2:]),
    ]
    for doc, commands in cases:
        for command in commands:
            assert run(tmp_path, doc, command) == 2, (command, doc)
