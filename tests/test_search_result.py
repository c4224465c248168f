"""The search result held as covers, and the census written from them.

A SearchResult is one value of the field, the blocks' bases, each found
set's sorted block indices and (type, v1, v2) label, and whether the
search ran to the end; its blocks and CompleteSets are built on first
read.  The `squares search` document is written set by set from the
covers by serialize.search_result_pieces as bytes, and
oracles.search_result_to_json, one tree over the built sets, is the
oracle whose encoded text they must match.
"""

import itertools
import json
import random
import types

import pytest

from mubkit import Field, search, search_complete_sets, squares
from mubkit.cli import main
from mubkit.phasespace import iter_lagrangian_bases
from mubkit.serialize import (
    _canonical_pieces,
    dumps_canonical,
    search_result_pieces,
    square_to_json,
)

import oracles


@pytest.fixture(scope="module")
def results():
    return {4: search_complete_sets(Field(2)), 8: search_complete_sets(Field(3))}


def cut_search(field, reads):
    """A search whose faked clock passes the deadline after this many reads:
    one for the deadline, one per walked Lagrangian, two per block for the
    cover tables (its through bits, then its compat row), one per cover
    node."""
    count = itertools.count()
    fake = types.SimpleNamespace(monotonic=lambda: 0.0 if next(count) < reads else 2.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "time", fake)
        return search_complete_sets(field, time_budget=1.0)


@pytest.fixture(scope="module")
def partial_d8():
    """A d = 8 search cut after 2,000 cover nodes."""
    result = cut_search(Field(3), 1 + 135 + 2 * 135 + 2000)
    assert not result.exhaustive
    assert 0 < len(result.sets) < 960
    return result


def stdlib_json(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("d", [4, 8])
def test_written_census_matches_the_oracle(results, d):
    data = b"".join(search_result_pieces(results[d]))
    doc = oracles.search_result_to_json(d, results[d])
    assert data == dumps_canonical(doc).encode()
    if d == 4:
        assert data == stdlib_json(doc).encode()


def test_written_partial_census_matches_the_oracle(partial_d8):
    data = b"".join(search_result_pieces(partial_d8))
    doc = oracles.search_result_to_json(8, partial_d8)
    assert data == dumps_canonical(doc).encode() == stdlib_json(doc).encode()


def test_written_empty_census_matches_the_oracle():
    result = search_complete_sets(Field(3), time_budget=0)
    data = b"".join(search_result_pieces(result))
    doc = oracles.search_result_to_json(8, result)
    assert doc["sets"] == [] and not doc["exhaustive"]
    assert data == dumps_canonical(doc).encode() == stdlib_json(doc).encode()


def test_written_d16_partial_census_matches_the_oracle():
    """A d = 16 search cut after 20,000 cover nodes: a few sets, all of
    them unclassified, so v1 and v2 are null."""
    result = cut_search(Field(4), 1 + 2295 + 2 * 2295 + 20_000)
    assert not result.exhaustive and 0 < len(result.covers) < 100
    data = b"".join(search_result_pieces(result))
    doc = oracles.search_result_to_json(16, result)
    assert data == dumps_canonical(doc).encode() == stdlib_json(doc).encode()


def square_texts(field, bases):
    """The writer's text of each block's square, read off the pieces of a
    result whose sets are one block each: the head, then each set's
    opener, square and tail, then the foot."""
    covers = tuple((i,) for i in range(len(bases)))
    labels = (("Unclassified", None, None),) * len(bases)
    pieces = list(search_result_pieces(search.SearchResult(field, bases, covers, labels, True)))
    assert len(pieces) == 3 * len(bases) + 2
    return [piece.decode() for piece in pieces[2:-1:3]]


@pytest.mark.parametrize("n, sample", [(2, None), (3, None), (4, 60), (5, 12)])
def test_each_square_text_is_its_square_encoded_at_depth_4(n, sample):
    """Every Lagrangian at d = 4 and 8, and a seeded sample of those at
    d = 16 and 32: the text formatted from the block's label table is the
    encoder's text of its square nested four deep."""
    field = Field(n)
    bases = tuple(iter_lagrangian_bases(field))
    if sample is not None:
        bases = tuple(random.Random(3300 + n).sample(bases, sample))
    for basis, text in zip(bases, square_texts(field, bases), strict=True):
        square = squares.Supersquare(squares.Subgroup._trusted(field, basis)).square
        assert text == "".join(_canonical_pieces(square_to_json(square), 4))


@pytest.mark.parametrize(
    "value",
    [
        7,
        "a",
        None,
        [],
        {},
        [1, 2],
        {"b": [[1, 2], [3]], "a": {"c": (4, 5)}, "d": []},
        [{"x": [True, None]}, ["s", [0, [1, [2]]]]],
    ],
)
@pytest.mark.parametrize("k", range(5))
def test_pieces_at_a_start_depth_are_the_text_nested_that_deep(value, k):
    nested = value
    for _ in range(k):
        nested = [nested]
    openers = "".join("[\n" + "  " * (j + 1) for j in range(k))
    closers = "".join("\n" + "  " * j + "]" for j in reversed(range(k)))
    text = "".join(_canonical_pieces(value, k))
    newline = "" if k == 0 else "\n"  # at depth 0 the text is the document, newline and all
    assert dumps_canonical(nested) == openers + text + closers + newline


# -- the lazy result ------------------------------------------------------------


def eager(result):
    """The result's sets built eagerly from its covers, with a new
    Supersquare for every square of every set."""

    def supersquare(i):
        return squares.Supersquare(squares.Subgroup._trusted(result.field, result.bases[i]))

    return tuple(
        squares.CompleteSet(*label, tuple(map(supersquare, cover)))
        for cover, label in zip(result.covers, result.labels)
    )


@pytest.mark.parametrize("d", [4, 8])
def test_lazy_result_equals_the_result_built_eagerly(results, d):
    result = results[d]
    assert result.sets == eager(result)
    again = search_complete_sets(Field({4: 2, 8: 3}[d]))
    assert again == result and not again != result
    assert hash(again) == hash(result)
    assert again.sets == result.sets and again.census() == result.census()


@pytest.mark.parametrize("rows", [0, 50, 135 + 50])
def test_deadline_in_the_table_build_runs_no_cover_node(results, rows):
    """A deadline that passes while the cover tables are built stops the
    build at the next block: the walk is whole, no cover node runs, and the
    result holds the sorted blocks and no set."""
    reads = itertools.count(1)
    fake = types.SimpleNamespace(monotonic=lambda: 0.0 if next(reads) <= 1 + 135 + rows else 2.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "time", fake)
        result = search_complete_sets(Field(3), time_budget=1.0)
    clock_reads = next(reads) - 1
    assert clock_reads == 1 + 135 + rows + 1  # the deadline, the walk, the rows, the stop
    assert result.bases == results[8].bases
    assert (result.covers, result.labels, result.exhaustive) == ((), (), False)
    assert b"".join(search_result_pieces(result)) == dumps_canonical(
        {"census": {}, "d": 8, "exhaustive": False, "sets": []}
    ).encode()


def test_cut_results_with_the_same_sets_over_other_blocks_differ():
    """Equality reads the blocks a search enumerated, not only the sets it
    found: two enumerations cut at different blocks give two values."""
    a, b = cut_search(Field(3), 1 + 10), cut_search(Field(3), 1 + 20)
    assert (len(a.bases), len(b.bases)) == (10, 20)
    assert a.sets == b.sets == () and not a.exhaustive and not b.exhaustive
    assert a != b


def test_sets_that_share_a_block_share_one_supersquare(results):
    result = results[8]
    by_block = {}
    for cover, c in zip(result.covers, result.sets):
        for i, ss in zip(cover, c.supersquares):
            assert by_block.setdefault(i, ss) is ss
    assert len(by_block) == 135 and by_block == result.blocks


@pytest.fixture
def built(monkeypatch):
    """Counts of the Supersquares and CompleteSets built from here on."""
    counts = {"supersquares": 0, "sets": 0}
    real_supersquare, real_set = search.supersquare_from_subgroup, search.CompleteSet

    def supersquare(a1):
        counts["supersquares"] += 1
        return real_supersquare(a1)

    def complete_set(*args):
        counts["sets"] += 1
        return real_set(*args)

    monkeypatch.setattr(search, "supersquare_from_subgroup", supersquare)
    monkeypatch.setattr(search, "CompleteSet", complete_set)
    return counts


def test_census_builds_no_supersquare(built):
    result = search_complete_sets(Field(3))
    assert result.census() == {"I": 1, "II": 504, "III": 84, "IV": 63, "Unclassified": 308}
    assert built == {"supersquares": 0, "sets": 0}
    assert len(result.sets) == 960
    assert built == {"supersquares": 135, "sets": 960}


def test_ascii_census_builds_no_supersquare(built, capsys):
    assert main(["squares", "search", "--d", "8", "--format", "ascii"]) == 0
    assert capsys.readouterr().out.startswith("d=8 complete sets: 960\n")
    assert built == {"supersquares": 0, "sets": 0}


def test_json_census_builds_one_supersquare_per_block_and_no_set(built, tmp_path):
    out = tmp_path / "census.json"
    assert main(["squares", "search", "--d", "8", "--format", "json", "--out", str(out)]) == 0
    assert built == {"supersquares": 135, "sets": 0}


def test_json_census_builds_no_square(monkeypatch, tmp_path):
    """The writer formats each square from its supersquare's label table:
    no Square is built, by the label table or from classes."""
    calls = []
    real = squares.Square._from_labels
    monkeypatch.setattr(squares.Square, "_from_labels", lambda *a: calls.append(a) or real(*a))
    monkeypatch.setattr(squares.Square, "__init__", lambda *a: calls.append(a))
    out = tmp_path / "census.json"
    assert main(["squares", "search", "--d", "8", "--format", "json", "--out", str(out)]) == 0
    assert out.stat().st_size == 41_401_697
    assert calls == []


def test_equality_and_hash_build_no_supersquare(built):
    result, again = search_complete_sets(Field(3)), search_complete_sets(Field(3))
    assert result == again and hash(result) == hash(again)
    assert built == {"supersquares": 0, "sets": 0}
