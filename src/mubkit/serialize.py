"""Canonical JSON forms: integers only, sorted keys, byte-stable output.

Field elements serialize as integer bitmasks, points as [x, y] mask
pairs, subgroups as sorted point arrays, squares as class lists in label
order, and states as {"num": [[re, im], ...], "norm_sq": N}.  Square
payloads carry only "d"; the field modulus is the canonical one for that
dimension.
"""

from __future__ import annotations

import json
from typing import Any

from .gf2n import Field, field_for_dimension
from .mub import MubBasis, MubSet, UnnormalizedState
from .pauli import GaussInt
from .phasespace import Point, Subgroup
from .squares import CompleteSet, Square


def dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# The *_from_json parsers raise ValueError on any document of the wrong
# shape, so the CLI reports it as a parse error.


def _expect(data: Any, kind: type, what: str) -> Any:
    """data itself if its JSON type is kind (so a bool is no int)."""
    if type(data) is not kind:
        raise ValueError(f"{what}: expected {kind.__name__}, got {type(data).__name__}")
    return data


def _ints(data: Any, what: str, length: int | None = None) -> list[int]:
    """data itself if it is a list of integers, of the given length if set."""
    items = _expect(data, list, what)
    if length is not None and len(items) != length:
        raise ValueError(f"{what}: expected {length} entries, got {len(items)}")
    for item in items:
        _expect(item, int, what)
    return items


def point_to_json(p: Point) -> list[int]:
    return [p.x.mask, p.y.mask]


def point_from_json(field: Field, data: Any) -> Point:
    x, y = _ints(data, "a point", 2)
    return Point(field.element(x), field.element(y))


def subgroup_to_json(g: Subgroup) -> list[list[int]]:
    return [point_to_json(p) for p in g.points]


def subgroup_from_json(field: Field, data: Any) -> Subgroup:
    return Subgroup(point_from_json(field, item) for item in _expect(data, list, "a subgroup"))


def square_to_json(s: Square) -> dict:
    return {
        "d": s.d,
        "classes": [
            [point_to_json(p) for p in sorted(cls, key=lambda p: p.sort_key)]
            for cls in s.classes
        ],
    }


def square_from_json(data: Any) -> Square:
    data = _expect(data, dict, "a square")
    field = field_for_dimension(_expect(data.get("d"), int, "d"))
    classes = [
        [point_from_json(field, item) for item in _expect(cls, list, "a class")]
        for cls in _expect(data.get("classes"), list, "classes")
    ]
    return Square(field, classes)


def complete_set_to_json(c: CompleteSet) -> dict:
    return {
        "type": c.set_type,
        "v1": None if c.v1 is None else point_to_json(c.v1),
        "v2": None if c.v2 is None else point_to_json(c.v2),
        "squares": [square_to_json(sq) for sq in c.squares],
    }


def squares_payload_from_json(data: Any) -> tuple[str, Any]:
    """Dispatch a parsed JSON document to ("square", Square) or
    ("set", (type, v1, v2, [Square, ...])).  Raises ValueError on
    malformed payloads; striation/orthogonality defects are left to the
    verification layer."""
    data = _expect(data, dict, "the document")
    if "classes" in data:
        return "square", square_from_json(data)
    if "squares" in data:
        squares = [square_from_json(sq) for sq in _expect(data["squares"], list, "squares")]
        if not squares:
            raise ValueError("empty square list")
        field = squares[0].field
        v1 = None if data.get("v1") is None else point_from_json(field, data["v1"])
        v2 = None if data.get("v2") is None else point_from_json(field, data["v2"])
        return "set", (str(data.get("type", "Unclassified")), v1, v2, squares)
    raise ValueError("payload is neither a square nor a complete set")


def state_to_json(s: UnnormalizedState) -> dict:
    return {"num": [[e.re, e.im] for e in s.entries], "norm_sq": s.norm_sq}


def state_from_json(data: Any) -> UnnormalizedState:
    data = _expect(data, dict, "a state")
    entries = tuple(
        GaussInt(*_ints(e, "an entry", 2)) for e in _expect(data.get("num"), list, "num")
    )
    return UnnormalizedState(entries, _expect(data.get("norm_sq"), int, "norm_sq"))


def mub_payload_from_json(
    data: Any,
) -> tuple[int, list[list[UnnormalizedState]], list[list[int] | None], list[int] | None]:
    """(d, states per basis, class map per basis, structure or None) from a
    MUB document."""
    data = _expect(data, dict, "the document")
    d = _expect(data.get("d"), int, "d")
    bases, maps = [], []
    for basis in _expect(data.get("bases"), list, "bases"):
        basis = _expect(basis, dict, "a basis")
        states = _expect(basis.get("states"), list, "states")
        bases.append([state_from_json(s) for s in states])
        cmap = basis.get("class_of_state")
        maps.append(None if cmap is None else _ints(cmap, "class_of_state"))
    triple = data.get("structure")
    return d, bases, maps, None if triple is None else _ints(triple, "structure")


def basis_to_json(b: MubBasis) -> dict:
    return {
        "source": subgroup_to_json(b.source),
        "words": [list(w.letters) for w in b.operator_words],
        "states": [state_to_json(s) for s in b.states],
        "class_of_state": None if b.class_of_state is None else list(b.class_of_state),
    }


def mub_set_to_json(m: MubSet, structure_triple: tuple[int, int, int] | None) -> dict:
    out = {
        "d": m.d,
        "complete_set": complete_set_to_json(m.source_set),
        "bases": [basis_to_json(b) for b in m.bases],
        "unbiased": True,
    }
    if structure_triple is not None:
        out["structure"] = list(structure_triple)
    return out
