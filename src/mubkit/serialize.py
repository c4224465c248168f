"""Canonical JSON forms: integers only, sorted keys, byte-stable output.

Field elements serialize as integer bitmasks, points as [x, y] mask
pairs, subgroups as sorted point arrays, squares as class lists in label
order, and states as {"num": [[re, im], ...], "norm_sq": N}.  Square
payloads carry only "d", the field modulus being the canonical one.  The
documents share their leaves: one (x, y) tuple per point of a field and
one (re, im) tuple per entry 0, +-1, +-i (json.loads gives lists).  The
decoders live with the checks of their document kind (squaresdoc, mubdoc)
and the census writer with the search, so a build compiles neither.
"""

from __future__ import annotations

from functools import cache
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any, Sequence

from .gf2n import Field
from .phasespace import Point, Subgroup, _point_rank, point_to_mask

if TYPE_CHECKING:
    from .mub import MubBasis, MubSet, UnnormalizedState
    from .squares import CompleteSet, Square


def dumps_canonical(obj: Any) -> str:
    """Canonical JSON text plus a newline: byte for byte what the standard
    library's encoder writes with sorted keys, a two-space indent and ASCII
    escaping, for values built from dicts with string keys, lists, tuples,
    strings, ints, bools and None."""
    return "".join(_canonical_pieces(obj))


@cache
def _punctuation(depth: int) -> tuple[str, str, str, str, str]:
    """The separator, list opener, dict opener, list closer and dict closer
    of a container at depth k, whose items are at depth k + 1."""
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    return "," + inner, "[" + inner, "{" + inner, outer + "]", outer + "}"


def _canonical_pieces(obj: Any, depth: int = 0) -> list[str]:
    """The text of dumps_canonical(obj) as the pieces it joins, so that a
    writer can emit a large document without holding it as one string.
    At a start depth k > 0 it is the text obj has when nested k deep in a
    document, with no newline after it.

    A leaf, a non-empty list or tuple of exact ints such as a point, is one
    piece, its text kept in texts per depth by id (the leaf in kept, so no
    other object takes its id): a shared leaf is typed once per depth, and
    a list of leaves all typed is one join.  Only exact ints qualify: True
    prints as true and 1.0 is no JSON this encoder writes, so a bool, a
    float or an int subclass sends its list down the general path.  Other
    items of exact type int, str, dict, list or tuple are dispatched on
    their type; the rest, subclasses included, go through _scalar_json."""
    out: list[str] = []
    texts: dict[int, dict[int, str]] = {}
    kept: list[list | tuple] = []

    def container(o: dict | list | tuple, depth: int) -> None:
        if not o:
            out.append("{}" if isinstance(o, dict) else "[]")
            return
        sep, open_list, open_dict, close_list, close_dict = _punctuation(depth)
        leaf_texts = texts.setdefault(depth + 1, {})
        if isinstance(o, dict):
            pairs = sorted(o.items())  # a key that is no str raises TypeError
            labels = [encode_basestring_ascii(k) + ": " for k, _ in pairs]
            values = [v for _, v in pairs]
            prefix, close = open_dict, close_dict
        else:
            known = [*map(leaf_texts.get, map(id, o))]
            if all(known):
                out.append(open_list + sep.join(known) + close_list)
                return
            labels, values = None, o
            prefix, close = open_list, close_list
        for i, v in enumerate(values):
            if labels:
                prefix += labels[i]
            kind = type(v)
            if kind is int:
                out.append(prefix + int.__repr__(v))
            elif kind is str:
                out.append(prefix + encode_basestring_ascii(v))
            elif (kind is list or kind is tuple) and (
                (text := leaf_texts.get(id(v))) or {*map(type, v)} == _INT_ONLY
            ):
                if text is None:
                    leaf_sep, leaf_open, _, leaf_close, _ = _punctuation(depth + 1)
                    text = leaf_open + leaf_sep.join(map(int.__repr__, v)) + leaf_close
                    leaf_texts[id(v)] = text
                    kept.append(v)
                out.append(prefix + text)
            elif kind is dict or kind is list or kind is tuple:
                out.append(prefix)
                container(v, depth + 1)
            else:
                text = _scalar_json(v)
                if text is None:
                    out.append(prefix)
                    container(v, depth + 1)
                else:
                    out.append(prefix + text)
            prefix = sep
        out.append(close)

    top = _scalar_json(obj)
    if top is None:
        container(obj, depth)
    else:
        out.append(top)
    if not depth:
        out.append("\n")
    return out


_INT_ONLY = frozenset({int})  # the item types of a leaf


def _scalar_json(o: Any) -> str | None:
    """The JSON text of a scalar; None for a container."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, (dict, list, tuple)):
        return None
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


# Shared by the decoders, which raise ValueError on any document of the
# wrong shape, so the CLI reports it as a parse error.


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


@cache
def _point_leaves(field: Field) -> tuple[tuple[int, int], ...]:
    """The (x, y) leaf of each packed point mask x | y << n of the field."""
    lo, n = field.order - 1, field.n
    return tuple((m & lo, m >> n) for m in range(field.order * field.order))


def point_to_json(p: Point) -> tuple[int, int]:
    return _point_leaves(p.field)[point_to_mask(p)]


def subgroup_to_json(g: Subgroup) -> list[tuple[int, int]]:
    return list(map(_point_leaves(g.field).__getitem__, g.masks()))


def square_to_json(s: Square) -> dict:
    return {"d": s.d, "classes": _classes(s.field, s._labels, _point_leaves(s.field))}


def _classes(field: Field, labels: Sequence[int], leaves: Sequence[Any]) -> list[list[Any]]:
    """A square's classes in label order, each its points' leaves in
    canonical (x, y) order, from the label and leaf of every packed point."""
    classes: list[list[Any]] = [[] for _ in range(field.order)]
    for m in _point_rank(field):  # its own inverse: the packed points in canonical order
        classes[labels[m] - 1].append(leaves[m])
    return classes


def complete_set_to_json(c: CompleteSet) -> dict:
    return {
        "type": c.set_type,
        "v1": None if c.v1 is None else point_to_json(c.v1),
        "v2": None if c.v2 is None else point_to_json(c.v2),
        "squares": [square_to_json(sq) for sq in c.squares],
    }


# the shared leaf of each entry 0, 1, i, -1, -i, found by the equal GaussInt
_UNIT_LEAVES = {e: e for e in ((0, 0), (1, 0), (0, 1), (-1, 0), (0, -1))}


def state_to_json(s: UnnormalizedState) -> dict:
    num = [_UNIT_LEAVES.get(e) or (e.re, e.im) for e in s.entries]
    return {"num": num, "norm_sq": s.norm_sq}


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
