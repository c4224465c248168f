"""Canonical JSON forms: integers only, sorted keys, byte-stable output.

Field elements serialize as integer bitmasks, points as [x, y] mask
pairs, subgroups as sorted point arrays, squares as class lists in label
order, and states as {"num": [[re, im], ...], "norm_sq": N}.  Square
payloads carry only "d"; the field modulus is the canonical one for that
dimension.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any, Callable

from .gf2n import Field, field_for_dimension
from .phasespace import Point, Subgroup

if TYPE_CHECKING:  # a decoder imports the module of the type it builds
    from .mub import MubBasis, MubSet, UnnormalizedState
    from .squares import CompleteSet, SearchResult, Square


def dumps_canonical(obj: Any) -> str:
    """Canonical JSON text plus a newline: byte for byte what the standard
    library's encoder writes with sorted keys, a two-space indent and ASCII
    escaping, for values built from dicts with string keys, lists, tuples,
    strings, ints, bools and None."""
    return "".join(_canonical_pieces(obj))


def _canonical_pieces(obj: Any) -> list[str]:
    """The text of dumps_canonical(obj) as the pieces it joins, so that a
    writer can emit a large document without holding it as one string.

    A container that holds containers is encoded once per depth: met
    again, it reuses its first pieces, joined into one string on the
    second use.  The memo is keyed by id and depth, which is sound because
    obj keeps every container alive for the call.

    A leaf, a non-empty list or tuple of exact ints such as a point
    [x, y], is one piece whose text depends only on its values and its
    depth, so each depth keeps a table of leaf texts keyed by the value
    tuple.  Only exact ints qualify: True and 1.0 hash like 1, but True
    prints as true and 1.0 is no JSON this encoder writes, so a bool, a
    float or an int subclass sends its list down the general path."""
    out: list[str] = []
    # (start, end) of a container's pieces in out; its text once reused
    memo: dict[tuple[int, int], tuple[int, int] | str] = {}
    # per depth k: the separator before an item at depth k + 1, and the
    # openers and closers of a list and a dict at depth k
    punctuation: list[tuple[str, str, str, str, str]] = []
    # per depth k: the text of each leaf met at depth k, by its values
    leaves: list[dict[tuple[int, ...], str]] = []

    def container(o: dict | list | tuple, depth: int) -> None:
        key = (id(o), depth)
        seen = memo.get(key)
        if seen is not None:
            if not isinstance(seen, str):
                seen = memo[key] = "".join(out[seen[0] : seen[1]])
            out.append(seen)
            return
        if not o:
            out.append("{}" if isinstance(o, dict) else "[]")
            return
        while len(punctuation) <= depth + 1:
            k = len(punctuation)
            inner, outer = "\n" + "  " * (k + 1), "\n" + "  " * k
            punctuation.append(("," + inner, "[" + inner, "{" + inner, outer + "]", outer + "}"))
            leaves.append({})
        sep, open_list, open_dict, close_list, close_dict = punctuation[depth]
        leaf_sep, leaf_open, _, leaf_close, _ = punctuation[depth + 1]
        leaf_texts = leaves[depth + 1]
        if isinstance(o, dict):
            pairs = sorted(o.items())  # a key that is no str raises TypeError
            labels = [encode_basestring_ascii(k) + ": " for k, _ in pairs]
            values = [v for _, v in pairs]
            prefix, close = open_dict, close_dict
        else:
            labels, values = None, o
            prefix, close = open_list, close_list
        start = len(out)
        nested = False
        for i, v in enumerate(values):
            if labels:
                prefix += labels[i]
            kind = type(v)
            if kind is int:
                out.append(prefix + int.__repr__(v))
            elif kind is str:
                out.append(prefix + encode_basestring_ascii(v))
            elif (kind is list or kind is tuple) and {*map(type, v)} == _INT_ONLY:
                leaf = tuple(v)
                text = leaf_texts.get(leaf)
                if text is None:
                    text = leaf_texts[leaf] = (
                        leaf_open + leaf_sep.join(map(int.__repr__, leaf)) + leaf_close
                    )
                out.append(prefix + text)
                nested = True
            else:
                text = _scalar_json(v)
                if text is None:
                    out.append(prefix)
                    container(v, depth + 1)
                    nested = True
                else:
                    out.append(prefix + text)
            prefix = sep
        out.append(close)
        if nested:
            memo[key] = (start, len(out))

    top = _scalar_json(obj)
    if top is None:
        container(obj, 0)
    else:
        out.append(top)
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
    """Classes in label order, each its points in canonical (x, y) order."""
    d, n, labels = s.d, s.field.n, s._labels
    classes: list[list[list[int]]] = [[] for _ in range(d)]
    for x in range(d):
        for y in range(d):
            classes[labels[x | y << n] - 1].append([x, y])
    return {"d": d, "classes": classes}


def square_from_json(data: Any) -> Square:
    from .squares import Square

    data = _expect(data, dict, "a square")
    field = field_for_dimension(_expect(data.get("d"), int, "d"))
    classes = [
        [point_from_json(field, item) for item in _expect(cls, list, "a class")]
        for cls in _expect(data.get("classes"), list, "classes")
    ]
    return Square(field, classes)


def complete_set_to_json(c: CompleteSet) -> dict:
    return _complete_set_json(c, square_to_json)


def _complete_set_json(c: CompleteSet, encode_square: Callable[[Square], dict]) -> dict:
    return {
        "type": c.set_type,
        "v1": None if c.v1 is None else point_to_json(c.v1),
        "v2": None if c.v2 is None else point_to_json(c.v2),
        "squares": [encode_square(sq) for sq in c.squares],
    }


def search_result_to_json(d: int, result: SearchResult) -> dict:
    """The `squares search` document.  Sets that share a Square object
    share its one square_to_json dict, so dumps_canonical encodes it once."""
    shared: dict[int, dict] = {}  # id(square) -> its dict; result keeps the squares alive

    def encode_square(sq: Square) -> dict:
        doc = shared.get(id(sq))
        if doc is None:
            doc = shared[id(sq)] = square_to_json(sq)
        return doc

    return {
        "d": d,
        "exhaustive": result.exhaustive,
        "census": result.census(),
        "sets": [_complete_set_json(c, encode_square) for c in result.sets],
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
    from .mub import UnnormalizedState
    from .pauli import GaussInt

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
    d = field_for_dimension(_expect(data.get("d"), int, "d")).order
    bases, maps = [], []
    for basis in _expect(data.get("bases"), list, "bases"):
        basis = _expect(basis, dict, "a basis")
        states = _expect(basis.get("states"), list, "states")
        bases.append([state_from_json(s) for s in states])
        cmap = basis.get("class_of_state")
        maps.append(None if cmap is None else _ints(cmap, "class_of_state"))
    triple = data.get("structure")
    return d, bases, maps, None if triple is None else _ints(triple, "structure", 3)


# a word's letters -> the bits of its x and of its z mask, qubit 1 first, Y = XZ
_X_BITS, _Z_BITS = str.maketrans("IXYZ", "0110"), str.maketrans("IXYZ", "0011")


def mub_words_from_json(data: Any, d: int) -> list[list[tuple[int, int]]]:
    """The (x, z) masks of the n-letter "words" of each basis in a MUB
    document that mub_payload_from_json has read.  They are untrusted hints
    for certify_bases, so words that do not parse are dropped."""
    out = []
    for basis in data["bases"]:
        try:
            words = ["".join(w) for w in basis["words"]]
        except (KeyError, TypeError):
            words = []
        words = [w for w in words if 1 << len(w) == d and not w.strip("IXYZ")]
        out.append([(int(w.translate(_X_BITS), 2), int(w.translate(_Z_BITS), 2)) for w in words])
    return out


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
