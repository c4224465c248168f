"""Canonical JSON forms: integers only, sorted keys, byte-stable output.

Field elements serialize as integer bitmasks, points as [x, y] mask
pairs, subgroups as sorted point arrays, squares as class lists in label
order, and states as {"num": [[re, im], ...], "norm_sq": N}.  Square
payloads carry only "d", the field modulus being the canonical one.  The
documents share their leaves: one (x, y) tuple per point of a field and
one (re, im) tuple per entry 0, +-1, +-i (json.loads gives lists).  The
search document is written set by set as bytes from a search result's
covers, each block's square formatted once from per-field point texts.
"""

from __future__ import annotations

from functools import cache
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from .gf2n import Field, field_for_dimension
from .phasespace import Point, Subgroup, _point_rank, point_to_mask

if TYPE_CHECKING:  # a decoder imports the module of the type it builds
    from .mub import MubBasis, MubSet, UnnormalizedState
    from .search import SearchResult
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
    piece, its text kept in leaves per depth by id, next to the leaf so that
    no other object takes its id: a shared leaf is typed and joined once per
    depth.  Only exact ints qualify: True prints as true and 1.0 is no JSON
    this encoder writes, so a bool, a float or an int subclass sends its
    list down the general path.  Any other item of exact type int, str,
    dict, list or tuple is dispatched on its type; the rest, subclasses
    included, go through _scalar_json."""
    out: list[str] = []
    leaves: dict[int, dict[int, tuple]] = {}

    def container(o: dict | list | tuple, depth: int) -> None:
        if not o:
            out.append("{}" if isinstance(o, dict) else "[]")
            return
        sep, open_list, open_dict, close_list, close_dict = _punctuation(depth)
        leaf_sep, leaf_open, _, leaf_close, _ = _punctuation(depth + 1)
        leaf_texts = leaves.setdefault(depth + 1, {})
        if isinstance(o, dict):
            pairs = sorted(o.items())  # a key that is no str raises TypeError
            labels = [encode_basestring_ascii(k) + ": " for k, _ in pairs]
            values = [v for _, v in pairs]
            prefix, close = open_dict, close_dict
        else:
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
                (seen := leaf_texts.get(id(v))) or {*map(type, v)} == _INT_ONLY
            ):
                if seen is None:
                    seen = leaf_texts[id(v)] = (
                        v, leaf_open + leaf_sep.join(map(int.__repr__, v)) + leaf_close
                    )
                out.append(prefix + seen[1])
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


@cache
def _point_leaves(field: Field) -> tuple[tuple[int, int], ...]:
    """The (x, y) leaf of each packed point mask x | y << n of the field."""
    lo, n = field.order - 1, field.n
    return tuple((m & lo, m >> n) for m in range(field.order * field.order))


def point_to_json(p: Point) -> tuple[int, int]:
    return _point_leaves(p.field)[point_to_mask(p)]


def point_from_json(field: Field, data: Any) -> Point:
    x, y = _ints(data, "a point", 2)
    return Point(field.element(x), field.element(y))


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


@cache
def _point_texts(field: Field, depth: int) -> tuple[str, ...]:
    """The text of each packed point's leaf nested depth deep in a document."""
    return tuple("".join(_canonical_pieces(leaf, depth)) for leaf in _point_leaves(field))


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
    return {
        "type": c.set_type,
        "v1": None if c.v1 is None else point_to_json(c.v1),
        "v2": None if c.v2 is None else point_to_json(c.v2),
        "squares": [square_to_json(sq) for sq in c.squares],
    }


def search_result_pieces(result: SearchResult) -> Iterator[bytes]:
    """The `squares search` document as bytes, set by set from the covers,
    with no Square, CompleteSet or tree built.  A block's square is its
    label table's classes, ordered as by square_to_json, of point texts at
    depth 7; a set opens with one text ("squares" sorts first) and ends
    with its label's tail, its type and v1 and v2 at depth 3.  Each square
    and tail is encoded once and yielded for every set that holds it."""
    field, d = result.field, result.field.order
    doc = {"census": result.census(), "d": d, "exhaustive": result.exhaustive, "sets": []}
    pieces = _canonical_pieces(doc)
    cut = pieces.index("[]")  # the sets, which sort last
    sep, open_list, open_dict, close_list, close_dict = zip(*map(_punctuation, range(7)))
    square_open = open_dict[4] + '"classes": ' + open_list[5]
    square_close = f'{close_list[5]}{sep[4]}"d": {d}{close_dict[4]}'
    squares = {}
    for i, ss in result.blocks.items():
        classes = _classes(field, ss._label_table(), _point_texts(field, 7))
        text = sep[5].join(open_list[6] + sep[6].join(c) + close_list[6] for c in classes)
        squares[i] = (square_open + text + square_close).encode()
    opener = open_dict[2] + '"squares": ' + open_list[3]
    first, later, between = (t.encode() for t in (open_list[1] + opener, sep[1] + opener, sep[3]))
    tails: dict[int, bytes] = {}  # by id; the result keeps each label alive
    yield "".join(pieces[:cut]).encode()
    for k, (cover, label) in enumerate(zip(result.covers, result.labels)):
        yield later if k else first
        for j, i in enumerate(cover):  # one piece per square: a joined set is a copy of it
            if j:
                yield between
            yield squares[i]
        if (tail := tails.get(id(label))) is None:
            kind, *vs = label
            v1, v2 = ("null" if v is None else _point_texts(field, 3)[point_to_mask(v)] for v in vs)
            text = f'"type": {encode_basestring_ascii(kind)}{sep[2]}"v1": {v1}{sep[2]}"v2": {v2}'
            tail = tails[id(label)] = (close_list[3] + sep[2] + text + close_dict[2]).encode()
        yield tail
    yield ((close_list[1] if result.covers else "[]") + "".join(pieces[cut + 1 :])).encode()


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


# the shared leaf of each entry 0, 1, i, -1, -i, found by the equal GaussInt
_UNIT_LEAVES = {e: e for e in ((0, 0), (1, 0), (0, 1), (-1, 0), (0, -1))}


def state_to_json(s: UnnormalizedState) -> dict:
    num = [_UNIT_LEAVES.get(e) or (e.re, e.im) for e in s.entries]
    return {"num": num, "norm_sq": s.norm_sq}


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
