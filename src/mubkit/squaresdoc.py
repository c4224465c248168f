"""A squares document read back: its decoders and the checks of bare
squares, which only `squares verify` and `squares classify` run.  Like
serialize's decoders before, it imports squares where it uses its types.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Any, Sequence

from .gf2n import Field, Value, field_for_dimension
from .phasespace import Point, Subgroup, is_extraordinary
from .serialize import _expect, _ints

if TYPE_CHECKING:
    from .squares import CompleteSetReport, Square


def point_from_json(field: Field, data: Any) -> Point:
    x, y = _ints(data, "a point", 2)
    return Point(field.element(x), field.element(y))


def square_from_json(data: Any) -> Square:
    from .squares import Square

    data = _expect(data, dict, "a square")
    field = field_for_dimension(_expect(data.get("d"), int, "d"))
    classes = [
        [point_from_json(field, item) for item in _expect(cls, list, "a class")]
        for cls in _expect(data.get("classes"), list, "classes")
    ]
    return Square(field, classes)


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


class SquareReport(Value):
    """The single-square checks; ``generator`` is the origin class as a
    subgroup, or None when it is not one."""

    __slots__ = (
        "generator",
        "class1_subgroup",
        "class1_extraordinary",
        "supersquare",
        "physical_striation",
        "failures",
    )

    def checks(self) -> dict[str, bool]:
        return {
            "class1_subgroup": self.class1_subgroup,
            "class1_extraordinary": self.class1_extraordinary,
            "supersquare": self.supersquare,
            "physical_striation": self.physical_striation,
        }


def verify_square(square: Square) -> SquareReport:
    """Is the class through the origin an extraordinary subgroup, are the
    other classes its cosets, and do its translations fix every class?"""
    failures: list[str] = []
    labels = square._labels
    members: list[list[int]] = [[] for _ in range(square.d)]
    for m, label in enumerate(labels):
        members[label - 1].append(m)
    try:
        sub = Subgroup.from_masks(square.field, members[labels[0] - 1])
    except ValueError as exc:
        sub = None
        failures.append(f"origin class is not a subgroup: {exc}")
    extraordinary = sub is not None and is_extraordinary(sub)
    if sub is not None and not extraordinary:
        failures.append("origin class is not extraordinary")
    gens = () if sub is None else sub.masks()
    # a class of d points is a coset of the order-d subgroup iff one of
    # its points, translated by the subgroup, stays in the class
    supersquare = sub is not None and all(
        labels[cls[0] ^ g] == labels[cls[0]] for cls in members for g in gens
    )
    if not supersquare:
        failures.append("square is not a supersquare")
    # an order-d subgroup's translations fix every class of d points iff
    # every class is one of its cosets
    striation = extraordinary and supersquare
    if not striation:
        failures.append("square is not a physical striation")
    return SquareReport(
        sub, sub is not None, extraordinary, supersquare, striation, tuple(failures)
    )


def is_supersquare(square: Square) -> bool:
    """True iff some class is a subgroup and every other class is a coset
    of it.  Only the class through the origin can qualify."""
    return verify_square(square).supersquare


def is_physical_striation(square: Square) -> bool:
    """True iff the square has an extraordinary-subgroup class whose
    nonzero elements translate every class onto itself."""
    return verify_square(square).physical_striation


def verify_squares(squares: Sequence[Square]) -> CompleteSetReport:
    """The complete-set checks over bare squares: d+1 extraordinary
    supersquares that are physical striations, pairwise orthogonal, with
    generators meeting only in the origin."""
    from .squares import _verify_set

    row = attrgetter("generator", "supersquare", "physical_striation")
    return _verify_set(squares, [row(verify_square(sq)) for sq in squares])
