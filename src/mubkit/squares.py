"""Squares, supersquares, physical striations, and complete sets.

A square is a partition of F_d x F_d into d classes of d points; class
j-1 in the ``classes`` tuple carries label j.  A supersquare is the
quotient of the plane by an order-d subgroup: class 1 is the subgroup,
the remaining classes are its cosets labelled in order of their minimal
representatives.

Grid convention (used for rendering and the Latin/row-Latin/column-Latin
tests): the cell at grid row r, column c holds the label of the class
containing the point (x1, x2) where x1 sweeps columns left to right and
x2 sweeps rows bottom to top, both in the order 0, 1, mu, mu^2, ...

Complete sets are d+1 pairwise orthogonal extraordinary supersquares,
equivalently d+1 generating subgroups that pairwise intersect only in
the origin, so that together they tile the nonzero points of the plane.
The search engine enumerates every such tiling by exact-cover
backtracking over the extraordinary subgroups.
"""

from __future__ import annotations

import enum
import os
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from itertools import combinations
from typing import Iterable, Sequence

from .gf2n import Field
from .phasespace import (
    Point,
    Subgroup,
    det,
    is_extraordinary,
    iter_lagrangian_masks,
    point_table,
    point_to_mask,
)


class Square:
    """A partition of F_d x F_d into d classes of d points each, with the
    label of every packed point mask."""

    __slots__ = ("field", "classes", "_labels")

    def __init__(self, field: Field, classes: Iterable[Iterable[Point]]) -> None:
        classes = [tuple(c) for c in classes]  # as given: a repeated point is counted
        d = field.order
        if len(classes) != d:
            raise ValueError(f"square of order {d} needs {d} classes, got {len(classes)}")
        labels = [0] * (d * d)
        for idx, cls in enumerate(classes):
            if len(cls) != d:
                raise ValueError(f"class {idx + 1} has {len(cls)} points, expected {d}")
            for p in cls:
                if p.field != field:
                    raise ValueError("square points must share the square's field")
                m = point_to_mask(p)
                if labels[m]:
                    raise ValueError(f"classes overlap at {p}")
                labels[m] = idx + 1
        self.field = field
        self.classes = tuple(map(frozenset, classes))
        self._labels = tuple(labels)

    @property
    def d(self) -> int:
        return self.field.order

    def label_of(self, p: Point) -> int:
        if p.field != self.field:
            raise KeyError(p)
        return self._labels[point_to_mask(p)]

    def grid(self) -> list[list[int]]:
        """grid[r][c]: r indexes x2 bottom-up, c indexes x1 left-right."""
        n, labels = self.field.n, self._labels
        order = [e.mask for e in self.field.in_dlog_order()]
        return [[labels[x1 | x2 << n] for x1 in order] for x2 in order]

    def same_partition(self, other: "Square") -> bool:
        """Partition equality up to renaming of labels 2..d; class 1 must
        match exactly."""
        return (
            frozenset(self.classes) == frozenset(other.classes)
            and self.classes[0] == other.classes[0]
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Square)
            and self.field == other.field
            and self._labels == other._labels
        )

    def __hash__(self) -> int:
        return hash((self.field, self._labels))

    def __repr__(self) -> str:
        return f"Square(d={self.d})"


@dataclass(frozen=True)
class Supersquare:
    generator: Subgroup
    coset_reps: tuple[Point, ...]
    square: Square

    @property
    def field(self) -> Field:
        return self.generator.field

    @property
    def d(self) -> int:
        return self.generator.field.order


def _quotient(a1: Subgroup) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The label of every packed point and the coset representatives of
    the quotient of the plane by an order-d subgroup a1."""
    d, n = a1.field.order, a1.field.n
    labels = [0] * (d * d)
    reps: list[int] = []
    for pm in (x | y << n for x in range(d) for y in range(d)):  # canonical order
        if not labels[pm]:
            reps.append(pm)
            for g in a1.masks():
                labels[pm ^ g] = len(reps)
    return tuple(labels), tuple(reps[1:])


def supersquare_from_subgroup(a1: Subgroup) -> Supersquare:
    """The quotient of the plane by a1: class 1 is a1; cosets get labels
    2..d in order of their minimal representatives."""
    field = a1.field
    d = field.order
    if a1.order != d:
        raise ValueError(f"generating subgroup must have {d} elements")
    table = point_table(field)
    labels, reps = _quotient(a1)
    classes: list[list[Point]] = [[] for _ in range(d)]
    for m, label in enumerate(labels):
        classes[label - 1].append(table[m])
    return Supersquare(a1, tuple(table[r] for r in reps), Square(field, classes))


def is_supersquare(square: Square) -> bool:
    """True iff some class is a subgroup and every other class is a coset
    of it.  Only the class through the origin can qualify."""
    return verify_square(square).supersquare


def is_physical_striation(square: Square) -> bool:
    """True iff the square has an extraordinary-subgroup class whose
    nonzero elements translate every class onto itself."""
    return verify_square(square).physical_striation


def are_orthogonal(s: Square, t: Square) -> bool:
    """True iff the d^2 label pairs over all points are pairwise distinct."""
    if s.field != t.field:
        raise ValueError("squares must share one field")
    return len(set(zip(s._labels, t._labels))) == s.d * s.d


class SquareKind(enum.Enum):
    LATIN = "Latin"
    ROW_LATIN = "RowLatin"
    COLUMN_LATIN = "ColumnLatin"
    PLAIN = "Plain"


def classify(square: Square) -> SquareKind:
    """Latin / row-Latin / column-Latin / plain, the most specific true one."""
    grid = square.grid()
    full = set(range(1, square.d + 1))
    rows_ok = all(set(row) == full for row in grid)
    cols_ok = all(set(col) == full for col in zip(*grid))
    if rows_ok and cols_ok:
        return SquareKind.LATIN
    if rows_ok:
        return SquareKind.ROW_LATIN
    if cols_ok:
        return SquareKind.COLUMN_LATIN
    return SquareKind.PLAIN


GRID_HEADER = "row=x2 bottom-up, col=x1 left-right"


def render_ascii(square: Square, mark_class_1: bool = True) -> str:
    """Grid text, top row printed first; class-1 cells get a '*' suffix."""
    grid = square.grid()
    width = len(str(square.d)) + (1 if mark_class_1 else 0)
    lines = [GRID_HEADER]
    for row in reversed(grid):
        cells = [
            (f"{label}*" if mark_class_1 and label == 1 else str(label)).rjust(width)
            for label in row
        ]
        lines.append(" ".join(cells))
    return "\n".join(lines)


@dataclass(frozen=True)
class CompleteSet:
    set_type: str
    v1: Point | None
    v2: Point | None
    supersquares: tuple[Supersquare, ...]

    @property
    def field(self) -> Field:
        return self.supersquares[0].field

    @property
    def d(self) -> int:
        return self.field.order

    @property
    def generators(self) -> tuple[Subgroup, ...]:
        return tuple(ss.generator for ss in self.supersquares)

    @property
    def squares(self) -> tuple[Square, ...]:
        return tuple(ss.square for ss in self.supersquares)


def type_I_set(v1: Point, v2: Point) -> CompleteSet:
    """The d+1 scalar lines F_d(v1 + lambda*v2), lambda sweeping F_d, plus
    F_d*v2.  Any basis of the plane over F_d is accepted."""
    if det(v1, v2).is_zero:
        raise ValueError("type I needs an F_d-basis: det(v1, v2) must be nonzero")
    field = v1.field
    a, b = point_to_mask(v1), point_to_mask(v2)
    recipes = [("line", a ^ _scale(field, b, lam)) for lam in (0,) + field._exp]
    recipes.append(("line", b))
    return _set_from_recipes("I", v1, v2, recipes)


# Generator tables are expressed as recipes over packed point masks --
# ("line", u) for F_d*u and ("span", a, b, scalars) for Z2*a + scalars*b,
# scalars being element masks -- evaluated to point masks by _recipe_masks,
# for the constructors and for the template index alike.

_Recipe = tuple


def _scale(field: Field, p: int, c: int) -> int:
    """The packed point p scaled by the element mask c."""
    mul = field._mul_mask
    return mul(p & (field.order - 1), c) | mul(p >> field.n, c) << field.n


def _det(field: Field, p: int, q: int) -> int:
    """det of two packed points, as an element mask."""
    lo, n, mul = field.order - 1, field.n, field._mul_mask
    return mul(p & lo, q >> n) ^ mul(q & lo, p >> n)


def _type_II_recipes_d4(field: Field, v1: int, v2: int) -> list[_Recipe]:
    mu, mu2 = field._exp[1], field._exp[2]
    s = partial(_scale, field)
    z2 = (0, 1)
    return [
        ("line", v1),
        ("span", v2, v1 ^ s(v2, mu), z2),
        ("span", s(v2, mu), s(v1 ^ v2, mu2), z2),
        ("span", s(v2, mu2), s(v1 ^ v2, mu), z2),
        ("span", v1 ^ v2, s(v1, mu) ^ s(v2, mu2), z2),
    ]


def _d8_recipes(
    field: Field, set_type: str, v1: int, v2: int, k: int
) -> list[_Recipe]:
    exp, log = field._exp, field._log
    kp = [exp[log[k] * j % 7] for j in range(7)]
    kinv = exp[-log[k] % 7]
    ktilde = tuple(
        sorted(field._mul_mask(t, kinv) for t in range(8) if not field._trace[t])
    )
    s = partial(_scale, field)
    if set_type == "II":
        return [
            ("span", v2 ^ s(v1, kp[4]), v1, ktilde),
            ("span", s(v1, kp[2]), s(v2, kp[5]) ^ s(v1, kp[2]), ktilde),
            ("span", s(v1, kp[4]), s(v2, kp[3]) ^ s(v1, kp[6]), ktilde),
            ("span", s(v1, kp[5]), s(v2, kp[2]) ^ s(v1, kp[4]), ktilde),
            ("span", s(v1, kp[6]), s(v2, kp[1]) ^ v1, ktilde),
            ("span", s(v1 ^ v2, kp[1]), s(v2, kp[6]), ktilde),
            ("span", s(v2, kp[1]), s(v1 ^ v2, kp[6]), ktilde),
            ("span", s(v2, kp[4]), s(v1, kp[3]) ^ s(v2, kp[5]), ktilde),
            ("span", s(v1, kp[2]) ^ s(v2, kp[3]), v1 ^ s(v2, kp[6]), ktilde),
        ]
    if set_type == "III":
        return [
            ("line", v2),
            ("line", v1 ^ v2),
            ("line", s(v1, k) ^ v2),
            ("span", v2 ^ s(v1, kp[2]), v1, ktilde),
            ("span", s(v1, kp[2]), s(v2, kp[5]) ^ s(v1, kp[4]), ktilde),
            ("span", s(v1, kp[4]), s(v2, kp[3]) ^ s(v1, kp[5]), ktilde),
            ("span", s(v1, kp[5]), s(v2, kp[2]) ^ v1, ktilde),
            ("span", s(v1, kp[6]), s(v2, kp[1]) ^ s(v1, kp[4]), ktilde),
            ("span", v1 ^ s(v2, kp[5]), s(v1, kp[5]) ^ s(v2, kp[1]), ktilde),
        ]
    if set_type == "IV":
        return [
            ("line", v2),
            ("span", v2 ^ s(v1, kp[2]), v1, ktilde),
            ("span", s(v1, kp[2]), s(v2, kp[5]) ^ v1, ktilde),
            ("span", s(v1, kp[4]), s(v2, kp[3]) ^ v1, ktilde),
            ("span", s(v1, kp[5]), s(v2, kp[2]) ^ v1, ktilde),
            ("span", s(v1, kp[6]), s(v2, kp[1]) ^ v1, ktilde),
            ("span", s(v1, kp[2]) ^ s(v2, kp[6]), v1 ^ v2, ktilde),
            ("span", s(v1 ^ v2, kp[2]), v1 ^ s(v2, kp[4]), ktilde),
            ("span", s(v1 ^ v2, kp[5]), v1 ^ s(v2, kp[6]), ktilde),
        ]
    raise ValueError(f"unknown set type {set_type!r}")


def _recipe_masks(field: Field, recipe: _Recipe) -> tuple[int, ...]:
    """The sorted point masks a recipe spans, unvalidated: Subgroup checks
    closure and supersquare_from_subgroup the order."""
    if recipe[0] == "line":
        u = recipe[1]
        return tuple(sorted({_scale(field, u, c) for c in range(field.order)}))
    _, a, b, scalars = recipe
    masks = set()
    for c in scalars:
        t = _scale(field, b, c)
        masks.add(t)
        masks.add(t ^ a)
    return tuple(sorted(masks))


def _set_from_recipes(
    set_type: str, v1: Point, v2: Point, recipes: list[_Recipe]
) -> CompleteSet:
    field = v1.field
    supersquares = tuple(
        supersquare_from_subgroup(Subgroup.from_masks(field, _recipe_masks(field, r)))
        for r in recipes
    )
    return CompleteSet(set_type, v1, v2, supersquares)


def type_II_set_d4(v1: Point, v2: Point) -> CompleteSet:
    """The five order-4 generators built from a pair with det(v1, v2) = 1."""
    field = v1.field
    if field.order != 4:
        raise ValueError("this constructor is specific to d = 4")
    if det(v1, v2) != field.one:
        raise ValueError("type II at d=4 needs det(v1, v2) = 1")
    recipes = _type_II_recipes_d4(field, point_to_mask(v1), point_to_mask(v2))
    return _set_from_recipes("II", v1, v2, recipes)


def _d8_set(set_type: str, v1: Point, v2: Point) -> CompleteSet:
    field = v1.field
    if field.order != 8:
        raise ValueError("this constructor is specific to d = 8")
    k = det(v1, v2)
    if k.is_zero or not field.trace(k).is_zero:
        raise ValueError("det(v1,v2) not in K\\{0}")
    recipes = _d8_recipes(field, set_type, point_to_mask(v1), point_to_mask(v2), k.mask)
    return _set_from_recipes(set_type, v1, v2, recipes)


def type_II_set_d8(v1: Point, v2: Point) -> CompleteSet:
    return _d8_set("II", v1, v2)


def type_III_set_d8(v1: Point, v2: Point) -> CompleteSet:
    return _d8_set("III", v1, v2)


def type_IV_set_d8(v1: Point, v2: Point) -> CompleteSet:
    return _d8_set("IV", v1, v2)


@dataclass(frozen=True)
class SquareReport:
    """The single-square checks; ``generator`` is the origin class as a
    subgroup, or None when it is not one."""

    generator: Subgroup | None
    class1_subgroup: bool
    class1_extraordinary: bool
    supersquare: bool
    physical_striation: bool
    failures: tuple[str, ...]

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
    striation = extraordinary and all(
        labels[m ^ a] == label for a in gens[1:] for m, label in enumerate(labels)
    )
    if not striation:
        failures.append("square is not a physical striation")
    return SquareReport(
        sub, sub is not None, extraordinary, supersquare, striation, tuple(failures)
    )


@dataclass(frozen=True)
class CompleteSetReport:
    cardinality: bool
    extraordinary_supersquares: bool
    orthogonality: bool
    trivial_intersections: bool
    striations: bool
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(self.checks().values())

    def checks(self) -> dict[str, bool]:
        return {
            "cardinality": self.cardinality,
            "extraordinary_supersquares": self.extraordinary_supersquares,
            "striations": self.striations,
            "orthogonality": self.orthogonality,
            "trivial_intersections": self.trivial_intersections,
        }


def verify_squares(squares: Sequence[Square]) -> CompleteSetReport:
    """The complete-set checks over bare squares: d+1 extraordinary
    supersquares that are physical striations, pairwise orthogonal, with
    generators meeting only in the origin."""
    failures: list[str] = []
    d = squares[0].d
    cardinality = len(squares) == d + 1
    if not cardinality:
        failures.append(f"expected {d + 1} squares, got {len(squares)}")
    reports = [verify_square(sq) for sq in squares]
    extra_ok = stri_ok = True
    for i, report in enumerate(reports, start=1):
        if not (report.class1_extraordinary and report.supersquare):
            extra_ok = False
            failures.append(f"square {i} is not an extraordinary supersquare")
        if not report.physical_striation:
            stri_ok = False
            failures.append(f"square {i} fails the striation check")
    orth_ok = inter_ok = True
    for i, j in combinations(range(len(squares)), 2):
        if not are_orthogonal(squares[i], squares[j]):
            orth_ok = False
            failures.append(f"squares {i + 1} and {j + 1} are not orthogonal")
        gi, gj = reports[i].generator, reports[j].generator
        if gi is not None and gj is not None and not gi.intersects_trivially(gj):
            inter_ok = False
            failures.append(f"generators {i + 1} and {j + 1} share a nonzero point")
    return CompleteSetReport(
        cardinality, extra_ok, orth_ok, inter_ok, stri_ok, tuple(failures)
    )


def _is_quotient_by_generator(ss: Supersquare) -> bool:
    a1 = ss.generator
    if a1.order != a1.field.order or ss.square.field != a1.field:
        return False
    labels, reps = _quotient(a1)
    table = point_table(a1.field)
    return ss.square._labels == labels and ss.coset_reps == tuple(table[r] for r in reps)


def verify_complete_set(c: CompleteSet) -> CompleteSetReport:
    """verify_squares on the set's squares, plus: each supersquare's
    generator and coset representatives belong to its square."""
    report = verify_squares(c.squares)
    mismatched = [
        i for i, ss in enumerate(c.supersquares, start=1)
        if not _is_quotient_by_generator(ss)
    ]
    if not mismatched:
        return report
    return replace(
        report,
        extraordinary_supersquares=False,
        failures=report.failures
        + tuple(f"supersquare {i} is not the quotient by its generator" for i in mismatched),
    )


def perturb_supersquare(ss: Supersquare, seed: int) -> Square:
    """Swap one point between two distinct non-generator classes: the
    partition and the generator class survive, the coset structure does
    not, so the result is an extraordinary square that is not a
    supersquare."""
    rng = random.Random(seed)
    d = ss.d
    if d < 4:
        raise ValueError("perturbation needs at least two non-generator classes")
    j, k = rng.sample(range(1, d), 2)
    classes = [set(c) for c in ss.square.classes]
    p = rng.choice(sorted(classes[j], key=lambda pt: pt.sort_key))
    q = rng.choice(sorted(classes[k], key=lambda pt: pt.sort_key))
    classes[j].remove(p)
    classes[j].add(q)
    classes[k].remove(q)
    classes[k].add(p)
    return Square(ss.field, classes)


# ---------------------------------------------------------------------------
# Complete-set search: exact cover of the nonzero points by extraordinary
# subgroups.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    sets: tuple[CompleteSet, ...]
    exhaustive: bool

    def census(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for c in self.sets:
            counts[c.set_type] = counts.get(c.set_type, 0) + 1
        return counts


def complete_set_templates(
    field: Field,
) -> dict[frozenset[tuple[int, ...]], tuple[str, Point, Point]]:
    """Generator-set templates keyed by frozensets of sorted subgroup
    point-mask tuples; first match wins, scanning types in order I, II,
    III, IV over all valid (v1, v2) pairs in canonical point order."""
    d, n = field.order, field.n
    table = point_table(field)
    # nonzero packed points in canonical (x mask, y mask) order
    points = [x | y << n for x in range(d) for y in range(d)][1:]
    # the pairs share most recipes: 1,575 distinct among 40,824 at d = 8
    masks_of: dict[_Recipe, tuple[int, ...]] = {}

    def key(recipes: list[_Recipe]) -> frozenset[tuple[int, ...]]:
        out = []
        for r in recipes:
            masks = masks_of.get(r)
            if masks is None:
                masks = masks_of[r] = _recipe_masks(field, r)
            out.append(masks)
        return frozenset(out)

    templates = {key([("line", u) for u in points]): ("I", table[1], table[1 << n])}
    if d == 4:
        for v1 in points:
            for v2 in points:
                if _det(field, v1, v2) == 1:
                    k = key(_type_II_recipes_d4(field, v1, v2))
                    templates.setdefault(k, ("II", table[v1], table[v2]))
    elif d == 8:
        for set_type in ("II", "III", "IV"):
            for v1 in points:
                for v2 in points:
                    det_mask = _det(field, v1, v2)
                    if det_mask and not field._trace[det_mask]:
                        k = key(_d8_recipes(field, set_type, v1, v2, det_mask))
                        templates.setdefault(k, (set_type, table[v1], table[v2]))
    return templates


class _Deadline(Exception):
    pass


@dataclass(frozen=True)
class _Cover:
    """Exact-cover tables: each block's nonzero points as a bitset, the
    blocks through each point, the bitset of all nonzero points, and the
    number of blocks a cover takes."""

    block_bits: tuple[int, ...]
    blocks_by_point: dict[int, list[int]]
    full: int
    want: int


def _prepare_cover(blocks: Sequence[tuple[int, ...]], d: int) -> _Cover:
    block_bits = []
    for masks in blocks:
        bits = 0
        for m in masks:
            if m:
                bits |= 1 << m
        block_bits.append(bits)
    full = 0
    for m in range(1, d * d):
        full |= 1 << m
    blocks_by_point: dict[int, list[int]] = {m: [] for m in range(d * d)}
    for i, masks in enumerate(blocks):
        for m in masks:
            if m:
                blocks_by_point[m].append(i)
    return _Cover(tuple(block_bits), blocks_by_point, full, d + 1)


def _cover_search(
    cover: _Cover,
    deadline: float | None,
    covered: int,
    chosen: tuple[int, ...],
    solutions: list[tuple[int, ...]],
) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise _Deadline
    if covered == cover.full:
        if len(chosen) == cover.want:
            solutions.append(tuple(sorted(chosen)))
        return
    if len(chosen) >= cover.want:
        return
    block_bits, blocks_by_point = cover.block_bits, cover.blocks_by_point
    remaining = cover.full & ~covered
    best: list[int] | None = None
    idx = 0
    while remaining:
        if remaining & 1:
            cands = [i for i in blocks_by_point[idx] if not block_bits[i] & covered]
            if not cands:
                return
            if best is None or len(cands) < len(best):
                best = cands
                if len(cands) == 1:
                    break
        remaining >>= 1
        idx += 1
    assert best is not None
    for i in best:
        _cover_search(cover, deadline, covered | block_bits[i], chosen + (i,), solutions)


def _search_branch(
    cover: _Cover, deadline: float | None, first: int
) -> tuple[list[tuple[int, ...]], bool]:
    """Every cover containing block ``first``, and whether the branch ran
    to the end before the absolute ``time.monotonic()`` deadline."""
    solutions: list[tuple[int, ...]] = []
    try:
        _cover_search(cover, deadline, cover.block_bits[first], (first,), solutions)
        return solutions, True
    except _Deadline:
        return solutions, False


def search_complete_sets(
    field: Field, workers: int = 1, time_budget: float | None = None
) -> SearchResult:
    """All sets of d+1 extraordinary subgroups with pairwise trivial
    intersections, deduplicated, canonically ordered, and annotated with
    the matching construction type.  A time budget makes the result
    best-effort; the ``exhaustive`` flag reports whether it was hit.

    The search branches on the blocks through the point with mask 1 (every
    nonzero point lies in equally many extraordinary subgroups, so this is
    the root choice of the fewest-candidates rule).  The branches run in
    this process, or on a pool of min(workers, CPU count, branch count)
    processes; all of them share one absolute deadline.  Sets that use the
    same subgroup share one Supersquare object."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if time_budget is not None and not time_budget >= 0:
        raise ValueError(f"time budget must be non-negative, got {time_budget}")
    deadline = time.monotonic() + time_budget if time_budget is not None else None
    d = field.order

    blocks: list[tuple[int, ...]] = []
    enum_complete = True
    for masks in iter_lagrangian_masks(field):
        if deadline is not None and time.monotonic() > deadline:
            enum_complete = False
            break
        blocks.append(masks)

    cover = _prepare_cover(blocks, d)
    first = cover.blocks_by_point[1]
    branch = partial(_search_branch, cover, deadline)
    pool_size = min(workers, os.cpu_count() or 1, len(first))
    solutions: list[tuple[int, ...]] = []
    search_complete = True
    if pool_size > 1:  # the pool modules load only when a pool is used
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(pool_size) if pool_size > 1 else nullcontext() as pool:
        for sols, complete in (map if pool is None else pool.map)(branch, first):
            solutions.extend(sols)
            search_complete = search_complete and complete

    built: dict[int, tuple[tuple[tuple[int, int], ...], Supersquare]] = {}
    templates = complete_set_templates(field)
    keyed = []
    for chosen in set(solutions):
        for i in chosen:
            if i not in built:
                ss = supersquare_from_subgroup(Subgroup.from_masks(field, blocks[i]))
                built[i] = (ss.generator.sort_key, ss)
        members = sorted((built[i] for i in chosen), key=lambda item: item[0])
        set_type, v1, v2 = templates.get(
            frozenset(blocks[i] for i in chosen), ("Unclassified", None, None)
        )
        sort_key = tuple(k for k, _ in members)
        keyed.append((sort_key, CompleteSet(set_type, v1, v2, tuple(ss for _, ss in members))))
    keyed.sort(key=lambda item: item[0])
    return SearchResult(tuple(c for _, c in keyed), enum_complete and search_complete)
