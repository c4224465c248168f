"""Squares, supersquares, physical striations, and complete sets.

A square is a partition of F_d x F_d into d classes of d points, held
as the label 1..d of every packed point mask; its ``classes`` tuple, built
on demand, lists the class with label j at index j-1.  A supersquare is the
quotient of the plane by an order-d subgroup, its generator, and holds
nothing else: class 1 is the subgroup, the remaining classes are its
cosets labelled in order of their minimal representatives.

Grid convention (used for rendering and the Latin/row-Latin/column-Latin
tests): the cell at grid row r, column c holds the label of the class
containing the point (x1, x2) where x1 sweeps columns left to right and
x2 sweeps rows bottom to top, both in the order 0, 1, mu, mu^2, ...

Complete sets are d+1 pairwise orthogonal extraordinary supersquares,
equivalently d+1 generating subgroups that pairwise intersect only in
the origin, so that together they tile the nonzero points of the plane.
Every typed set is the image of one base template per type and
k = det(v1, v2), its generators at (v1, v2) = (e1, e2) held as F_2 bases,
under the F_d-linear map (x, y) -> x*v1 + y*v2.  A pair acts through that
map's table, the image of every packed point: the constructors map the
base generators through it, and the census of the search module types a
found set by looking it up among the images, reading the maps between
pairs that share a template off the same tables.  A physical striation is
exactly an extraordinary supersquare.  The checks of a bare square, which
only the readers of a squares document run, live in squaresdoc.
"""

from __future__ import annotations

import enum
import random
from functools import cached_property, partial
from itertools import combinations
from typing import Iterable, Sequence

from .gf2n import Field, Value, _independent
from .phasespace import (
    Point,
    Subgroup,
    _coset_reps,
    _span,
    det,
    is_extraordinary,
    point_table,
    point_to_mask,
)


class Square(Value):
    """A partition of F_d x F_d into d classes of d points each, held as
    the label of every packed point mask."""

    __slots__ = ("field", "_labels")

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
        self._labels = tuple(labels)

    @classmethod
    def _from_labels(cls, field: Field, labels: Sequence[int]) -> "Square":
        """The square of a label table that is known to be a partition."""
        sq = cls.__new__(cls)
        sq.field = field
        sq._labels = tuple(labels)
        return sq

    @property
    def classes(self) -> tuple[frozenset[Point], ...]:
        """The classes as sets of points; class j-1 carries label j."""
        table = point_table(self.field)
        members: list[list[Point]] = [[] for _ in range(self.d)]
        for m, label in enumerate(self._labels):
            members[label - 1].append(table[m])
        return tuple(map(frozenset, members))

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
        pairs = set(zip(self._labels, other._labels))
        return self.field == other.field and len(pairs) == self.d and (1, 1) in pairs

    def __repr__(self) -> str:
        return f"Square(d={self.d})"


class Supersquare(Value):
    """The quotient by ``generator``; its square and coset representatives
    are derived from the generator on first use."""

    __slots__ = ("generator", "__dict__")  # the cached properties live in __dict__

    def __init__(self, generator: Subgroup) -> None:
        d = generator.field.order
        if generator.order != d:
            raise ValueError(f"generating subgroup must have {d} elements")
        self.generator = generator

    @property
    def field(self) -> Field:
        return self.generator.field

    @property
    def d(self) -> int:
        return self.generator.field.order

    @cached_property
    def _reps(self) -> tuple[int, ...]:
        return _coset_reps(self.generator)

    def _label_table(self) -> list[int]:
        """The label of each packed point: 1 on the generator, j + 1 on the
        coset of _reps[j - 1]."""
        labels = [0] * (self.d * self.d)
        masks = self.generator.masks()
        for label, rep in enumerate((0, *self._reps), start=1):
            for g in masks:
                labels[rep ^ g] = label
        return labels

    @cached_property
    def square(self) -> Square:
        return Square._from_labels(self.field, self._label_table())

    @cached_property
    def coset_reps(self) -> tuple[Point, ...]:
        return tuple(map(point_table(self.field).__getitem__, self._reps))


def supersquare_from_subgroup(a1: Subgroup) -> Supersquare:
    """The quotient of the plane by a1."""
    return Supersquare(a1)


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


def render_ascii(square: Square) -> str:
    """Grid text, top row printed first; class-1 cells get a '*' suffix."""
    grid = square.grid()
    width = len(str(square.d)) + 1
    lines = [GRID_HEADER]
    for row in reversed(grid):
        cells = [(f"{label}*" if label == 1 else str(label)).rjust(width) for label in row]
        lines.append(" ".join(cells))
    return "\n".join(lines)


class CompleteSet(Value):
    __slots__ = ("set_type", "v1", "v2", "supersquares")

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


# A typed set: the F_2 bases of its base generators through a pair's table.


def _scale(field: Field, p: int, c: int) -> int:
    """The packed point p scaled by the element mask c."""
    mul = field._mul_mask
    return mul(p & (field.order - 1), c) | mul(p >> field.n, c) << field.n


def _pair_table(s1: Sequence[int], s2: Sequence[int]) -> list[int]:
    """The map (x, y) -> x*v1 + y*v2 as the image of every packed point
    x | y << n, from the multiples s1[x] = x*v1 and s2[y] = y*v2."""
    return [a ^ b for b in s2 for a in s1]


def _recipes(field: Field, set_type: str, k: int) -> list[tuple[int, ...]]:
    """The generators of the typed set of a pair with det(v1, v2) = k, at
    (v1, v2) = (e1, e2), each as its F_2 basis of n packed masks.  Every
    list is F_d-linear in (v1, v2), with coefficients that depend only on
    k, so the generators of any valid pair are the images of these under
    its pair table.  A line F_d*u has the basis mu^j*u, and a span
    Z2*a + Kt*b the basis a, b*t over a basis t of Kt = k^-1*K, where K
    holds the elements of trace zero (Kt = Z2 at d = 4, where k = 1)."""
    n, d = field.n, field.order
    v1, v2 = 1, 1 << n
    s = partial(_scale, field)
    exp, log = field._exp, field._log
    kp = [exp[log[k] * j % (d - 1)] for j in range(d - 1)]
    kt = _independent(field._mul_mask(t, exp[-log[k] % (d - 1)])
                      for t in range(d) if not field._trace[t])

    def line(u: int) -> tuple[int, ...]:
        return tuple(s(u, 1 << j) for j in range(n))

    def span(a: int, b: int) -> tuple[int, ...]:
        return (a, *[s(b, t) for t in kt])

    if set_type == "I":
        return [line(v1 ^ s(v2, lam)) for lam in (0,) + exp] + [line(v2)]
    if d == 4 and set_type == "II":
        mu, mu2 = exp[1], exp[2]
        return [
            line(v1),
            span(v2, v1 ^ s(v2, mu)),
            span(s(v2, mu), s(v1 ^ v2, mu2)),
            span(s(v2, mu2), s(v1 ^ v2, mu)),
            span(v1 ^ v2, s(v1, mu) ^ s(v2, mu2)),
        ]
    if set_type == "II":
        return [
            span(v2 ^ s(v1, kp[4]), v1),
            span(s(v1, kp[2]), s(v2, kp[5]) ^ s(v1, kp[2])),
            span(s(v1, kp[4]), s(v2, kp[3]) ^ s(v1, kp[6])),
            span(s(v1, kp[5]), s(v2, kp[2]) ^ s(v1, kp[4])),
            span(s(v1, kp[6]), s(v2, kp[1]) ^ v1),
            span(s(v1 ^ v2, kp[1]), s(v2, kp[6])),
            span(s(v2, kp[1]), s(v1 ^ v2, kp[6])),
            span(s(v2, kp[4]), s(v1, kp[3]) ^ s(v2, kp[5])),
            span(s(v1, kp[2]) ^ s(v2, kp[3]), v1 ^ s(v2, kp[6])),
        ]
    if set_type == "III":
        return [
            line(v2),
            line(v1 ^ v2),
            line(s(v1, k) ^ v2),
            span(v2 ^ s(v1, kp[2]), v1),
            span(s(v1, kp[2]), s(v2, kp[5]) ^ s(v1, kp[4])),
            span(s(v1, kp[4]), s(v2, kp[3]) ^ s(v1, kp[5])),
            span(s(v1, kp[5]), s(v2, kp[2]) ^ v1),
            span(s(v1, kp[6]), s(v2, kp[1]) ^ s(v1, kp[4])),
            span(v1 ^ s(v2, kp[5]), s(v1, kp[5]) ^ s(v2, kp[1])),
        ]
    if set_type == "IV":
        return [
            line(v2),
            span(v2 ^ s(v1, kp[2]), v1),
            span(s(v1, kp[2]), s(v2, kp[5]) ^ v1),
            span(s(v1, kp[4]), s(v2, kp[3]) ^ v1),
            span(s(v1, kp[5]), s(v2, kp[2]) ^ v1),
            span(s(v1, kp[6]), s(v2, kp[1]) ^ v1),
            span(s(v1, kp[2]) ^ s(v2, kp[6]), v1 ^ v2),
            span(s(v1 ^ v2, kp[2]), v1 ^ s(v2, kp[4])),
            span(s(v1 ^ v2, kp[5]), v1 ^ s(v2, kp[6])),
        ]
    raise ValueError(f"unknown set type {set_type!r}")


def _typed_set(set_type: str, v1: Point, v2: Point, k: int) -> CompleteSet:
    """The typed set of a validated pair with det(v1, v2) = k: the spans of
    its base generators mapped through the pair's table."""
    field = v1.field
    s1, s2 = ([_scale(field, point_to_mask(v), c) for c in range(field.order)] for v in (v1, v2))
    table = _pair_table(s1, s2)
    supersquares = tuple(
        Supersquare(Subgroup.from_masks(field, [table[m] for m in _span(basis)]))
        for basis in _recipes(field, set_type, k)
    )
    return CompleteSet(set_type, v1, v2, supersquares)


def type_I_set(v1: Point, v2: Point) -> CompleteSet:
    """The d+1 scalar lines F_d(v1 + lambda*v2), lambda sweeping F_d, plus
    F_d*v2.  Any basis of the plane over F_d is accepted."""
    k = det(v1, v2)
    if k.is_zero:
        raise ValueError("type I needs an F_d-basis: det(v1, v2) must be nonzero")
    return _typed_set("I", v1, v2, k.mask)


def type_II_set_d4(v1: Point, v2: Point) -> CompleteSet:
    """The five order-4 generators built from a pair with det(v1, v2) = 1."""
    field = v1.field
    if field.order != 4:
        raise ValueError("this constructor is specific to d = 4")
    if det(v1, v2) != field.one:
        raise ValueError("type II at d=4 needs det(v1, v2) = 1")
    return _typed_set("II", v1, v2, 1)


def _d8_set(set_type: str, v1: Point, v2: Point) -> CompleteSet:
    field = v1.field
    if field.order != 8:
        raise ValueError("this constructor is specific to d = 8")
    k = det(v1, v2)
    if k.is_zero or not field.trace(k).is_zero:
        raise ValueError("det(v1,v2) not in K\\{0}")
    return _typed_set(set_type, v1, v2, k.mask)


def type_II_set_d8(v1: Point, v2: Point) -> CompleteSet:
    return _d8_set("II", v1, v2)


def type_III_set_d8(v1: Point, v2: Point) -> CompleteSet:
    return _d8_set("III", v1, v2)


def type_IV_set_d8(v1: Point, v2: Point) -> CompleteSet:
    return _d8_set("IV", v1, v2)


class CompleteSetReport(Value):
    __slots__ = (
        "cardinality",
        "extraordinary_supersquares",
        "orthogonality",
        "trivial_intersections",
        "striations",
        "failures",
    )

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


def _verify_set(
    squares: Sequence[Square | Supersquare],
    rows: Sequence[tuple[Subgroup | None, bool, bool]],
) -> CompleteSetReport:
    """The complete-set checks from each square's row: its generator (or
    None), whether it is a supersquare and whether it is a physical
    striation.  Two supersquares are compared through their generators,
    any other pair on its label grids, so a square that is a supersquare
    is read only for its field."""
    if not squares:
        raise ValueError("empty square list")
    field = squares[0].field
    if any(sq.field != field for sq in squares):
        raise ValueError("squares must share one field")
    d = field.order
    cardinality = len(squares) == d + 1
    failures = [] if cardinality else [f"expected {d + 1} squares, got {len(squares)}"]
    squares_ok = True  # a striation is an extraordinary supersquare
    for i, (_, _, striation) in enumerate(rows, start=1):
        if not striation:
            squares_ok = False
            failures.append(f"square {i} is not an extraordinary supersquare")
            failures.append(f"square {i} fails the striation check")
    orth_ok = inter_ok = True
    for (i, (gi, si, _)), (j, (gj, sj, _)) in combinations(enumerate(rows), 2):
        meet = gi is not None and gj is not None and not gi.intersects_trivially(gj)
        # the quotients by two order-d subgroups are orthogonal exactly when
        # the subgroups meet only in the origin
        orthogonal = not meet if si and sj else are_orthogonal(squares[i], squares[j])
        if not orthogonal:
            orth_ok = False
            failures.append(f"squares {i + 1} and {j + 1} are not orthogonal")
        if meet:
            inter_ok = False
            failures.append(f"generators {i + 1} and {j + 1} share a nonzero point")
    return CompleteSetReport(cardinality, squares_ok, orth_ok, inter_ok, squares_ok, tuple(failures))


def verify_complete_set(c: CompleteSet) -> CompleteSetReport:
    """squaresdoc.verify_squares(c.squares) read off the generators: each
    quotient is a supersquare, a striation iff its generator is extraordinary."""
    return _verify_set(c.supersquares, [(g, True, is_extraordinary(g)) for g in c.generators])


def perturb_supersquare(ss: Supersquare, seed: int) -> Square:
    """Swap one point between two distinct non-generator classes: the
    partition and the generator class survive, the coset structure does
    not, so the result is an extraordinary square that is not a
    supersquare."""
    rng = random.Random(seed)
    j, k = rng.sample(range(1, ss.d), 2)
    labels, masks = ss._label_table(), ss.generator.masks()
    # label c + 1 in canonical order: _reps[c - 1] plus each point of the generator
    p = rng.choice([ss._reps[j - 1] ^ g for g in masks])
    q = rng.choice([ss._reps[k - 1] ^ g for g in masks])
    labels[p], labels[q] = k + 1, j + 1
    return Square._from_labels(ss.field, labels)
