"""Points and subgroups of the discrete phase space F_d x F_d.

A point is a pair of field elements (x, y).  The order-d additive
subgroups are the candidate rays of striations; the extraordinary ones --
those on which the determinant form det((x1,y1),(x2,y2)) = x1*y2 + x2*y1
has zero trace for every pair of elements -- are exactly the rays whose
translation operators pairwise commute.

Subgroups hold a basis packed into integer point masks (x bits low, y bits
high); Point objects are built from one table per field.  The trace of the
determinant form is a symplectic form on F_2^2n, so the extraordinary
subgroups are its Lagrangian subspaces, enumerated by isotropic extension.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import Iterable, Iterator

from .gf2n import Field, FieldElement, Value, _independent


class Point(Value):
    __slots__ = ("x", "y")

    def __init__(self, x: FieldElement, y: FieldElement) -> None:
        if x.field != y.field:
            raise ValueError("point coordinates must share one field")
        self.x = x
        self.y = y

    @property
    def field(self) -> Field:
        return self.x.field

    @property
    def is_zero(self) -> bool:
        return self.x.mask == 0 and self.y.mask == 0

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def scale(self, c: FieldElement) -> "Point":
        return Point(self.x * c, self.y * c)

    @property
    def sort_key(self) -> tuple[int, int]:
        return (self.x.mask, self.y.mask)

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


@cache
def point_table(field: Field) -> tuple[Point, ...]:
    """Canonical Point objects indexed by packed mask x | y << n."""
    els = field.elements()
    return tuple(Point(x, y) for y in els for x in els)


@cache
def _point_rank(field: Field) -> tuple[int, ...]:
    """The position of each packed mask in canonical (x, y) point order."""
    n, lo = field.n, field.order - 1
    return tuple((m & lo) << n | m >> n for m in range(field.order * field.order))


def point_to_mask(p: Point) -> int:
    return p.x.mask | p.y.mask << p.field.n


def det(v1: Point, v2: Point) -> FieldElement:
    """x1*y2 + x2*y1 (subtraction and addition coincide in characteristic 2)."""
    if v1.field != v2.field:
        raise ValueError("points must share one field")
    return v1.x * v2.y + v2.x * v1.y


def trace_zero_subgroup(field: Field) -> frozenset[FieldElement]:
    """The 2^(n-1) elements of trace zero."""
    return frozenset(a for a in field.elements() if field._trace[a.mask] == 0)


def _span(basis: Iterable[int]) -> list[int]:
    """The XOR doubling: entry k is the XOR of basis[j] over the bits j of k."""
    out = [0]
    for b in basis:
        out += [m ^ b for m in out]
    return out


def _canonical_basis(field: Field, rows: Iterable[int]) -> tuple[int, ...]:
    """The canonical basis of the span of independent packed rows: in rank
    coordinates, each reduced on the leading bit of every other, ascending."""
    rank = _point_rank(field)
    out: list[int] = []  # rank masks, each zero at the others' leading bits
    for row in rows:
        r = rank[row]
        for b in out:
            r = min(r, r ^ b)
        if not r:
            raise ValueError(f"row {row} depends on the rows before it")
        out = [min(b, b ^ r) for b in out] + [r]
    return tuple([rank[b] for b in sorted(out)])


class Subgroup(Value):
    """An additively closed subset of F_d x F_d containing the origin, held
    as its canonical basis: the packed masks of its points at positions 1,
    2, 4, ... in canonical order.  In (x, y) rank coordinates these are its
    reduced echelon rows, so their _span lists the points in that order."""

    __slots__ = ("field", "_basis")

    def __init__(self, points: Iterable[Point]) -> None:
        pts = list(points)
        if not pts:
            raise ValueError("subgroup cannot be empty")
        field = pts[0].field
        if any(p.field != field for p in pts):
            raise ValueError("subgroup points must share one field")
        self.field, self._basis = field, self._checked_basis(field, {point_to_mask(p) for p in pts})

    @staticmethod
    def _checked_basis(field: Field, masks: set[int]) -> tuple[int, ...]:
        ms = sorted(masks, key=_point_rank(field).__getitem__)
        if not ms:
            raise ValueError("subgroup cannot be empty")
        if ms[0] != 0:
            raise ValueError("subgroup must contain the origin")
        if len(ms) & (len(ms) - 1):
            raise ValueError(f"subgroup cardinality {len(ms)} is not a power of 2")
        basis = tuple([ms[1 << j] for j in range(len(ms).bit_length() - 1)])
        if _span(basis) != ms:  # 2^k points are closed iff they span themselves
            table = point_table(field)
            g, h = next((g, h) for g in ms for h in ms if g ^ h not in masks)
            raise ValueError(f"set is not closed under addition: {table[g]} + {table[h]}")
        return basis

    @classmethod
    def span(cls, generators: Iterable[Point]) -> "Subgroup":
        gens = list(generators)
        if not gens:
            raise ValueError("span needs at least one generator")
        field = gens[0].field
        if any(g.field != field for g in gens):
            raise ValueError("subgroup points must share one field")
        return cls._trusted(field, _canonical_basis(field, _independent(map(point_to_mask, gens))))

    @classmethod
    def from_masks(cls, field: Field, masks: Iterable[int]) -> "Subgroup":
        ms = set()
        for m in masks:
            if m.__class__ is not int or not 0 <= m < field.order * field.order:
                raise ValueError(f"packed point mask {m} out of range")
            ms.add(m)
        return cls._trusted(field, cls._checked_basis(field, ms))

    @classmethod
    def _trusted(cls, field: Field, basis: tuple[int, ...]) -> "Subgroup":
        """The subgroup whose canonical basis this is, unchecked."""
        g = cls.__new__(cls)
        g.field, g._basis = field, basis
        return g

    def masks(self) -> tuple[int, ...]:
        return tuple(_span(self._basis))

    @property
    def points(self) -> tuple[Point, ...]:
        table = point_table(self.field)
        return tuple(table[m] for m in _span(self._basis))

    @property
    def order(self) -> int:
        return 1 << len(self._basis)

    def nonzero_points(self) -> tuple[Point, ...]:
        return self.points[1:]

    def basis(self) -> tuple[Point, ...]:
        """The greedy F_2-independent points in canonical order."""
        table = point_table(self.field)
        return tuple(table[m] for m in self._basis)

    def intersects_trivially(self, other: "Subgroup") -> bool:
        if self.field != other.field:
            raise ValueError("subgroups must share one field")
        return len(_independent(self._basis + other._basis)) == len(self._basis + other._basis)

    def __contains__(self, p: Point) -> bool:
        return p.field == self.field and point_to_mask(p) in self.masks()

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __len__(self) -> int:
        return self.order

    @property
    def sort_key(self) -> tuple[tuple[int, int], ...]:
        lo, n = self.field.order - 1, self.field.n
        return tuple((m & lo, m >> n) for m in _span(self._basis))

    def __repr__(self) -> str:
        return "{" + ", ".join(str(p) for p in self.points) + "}"


def _coset_reps(g: Subgroup) -> tuple[int, ...]:
    """The minimal representatives of the nonzero cosets, ascending: each
    coset's point reduced by g's basis, zero at the rank bits that lead it."""
    rank = _point_rank(g.field)  # swapping the x and y halves, it is its own inverse
    pivots = sum(1 << rank[b].bit_length() - 1 for b in g._basis)
    return tuple(_span(rank[1 << k] for k in range(2 * g.field.n) if not pivots >> k & 1))[1:]


@cache
def _polars(field: Field) -> tuple[int, ...]:
    """polars[p]: the mask of the points q whose form tr(x_p*y_q + x_q*y_p)
    with the packed point p is 1.  The form is bilinear, so the form of p
    and q is the parity of polars[p] & q, and polars[p ^ q] is polars[p] ^
    polars[q]."""
    n, mul, tr = field.n, field._mul_mask, field._trace
    polars = [0]
    for i in range(2 * n):
        # (a, 0) pairs with the y bits of the other point, (0, a) with its x bits
        a = 1 << i % n
        half = sum(tr[mul(a, 1 << j)] << j for j in range(n))
        row = half << n if i < n else half
        polars += [q ^ row for q in polars]
    return tuple(polars)


def is_extraordinary(g: Subgroup) -> bool:
    """True iff det(g1, g2) has trace zero for every pair of elements.  The
    trace of det is a bilinear form, so the pairs of a basis decide it."""
    polars, basis = _polars(g.field), g._basis
    return not any(
        (polars[p] & q).bit_count() & 1 for i, p in enumerate(basis) for q in basis[i + 1 :]
    )


def _isotropic_rows(p: int, free: int, chosen: list[int], polars: tuple[int, ...]) -> list[int]:
    """The rows 1 << p | x, x a subset of the bits of free, on which the form
    vanishes against every chosen row, in ascending order.

    Each chosen q asks parity(polars[q] & row) == 0: one linear equation in
    the free bits, with bit p of polars[q] as its constant.  The equations
    are reduced on the lowest free bit of each (none left means no row when
    the constant is 1); the other free bits are set at will and each fixes
    the reduced bits below it, so counting over them counts upwards."""
    eqs: list[tuple[int, int]] = []  # (pivot bit, equation), fully reduced
    for q in chosen:
        e = polars[q] & (free | 1 << p)
        for bit, a in eqs:
            if e & bit:
                e ^= a
        if not e & free:
            if e:
                return []
            continue
        low = e & free & -(e & free)
        eqs = [(bit, a ^ e if a & low else a) for bit, a in eqs]
        eqs.append((low, e))
    rows = [1 << p | sum(bit for bit, a in eqs if a >> p & 1)]
    rest = free & ~sum(bit for bit, _ in eqs)
    while rest:
        f = rest & -rest
        step = f | sum(bit for bit, a in eqs if a & f)
        rows += [r ^ step for r in rows]
        rest ^= f
    return rows


def iter_lagrangian_bases(field: Field) -> Iterator[tuple[int, ...]]:
    """The canonical basis of every extraordinary order-d subgroup, i.e.
    every Lagrangian subspace of F_2^2n under the form tr(det).

    Each n-dimensional subspace has one reduced-row-echelon basis: row i
    has its lowest bit at pivot i and zeros at the other pivots.  The rows
    are chosen one at a time, highest pivot first, each from the solutions
    of the form vanishing against every row already chosen
    (_isotropic_rows); the form being bilinear and alternating, that makes
    the whole span isotropic.  Each leaf's rows give its _canonical_basis."""
    n = field.n
    m = 2 * n
    polars = _polars(field)
    for pivots in combinations(range(m), n):
        taken = sum(1 << p for p in pivots)
        order = pivots[::-1]
        frees = [((1 << m) - (2 << p)) & ~taken for p in order]
        found: list[tuple[int, ...]] = []

        def extend(i: int, chosen: list[int]) -> None:
            if i == n:
                found.append(_canonical_basis(field, chosen))
                return
            for r in _isotropic_rows(order[i], frees[i], chosen, polars):
                extend(i + 1, chosen + [r])

        extend(0, [])
        yield from found


def _sorted_bases(field: Field, bases: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Canonical bases in their subgroups' canonical order: the points up
    to position 2^j are the span of the first j basis masks, so two
    subgroups' point ranks first differ where their basis ranks do."""
    rank = _point_rank(field).__getitem__
    return sorted(bases, key=lambda b: tuple(map(rank, b)))


def enumerate_extraordinary_subgroups(field: Field) -> list[Subgroup]:
    """The order-d subgroups on which tr(det) vanishes, canonically sorted."""
    return [Subgroup._trusted(field, b) for b in _sorted_bases(field, iter_lagrangian_bases(field))]
