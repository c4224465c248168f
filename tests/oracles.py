"""Slow reference implementations that the mask-native library is tested
against.

The subspace scan walks every n-dimensional subspace of F_2^2n and keeps
those on which the trace of the determinant vanishes for every pair of
points; the library grows the same subgroups one isotropic row at a time.
The candidate-filter walk grows them in the library's order, trying every
row with a given pivot and keeping those isotropic to the rows before it;
the library solves for those rows.
At d = 8 the closed forms of the paper give the same subgroups again.
The square verifier checks closure, cosets and striations in Point
arithmetic; the library reads them off a label-by-mask table.  A
subgroup's basis is the greedy independent masks in canonical order and
its quotient a scan of the plane that labels each unlabelled point's
coset (the library keeps the points 1, 2, 4, ... of a subgroup and
doubles the unit points off their pivots for the cosets).  The dense
Gaussian-integer matrices are the one dense oracle: translation operators
as Kronecker products of Pauli factors, which the library applies as
signed permutations, and the literal commutator and unit-multiple tests
that hold the trace-form commutation criterion and the operator phases
to matrix products.  certify_bases_dense is the MUB certificate with
every inner product formed entry by entry, which the library's
certificate on packed states must match; it ignores a structure claim
for d != 8, which the library fails.  Point listings and scalar lines
live here too, since only tests use them.

The per-point references of the mask-native layers live here as well:
square perturbation, partition equality and encoding over frozensets of
Points (the library reads and writes label tables); expansion bits by
field arithmetic (the library tabulates them once per expansion basis);
the field-side commutation criterion (the library reads the parity of a
polar mask); a translation applied entry by entry to Gaussian integers
and the rotation into the canonical quadrant by a unit search (the
library translates packed bit-planes and divides by the first entry);
the content reduction of a ray by Gaussian gcds (the
library divides by the one magnitude of a stabilizer column);
proportionality and the integer unbiasedness test of two states; the
rank of a Gaussian matrix by fraction-free elimination (the library
reads a two-row rank off the 2x2 minors); and the two-qubit rank of a
state from its Gaussian 2x2 minors (the library reads a built basis's
entanglement off its stabilizer words).

The search and typing references are here too: the striation test by
every nonzero element of the origin class (the library translates by a
basis of it), the first selfdual basis by a scan over all n-sets of masks
(the library searches the trace-1 masks depth first), the dual basis by
inverting an F_2 matrix (the library finds each dual element as the one
mask with the right trace products), the exact cover that rebuilds the
candidate list of every uncovered point at each node and branches on the
shortest (the library branches on the lowest
uncovered point over bitsets of compatible blocks), and the recipe
tables of the typed sets written in Point and FieldElement arithmetic,
with the template table built by evaluating them at every valid (v1, v2)
(the library maps one base template per type and det(v1, v2), in the
constructors and in the census alike).  The search document is one tree
of built sets here, encoded whole; the library writes it set by set from
the covers.
"""

import random
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from typing import Iterable, Sequence

from mubkit import Square, Subgroup, det, serialize, trace_zero_subgroup
from mubkit.gf2n import FieldBasis, _independent, dual_basis, is_dual_pair, is_selfdual
from mubkit.pauli import I_UNIT, ONE, UNITS, ZERO, GaussInt, PauliWord
from mubkit.mub import (
    EntanglementStructure,
    UnnormalizedState,
    _class_map_fault,
    _cut_rank,
    separability,
)
from mubkit.phasespace import Point, _polars, point_table
from mubkit.squares import CompleteSetReport, SquareReport, are_orthogonal


# -- Gaussian-integer arithmetic and states ------------------------------------


def _round_div(p: int, q: int) -> int:
    """Nearest integer to p/q for q > 0 (ties round up)."""
    return (2 * p + q) // (2 * q)


def gauss_divmod(a: GaussInt, b: GaussInt) -> tuple[GaussInt, GaussInt]:
    nb = b.norm_sq()
    t = a * b.conj()
    q = GaussInt(_round_div(t.re, nb), _round_div(t.im, nb))
    return q, a - q * b


def gauss_gcd(a: GaussInt, b: GaussInt) -> GaussInt:
    while not b.is_zero:
        _, r = gauss_divmod(a, b)
        a, b = b, r
    return a


def gauss_divexact(a: GaussInt, b: GaussInt) -> GaussInt:
    """a / b, required to be exact."""
    nb = b.norm_sq()
    t = a * b.conj()
    if t.re % nb or t.im % nb:
        raise ValueError(f"{a} is not divisible by {b}")
    return GaussInt(t.re // nb, t.im // nb)


def translate(x: int, z: int, v: Sequence[GaussInt]) -> tuple[GaussInt, ...]:
    """X^x Z^z v, entry by entry: e_c goes to (-1)^|z & c| e_(c ^ x)."""
    out = [ZERO] * len(v)
    for c, e in enumerate(v):
        out[c ^ x] = -e if (z & c).bit_count() & 1 else e
    return tuple(out)


def canonical_rotation(entries: Sequence[GaussInt]) -> tuple[GaussInt, ...]:
    """entries times the unit that puts the first nonzero one in the
    half-open quadrant re > 0, im >= 0."""
    first = next(e for e in entries if not e.is_zero)
    unit = next(u for u in UNITS if (w := u * first).re > 0 and w.im >= 0)
    return tuple(unit * e for e in entries)


def content_reduce(entries: Sequence[GaussInt]) -> tuple[GaussInt, ...]:
    """Divide out the Gaussian gcd and rotate by a unit so the first
    nonzero entry lands in the canonical quadrant."""
    g = ZERO
    for e in entries:
        if not e.is_zero:
            g = e if g.is_zero else gauss_gcd(g, e)
    if g.is_zero:
        raise ValueError("cannot reduce the zero vector")
    return canonical_rotation(tuple(gauss_divexact(e, g) for e in entries))


def state_from_raw(entries: Sequence[GaussInt]) -> UnnormalizedState:
    """The content-reduced state of any nonzero Gaussian vector."""
    reduced = content_reduce(entries)
    return UnnormalizedState(reduced, sum(e.norm_sq() for e in reduced))


def proportional_to(u: UnnormalizedState, v: UnnormalizedState) -> bool:
    """Equal up to a Gaussian-rational factor (exact cross products)."""
    if u.dim != v.dim:
        return False
    ref = next(
        ((a, b) for a, b in zip(u.entries, v.entries) if not a.is_zero or not b.is_zero),
        None,
    )
    if ref is None:
        return True
    ra, rb = ref
    if ra.is_zero or rb.is_zero:
        return False
    return all(a * rb == b * ra for a, b in zip(u.entries, v.entries))


def is_unbiased_pair(u: UnnormalizedState, v: UnnormalizedState, d: int) -> bool:
    """d * |<u,v>|^2 = norm_sq(u) * norm_sq(v), as exact integers."""
    if u.dim != d or v.dim != d:
        raise ValueError("states must have dimension d")
    return d * u.inner(v).norm_sq() == u.norm_sq * v.norm_sq


def gauss_rank(rows: list[list[GaussInt]]) -> int:
    """Fraction-free elimination rank over the Gaussian rationals."""
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next(
            (r for r in range(rank, len(rows)) if not rows[r][c].is_zero), None
        )
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][c].is_zero:
                continue
            factor_lead = rows[rank][c]
            factor_this = rows[r][c]
            rows[r] = [
                factor_lead * rows[r][j] - factor_this * rows[rank][j]
                for j in range(cols)
            ]
        rank += 1
    return rank


def two_qubit_rank(u: UnnormalizedState) -> int:
    """Rank across the single 1|2 cut of a two-qubit state: 1 means
    product, 2 means entangled."""
    if u.dim != 4:
        raise ValueError("two_qubit_rank supports two-qubit states only")
    return _cut_rank(u, 2, 1)


# -- points and translations ------------------------------------------------------


def expansion_bits(
    p: Point, basis_e: FieldBasis, basis_f: FieldBasis
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The bits x_i = tr(x f_i) and y_i = tr(y e_i) of p = (x, y)."""
    field = p.field
    x_bits = tuple(field.trace(p.x * f).mask for f in basis_f)
    y_bits = tuple(field.trace(p.y * e).mask for e in basis_e)
    return x_bits, y_bits


def translation_masks(p: Point, basis_e: FieldBasis, basis_f: FieldBasis) -> tuple[int, int]:
    """The masks (x, z) of p's translation X^x Z^z: its expansion bits,
    qubit 1 the most significant."""
    x_bits, z_bits = expansion_bits(p, basis_e, basis_f)
    return int("".join(map(str, x_bits)), 2), int("".join(map(str, z_bits)), 2)


def trace_condition(p1: Point, p2: Point) -> bool:
    """tr(x1 y2) = tr(x2 y1); the field-side commutation criterion."""
    if p1.field != p2.field:
        raise ValueError("points must share one field")
    field = p1.field
    return field.trace(p1.x * p2.y) == field.trace(p2.x * p1.y)


def zero_point(field):
    return point_table(field)[0]


def all_points(field):
    """Every point, in (x mask, y mask) order."""
    table = point_table(field)
    d = field.order
    return [table[x | y << field.n] for x in range(d) for y in range(d)]


def line(u):
    """The scalar multiples F_d * u."""
    if u.is_zero:
        raise ValueError("a line needs a nonzero direction")
    return Subgroup(u.scale(c) for c in u.field.elements())


class GaussMatrix:
    """A dense square matrix of Gaussian integers."""

    __slots__ = ("dim", "rows")

    def __init__(self, rows: Iterable[Iterable[GaussInt]]) -> None:
        rows = tuple(tuple(row) for row in rows)
        dim = len(rows)
        if any(len(r) != dim for r in rows):
            raise ValueError("matrix must be square")
        self.dim = dim
        self.rows = rows

    @classmethod
    def identity(cls, dim: int) -> "GaussMatrix":
        return cls(
            tuple(
                tuple(ONE if i == j else ZERO for j in range(dim)) for i in range(dim)
            )
        )

    def __matmul__(self, other: "GaussMatrix") -> "GaussMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.rows))
        out = []
        for arow in self.rows:
            nz = [(j, e[0], e[1]) for j, e in enumerate(arow) if e[0] or e[1]]
            orow = []
            for col in cols:
                re = im = 0
                for j, ar, ai in nz:
                    br, bi = col[j]
                    re += ar * br - ai * bi
                    im += ar * bi + ai * br
                orow.append(GaussInt(re, im))
            out.append(tuple(orow))
        return GaussMatrix(tuple(out))

    def kron(self, other: "GaussMatrix") -> "GaussMatrix":
        out = []
        for arow in self.rows:
            for brow in other.rows:
                row: list[GaussInt] = []
                for a in arow:
                    if a.re or a.im:
                        row.extend(a * b for b in brow)
                    else:
                        row.extend(ZERO for _ in brow)
                out.append(tuple(row))
        return GaussMatrix(tuple(out))

    def dagger(self) -> "GaussMatrix":
        return GaussMatrix(tuple(tuple(e.conj() for e in col) for col in zip(*self.rows)))

    def __add__(self, other: "GaussMatrix") -> "GaussMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return GaussMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def scale(self, g: GaussInt) -> "GaussMatrix":
        return GaussMatrix(tuple(tuple(g * e for e in row) for row in self.rows))

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.rows for e in row)

    def trace(self) -> GaussInt:
        re = sum(self.rows[i][i].re for i in range(self.dim))
        im = sum(self.rows[i][i].im for i in range(self.dim))
        return GaussInt(re, im)

    def column(self, j: int) -> tuple[GaussInt, ...]:
        return tuple(row[j] for row in self.rows)

    def times_vector(self, v: Sequence[GaussInt]) -> tuple[GaussInt, ...]:
        out = []
        for row in self.rows:
            re = im = 0
            for (ar, ai), (br, bi) in zip(row, v):
                if ar or ai:
                    re += ar * br - ai * bi
                    im += ar * bi + ai * br
            out.append(GaussInt(re, im))
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GaussMatrix)
            and self.dim == other.dim
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.rows))

    def __repr__(self) -> str:
        return f"GaussMatrix(dim={self.dim})"


_PAULI_ENTRIES = {
    "I": ((ONE, ZERO), (ZERO, ONE)),
    "X": ((ZERO, ONE), (ONE, ZERO)),
    "Y": ((ZERO, -I_UNIT), (I_UNIT, ZERO)),
    "Z": ((ONE, ZERO), (ZERO, -ONE)),
}


def pauli_matrix(letter: str) -> GaussMatrix:
    """The standard 2x2 matrix of I, X, Y, or Z."""
    try:
        return GaussMatrix(_PAULI_ENTRIES[letter])
    except KeyError:
        raise ValueError(f"unknown Pauli letter {letter!r}") from None


# Raw per-qubit factor X^x Z^y.
_FACTOR_BY_BITS = {
    (0, 0): pauli_matrix("I"),
    (1, 0): pauli_matrix("X"),
    (0, 1): pauli_matrix("Z"),
    (1, 1): pauli_matrix("X") @ pauli_matrix("Z"),
}


@dataclass(frozen=True)
class TranslationOp:
    point: Point
    basis_e: FieldBasis
    basis_f: FieldBasis
    x_bits: tuple[int, ...]
    y_bits: tuple[int, ...]
    matrix: GaussMatrix
    word: PauliWord


def translation_operator(
    p: Point, basis_e: FieldBasis, basis_f: FieldBasis | None = None
) -> TranslationOp:
    """The operator X^(x_1) Z^(y_1) x ... x X^(x_n) Z^(y_n) for the point
    p = (x, y), with x expanded over basis_e and y over its dual basis_f
    via x_i = tr(x f_i) and y_i = tr(y e_i)."""
    field = p.field
    if basis_e.field != field:
        raise ValueError("expansion basis must live in the point's field")
    if basis_f is None:
        basis_f = dual_basis(basis_e)
    elif not is_dual_pair(basis_e, basis_f):
        raise ValueError("basis_f is not dual to basis_e")
    x_bits, y_bits = expansion_bits(p, basis_e, basis_f)
    factors = [_FACTOR_BY_BITS[(x, y)] for x, y in zip(x_bits, y_bits)]
    matrix = reduce(GaussMatrix.kron, factors)
    word = word_from_bits(x_bits, y_bits)
    return TranslationOp(p, basis_e, basis_f, x_bits, y_bits, matrix, word)


def word_from_bits(x_bits: Sequence[int], y_bits: Sequence[int]) -> PauliWord:
    """The word with letter X^x Z^y per qubit, named I, X, Z or Y."""
    return PauliWord(tuple("IXZY"[x + 2 * y] for x, y in zip(x_bits, y_bits)))


def square_sign(t: TranslationOp) -> int:
    """s with T^2 = s * identity: -1 raised to the number of qubits whose
    x and y bits are both set (each XZ factor squares to -I)."""
    odd = sum(x & y for x, y in zip(t.x_bits, t.y_bits)) & 1
    return -1 if odd else 1


def scale_set(elements, c):
    if c.is_zero:
        raise ValueError("cannot scale a set by zero")
    return frozenset(s * c for s in elements)


def affine_span(a, b, scalars_a, scalars_b):
    """{s*a + t*b : s in scalars_a, t in scalars_b}, validated to be a
    direct, additively closed span."""
    sa = sorted(set(scalars_a), key=lambda e: e.mask)
    sb = sorted(set(scalars_b), key=lambda e: e.mask)
    pts = {a.scale(s) + b.scale(t) for s in sa for t in sb}
    if len(pts) != len(sa) * len(sb):
        raise ValueError("span is not direct: generated fewer points than expected")
    return Subgroup(pts)


def tensor(a, b):
    """Kronecker product; dimensions multiply."""
    return a.kron(b)


def commutes(t1, t2):
    """Exact matrix test: T1 T2 - T2 T1 = 0."""
    if t1.matrix.dim != t2.matrix.dim:
        raise ValueError("dimension mismatch")
    return (t1.matrix @ t2.matrix).rows == (t2.matrix @ t1.matrix).rows


def unit_multiple(m1, m2):
    """The Gaussian unit phi with m1 = phi * m2, if one exists."""
    if m1.dim != m2.dim:
        return None
    first = next(
        ((i, j) for i in range(m2.dim) for j in range(m2.dim) if not m2.rows[i][j].is_zero),
        None,
    )
    if first is None:
        return ONE if m1.is_zero else None
    i, j = first
    for phi in UNITS:
        if m1.rows[i][j] == phi * m2.rows[i][j]:
            break
    else:
        return None
    for ra, rb in zip(m1.rows, m2.rows):
        for a, b in zip(ra, rb):
            if a != phi * b:
                return None
    return phi


def _iter_subspace_rows(m, k):
    """Reduced-row-echelon bases of all k-dimensional subspaces of F_2^m."""
    for pivots in combinations(range(m), k):
        pivot_set = set(pivots)
        free = [
            (i, j)
            for i in range(k)
            for j in range(m)
            if j > pivots[i] and j not in pivot_set
        ]
        for bits in range(1 << len(free)):
            rows = [1 << pivots[i] for i in range(k)]
            for idx, (i, j) in enumerate(free):
                if bits >> idx & 1:
                    rows[i] |= 1 << j
            yield rows


def iter_subgroup_masks(field):
    """Point-mask tuples of every order-d subgroup, one per subgroup."""
    n = field.n
    for rows in _iter_subspace_rows(2 * n, n):
        pts = [0]
        for r in rows:
            pts += [p ^ r for p in pts]
        yield tuple(sorted(pts))


def canonical_order(field, masks):
    """Point masks sorted into canonical (x, y) point order."""
    lo, n = field.order - 1, field.n
    return sorted(masks, key=lambda m: (m & lo, m >> n))


def greedy_basis(field, masks):
    """The masks independent of those before them in canonical order."""
    return _independent(canonical_order(field, masks))


def quotient_by_scan(field, masks):
    """The label of every packed point and the coset representatives of
    the quotient of the plane by the order-d subgroup with these masks:
    the plane is scanned in canonical order, and each point not yet
    labelled starts the next class."""
    d, n = field.order, field.n
    labels = [0] * (d * d)
    reps = []
    for pm in (x | y << n for x in range(d) for y in range(d)):
        if not labels[pm]:
            reps.append(pm)
            for g in masks:
                labels[pm ^ g] = len(reps)
    return tuple(labels), tuple(reps[1:])


def is_extraordinary_masks(field, masks):
    """The trace of det over every pair of points, not only a basis."""
    lo = field.order - 1
    n = field.n
    mul = field._mul_mask
    tr = field._trace
    ms = [m for m in masks if m]
    for i in range(len(ms)):
        xi, yi = ms[i] & lo, ms[i] >> n
        for j in range(i + 1, len(ms)):
            if tr[mul(xi, ms[j] >> n) ^ mul(ms[j] & lo, yi)]:
                return False
    return True


def enumerate_subgroups(field, order=None):
    """All F_2-subspaces of dimension n of F_d x F_d, canonically sorted."""
    if order is None:
        order = field.order
    if order != field.order:
        raise ValueError(f"only order-{field.order} subgroups are supported here")
    subs = [Subgroup.from_masks(field, masks) for masks in iter_subgroup_masks(field)]
    subs.sort(key=lambda s: s.sort_key)
    return subs


def scanned_lagrangians(field):
    """The scan's extraordinary subgroups, as point-mask tuples."""
    return [m for m in iter_subgroup_masks(field) if is_extraordinary_masks(field, m)]


def filtered_lagrangians(field):
    """The isotropic walk by candidate filtering, in the library's order:
    sorted point masks of each Lagrangian, grown one reduced-row-echelon
    row at a time, highest pivot first, trying every row with that pivot
    and zeros at the other pivots and keeping those on which the form
    vanishes against every row already chosen (the library solves for
    those rows instead)."""
    n = field.n
    m = 2 * n
    polars = _polars(field)
    for pivots in combinations(range(m), n):
        taken = set(pivots)
        choices = []
        for p in reversed(pivots):
            rows = [1 << p]
            for j in range(p + 1, m):
                if j not in taken:
                    rows += [r | 1 << j for r in rows]
            choices.append(rows)
        found = []

        def extend(i, points, chosen):
            if i == n:
                found.append(tuple(sorted(points)))
                return
            for r in choices[i]:
                if not any((polars[q] & r).bit_count() & 1 for q in chosen):
                    extend(i + 1, points + [p ^ r for p in points], chosen + [r])

        extend(0, [0], [])
        yield from found


def extraordinary_subgroups_from_forms(field):
    """The order-d extraordinary subgroups built from their two closed
    forms: scalar lines F_d*u and spans Z2*v1 + (K*k^-1)*v2 taken over all
    pairs with det(v1, v2) = k a nonzero trace-zero element."""
    out = set()
    points = [p for p in all_points(field) if not p.is_zero]
    for u in points:
        out.add(line(u))
    kset = trace_zero_subgroup(field)
    z2 = (field.zero, field.one)
    for v1 in points:
        for v2 in points:
            k = det(v1, v2)
            if k.is_zero or field._trace[k.mask]:
                continue
            ktilde = scale_set(kset, k.inv())
            out.add(affine_span(v1, v2, z2, ktilde))
    return out


def _subgroup(points):
    """The points as a Subgroup, closure checked by adding every pair."""
    pts = sorted(set(points), key=lambda p: p.sort_key)
    if pts[0].sort_key != (0, 0):
        raise ValueError("subgroup must contain the origin")
    if len(pts) & (len(pts) - 1):
        raise ValueError(f"subgroup cardinality {len(pts)} is not a power of 2")
    pset = frozenset(pts)
    for g in pts:
        for h in pts:
            if g + h not in pset:
                raise ValueError(f"set is not closed under addition: {g} + {h}")
    return Subgroup(pts)


def _is_extraordinary(sub):
    field = sub.field
    return all(field.trace(det(p, q)).is_zero for p, q in combinations(sub.points, 2))


def verify_square(square):
    """verify_square in Point arithmetic: the same checks, keys and
    failure strings."""
    failures = []
    zero = zero_point(square.field)
    try:
        sub = _subgroup(next(cls for cls in square.classes if zero in cls))
    except ValueError as exc:
        sub = None
        failures.append(f"origin class is not a subgroup: {exc}")
    extraordinary = sub is not None and _is_extraordinary(sub)
    if sub is not None and not extraordinary:
        failures.append("origin class is not extraordinary")
    supersquare = sub is not None and all(
        frozenset(min(cls, key=lambda p: p.sort_key) + g for g in sub.points) == cls
        for cls in square.classes
    )
    if not supersquare:
        failures.append("square is not a supersquare")
    striation = extraordinary and all(
        frozenset(p + a for p in cls) == cls
        for a in sub.nonzero_points()
        for cls in square.classes
    )
    if not striation:
        failures.append("square is not a physical striation")
    return SquareReport(
        sub, sub is not None, extraordinary, supersquare, striation, tuple(failures)
    )


def verify_squares_by_grids(squares):
    """verify_squares with every pair's orthogonality read off the two
    label grids by are_orthogonal: the same checks, keys and failure
    strings."""
    from mubkit import verify_square as verify_one

    failures = []
    d = squares[0].d
    cardinality = len(squares) == d + 1
    if not cardinality:
        failures.append(f"expected {d + 1} squares, got {len(squares)}")
    reports = [verify_one(sq) for sq in squares]
    squares_ok = True
    for i, report in enumerate(reports, start=1):
        if not report.physical_striation:
            squares_ok = False
            failures.append(f"square {i} is not an extraordinary supersquare")
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
        cardinality, squares_ok, orth_ok, inter_ok, squares_ok, tuple(failures)
    )


def striated_by_every_element(square):
    """Every point keeps its label under translation by each nonzero
    element of the origin class."""
    labels = square._labels
    origin = [m for m, label in enumerate(labels) if label == labels[0]]
    return all(labels[m ^ a] == label for a in origin[1:] for m, label in enumerate(labels))


def perturb_supersquare(ss, seed):
    """perturb_supersquare over frozensets of Points: the same draws, each
    point chosen from its class sorted by (x mask, y mask)."""
    rng = random.Random(seed)
    j, k = rng.sample(range(1, ss.d), 2)
    classes = [set(c) for c in ss.square.classes]
    p = rng.choice(sorted(classes[j], key=lambda pt: pt.sort_key))
    q = rng.choice(sorted(classes[k], key=lambda pt: pt.sort_key))
    classes[j].remove(p)
    classes[j].add(q)
    classes[k].remove(q)
    classes[k].add(p)
    return Square(ss.field, classes)


def same_partition(s, t):
    """The classes as sets of point sets, class 1 matched exactly."""
    return frozenset(s.classes) == frozenset(t.classes) and s.classes[0] == t.classes[0]


def square_to_json(s):
    """Each class's points sorted by (x mask, y mask), in label order."""
    return {
        "d": s.d,
        "classes": [
            [[p.x.mask, p.y.mask] for p in sorted(cls, key=lambda p: p.sort_key)]
            for cls in s.classes
        ],
    }


def search_result_to_json(d, result):
    """The `squares search` document as one tree over the built sets.
    Sets that share a Square object share its one square_to_json dict."""
    shared = {}  # id(square) -> its dict; result keeps the squares alive

    def square(sq):
        doc = shared.get(id(sq))
        if doc is None:
            doc = shared[id(sq)] = serialize.square_to_json(sq)
        return doc

    return {
        "d": d,
        "exhaustive": result.exhaustive,
        "census": result.census(),
        "sets": [
            {
                "type": c.set_type,
                "v1": None if c.v1 is None else serialize.point_to_json(c.v1),
                "v2": None if c.v2 is None else serialize.point_to_json(c.v2),
                "squares": [square(sq) for sq in c.squares],
            }
            for c in result.sets
        ],
    }


def certify_bases_dense(
    bases: Sequence[Sequence[UnnormalizedState]],
    d: int,
    class_maps: Sequence[Sequence[int] | None],
    expected_structure: Sequence[int] | None = None,
) -> tuple[dict[str, bool], list[str]]:
    """The exact MUB certificate: d+1 bases of d states of d entries each;
    each norm_sq equal to the recomputed, nonzero squared norm; states
    orthogonal within each basis; d * |<u,v>|^2 = N_u * N_v across bases;
    every class map a bijection onto the d states.  With
    ``expected_structure`` and d = 8, the entanglement structure recounted
    from the states must equal it.  A state without d entries fails the
    cardinality check and is left out of the pair checks.  Returns the
    checks and every failure."""
    failures: list[str] = []
    checks = {"cardinality": len(bases) == d + 1}
    if not checks["cardinality"]:
        failures.append(f"expected {d + 1} bases, got {len(bases)}")
    for bi, states in enumerate(bases, start=1):
        if len(states) != d:
            checks["cardinality"] = False
            failures.append(f"basis {bi} has {len(states)} states, expected {d}")
        for si, st in enumerate(states):
            if st.dim != d:
                checks["cardinality"] = False
                failures.append(f"basis {bi} state {si} has {st.dim} entries, expected {d}")
    checks["norms"] = True
    for bi, states in enumerate(bases, start=1):
        for si, st in enumerate(states):
            recomputed = sum(e.norm_sq() for e in st.entries)
            if st.norm_sq != recomputed or recomputed == 0:
                checks["norms"] = False
                failures.append(f"basis {bi} state {si} has a bad norm_sq")
    # (index, state) pairs of the states the pair checks take
    sized = [[(i, st) for i, st in enumerate(states) if st.dim == d] for states in bases]
    checks["orthogonality"] = True
    for bi, states in enumerate(sized, start=1):
        for (i, u), (j, v) in combinations(states, 2):
            if not u.inner(v).is_zero:
                checks["orthogonality"] = False
                failures.append(f"basis {bi} states {i},{j} not orthogonal")
    checks["unbiasedness"] = True
    for (bi, us), (bj, vs) in combinations(enumerate(sized, start=1), 2):
        for i, u in us:
            for j, v in vs:
                if not is_unbiased_pair(u, v, d):
                    checks["unbiasedness"] = False
                    failures.append(f"bases {bi},{bj} biased at states ({i},{j})")
    checks["class_maps"] = True
    for bi, m in enumerate(class_maps, start=1):
        fault = _class_map_fault(m, d)
        if fault:
            checks["class_maps"] = False
            failures.append(f"basis {bi} {fault}")
    if expected_structure is not None and d == 8:
        kinds = [separability([st for _, st in states]) for states in sized]
        recount = (
            [0, 0, 0] if None in kinds else list(EntanglementStructure.count(kinds).astuple())
        )
        checks["structure"] = recount == list(expected_structure)
        if not checks["structure"]:
            failures.append(f"structure mismatch: recomputed {recount}")
    return checks, failures


# -- field bases, exact cover and set templates ---------------------------------


def selfdual_basis_by_scan(field):
    """The first n-set of masks, in lexicographic order, that is
    independent and selfdual."""
    for combo in combinations(range(1, field.order), field.n):
        if len(_independent(combo)) != field.n:
            continue
        cand = FieldBasis(tuple(field.element(m) for m in combo))
        if is_selfdual(cand):
            return cand
    raise ValueError(f"no selfdual basis found for {field!r}")


def dual_basis_by_inversion(basis):
    """The dual basis from the inverse of the F_2 matrix A whose row i holds
    tr(e_i * mu^k) at bit k: the dual elements' coordinate vectors over
    the polynomial basis are the columns of A^-1."""
    field, n = basis.field, basis.field.n
    rows = [
        sum(field._trace[field._mul_mask(e.mask, field._exp[k])] << k for k in range(n))
        for e in basis
    ]
    aug = [rows[i] | (1 << (n + i)) for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r] >> col & 1)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(n):
            if r != col and aug[r] >> col & 1:
                aug[r] ^= aug[col]
    inv = [aug[i] >> n for i in range(n)]
    duals = [0] * n
    for k in range(n):
        for j in range(n):
            if inv[k] >> j & 1:
                duals[j] ^= field._exp[k]
    return FieldBasis(tuple(map(field.element, duals)))


def fewest_candidates_covers(blocks, d):
    """Every exact cover of the nonzero points by d+1 blocks, as sorted
    block-index tuples.  Each node lists the blocks through every
    uncovered point that miss the covered ones and branches on the
    shortest list."""
    block_bits = [sum(1 << m for m in masks if m) for masks in blocks]
    blocks_by_point = {m: [] for m in range(d * d)}
    for i, masks in enumerate(blocks):
        for m in masks:
            if m:
                blocks_by_point[m].append(i)
    full = (1 << d * d) - 2
    solutions = []

    def search(covered, chosen):
        if covered == full:
            if len(chosen) == d + 1:
                solutions.append(tuple(sorted(chosen)))
            return
        if len(chosen) >= d + 1:
            return
        best = None
        for m in range(1, d * d):
            if covered >> m & 1:
                continue
            cands = [i for i in blocks_by_point[m] if not block_bits[i] & covered]
            if not cands:
                return
            if best is None or len(cands) < len(best):
                best = cands
        for i in best:
            search(covered | block_bits[i], chosen + (i,))

    search(0, ())
    return solutions


def cover_tables_by_or(blocks, d):
    """The exact-cover tables (bits, through, compat) with every bitset
    OR-ed together one bit at a time: through[p] grows by 1 << i for each
    block i through point p, and compat[i] is every block that shares no
    nonzero point with block i, pair by pair."""
    blocks = [[m for m in masks if m] for masks in blocks]
    bits = [sum(1 << m for m in block) for block in blocks]
    through = [0] * (d * d)
    for i, block in enumerate(blocks):
        for m in block:
            through[m] |= 1 << i
    compat = [0] * len(blocks)
    for i, j in combinations(range(len(blocks)), 2):
        if not bits[i] & bits[j]:
            compat[i] |= 1 << j
            compat[j] |= 1 << i
    return bits, through, compat


# -- set recipes in Point arithmetic -------------------------------------------


def oracle_type_II_d4(v1, v2):
    field = v1.field
    mu = field.mu
    mu2 = mu * mu
    z2 = (field.zero, field.one)
    return [
        ("line", v1),
        ("span", v2, v1 + v2.scale(mu), z2),
        ("span", v2.scale(mu), (v1 + v2).scale(mu2), z2),
        ("span", v2.scale(mu2), (v1 + v2).scale(mu), z2),
        ("span", v1 + v2, v1.scale(mu) + v2.scale(mu2), z2),
    ]


def oracle_d8(set_type, v1, v2, k):
    field = v1.field
    kp = [k**j for j in range(7)]
    ktilde = tuple(
        sorted(scale_set(trace_zero_subgroup(field), k.inv()), key=lambda e: e.mask)
    )
    if set_type == "II":
        return [
            ("span", v2 + v1.scale(kp[4]), v1, ktilde),
            ("span", v1.scale(kp[2]), v2.scale(kp[5]) + v1.scale(kp[2]), ktilde),
            ("span", v1.scale(kp[4]), v2.scale(kp[3]) + v1.scale(kp[6]), ktilde),
            ("span", v1.scale(kp[5]), v2.scale(kp[2]) + v1.scale(kp[4]), ktilde),
            ("span", v1.scale(kp[6]), v2.scale(kp[1]) + v1, ktilde),
            ("span", (v1 + v2).scale(kp[1]), v2.scale(kp[6]), ktilde),
            ("span", v2.scale(kp[1]), (v1 + v2).scale(kp[6]), ktilde),
            ("span", v2.scale(kp[4]), v1.scale(kp[3]) + v2.scale(kp[5]), ktilde),
            ("span", v1.scale(kp[2]) + v2.scale(kp[3]), v1 + v2.scale(kp[6]), ktilde),
        ]
    if set_type == "III":
        return [
            ("line", v2),
            ("line", v1 + v2),
            ("line", v1.scale(k) + v2),
            ("span", v2 + v1.scale(kp[2]), v1, ktilde),
            ("span", v1.scale(kp[2]), v2.scale(kp[5]) + v1.scale(kp[4]), ktilde),
            ("span", v1.scale(kp[4]), v2.scale(kp[3]) + v1.scale(kp[5]), ktilde),
            ("span", v1.scale(kp[5]), v2.scale(kp[2]) + v1, ktilde),
            ("span", v1.scale(kp[6]), v2.scale(kp[1]) + v1.scale(kp[4]), ktilde),
            ("span", v1 + v2.scale(kp[5]), v1.scale(kp[5]) + v2.scale(kp[1]), ktilde),
        ]
    assert set_type == "IV"
    return [
        ("line", v2),
        ("span", v2 + v1.scale(kp[2]), v1, ktilde),
        ("span", v1.scale(kp[2]), v2.scale(kp[5]) + v1, ktilde),
        ("span", v1.scale(kp[4]), v2.scale(kp[3]) + v1, ktilde),
        ("span", v1.scale(kp[5]), v2.scale(kp[2]) + v1, ktilde),
        ("span", v1.scale(kp[6]), v2.scale(kp[1]) + v1, ktilde),
        ("span", v1.scale(kp[2]) + v2.scale(kp[6]), v1 + v2, ktilde),
        ("span", (v1 + v2).scale(kp[2]), v1 + v2.scale(kp[4]), ktilde),
        ("span", (v1 + v2).scale(kp[5]), v1 + v2.scale(kp[6]), ktilde),
    ]


def oracle_recipes(set_type, v1, v2, k):
    """The recipes of a typed set at a valid pair with det(v1, v2) = k."""
    if v1.field.order == 4:
        return oracle_type_II_d4(v1, v2)
    return oracle_d8(set_type, v1, v2, k)


ORACLE_TYPES = {4: ("II",), 8: ("II", "III", "IV")}


class Oracle:
    """Evaluates oracle recipes to sorted point-mask tuples with
    line/affine_span; each distinct recipe is built once."""

    def __init__(self, field):
        self.field = field
        self.z2 = (field.zero, field.one)
        self._memo = {}

    def masks(self, recipe):
        out = self._memo.get(recipe)
        if out is None:
            if recipe[0] == "line":
                sub = line(recipe[1])
            else:
                _, a, b, scalars = recipe
                sub = affine_span(a, b, self.z2, scalars)
            out = self._memo[recipe] = tuple(sorted(sub.masks()))
        return out


def valid_pairs(field, set_type):
    """(v1, v2, det(v1, v2)) for every pair a type II, III or IV
    constructor accepts, in canonical point order."""
    points = [p for p in all_points(field) if not p.is_zero]
    for v1 in points:
        for v2 in points:
            k = det(v1, v2)
            if field.order == 4 and k == field.one:
                yield v1, v2, k
            if field.order == 8 and not k.is_zero and field.trace(k).is_zero:
                yield v1, v2, k


def complete_set_templates_by_recipes(field):
    """Templates keyed by frozensets of sorted subgroup point-mask tuples,
    each oracle recipe list evaluated in Point arithmetic at its own
    (v1, v2); first match wins over types I, II, III, IV and valid pairs in
    canonical point order."""
    oracle = Oracle(field)
    points = [p for p in all_points(field) if not p.is_zero]
    e1, e2 = Point(field.one, field.zero), Point(field.zero, field.one)
    templates = {frozenset(oracle.masks(("line", u)) for u in points): ("I", e1, e2)}
    for set_type in ORACLE_TYPES.get(field.order, ()):
        for v1, v2, k in valid_pairs(field, set_type):
            key = frozenset(map(oracle.masks, oracle_recipes(set_type, v1, v2, k)))
            templates.setdefault(key, (set_type, v1, v2))
    return templates
