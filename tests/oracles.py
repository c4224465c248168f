"""Slow reference implementations that the mask-native library is tested
against.

The subspace scan walks every n-dimensional subspace of F_2^2n and keeps
those on which the trace of the determinant vanishes for every pair of
points; the library grows the same subgroups one isotropic row at a time.
At d = 8 the closed forms of the paper give the same subgroups again.
The square verifier checks closure, cosets and striations in Point
arithmetic; the library reads them off a label-by-mask table.  The dense
commutator and unit-multiple tests hold the trace-form commutation
criterion and the operator phases to literal matrix products.
"""

from itertools import combinations

from mubkit import Subgroup, all_points, det, line, trace_zero_subgroup, zero_point
from mubkit.pauli import ONE, UNITS
from mubkit.squares import SquareReport


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
