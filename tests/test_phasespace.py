"""Phase-space points, subgroups, and the extraordinary predicate."""

from math import prod

import pytest

from mubkit import (
    Field,
    Point,
    Subgroup,
    det,
    enumerate_extraordinary_subgroups,
    is_extraordinary,
    trace_zero_subgroup,
)
from mubkit.gf2n import _independent
from mubkit.phasespace import (
    _canonical_basis,
    _span,
    iter_lagrangian_bases,
    point_table,
    point_to_mask,
)
from mubkit.squares import Supersquare

import oracles
import refdata
from oracles import (
    affine_span,
    all_points,
    enumerate_subgroups,
    extraordinary_subgroups_from_forms,
    line,
    scale_set,
    zero_point,
)


def gaussian_binomial_2(m, k):
    num = den = 1
    for i in range(k):
        num *= 2**m - 2**i
        den *= 2**k - 2**i
    return num // den


def test_point_basics(f4, f8):
    p = refdata.parse_point(f4, ("1", "m2"))
    q = refdata.parse_point(f4, ("m", "1"))
    assert (p + q) == refdata.parse_point(f4, ("m2", "m"))
    assert p.scale(f4.zero).is_zero
    with pytest.raises(ValueError):
        Point(f4.one, f8.one)


def test_det_examples(f4, f8):
    assert det(
        refdata.parse_point(f4, ("1", "m2")), refdata.parse_point(f4, ("1", "m"))
    ) == f4.one
    for v in all_points(f4):
        assert det(v, v).is_zero
    assert det(
        refdata.parse_point(f8, ("1", "m")), refdata.parse_point(f8, ("m3", "m2"))
    ) == f8.mu


def test_det_bilinear_and_alternating_d4(f4):
    pts = all_points(f4)
    for u in pts:
        for v in pts:
            for w in pts:
                assert det(u + v, w) == det(u, w) + det(v, w)


def test_trace_zero_subgroup(f4, f8):
    assert trace_zero_subgroup(f8) == {
        f8.zero,
        f8.mu,
        f8.from_power(2),
        f8.from_power(4),
    }
    assert trace_zero_subgroup(f4) == {f4.zero, f4.one}
    f16 = Field(4)
    k16 = trace_zero_subgroup(f16)
    assert len(k16) == 8
    assert all(a + b in k16 for a in k16 for b in k16)


def test_scale_set(f8):
    kset = trace_zero_subgroup(f8)
    k = f8.mu
    scaled = scale_set(kset, k.inv())
    assert scaled == {f8.zero, f8.one, k, k**3}
    assert scale_set(kset, f8.one) == kset
    k2 = f8.from_power(2)
    # oracle: divide each element directly
    assert scale_set(kset, k2.inv()) == {a * k2.inv() for a in kset}
    assert scale_set(kset, k2.inv()) == {f8.zero, f8.one, k2, k2**3}
    with pytest.raises(ValueError):
        scale_set(kset, f8.zero)


def test_scaled_trace_zero_set_is_closed(f8):
    kset = trace_zero_subgroup(f8)
    for k in kset:
        if k.is_zero:
            continue
        scaled = scale_set(kset, k.inv())
        assert all(a + b in scaled for a in scaled for b in scaled)


def test_subgroup_validation(f4):
    zero = zero_point(f4)
    p = refdata.parse_point(f4, ("1", "0"))
    with pytest.raises(ValueError):
        Subgroup([p])  # no origin
    with pytest.raises(ValueError):
        Subgroup([zero, p, refdata.parse_point(f4, ("m", "0"))])  # not closed
    sub = Subgroup.span([p])
    assert sub.order == 2
    assert zero in sub


def test_line(f4, f8):
    vertical = line(refdata.parse_point(f4, ("0", "1")))
    assert set(vertical.points) == {
        refdata.parse_point(f4, ("0", t)) for t in ("0", "1", "m", "m2")
    }
    diag = line(refdata.parse_point(f8, ("1", "m")))
    assert diag.order == 8
    assert set(diag.points) == {
        Point(c, c * f8.mu) for c in f8.elements()
    }
    distinct = {line(u) for u in all_points(f4) if not u.is_zero}
    assert len(distinct) == 5
    with pytest.raises(ValueError):
        line(zero_point(f4))


def test_affine_span(f4, f8):
    a = refdata.parse_point(f4, ("1", "m"))
    span = affine_span(a, a, (f4.zero, f4.one), (f4.zero,))
    assert set(span.points) == {zero_point(f4), a}

    # two-generator order-8 subgroup from the scaled trace-zero scalars
    v1 = refdata.parse_point(f8, ("1", "m"))
    a8 = refdata.parse_point(f8, ("m6", "m3"))
    ktilde = scale_set(trace_zero_subgroup(f8), f8.mu.inv())
    sub = affine_span(a8, v1, (f8.zero, f8.one), ktilde)
    assert sub.order == 8
    assert is_extraordinary(sub)

    # non-closed scalar sets are rejected
    with pytest.raises(ValueError):
        affine_span(
            refdata.parse_point(f4, ("1", "0")),
            refdata.parse_point(f4, ("0", "1")),
            (f4.zero, f4.one),
            (f4.zero, f4.one, f4.mu),
        )


def test_is_extraordinary(f4, f8):
    for u in all_points(f4):
        if not u.is_zero:
            assert is_extraordinary(line(u))
    for u in all_points(f8):
        if not u.is_zero:
            assert is_extraordinary(line(u))
    a1 = Subgroup.span(
        [refdata.parse_point(f4, ("1", "m2")), refdata.parse_point(f4, ("m", "1"))]
    )
    assert is_extraordinary(a1)
    bad = Subgroup.span(
        [refdata.parse_point(f4, ("1", "0")), refdata.parse_point(f4, ("0", "m"))]
    )
    assert not is_extraordinary(bad)


def test_enumerate_subgroups_counts(f4, f8):
    subs4 = enumerate_subgroups(f4)
    assert len(subs4) == gaussian_binomial_2(4, 2) == 35
    subs8 = enumerate_subgroups(f8)
    assert len(subs8) == gaussian_binomial_2(6, 3) == 1395
    assert len(set(subs4)) == 35
    assert subs4 == sorted(subs4, key=lambda s: s.sort_key)
    assert all(s.order == 4 for s in subs4)
    with pytest.raises(ValueError):
        enumerate_subgroups(f4, order=8)


def test_enumerate_extraordinary_subgroups(f4, f8):
    extra4 = enumerate_extraordinary_subgroups(f4)
    for u in all_points(f4):
        if not u.is_zero:
            assert line(u) in extra4
    bad = Subgroup.span(
        [refdata.parse_point(f4, ("1", "0")), refdata.parse_point(f4, ("0", "m"))]
    )
    assert bad not in extra4

    # the closed forms generate exactly the predicate-defined collection
    extra8 = enumerate_extraordinary_subgroups(f8)
    assert set(extra8) == extraordinary_subgroups_from_forms(f8)


def test_subgroup_basis(f8):
    sub = line(refdata.parse_point(f8, ("1", "m")))
    basis = sub.basis()
    assert len(basis) == 3
    assert Subgroup.span(basis) == sub


def test_type_constructed_generators_are_enumerated(f8, d8_type_ii_set):
    from mubkit import type_I_set, type_III_set_d8, type_IV_set_d8

    v1 = refdata.parse_point(f8, refdata.REF_D8_TYPE_II_V1)
    v2 = refdata.parse_point(f8, refdata.REF_D8_TYPE_II_V2)
    enumerated = set(enumerate_extraordinary_subgroups(f8))
    for cset in (
        type_I_set(v1, v2),
        d8_type_ii_set,
        type_III_set_d8(v1, v2),
        type_IV_set_d8(v1, v2),
    ):
        for gen in cset.generators:
            assert gen in enumerated


@pytest.mark.parametrize("n", [2, 3, 4])
def test_isotropic_walk_equals_the_scan(n):
    field = Field(n)
    walked = [tuple(sorted(_span(b))) for b in iter_lagrangian_bases(field)]
    assert len(walked) == len(set(walked))
    assert set(walked) == set(oracles.scanned_lagrangians(field))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_solved_walk_equals_the_candidate_filter(n):
    """The walk solves its rows in rank coordinates, lowest pivot first,
    and the filter tries every row in packed coordinates, highest pivot
    first: they meet the same subgroups, and each walked basis is the
    greedy basis of its points and spans them in canonical order."""
    field = Field(n)
    walked = list(iter_lagrangian_bases(field))
    filtered = list(oracles.filtered_lagrangians(field))
    assert len(walked) == len(filtered)
    by_points = {tuple(sorted(_span(b))): b for b in walked}
    assert by_points.keys() == set(filtered)
    for masks in filtered:
        basis = by_points[masks]
        assert list(basis) == oracles.greedy_basis(field, masks)
        assert _span(basis) == oracles.canonical_order(field, masks)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_walk_is_in_canonical_order(n):
    """The walk yields every Lagrangian's basis once, strictly increasing
    under the sort key of canonical subgroup order, with no sort."""
    walked = list(iter_lagrangian_bases(Field(n)))
    assert len(walked) == prod(2**i + 1 for i in range(1, n + 1))
    assert oracles.sorted_bases(Field(n), set(walked)) == walked


@pytest.mark.parametrize("n", [2, 3, 4])
def test_walked_subgroups_equal_validated_ones(n):
    """Subgroups built from walked bases without validation are the ones
    from_masks validates and orders, and the enumeration sorts them as
    sort_key does."""
    field = Field(n)
    walked = list(iter_lagrangian_bases(field))
    want = [Subgroup.from_masks(field, _span(b)) for b in walked]
    for basis, w in zip(walked, want):
        got = Subgroup._trusted(field, basis)
        assert got == w and hash(got) == hash(w)
        assert got.masks() == w.masks()
    assert enumerate_extraordinary_subgroups(field) == sorted(want, key=lambda s: s.sort_key)


def test_canonical_basis_rejects_dependent_rows(f8):
    """A row in the span of the rows before it, the zero row among them,
    raises rather than giving a basis of fewer than the rows."""
    basis = next(iter_lagrangian_bases(f8))
    assert _canonical_basis(f8, basis) == basis
    for bad in (basis[:2] + (basis[0] ^ basis[1],), basis + (basis[0],), (0,), basis[:1] * 2):
        with pytest.raises(ValueError, match="depends on the rows before it"):
            _canonical_basis(f8, bad)


def test_from_masks_rejects_masks_that_are_not_ints(f4):
    masks = list(line(refdata.parse_point(f4, ("1", "0"))).masks())
    for bad in (1.0, 3.0, True, "1", None, -1, 16):
        with pytest.raises(ValueError) as info:
            Subgroup.from_masks(f4, masks[:2] + [bad] + masks[3:])
        assert str(info.value) == f"packed point mask {bad} out of range"
    assert Subgroup.from_masks(f4, masks).masks() == tuple(masks)


@pytest.mark.parametrize("n, count", [(2, 15), (3, 135), (4, 2295), (5, 75735)])
def test_lagrangian_count_certificate(n, count):
    """The number of Lagrangian subspaces of F_2^2n is prod (2^i + 1)."""
    assert prod(2**i + 1 for i in range(1, n + 1)) == count
    subs = enumerate_extraordinary_subgroups(Field(n))
    assert len(subs) == len(set(subs)) == count
    assert subs == sorted(subs, key=lambda s: s.sort_key)


def test_basis_form_test_equals_every_pair(f8):
    """is_extraordinary checks the form on a basis; the oracle on every
    pair, over all 1395 order-8 subgroups."""
    subs = enumerate_subgroups(f8)
    verdicts = [is_extraordinary(s) for s in subs]
    assert verdicts == [oracles.is_extraordinary_masks(f8, s.masks()) for s in subs]
    assert sum(verdicts) == 135


def _subgroups_and_masks(n):
    """(mask tuple, Subgroup) for every order-d subgroup at n = 2 and 3 and
    every Lagrangian at n = 4, from the oracle's subspace scan."""
    field = Field(n)
    scan = oracles.iter_subgroup_masks(field)
    if n == 4:
        scan = (m for m in scan if oracles.is_extraordinary_masks(field, m))
    return field, [(m, Subgroup.from_masks(field, m)) for m in scan]


@pytest.mark.parametrize("n, count", [(2, 35), (3, 1395), (4, 2295)])
def test_canonical_basis_and_cosets_match_the_oracles(n, count):
    """The points doubled from the basis are the sorted points; the basis
    is the greedy one; the representatives doubled off the pivots and the
    square labelled from them are the plane scan's."""
    field, subs = _subgroups_and_masks(n)
    assert len(subs) == count
    table = point_table(field)
    for masks, g in subs:
        assert g.masks() == tuple(oracles.canonical_order(field, masks))
        assert [table[m] for m in oracles.greedy_basis(field, masks)] == list(g.basis())
        assert _canonical_basis(field, _independent(masks)) == g._basis
        labels, reps = oracles.quotient_by_scan(field, masks)
        ss = Supersquare(g)
        assert ss.coset_reps == tuple(table[r] for r in reps)
        assert ss.square._labels == labels


def test_trivial_intersection_and_membership_match_point_sets(f8):
    """intersects_trivially against the point sets of every pair at d = 8,
    and membership of every point of the plane at d = 4."""
    field, subs = _subgroups_and_masks(3)
    sets = [frozenset(m) for m, _ in subs]
    for i, (a, (_, g)) in enumerate(zip(sets, subs)):
        for b, (_, h) in zip(sets[i:], subs[i:]):
            assert g.intersects_trivially(h) == (len(a & b) == 1)
    field, subs = _subgroups_and_masks(2)
    for masks, g in subs:
        assert [p in g for p in all_points(field)] == [
            point_to_mask(p) in masks for p in all_points(field)
        ]
        assert zero_point(f8) not in g


def test_intersects_trivially_rejects_mixed_fields(f4, f8):
    g = line(refdata.parse_point(f4, ("1", "0")))
    h = line(refdata.parse_point(f8, ("1", "0")))
    for a, b in ((g, h), (h, g)):
        with pytest.raises(ValueError, match="subgroups must share one field"):
            a.intersects_trivially(b)
