"""The typed-set constructors, the pair tables and the templates against
Point arithmetic as oracle.

The oracle tables (oracles.oracle_type_II_d4 and oracles.oracle_d8) are
written in Point and FieldElement arithmetic and evaluated with
oracles.line and oracles.affine_span.  Every valid pair is checked:
det(v1, v2) != 0 for type I, det(v1, v2) = 1 at d = 4, and det(v1, v2) in
K\\{0} for types II, III and IV at d = 8.  The public constructors must
build the same subgroups, in the same order, and reject every other pair
with the same message.  A pair's table must be x*v1 + y*v2 at every packed
point, and complete_set_templates must equal the table built from the
oracle, first-match (v1, v2) included, with each subgroup keyed by the
bitset of its nonzero points.
"""

import random

import pytest

from mubkit import (
    Field,
    Point,
    complete_set_templates,
    det,
    search,
    type_I_set,
    type_II_set_d4,
    type_II_set_d8,
    type_III_set_d8,
    type_IV_set_d8,
)

from mubkit.phasespace import point_table, point_to_mask
from mubkit.search import _template_scan
from mubkit.squares import _pair_table, _scale

from oracles import (
    ORACLE_TYPES,
    Oracle,
    all_points,
    complete_set_templates_by_recipes,
    oracle_recipes,
    valid_pairs,
)

CONSTRUCTORS = {
    (2, "II"): type_II_set_d4,
    (3, "II"): type_II_set_d8,
    (3, "III"): type_III_set_d8,
    (3, "IV"): type_IV_set_d8,
}


@pytest.mark.parametrize("n, set_type", list(CONSTRUCTORS))
def test_mask_recipes_span_the_oracle_subgroups(n, set_type):
    """The mask recipes, through the public constructors with their
    Subgroup closure and order checks, at every valid pair."""
    field = Field(n)
    oracle = Oracle(field)
    ctor = CONSTRUCTORS[n, set_type]
    pairs = list(valid_pairs(field, set_type))
    assert len(pairs) == (60 if n == 2 else 63 * 3 * 8)
    for v1, v2, k in pairs:
        c = ctor(v1, v2)
        assert (c.set_type, c.v1, c.v2) == (set_type, v1, v2)
        got = [tuple(sorted(g.masks())) for g in c.generators]
        assert got == [oracle.masks(r) for r in oracle_recipes(set_type, v1, v2, k)]


def rejection(ctor, v1, v2):
    """The constructor's ValueError message for the pair, or None if it
    accepts it."""
    try:
        ctor(v1, v2)
    except ValueError as exc:
        return str(exc)
    return None


def expected_rejection(ctor, k):
    """The message a constructor must give a pair with det(v1, v2) = k, or
    None if the pair is valid."""
    field = k.field
    if ctor is type_I_set:
        return "type I needs an F_d-basis: det(v1, v2) must be nonzero" if k.is_zero else None
    if ctor is type_II_set_d4:
        if field.order != 4:
            return "this constructor is specific to d = 4"
        return None if k == field.one else "type II at d=4 needs det(v1, v2) = 1"
    if field.order != 8:
        return "this constructor is specific to d = 8"
    return None if not k.is_zero and field.trace(k).is_zero else "det(v1,v2) not in K\\{0}"


def test_constructors_build_the_oracle_generators():
    """Type I: the d + 1 lines, in constructor order, at every pair with
    det(v1, v2) != 0.  Every constructor rejects every other pair, at
    d = 4 and 8, with its message."""
    for n in (2, 3):
        field = Field(n)
        oracle = Oracle(field)
        points = all_points(field)
        built = 0
        for v1 in points:
            for v2 in points:
                k = det(v1, v2)
                for ctor in (type_I_set, *CONSTRUCTORS.values()):
                    want = expected_rejection(ctor, k)
                    if want is not None:
                        assert rejection(ctor, v1, v2) == want
                if k.is_zero:
                    continue
                got = [tuple(sorted(g.masks())) for g in type_I_set(v1, v2).generators]
                lines = [v1 + v2.scale(lam) for lam in field.in_dlog_order()] + [v2]
                assert got == [oracle.masks(("line", u)) for u in lines]
                built += 1
        assert built == (field.order**2 - 1) * (field.order**2 - field.order)


def pair_table(field, v1, v2):
    """The table of the pair of packed points (v1, v2), as the constructors
    and the template scan build it."""
    s1, s2 = ([_scale(field, v, c) for c in range(field.order)] for v in (v1, v2))
    return _pair_table(s1, s2)


@pytest.mark.parametrize("n, sample", [(2, None), (3, 300), (4, 40)])
def test_pair_table_is_the_linear_map(n, sample):
    """Entry x | y << n of a pair's table is x*v1 + y*v2 in Point
    arithmetic: at every pair at d = 4, at a seeded sample of pairs at
    d = 8 and 16."""
    field = Field(n)
    d, table = field.order, point_table(field)
    pairs = [(v1, v2) for v1 in range(d * d) for v2 in range(d * d)]
    if sample is not None:
        pairs = random.Random(n).sample(pairs, sample)
    for v1, v2 in pairs:
        got = pair_table(field, v1, v2)
        p1, p2 = table[v1], table[v2]
        want = [p1.scale(field.element(m & d - 1)) + p2.scale(field.element(m >> n))
                for m in range(d * d)]
        assert got == list(map(point_to_mask, want))


@pytest.mark.parametrize("n, count", [(2, 60), (3, 504)])
def test_pair_table_keeps_the_form_iff_det_is_one(n, count):
    """tr(det(T[p], T[q])) = tr(det(p, q)) at every p and q exactly when
    det(v1, v2) = 1: at every pair of points, the form taken in Point
    arithmetic.  The pairs that keep it are SL(2, d), (d^2 - 1) * d."""
    field = Field(n)
    points = point_table(field)
    form = [[field.trace(det(p, q)).mask for q in points] for p in points]
    kept = 0
    for v1 in points:
        for v2 in points:
            t = pair_table(field, point_to_mask(v1), point_to_mask(v2))
            keeps = [[form[tp][tq] for tq in t] for tp in t] == form
            assert keeps == (det(v1, v2) == field.one)
            kept += keeps
    assert kept == count


@pytest.mark.parametrize("n", [2, 3])
def test_templates_equal_the_oracle_table(n):
    """First match wins, scanning types I, II, III, IV over valid pairs in
    canonical point order."""
    field = Field(n)
    expected = {
        frozenset(sum(1 << m for m in masks if m) for masks in key): label
        for key, label in complete_set_templates_by_recipes(field).items()
    }
    assert complete_set_templates(field) == expected


@pytest.mark.parametrize("n", [2, 3])
def test_learned_maps_keep_every_template(n):
    """The scan skips a pair once a learned map B carries an earlier pair
    of its det onto it.  Every learned B must keep the template of every
    valid pair of its det, templates taken from the Point-arithmetic
    recipes, and the first pair of each template, per type, must be the
    first in canonical order."""
    field = Field(n)
    oracle = Oracle(field)
    lo = field.order - 1
    firsts, keeps = _template_scan(field)
    for set_type in ORACLE_TYPES[field.order]:
        templates = {}
        expected = {}
        for v1, v2, k in valid_pairs(field, set_type):
            key = frozenset(map(oracle.masks, oracle_recipes(set_type, v1, v2, k)))
            templates[v1, v2] = key
            bits = frozenset(sum(1 << m for m in masks if m) for masks in key)
            expected.setdefault(bits, (point_to_mask(v1), point_to_mask(v2)))
        assert firsts[set_type] == expected
        for (v1, v2), key in templates.items():
            maps = keeps[set_type, det(v1, v2).mask]
            assert maps
            for b1, b2 in maps:  # (v1, v2).B = (x1*v1 + y1*v2, x2*v1 + y2*v2)
                w1, w2 = (v1.scale(field.element(b & lo)) + v2.scale(field.element(b >> n))
                          for b in (b1, b2))
                assert templates[w1, w2] == key


@pytest.mark.parametrize("n, tables", [(2, 12), (3, 558)])
def test_template_scan_builds_a_table_per_scanned_pair(monkeypatch, n, tables):
    """The scan's work, pinned: it builds one pair table per pair whose key
    it computes and keeps each first pair's table for the maps it learns,
    and a map learned late still marks the images of the first pairs
    already scanned.  Rebuilding a first pair's table at each repeat, and
    marking only from the pair in hand, took 23 tables at d = 4 and 1,644
    at d = 8."""
    calls = []
    real = search._pair_table
    monkeypatch.setattr(search, "_pair_table", lambda s1, s2: calls.append(1) or real(s1, s2))
    complete_set_templates(Field(n))
    assert len(calls) == tables
