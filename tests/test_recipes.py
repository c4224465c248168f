"""The typed-set constructors and templates against the Point-object
recipes as oracle.

The oracle tables (oracles.oracle_type_II_d4 and oracles.oracle_d8) are
written in Point and FieldElement arithmetic and evaluated with
oracles.line and oracles.affine_span.  Every valid pair is checked:
det(v1, v2) = 1 at d = 4, and det(v1, v2) in K\\{0} for types II, III and
IV at d = 8.  The public constructors must build the same subgroups, in
the same order, and complete_set_templates must equal the table built
from the oracle, first-match (v1, v2) included, with each subgroup keyed
by the bitset of its nonzero points.
"""

import pytest

from mubkit import (
    Field,
    Point,
    complete_set_templates,
    det,
    type_I_set,
    type_II_set_d4,
    type_II_set_d8,
    type_III_set_d8,
    type_IV_set_d8,
)

from mubkit.phasespace import point_to_mask
from mubkit.squares import _template_scan

from oracles import (
    ORACLE_TYPES,
    Oracle,
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


def test_constructors_build_the_oracle_generators():
    """Type I: the d + 1 lines at one pair per field, in constructor order."""
    for n in (2, 3):
        field = Field(n)
        oracle = Oracle(field)
        v1, v2 = Point(field.one, field.mu), Point(field.from_power(3), field.from_power(2))
        got = [tuple(sorted(g.masks())) for g in type_I_set(v1, v2).generators]
        lines = [v1 + v2.scale(lam) for lam in field.in_dlog_order()] + [v2]
        assert got == [oracle.masks(("line", u)) for u in lines]


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
            for x1, y1, x2, y2 in maps:
                w1 = v1.scale(field.element(x1)) + v2.scale(field.element(y1))
                w2 = v1.scale(field.element(x2)) + v2.scale(field.element(y2))
                assert templates[w1, w2] == key
