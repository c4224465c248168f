"""The mask-native set recipes against the Point-object recipes as oracle.

The oracle tables below are written in Point and FieldElement arithmetic
and evaluated with oracles.line and oracles.affine_span.  Every
valid pair is checked: det(v1, v2) = 1 at d = 4, and det(v1, v2) in
K\\{0} for types II, III and IV at d = 8.  The mask recipes must span the
same subgroups, in the same order, and complete_set_templates must equal
the table built from the oracle, first-match (v1, v2) included, with
each subgroup keyed by the bitset of its nonzero points.
"""

import pytest

from mubkit import (
    Field,
    Point,
    complete_set_templates,
    det,
    trace_zero_subgroup,
    type_I_set,
    type_II_set_d4,
    type_II_set_d8,
    type_III_set_d8,
    type_IV_set_d8,
)
from mubkit.phasespace import point_to_mask
from mubkit.squares import _d8_recipes, _recipe_masks, _type_II_recipes_d4

from oracles import affine_span, all_points, line, scale_set


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
    """Every (v1, v2) a constructor accepts, in canonical point order."""
    points = [p for p in all_points(field) if not p.is_zero]
    for v1 in points:
        for v2 in points:
            k = det(v1, v2)
            if field.order == 4 and k == field.one:
                yield v1, v2, k
            if field.order == 8 and not k.is_zero and field.trace(k).is_zero:
                yield v1, v2, k


def oracle_recipes(field, set_type):
    """(v1, v2, k, oracle recipes) for every valid pair."""
    out = []
    for v1, v2, k in valid_pairs(field, set_type):
        if field.order == 4:
            out.append((v1, v2, k, oracle_type_II_d4(v1, v2)))
        else:
            out.append((v1, v2, k, oracle_d8(set_type, v1, v2, k)))
    return out


TYPES = {2: ("II",), 3: ("II", "III", "IV")}


@pytest.fixture(scope="module")
def table():
    """Per degree n: the field, its oracle, and the oracle recipes of
    every valid pair per set type."""
    out = {}
    for n, types in TYPES.items():
        field = Field(n)
        out[n] = field, Oracle(field), {t: oracle_recipes(field, t) for t in types}
    return out


@pytest.mark.parametrize("n, set_type", [(2, "II"), (3, "II"), (3, "III"), (3, "IV")])
def test_mask_recipes_span_the_oracle_subgroups(table, n, set_type):
    field, oracle, recipes_by_type = table[n]
    pairs = recipes_by_type[set_type]
    assert len(pairs) == (60 if n == 2 else 63 * 3 * 8)
    for v1, v2, k, expected in pairs:
        a, b = point_to_mask(v1), point_to_mask(v2)
        if n == 2:
            got = _type_II_recipes_d4(field, a, b)
        else:
            got = _d8_recipes(field, set_type, a, b, k.mask)
        assert [_recipe_masks(field, r) for r in got] == [oracle.masks(r) for r in expected]


@pytest.mark.parametrize("n", [2, 3])
def test_templates_equal_the_oracle_table(table, n):
    """First match wins, scanning types I, II, III, IV over valid pairs in
    canonical point order."""
    field, oracle, recipes_by_type = table[n]
    points = [p for p in all_points(field) if not p.is_zero]
    e1, e2 = Point(field.one, field.zero), Point(field.zero, field.one)
    bitset = lambda r: sum(1 << m for m in oracle.masks(r) if m)
    expected = {frozenset(bitset(("line", u)) for u in points): ("I", e1, e2)}
    for set_type in TYPES[n]:
        for v1, v2, _, recipes in recipes_by_type[set_type]:
            key = frozenset(bitset(r) for r in recipes)
            expected.setdefault(key, (set_type, v1, v2))
    assert complete_set_templates(field) == expected


def test_constructors_build_the_oracle_generators(table):
    """The public constructors, with their Subgroup closure and order
    checks, on a spread of pairs of each type."""
    ctors = {
        2: {"II": type_II_set_d4},
        3: {"II": type_II_set_d8, "III": type_III_set_d8, "IV": type_IV_set_d8},
    }
    for n, by_type in ctors.items():
        field, oracle, recipes_by_type = table[n]
        for set_type, ctor in by_type.items():
            for v1, v2, _, recipes in recipes_by_type[set_type][:: 97 if n == 3 else 17]:
                got = [tuple(sorted(g.masks())) for g in ctor(v1, v2).generators]
                assert got == [oracle.masks(r) for r in recipes]
        v1, v2 = Point(field.one, field.mu), Point(field.from_power(3), field.from_power(2))
        got = [tuple(sorted(g.masks())) for g in type_I_set(v1, v2).generators]
        lines = [v1 + v2.scale(lam) for lam in field.in_dlog_order()] + [v2]
        assert got == [oracle.masks(("line", u)) for u in lines]
