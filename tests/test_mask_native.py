"""The mask-native eigenbasis and square paths against per-point oracles.

The library reads a translation's (x, z) masks and Pauli word off one
table per expansion basis, a flip signature off the parity of a polar
mask, and builds the ray state on bit-planes one projector factor at a
time; the oracles expand each point by field arithmetic, test
tr(x1 y2) = tr(x2 y1) and divide the dense projector's first nonzero
column by its Gaussian gcd.  Two-row ranks are read off 2x2 minors and
checked against fraction-free elimination.  Squares hold label tables
only; their perturbation, partition equality and JSON form are checked
against the same operations on frozensets of Points.  Hypothesis examples
are derandomized, so a run is reproducible.
"""

import json
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubkit import (
    Field,
    FieldBasis,
    GaussInt,
    Point,
    Square,
    build_mub_set,
    common_eigenbasis,
    default_selfdual_basis,
    enumerate_extraordinary_subgroups,
    perturb_supersquare,
    search_complete_sets,
    supersquare_from_subgroup,
    type_I_set,
    type_II_set_d8,
    type_III_set_d8,
    type_IV_set_d8,
)
from mubkit.cli import DEFAULT_PAIRS, _parse_point
from mubkit.gf2n import dual_basis
from mubkit.mub import ConstructionError, _cosets, _ray_planes
from mubkit.mubdoc import BIPARTITIONS, _two_row_rank, schmidt_rank
from mubkit.pauli import ONE, ZERO, PauliWord, translation_table
from mubkit.phasespace import _polars, point_table, point_to_mask
from mubkit.serialize import dumps_canonical, square_to_json

import oracles
from oracles import GaussMatrix, all_points, square_sign, translation_operator, two_qubit_rank

D8_CONSTRUCTORS = {
    "I": type_I_set,
    "II": type_II_set_d8,
    "III": type_III_set_d8,
    "IV": type_IV_set_d8,
}


def typed_d8_sets(f8):
    for set_type, ctor in sorted(D8_CONSTRUCTORS.items()):
        yield ctor(*(_parse_point(f8, t) for t in DEFAULT_PAIRS[(8, set_type)]))


def expansion_bases(field):
    """The default selfdual basis in each of its orders at d = 4 and 8, the
    orders `mub gen --basis` accepts; as it is at d = 16 and 32."""
    default = default_selfdual_basis(field).elements
    if field.n > 3:
        return [default_selfdual_basis(field)]
    return [FieldBasis(order) for order in permutations(default)]


# -- translation table -----------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_translation_table_matches_expansion_bits(n):
    field = Field(n)
    for basis in expansion_bases(field):
        basis_f = dual_basis(basis)
        table = translation_table(basis)
        assert len(table) == field.order**2
        for p in all_points(field):
            x, z = table[point_to_mask(p)]
            assert (x, z) == oracles.translation_masks(p, basis, basis_f)
            bits = oracles.expansion_bits(p, basis, basis_f)
            assert PauliWord.from_masks(x, z, n) == oracles.word_from_bits(*bits)


# -- flip signatures -----------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_polar_parity_is_the_trace_condition(n):
    field = Field(n)
    polars = _polars(field)
    points = all_points(field)
    for p in points:
        polar = polars[point_to_mask(p)]
        for q in points:
            odd = (polar & point_to_mask(q)).bit_count() & 1
            assert odd == (not oracles.trace_condition(p, q))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_flip_signatures_match_trace_condition(n):
    """The signatures are distinct on every Lagrangian, which is why the
    eigenbasis construction need not check it."""
    field = Field(n)
    table = point_table(field)
    subgroups = enumerate_extraordinary_subgroups(field)
    assert len(subgroups) == {2: 15, 3: 135, 4: 2295}[n]
    for a1 in subgroups:
        ss = supersquare_from_subgroup(a1)
        gens, reps, slots = _cosets(ss)
        assert [table[g] for g in gens] == list(a1.basis())
        assert tuple(table[r] for r in reps) == ss.coset_reps
        assert slots[0] == 0 and sorted(slots) == list(range(field.order))
        for rep, slot in zip(ss.coset_reps, slots[1:]):
            flips = [not oracles.trace_condition(g, rep) for g in a1.basis()]
            assert slot == sum(flip << j for j, flip in enumerate(flips))


# -- ray state ---------------------------------------------------------------------------


def dense_ray_column(a1, basis_e):
    """The first nonzero column of the all-principal projector, formed
    densely."""
    d = a1.order
    ident = GaussMatrix.identity(d)
    num = ident
    for g in a1.basis():
        op = translation_operator(g, basis_e)
        lam = GaussInt(0, -1) if square_sign(op) < 0 else ONE  # conj of the principal
        num = num @ (ident + op.matrix.scale(lam))
    columns = (num.column(c) for c in range(d))
    return next(c for c in columns if any(not e.is_zero for e in c))


def ray_cases(f4, f8):
    """(generator, expansion basis) over the d = 4 census and the typed
    d = 8 sets in the default basis, the d = 16 type I set, and one d = 4
    and one d = 8 set in the polynomial basis, which is not selfdual."""
    for cset in search_complete_sets(f4).sets:
        yield from ((a1, default_selfdual_basis(f4)) for a1 in cset.generators)
    for cset in typed_d8_sets(f8):
        yield from ((a1, default_selfdual_basis(f8)) for a1 in cset.generators)
    f16 = Field(4)
    for a1 in type_I_set(Point(f16.one, f16.zero), Point(f16.zero, f16.one)).generators:
        yield a1, default_selfdual_basis(f16)
    for f, cset in [(f4, search_complete_sets(f4).sets[0]), (f8, next(typed_d8_sets(f8)))]:
        poly = FieldBasis(tuple(f.element(1 << i) for i in range(f.n)))
        yield from ((a1, poly) for a1 in cset.generators)


def test_ray_state_matches_content_reduce(f4, f8):
    """The ray state built on planes is the dense projector's first nonzero
    column, content-reduced."""
    checked = 0
    for a1, basis_e in ray_cases(f4, f8):
        column = dense_ray_column(a1, basis_e)
        assert common_eigenbasis(a1, basis_e).ray_state == oracles.state_from_raw(column)
        checked += 1
    assert checked == 6 * 5 + 4 * 9 + 17 + 5 + 9


@pytest.mark.parametrize(
    "ops",
    [
        [(1, 0), (0, 1)],  # X and Z on one qubit
        [(2, 0), (1, 1), (0, 1)],  # I x XZ and I x Z, once the support is full
    ],
)
def test_ray_planes_rejects_anticommuting_generators(ops):
    n = max(x | z for x, z in ops).bit_length()
    with pytest.raises(ConstructionError, match="do not commute"):
        _ray_planes(ops, 1 << n, n)


def test_ray_planes_rejects_a_zero_projector():
    """X x Z, Z x X and XZ x XZ commute, but the first two multiply to
    -(XZ x XZ), so no state has eigenvalue 1 under all three."""
    with pytest.raises(ConstructionError, match="projector"):
        _ray_planes([(2, 1), (1, 2), (3, 3)], 4, 2)


# -- two-row rank ------------------------------------------------------------------------


def test_two_row_rank_matches_elimination_on_built_states(f4, f8):
    for cset in search_complete_sets(f4).sets:
        for b in build_mub_set(cset).bases:
            for s in b.states:
                rows = [list(s.entries[:2]), list(s.entries[2:])]
                assert two_qubit_rank(s) == _two_row_rank(*rows) == oracles.gauss_rank(rows)
    for cset in typed_d8_sets(f8):
        for b in build_mub_set(cset).bases:
            for s in b.states:
                for q, bp in enumerate(BIPARTITIONS, start=1):
                    # qubit q against the other two, qubit 1 the most
                    # significant index bit: row (b >> (3 - q)) & 1, and
                    # column the other two bits, in qubit order
                    rest = [j for j in (1, 2, 3) if j != q]
                    mat = [[ZERO] * 4 for _ in range(2)]
                    for b, e in enumerate(s.entries):
                        bits = {j: b >> (3 - j) & 1 for j in (1, 2, 3)}
                        mat[bits[q]][bits[rest[0]] << 1 | bits[rest[1]]] = e
                    assert schmidt_rank(s, bp) == oracles.gauss_rank(mat)


gauss = st.builds(GaussInt, st.integers(-3, 3), st.integers(-3, 3))


def two_row_matrices(width):
    free = st.lists(st.lists(gauss, min_size=width, max_size=width), min_size=2, max_size=2)
    # a row and a multiple of it, so rank 1 (and 0) are drawn often
    dependent = st.tuples(st.lists(gauss, min_size=width, max_size=width), gauss).map(
        lambda rc: [rc[0], [rc[1] * e for e in rc[0]]]
    )
    return st.one_of(free, dependent)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=st.one_of(two_row_matrices(4), two_row_matrices(2)))
def test_two_row_rank_matches_elimination(rows):
    assert _two_row_rank(*rows) == oracles.gauss_rank(rows)


# -- label-only squares ----------------------------------------------------------------------


def test_square_holds_labels_only():
    assert "classes" not in Square.__slots__


def some_supersquares(f4, f8):
    yield from map(supersquare_from_subgroup, enumerate_extraordinary_subgroups(f4))
    for cset in typed_d8_sets(f8):
        yield from cset.supersquares


def encoded(doc):
    """The document as JSON text gives it back: its point leaves are tuples,
    and the list-built oracle documents compare equal only to lists."""
    return json.loads(dumps_canonical(doc))


def test_perturbation_and_json_match_points(f4, f8):
    for i, ss in enumerate(some_supersquares(f4, f8)):
        assert encoded(square_to_json(ss.square)) == oracles.square_to_json(ss.square)
        for seed in range(i % 3, 12, 3):
            perturbed = perturb_supersquare(ss, seed)
            assert perturbed == oracles.perturb_supersquare(ss, seed)
            assert encoded(square_to_json(perturbed)) == oracles.square_to_json(perturbed)
            assert perturbed.classes[0] == ss.square.classes[0]


def test_same_partition_matches_points(f4, f8):
    for i, ss in enumerate(some_supersquares(f4, f8)):
        sq = ss.square
        classes = list(sq.classes)
        relabelled = Square(sq.field, [classes[0]] + classes[:0:-1])  # labels 2..d reversed
        class1_moved = Square(sq.field, classes[1:2] + classes[:1] + classes[2:])
        others = [relabelled, class1_moved, perturb_supersquare(ss, i)]
        for other in others:
            assert sq.same_partition(other) == oracles.same_partition(sq, other)
            assert other.same_partition(sq) == oracles.same_partition(other, sq)
        assert sq.same_partition(relabelled) and sq.same_partition(sq)
        assert not sq.same_partition(class1_moved)
    ss4 = supersquare_from_subgroup(enumerate_extraordinary_subgroups(f4)[0])
    ss8 = supersquare_from_subgroup(enumerate_extraordinary_subgroups(f8)[0])
    assert not ss4.square.same_partition(ss8.square)


def test_square_constructor_keeps_its_checks(f4, f8):
    classes = [sorted(c, key=lambda p: p.sort_key) for c in supersquare_from_subgroup(
        enumerate_extraordinary_subgroups(f4)[0]
    ).square.classes]
    with pytest.raises(ValueError, match="needs 4 classes"):
        Square(f4, classes[:3])
    with pytest.raises(ValueError, match="class 2 has 3 points"):
        Square(f4, [classes[0], classes[1][:3]] + classes[2:])
    with pytest.raises(ValueError, match="overlap"):
        Square(f4, [classes[0], classes[1][:3] + classes[0][:1]] + classes[2:])
    foreign = Point(f8.one, f8.one)
    with pytest.raises(ValueError, match="share the square's field"):
        Square(f4, [classes[0][:3] + [foreign]] + classes[1:])
    assert Square(f4, classes).classes == tuple(map(frozenset, classes))
