"""The translated eigenbases and class maps against the dense construction
as oracle.

The oracle builds one exact rank-one projector per eigenvalue assignment,
takes its first nonzero column, content-reduced, as that assignment's
state, and finds each class's state by translating the ray state with the
class's coset representative and scanning for the proportional state.
The library builds one projector per basis, gets the other states and
the class map from flip signatures, and names the operators from their
expansion bits without building their matrices.  States, class maps and
operator words must be equal as tuples, on every valid d = 4 pair of
types I and II (with a selfdual and a non-selfdual expansion basis), one
d = 8 set per type, one Unclassified d = 8 set from the search and one
d = 16 type I basis; the words also on every basis of the d = 16 type I
set.
"""

import random
from itertools import combinations

import pytest

from mubkit import (
    Field,
    FieldBasis,
    GaussInt,
    Point,
    Subgroup,
    apply_correspondence,
    build_mub_set,
    common_eigenbasis,
    default_selfdual_basis,
    det,
    is_selfdual,
    search_complete_sets,
    type_I_set,
    type_II_set_d4,
    type_II_set_d8,
    type_III_set_d8,
    type_IV_set_d8,
)
from mubkit.cli import DEFAULT_PAIRS, _parse_point
from mubkit.pauli import I_UNIT, ONE

from oracles import (
    GaussMatrix,
    all_points,
    commutes,
    proportional_to,
    square_sign,
    state_from_raw,
    translation_operator,
)


def oracle_states(a1, expansion_basis):
    """One dense projector per assignment: state s negates the principal
    eigenvalue of generator j when bit j of s is set."""
    d = a1.order
    ops = [translation_operator(g, expansion_basis) for g in a1.basis()]
    principals = [I_UNIT if square_sign(op) < 0 else ONE for op in ops]
    ident = GaussMatrix.identity(d)
    states = []
    for s in range(d):
        num = ident
        for j, (op, lam) in enumerate(zip(ops, principals)):
            lam = -lam if s >> j & 1 else lam
            num = num @ (ident + op.matrix.scale(lam.conj()))
        assert num.trace() == GaussInt(d, 0)
        col = next(
            c for c in map(num.column, range(d)) if any(not e.is_zero for e in c)
        )
        states.append(state_from_raw(col))
    return tuple(states)


def oracle_class_map(states, ss, expansion_basis):
    """Translate the ray state (the all-principal state 0) by each coset
    representative and find the one state it is proportional to."""
    ray = states[0]
    mapping = [0]
    for rep in ss.coset_reps:
        op = translation_operator(rep, expansion_basis)
        moved = state_from_raw(op.matrix.times_vector(ray.entries))
        matches = [i for i, st in enumerate(states) if proportional_to(st, moved)]
        assert len(matches) == 1
        mapping.append(matches[0])
    return tuple(mapping)


def assert_matches_oracle(basis, ss, expansion_basis):
    states = oracle_states(ss.generator, expansion_basis)
    assert basis.states == states
    assert basis.class_of_state == oracle_class_map(states, ss, expansion_basis)
    assert basis.operator_words == oracle_words(ss.generator, expansion_basis)


def oracle_words(a1, expansion_basis):
    """The names of the dense translation operators of a1's nonzero points."""
    return tuple(translation_operator(p, expansion_basis).word for p in a1.nonzero_points())


def d4_sets(field):
    points = [p for p in all_points(field) if not p.is_zero]
    for v1 in points:
        for v2 in points:
            k = det(v1, v2)
            if not k.is_zero:
                yield type_I_set(v1, v2)
            if k == field.one:
                yield type_II_set_d4(v1, v2)


@pytest.mark.parametrize("selfdual", [True, False])
def test_every_d4_pair_matches_oracle(f4, selfdual):
    # a basis depends only on its supersquare, so each distinct one of the
    # 1,200 the pairs build is checked once
    if selfdual:
        basis_e = default_selfdual_basis(f4)
    else:
        basis_e = FieldBasis((f4.one, f4.mu))
        assert not is_selfdual(basis_e)
    counts = {"I": 0, "II": 0}
    distinct = {}
    for cset in d4_sets(f4):
        counts[cset.set_type] += 1
        distinct.update((ss.generator, ss) for ss in cset.supersquares)
    assert counts == {"I": 180, "II": 60}
    assert len(distinct) == 15  # every extraordinary subgroup at d = 4
    for ss in distinct.values():
        basis = apply_correspondence(common_eigenbasis(ss.generator, basis_e), ss)
        assert_matches_oracle(basis, ss, basis_e)


D8_CONSTRUCTORS = {
    "I": type_I_set,
    "II": type_II_set_d8,
    "III": type_III_set_d8,
    "IV": type_IV_set_d8,
}


@pytest.mark.parametrize("set_type", sorted(D8_CONSTRUCTORS))
def test_d8_set_of_each_type_matches_oracle(f8, set_type):
    v1, v2 = (_parse_point(f8, t) for t in DEFAULT_PAIRS[(8, set_type)])
    cset = D8_CONSTRUCTORS[set_type](v1, v2)
    basis_e = default_selfdual_basis(f8)
    for basis, ss in zip(build_mub_set(cset, basis_e).bases, cset.supersquares):
        assert_matches_oracle(basis, ss, basis_e)


def test_unclassified_d8_set_matches_oracle(f8):
    cset = next(
        c for c in search_complete_sets(f8).sets if c.set_type == "Unclassified"
    )
    basis_e = default_selfdual_basis(f8)
    for basis, ss in zip(build_mub_set(cset, basis_e).bases, cset.supersquares):
        assert_matches_oracle(basis, ss, basis_e)


def test_d16_type_i_basis_matches_oracle():
    f16 = Field(4)
    cset = type_I_set(Point(f16.one, f16.zero), Point(f16.zero, f16.one))
    ss = cset.supersquares[2]  # the line through (1, mu), off both axes
    assert Point(f16.one, f16.mu) in ss.generator.points
    basis_e = default_selfdual_basis(f16)
    basis = apply_correspondence(common_eigenbasis(ss.generator, basis_e), ss)
    assert_matches_oracle(basis, ss, basis_e)


def test_d16_type_i_words_match_dense_operators():
    f16 = Field(4)
    cset = type_I_set(Point(f16.one, f16.zero), Point(f16.zero, f16.one))
    basis_e = default_selfdual_basis(f16)
    bases = build_mub_set(cset, basis_e).bases
    assert len(bases) == 17
    for basis, ss in zip(bases, cset.supersquares):
        assert basis.operator_words == oracle_words(ss.generator, basis_e)


@pytest.mark.parametrize("n, sample", [(2, None), (3, 400)])
def test_projector_trace_is_d_for_any_independent_generators(n, sample):
    """tr prod_j (1 + conj(lambda_j) T_j) = d for any n independent points,
    commuting or not: every non-empty product of the T_j is a non-identity
    Pauli operator, of trace 0.  So the trace is no test of rank one, and
    common_eigenbasis does not take it; the non-commuting products here are
    not d times a projector.  Every independent pair at d = 4 (105), and a
    seeded sample of the independent triples at d = 8."""
    field = Field(n)
    d = field.order
    basis_e = default_selfdual_basis(field)
    ops = {p: translation_operator(p, basis_e) for p in all_points(field) if not p.is_zero}
    sets = [s for s in combinations(ops, n) if Subgroup.span(s).order == d]
    if sample is not None:
        sets = random.Random(n).sample(sets, sample)
    ident = GaussMatrix.identity(d)
    non_commuting = 0
    for points in sets:
        num = ident
        for p in points:
            lam = I_UNIT if square_sign(ops[p]) < 0 else ONE
            num = num @ (ident + ops[p].matrix.scale(lam.conj()))
        assert num.trace() == GaussInt(d, 0)
        if not all(commutes(ops[p], ops[q]) for p, q in combinations(points, 2)):
            non_commuting += 1
            assert num @ num != num.scale(GaussInt(d, 0))
    assert len(sets) == (105 if n == 2 else sample)
    assert non_commuting > len(sets) // 2
