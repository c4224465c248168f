"""Eigenbases, the class-state correspondence, unbiasedness, and
three-qubit entanglement classification."""

import pytest

from mubkit import (
    GaussInt,
    Point,
    Separability,
    Subgroup,
    UnnormalizedState,
    apply_correspondence,
    build_mub_set,
    classify_basis,
    common_eigenbasis,
    default_selfdual_basis,
    is_unbiased_pair,
    line,
    rank_profile,
    schmidt_rank,
    structure,
    type_I_set,
)
from mubkit.mub import content_reduce
from mubkit.pauli import gauss_divexact

import refdata
from oracles import translation_operator


def gi(re, im=0):
    return GaussInt(re, im)


def state(*pairs):
    return UnnormalizedState.from_raw(tuple(GaussInt(re, im) for re, im in pairs))


def ref_states(row):
    return [state(*vec) for vec in refdata.REF_D4_BASIS_VECTORS[row]]


@pytest.fixture(scope="module")
def d4_mubs(d4_type_ii_set):
    return build_mub_set(d4_type_ii_set)


@pytest.fixture(scope="module")
def d8_mubs(d8_type_ii_set):
    return build_mub_set(d8_type_ii_set)


# -- states ---------------------------------------------------------------------


def test_content_reduce():
    reduced = content_reduce((gi(0, -2), gi(2, 0)))
    assert reduced == (gi(1, 0), gi(0, 1))  # divided by 2, rotated to quadrant
    with pytest.raises(ValueError):
        content_reduce((gi(0), gi(0)))


def test_state_normalization():
    s = state((2, 0), (0, 2))
    assert s.norm_sq == 2
    assert s.entries == (gi(1), gi(0, 1))


def test_proportionality():
    a = state((0, -1), (0, 1), (1, 0), (1, 0))
    b = state((1, 0), (-1, 0), (0, 1), (0, 1))
    assert a.proportional_to(b)
    c = state((1, 0), (1, 0), (0, 1), (0, 1))
    assert not a.proportional_to(c)


def test_is_unbiased_pair_examples():
    u = state((1, 0), (0, 0), (0, 0), (0, 0))
    v = state((1, 0), (1, 0), (1, 0), (1, 0))
    assert is_unbiased_pair(u, v, 4)
    assert not is_unbiased_pair(u, u, 4)


def test_reference_vectors_cross_row_unbiased():
    rows = [ref_states(r) for r in range(5)]
    for i in range(5):
        for j in range(i + 1, 5):
            for u in rows[i]:
                for v in rows[j]:
                    assert is_unbiased_pair(u, v, 4)


# -- eigenbases -------------------------------------------------------------------


def test_computational_basis_from_vertical_line(f4):
    basis = common_eigenbasis(
        line(refdata.parse_point(f4, ("0", "1"))), default_selfdual_basis(f4)
    )
    units = []
    for st in basis.states:
        nz = [i for i, e in enumerate(st.entries) if not e.is_zero]
        assert len(nz) == 1
        units.append(nz[0])
    assert sorted(units) == [0, 1, 2, 3]


def test_rejects_non_extraordinary_source(f4):
    bad = Subgroup.span(
        [refdata.parse_point(f4, ("1", "0")), refdata.parse_point(f4, ("0", "m"))]
    )
    with pytest.raises(ValueError):
        common_eigenbasis(bad, default_selfdual_basis(f4))


def match_counts(printed, computed):
    return [sum(p.proportional_to(c) for c in computed) for p in printed]


def test_reference_basis_row_three(f4, d4_mubs):
    # third generating subgroup: states land on the printed vectors exactly
    computed = d4_mubs.bases[2].states
    assert match_counts(ref_states(2), computed) == [1, 1, 1, 1]


def test_reference_basis_row_one(f4, d4_mubs):
    computed = d4_mubs.bases[0].states
    printed = ref_states(0)
    assert match_counts(printed, computed) == [1, 1, 1, 1]
    # the printed fourth vector is the negative of the second, so the row
    # covers only three of the four computed states
    assert printed[3].proportional_to(printed[1])
    covered = {
        next(i for i, c in enumerate(computed) if p.proportional_to(c))
        for p in printed
    }
    assert len(covered) == 3


def test_every_reference_vector_matches_exactly_one_state(d4_mubs):
    all_states = [st for b in d4_mubs.bases for st in b.states]
    for row in range(5):
        for printed in ref_states(row):
            assert sum(printed.proportional_to(c) for c in all_states) == 1


def test_eigenvector_certificate(f4, d4_mubs):
    basis_e = default_selfdual_basis(f4)
    for b in d4_mubs.bases:
        for g in b.source.nonzero_points():
            op = translation_operator(g, basis_e)
            for st in b.states:
                out = op.matrix.times_vector(st.entries)
                first = next(i for i, e in enumerate(st.entries) if not e.is_zero)
                phi = gauss_divexact(out[first], st.entries[first])
                assert phi.norm_sq() == 1
                assert all(
                    o == phi * e for o, e in zip(out, st.entries)
                )


# -- correspondence ----------------------------------------------------------------


def test_correspondence_is_bijective(d4_mubs, d8_mubs):
    for mubs in (d4_mubs, d8_mubs):
        for b in mubs.bases:
            assert b.class_of_state is not None
            assert sorted(b.class_of_state) == list(range(mubs.d))


def test_ray_state_fixed_by_generator_translations(f4, d4_mubs):
    basis_e = default_selfdual_basis(f4)
    for b in d4_mubs.bases:
        ray = b.ray_state
        for a in b.source.nonzero_points():
            op = translation_operator(a, basis_e)
            moved = UnnormalizedState.from_raw(op.matrix.times_vector(ray.entries))
            assert moved.proportional_to(ray)


def test_translations_permute_basis_states(f4, d4_mubs, d4_type_ii_set):
    basis_e = default_selfdual_basis(f4)
    for b, ss in zip(d4_mubs.bases, d4_type_ii_set.supersquares):
        for rep in ss.coset_reps:
            op = translation_operator(rep, basis_e)
            for st in b.states:
                moved = UnnormalizedState.from_raw(op.matrix.times_vector(st.entries))
                matches = [c for c in b.states if c.proportional_to(moved)]
                assert len(matches) == 1


def test_correspondence_teaching_example(f4, d4_mubs, d4_type_ii_set):
    # the class of (1, m) is class 2 of the first square, and translating
    # the ray state by it lands on the state assigned to class 2
    b = d4_mubs.bases[0]
    square = d4_type_ii_set.squares[0]
    p = refdata.parse_point(f4, ("1", "m"))
    assert square.label_of(p) == 2
    op = translation_operator(p, default_selfdual_basis(f4))
    moved = UnnormalizedState.from_raw(op.matrix.times_vector(b.ray_state.entries))
    assert moved.proportional_to(b.states[b.class_of_state[1]])


def test_correspondence_requires_matching_generator(f4, d4_type_ii_set):
    basis = common_eigenbasis(
        d4_type_ii_set.generators[0], default_selfdual_basis(f4)
    )
    with pytest.raises(ValueError):
        apply_correspondence(basis, d4_type_ii_set.supersquares[1])


# -- full sets ---------------------------------------------------------------------


def test_build_mub_set_cardinality_and_exactness(d4_mubs, d8_mubs):
    for mubs in (d4_mubs, d8_mubs):
        d = mubs.d
        assert len(mubs.bases) == d + 1
        for b in mubs.bases:
            assert len(b.states) == d
            for i in range(d):
                for j in range(i + 1, d):
                    assert b.states[i].inner(b.states[j]).is_zero
        for i in range(d + 1):
            for j in range(i + 1, d + 1):
                for u in mubs.bases[i].states:
                    for v in mubs.bases[j].states:
                        assert is_unbiased_pair(u, v, d)


def test_build_mub_set_type_i(f4):
    cset = type_I_set(Point(f4.one, f4.zero), Point(f4.zero, f4.one))
    mubs = build_mub_set(cset)
    assert len(mubs.bases) == 5


def test_build_rejects_broken_sets(d4_type_ii_set):
    from mubkit.squares import CompleteSet

    ss = d4_type_ii_set.supersquares
    broken = CompleteSet("II", None, None, (ss[0],) + ss[:4])
    with pytest.raises(ValueError):
        build_mub_set(broken)


# -- entanglement -------------------------------------------------------------------


def test_schmidt_rank_examples():
    product = state(*([(1, 0)] + [(0, 0)] * 7))
    assert rank_profile(product) == (1, 1, 1)
    ghz = state((1, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (1, 0))
    assert rank_profile(ghz) == (2, 2, 2)
    bell_12 = state((1, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (1, 0), (0, 0))
    assert rank_profile(bell_12) == (2, 2, 1)
    with pytest.raises(ValueError):
        schmidt_rank(state((1, 0), (0, 0)), "1|23")
    with pytest.raises(ValueError):
        schmidt_rank(ghz, "12|3")


def test_classify_basis_examples(f8, d8_mubs):
    computational = common_eigenbasis(
        line(refdata.parse_point(f8, ("0", "1"))), default_selfdual_basis(f8)
    )
    assert classify_basis(computational) is Separability.FACTORIZED
    for b in d8_mubs.bases:
        assert classify_basis(b) is Separability.BISEPARABLE


def test_structure_type_ii(d8_mubs):
    assert structure(d8_mubs).astuple() == (0, 9, 0)


def test_structure_type_i_lines(f8):
    cset = type_I_set(Point(f8.one, f8.zero), Point(f8.zero, f8.one))
    mubs = build_mub_set(cset)
    triple = structure(mubs).astuple()
    # frozen regression value for the all-lines set from the standard basis
    assert triple == (3, 0, 6)
    assert triple[0] >= 2
    assert sum(triple) == 9


def test_structure_rejects_d4(d4_mubs):
    with pytest.raises(ValueError):
        structure(d4_mubs)


def test_two_qubit_rank(d4_mubs):
    from mubkit.mub import two_qubit_rank

    product = state((1, 0), (0, 0), (0, 0), (0, 0))
    bell = state((1, 0), (0, 0), (0, 0), (1, 0))
    assert two_qubit_rank(product) == 1
    assert two_qubit_rank(bell) == 2
    with pytest.raises(ValueError):
        two_qubit_rank(state((1, 0), (0, 0)))
    # the reference two-qubit set mixes product and entangled bases
    ranks = {two_qubit_rank(b.ray_state) for b in d4_mubs.bases}
    assert ranks == {1, 2}
