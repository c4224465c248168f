"""Eigenbases, the class-state correspondence, unbiasedness, and
three-qubit entanglement classification."""

from collections import Counter

import pytest

from mubkit import (
    EntanglementStructure,
    GaussInt,
    Point,
    Separability,
    Subgroup,
    apply_correspondence,
    build_mub_set,
    classify_basis,
    common_eigenbasis,
    default_selfdual_basis,
    rank_profile,
    schmidt_rank,
    search_complete_sets,
    separability,
    structure,
    type_I_set,
    type_II_set_d8,
)

import refdata
from oracles import (
    content_reduce,
    gauss_divexact,
    is_unbiased_pair,
    line,
    proportional_to,
    state_from_raw,
    translation_operator,
    two_qubit_rank,
)


def gi(re, im=0):
    return GaussInt(re, im)


def state(*pairs):
    return state_from_raw(tuple(GaussInt(re, im) for re, im in pairs))


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
    assert proportional_to(a, b)
    c = state((1, 0), (1, 0), (0, 1), (0, 1))
    assert not proportional_to(a, c)


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
    return [sum(proportional_to(p, c) for c in computed) for p in printed]


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
    assert proportional_to(printed[3], printed[1])
    covered = {
        next(i for i, c in enumerate(computed) if proportional_to(p, c))
        for p in printed
    }
    assert len(covered) == 3


def test_every_reference_vector_matches_exactly_one_state(d4_mubs):
    all_states = [st for b in d4_mubs.bases for st in b.states]
    for row in range(5):
        for printed in ref_states(row):
            assert sum(proportional_to(printed, c) for c in all_states) == 1


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
            moved = state_from_raw(op.matrix.times_vector(ray.entries))
            assert proportional_to(moved, ray)


def test_translations_permute_basis_states(f4, d4_mubs, d4_type_ii_set):
    basis_e = default_selfdual_basis(f4)
    for b, ss in zip(d4_mubs.bases, d4_type_ii_set.supersquares):
        for rep in ss.coset_reps:
            op = translation_operator(rep, basis_e)
            for st in b.states:
                moved = state_from_raw(op.matrix.times_vector(st.entries))
                matches = [c for c in b.states if proportional_to(c, moved)]
                assert len(matches) == 1


def test_correspondence_teaching_example(f4, d4_mubs, d4_type_ii_set):
    # the class of (1, m) is class 2 of the first square, and translating
    # the ray state by it lands on the state assigned to class 2
    b = d4_mubs.bases[0]
    square = d4_type_ii_set.squares[0]
    p = refdata.parse_point(f4, ("1", "m"))
    assert square.label_of(p) == 2
    op = translation_operator(p, default_selfdual_basis(f4))
    moved = state_from_raw(op.matrix.times_vector(b.ray_state.entries))
    assert proportional_to(moved, b.states[b.class_of_state[1]])


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


def test_build_mub_set_labels_no_plane(f8, monkeypatch):
    """The eigenbases and the correspondence read each generator's basis
    and coset representatives: a supersquare caches only those, and no
    square is built."""
    from mubkit import squares

    v1 = refdata.parse_point(f8, refdata.REF_D8_TYPE_II_V1)
    v2 = refdata.parse_point(f8, refdata.REF_D8_TYPE_II_V2)
    cset = type_II_set_d8(v1, v2)
    calls = []
    monkeypatch.setattr(squares.Square, "__init__", lambda *a: calls.append(a))
    monkeypatch.setattr(squares.Square, "_from_labels", lambda *a: calls.append(a))
    supersquares = tuple(squares.Supersquare(g) for g in cset.generators)
    fresh = squares.CompleteSet(cset.set_type, cset.v1, cset.v2, supersquares)
    build_mub_set(fresh)
    assert calls == []
    assert all(set(vars(ss)) == {"_reps"} for ss in supersquares)


def test_build_mub_set_checks_each_generator_once(f8, monkeypatch):
    """The set check runs is_extraordinary once per generator, and the
    eigenbases trust it: d + 1 calls per build."""
    from mubkit import mub, phasespace, squares

    calls = []
    real = phasespace.is_extraordinary

    def counting(g):
        calls.append(g)
        return real(g)

    for module in (phasespace, squares, mub):  # every module that binds the name
        monkeypatch.setattr(module, "is_extraordinary", counting)
    v1 = refdata.parse_point(f8, refdata.REF_D8_TYPE_II_V1)
    v2 = refdata.parse_point(f8, refdata.REF_D8_TYPE_II_V2)
    for cset in (type_II_set_d8(v1, v2), type_I_set(v1, v2)):
        calls.clear()
        build_mub_set(cset)
        assert calls == list(cset.generators)


def test_build_mub_set_derives_each_basis_generators_once(f8, monkeypatch):
    """The eigenbasis, the correspondence and the certificate's words all
    come from one _cosets call per supersquare."""
    from mubkit import mub

    v1 = refdata.parse_point(f8, refdata.REF_D8_TYPE_II_V1)
    v2 = refdata.parse_point(f8, refdata.REF_D8_TYPE_II_V2)
    cset = type_II_set_d8(v1, v2)
    calls = []
    real = mub._cosets

    def counting(ss):
        calls.append(ss)
        return real(ss)

    monkeypatch.setattr(mub, "_cosets", counting)
    build_mub_set(cset)
    assert calls == list(cset.supersquares)


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
    assert separability(computational.states) is Separability.FACTORIZED
    for b in d8_mubs.bases:
        assert classify_basis(b) is Separability.BISEPARABLE


def test_word_rule_matches_the_rank_oracle_on_every_census_basis(f8):
    """classify_basis reads the stabilizer words; separability, from the
    Schmidt ranks of the states, is its oracle on all 8,640 bases of the
    960 d = 8 sets, which take four entanglement structures."""
    structures = Counter()
    for cset in search_complete_sets(f8).sets:
        bases = build_mub_set(cset).bases
        kinds = [classify_basis(b) for b in bases]
        assert kinds == [separability(b.states) for b in bases]
        structures[EntanglementStructure.count(kinds).astuple()] += 1
    assert structures == {(3, 0, 6): 72, (2, 3, 4): 648, (1, 6, 2): 216, (0, 9, 0): 24}


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
    product = state((1, 0), (0, 0), (0, 0), (0, 0))
    bell = state((1, 0), (0, 0), (0, 0), (1, 0))
    assert two_qubit_rank(product) == 1
    assert two_qubit_rank(bell) == 2
    with pytest.raises(ValueError):
        two_qubit_rank(state((1, 0), (0, 0)))
    # the reference two-qubit set mixes product and entangled bases
    ranks = {two_qubit_rank(b.ray_state) for b in d4_mubs.bases}
    assert ranks == {1, 2}
