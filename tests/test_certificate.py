"""The packed MUB certificate against the dense one as oracle.

certify_bases packs every state whose entries lie in {0, +-1, +-i} into a
support mask and two phase bit-planes and reads inner products off
popcounts; a pair with any other state takes UnnormalizedState.inner.
oracles.certify_bases_dense forms every inner product entry by entry.
The two must return the same (checks, failures), in the same order, on
valid sets and on sets with entries rotated, replaced or scaled out of
the unit set, norms made wrong and states cut short.  Hypothesis
examples are derandomized, so a run is reproducible.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubkit import (
    Field,
    GaussInt,
    Point,
    UnnormalizedState,
    build_mub_set,
    certify_bases,
    det,
    search_complete_sets,
    structure,
    type_I_set,
    type_II_set_d4,
    type_II_set_d8,
    type_III_set_d8,
    type_IV_set_d8,
)
from mubkit.cli import DEFAULT_PAIRS, _parse_point
from mubkit.mub import pack_state, packed_inner
from mubkit.pauli import I_UNIT, ONE, UNITS, ZERO

from oracles import all_points, certify_bases_dense

INSIDE = (ZERO,) + UNITS
OUTSIDE = (GaussInt(2, 0), GaussInt(1, 1), GaussInt(0, -3))
ORACLE = settings(max_examples=80, deadline=None, derandomize=True)
D8_CONSTRUCTORS = {
    "I": type_I_set,
    "II": type_II_set_d8,
    "III": type_III_set_d8,
    "IV": type_IV_set_d8,
}


def unit_state(entries):
    entries = tuple(entries)
    return UnnormalizedState(entries, sum(e.norm_sq() for e in entries))


def payload(mubs):
    return [list(b.states) for b in mubs.bases], [b.class_of_state for b in mubs.bases]


def assert_same_certificate(bases, d, maps, expected_structure=None):
    packed = certify_bases(bases, d, maps, expected_structure)
    assert packed == certify_bases_dense(bases, d, maps, expected_structure)
    return packed


@pytest.fixture(scope="module")
def valid_payloads(d4_type_ii_set, d8_type_ii_set):
    """(d, bases, class maps, structure) of one valid set per dimension."""
    d4 = build_mub_set(d4_type_ii_set)
    d8 = build_mub_set(d8_type_ii_set)
    return [(4, *payload(d4), None), (8, *payload(d8), structure(d8).astuple())]


# -- the packed inner product -------------------------------------------------


@st.composite
def state_pairs(draw):
    """Two states of one length, mostly unit-or-zero entries, each with up
    to two entries from outside that set."""
    length = draw(st.integers(1, 40))
    pair = []
    for _ in range(2):
        entries = draw(st.lists(st.sampled_from(INSIDE), min_size=length, max_size=length))
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
            entries[draw(st.integers(0, length - 1))] = draw(st.sampled_from(OUTSIDE))
        pair.append(unit_state(entries))
    return pair


@ORACLE
@given(state_pairs())
def test_packed_inner_matches_dense(pair):
    u, v = pair
    pu, pv = pack_state(u), pack_state(v)
    for st_, packed in ((u, pu), (v, pv)):
        assert (packed is None) == any(e in OUTSIDE for e in st_.entries)
    if pu is not None and pv is not None:
        assert packed_inner(pu, pv) == u.inner(v)
        assert packed_inner(pv, pu) == v.inner(u)
        assert packed_inner(pu, pu) == (pu[0].bit_count(), 0)


def test_pack_state_bit_planes():
    # entry k = i^p sets bit k of the support, of lo when p is odd and of
    # hi when p >= 2
    st_ = unit_state((ONE, I_UNIT, ZERO, -ONE, -I_UNIT))
    assert pack_state(st_) == (0b11011, 0b10010, 0b11000)
    assert pack_state(unit_state((ONE, GaussInt(1, 1)))) is None


# -- the certificate on perturbed sets ------------------------------------------


@st.composite
def perturbed(draw, payloads):
    """A valid payload with one to four perturbations: an entry times a
    unit, an entry replaced, a state or a whole basis scaled by 1 + i, 2
    or -3i (norm_sq kept consistent or not), norm_sq off by a few, a state
    cut short, or a basis replaced by a copy of another; and at d = 8 a
    structure claim kept, dropped or changed."""
    d, bases, maps, triple = draw(st.sampled_from(payloads))
    bases = [list(b) for b in bases]
    for _ in range(draw(st.integers(1, 4))):
        bi = draw(st.integers(0, len(bases) - 1))
        si = draw(st.integers(0, d - 1))
        old = bases[bi][si]
        entries = list(old.entries)
        kind = draw(
            st.sampled_from(["unit", "entry", "scale", "scale-basis", "norm", "cut", "copy"])
        )
        if kind == "unit":
            k = draw(st.integers(0, d - 1))
            entries[k] = entries[k] * draw(st.sampled_from(UNITS[1:]))
            bases[bi][si] = UnnormalizedState(tuple(entries), old.norm_sq)
        elif kind == "entry":
            entries[draw(st.integers(0, d - 1))] = draw(st.sampled_from(INSIDE + OUTSIDE))
            bases[bi][si] = UnnormalizedState(tuple(entries), old.norm_sq)
        elif kind in ("scale", "scale-basis"):
            f = draw(st.sampled_from(OUTSIDE[1:] + (GaussInt(2, 0),)))
            consistent = draw(st.booleans())
            targets = range(d) if kind == "scale-basis" else [si]
            for sj in targets:
                st_ = bases[bi][sj]
                norm = st_.norm_sq * f.norm_sq() if consistent else st_.norm_sq
                bases[bi][sj] = UnnormalizedState(tuple(f * e for e in st_.entries), norm)
        elif kind == "norm":
            bases[bi][si] = UnnormalizedState(old.entries, old.norm_sq + draw(st.integers(-2, 2)))
        elif kind == "cut":
            bases[bi][si] = UnnormalizedState(old.entries[:-1], old.norm_sq)
        else:
            bases[bi] = list(bases[draw(st.integers(0, len(bases) - 1))])
    if triple is not None:
        triple = draw(st.sampled_from([None, triple, (9, 0, 0), (0, 0, 9)]))
    return d, bases, maps, triple


@ORACLE
@given(data=st.data())
def test_certificate_matches_dense_oracle_on_perturbed_sets(valid_payloads, data):
    d, bases, maps, triple = data.draw(perturbed(valid_payloads))
    assert_same_certificate(bases, d, maps, triple)


# -- fixed cases -----------------------------------------------------------------


def test_every_valid_d4_set(f4):
    counts = {"I": 0, "II": 0}
    points = [p for p in all_points(f4) if not p.is_zero]
    for v1 in points:
        for v2 in points:
            k = det(v1, v2)
            csets = ([type_I_set(v1, v2)] if not k.is_zero else []) + (
                [type_II_set_d4(v1, v2)] if k == f4.one else []
            )
            for cset in csets:
                counts[cset.set_type] += 1
                bases, maps = payload(build_mub_set(cset))
                checks, failures = assert_same_certificate(bases, 4, maps)
                assert all(checks.values()) and failures == []
    assert counts == {"I": 180, "II": 60}


@pytest.mark.parametrize("set_type", sorted(D8_CONSTRUCTORS) + ["Unclassified"])
def test_d8_set_of_each_type(f8, set_type):
    if set_type == "Unclassified":
        cset = next(c for c in search_complete_sets(f8).sets if c.set_type == set_type)
    else:
        v1, v2 = (_parse_point(f8, t) for t in DEFAULT_PAIRS[(8, set_type)])
        cset = D8_CONSTRUCTORS[set_type](v1, v2)
    mubs = build_mub_set(cset)
    bases, maps = payload(mubs)
    checks, failures = assert_same_certificate(bases, 8, maps, structure(mubs).astuple())
    assert list(checks) == [
        "cardinality", "norms", "orthogonality", "unbiasedness", "class_maps", "structure",
    ]
    assert all(checks.values()) and failures == []


@pytest.fixture(scope="module")
def d16_type_i():
    f16 = Field(4)
    return build_mub_set(type_I_set(Point(f16.one, f16.zero), Point(f16.zero, f16.one)))


def test_d16_type_i_set_as_built(d16_type_i):
    bases, maps = payload(d16_type_i)
    assert all(pack_state(st_) is not None for b in bases for st_ in b)
    checks, failures = assert_same_certificate(bases, 16, maps)
    assert all(checks.values()) and failures == []


def test_d16_type_i_set_mutated(d16_type_i):
    bases, maps = payload(d16_type_i)
    # one entry times i keeps the state packed; one state times 1 + i does not
    st_ = bases[3][5]
    k = next(k for k, e in enumerate(st_.entries) if not e.is_zero)
    entries = list(st_.entries)
    entries[k] = entries[k] * I_UNIT
    bases[3][5] = UnnormalizedState(tuple(entries), st_.norm_sq)
    st_ = bases[10][7]
    scaled = tuple(GaussInt(1, 1) * e for e in st_.entries)
    bases[10][7] = UnnormalizedState(scaled, 2 * st_.norm_sq)
    assert pack_state(bases[3][5]) is not None and pack_state(bases[10][7]) is None
    checks, failures = assert_same_certificate(bases, 16, maps)
    assert not checks["orthogonality"] and not checks["unbiasedness"]
    assert checks["norms"] and checks["class_maps"]
    assert failures[0] == "basis 4 states 0,5 not orthogonal"


def test_d32_type_i_set_packed_inner_products():
    f32 = Field(5)
    mubs = build_mub_set(type_I_set(Point(f32.one, f32.zero), Point(f32.zero, f32.one)))
    bases = [b.states for b in mubs.bases]
    assert (len(bases), {len(b) for b in bases}) == (33, {32})
    packed = [[pack_state(st_) for st_ in b] for b in bases]
    assert all(p is not None for b in packed for p in b)
    rng = random.Random(32)
    for _ in range(2000):
        bi, bj = rng.sample(range(33), 2)
        i, j = rng.randrange(32), rng.randrange(32)
        u, v = bases[bi][i], bases[bj][j]
        re, im = packed_inner(packed[bi][i], packed[bj][j])
        assert (re, im) == u.inner(v)
        assert 32 * (re * re + im * im) == u.norm_sq * v.norm_sq
