"""The packed MUB certificate against the dense one as oracle.

certify_bases packs every state whose entries lie in {0, +-1, +-i} into a
support mask and two phase bit-planes and reads inner products off
popcounts; a pair with any other state takes UnnormalizedState.inner.
oracles.certify_bases_dense forms every inner product entry by entry.
The two must return the same (checks, failures), in the same order, on
valid sets and on sets with entries rotated, replaced or scaled out of
the unit set, norms made wrong and states cut short.  They must also be
the same when certify_bases is given each basis's stabilizer words, true
or tampered with, which let it skip the pair checks of bases it
certifies on their own.  build_mub_set certifies the planes its states
were unpacked from (mub._certify) without packing them again: on every
built set here, and on planes with one bit flipped, that gives what
certify_bases and the dense oracle give.  Hypothesis examples are
derandomized, so a run is reproducible.
"""

import random
from functools import reduce
from operator import xor

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
from mubkit import mub
from mubkit.cli import DEFAULT_PAIRS, _parse_point
from mubkit.gf2n import _independent, default_selfdual_basis
from mubkit.mub import pack_state, packed_inner
from mubkit.pauli import I_UNIT, ONE, UNITS, ZERO, translation_table

from oracles import all_points, canonical_rotation, certify_bases_dense, translate

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


def true_words(mubs):
    """Per basis, the (x, z) masks of the translations by its source's
    independent generators, as build_mub_set passes them."""
    return [
        [translation_table(b.expansion_basis)[m] for m in _independent(b.source.masks())]
        for b in mubs.bases
    ]


def assert_same_certificate(bases, d, maps, expected_structure=None, words=None):
    packed = certify_bases(bases, d, maps, expected_structure, words)
    assert packed == certify_bases_dense(bases, d, maps, expected_structure)
    return packed


@pytest.fixture(scope="module")
def valid_payloads(d4_type_ii_set, d8_type_ii_set):
    """(d, bases, class maps, structure, words) of one valid set per
    dimension."""
    d4 = build_mub_set(d4_type_ii_set)
    d8 = build_mub_set(d8_type_ii_set)
    return [
        (4, *payload(d4), None, true_words(d4)),
        (8, *payload(d8), structure(d8).astuple(), true_words(d8)),
    ]


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
    d, bases, maps, triple, words = draw(st.sampled_from(payloads))
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
            k = draw(st.integers(0, len(entries) - 1))
            entries[k] = entries[k] * draw(st.sampled_from(UNITS[1:]))
            bases[bi][si] = UnnormalizedState(tuple(entries), old.norm_sq)
        elif kind == "entry":
            k = draw(st.integers(0, len(entries) - 1))
            entries[k] = draw(st.sampled_from(INSIDE + OUTSIDE))
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
    return d, bases, maps, triple, words


@ORACLE
@given(data=st.data())
def test_certificate_matches_dense_oracle_on_perturbed_sets(valid_payloads, data):
    d, bases, maps, triple, words = data.draw(perturbed(valid_payloads))
    assert_same_certificate(bases, d, maps, triple)
    assert_same_certificate(bases, d, maps, triple, words)


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
                assert_trusted_route_agrees(cset)
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
    assert_trusted_route_agrees(cset)


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


# -- the structural route: stabilizer words ---------------------------------------


@pytest.fixture(scope="module")
def type_i_sets():
    """The type I MUB set on the axes at d = 4, 8 and 16, by dimension."""
    sets = {}
    for n in (2, 3, 4):
        f = Field(n)
        sets[f.order] = build_mub_set(type_I_set(Point(f.one, f.zero), Point(f.zero, f.one)))
    return sets


def anticommuting(word):
    """A word that anticommutes with the nonzero word (x, z)."""
    x, z = word
    return (0, x & -x) if x else (z & -z, 0)


def times_i(st_, entry=None):
    """The state with every entry, or only its nonzero entry number
    ``entry``, times i."""
    ks = [k for k, e in enumerate(st_.entries) if not e.is_zero]
    entries = [
        e * I_UNIT if entry is None or k == ks[entry] else e for k, e in enumerate(st_.entries)
    ]
    return UnnormalizedState(tuple(entries), st_.norm_sq)


def tamper(kind, bases, words):
    """Apply one tampering to the payload in place; the bases (from 0) it
    leaves without a structural certificate."""
    (x0, z0), (x1, z1) = words[1][:2]
    if kind == "swapped-words":
        words[1], words[2] = words[2], words[1]
        return [1, 2]
    if kind == "anticommuting-word":
        words[1][0] = anticommuting(words[1][1])
        return [1]
    if kind == "dependent-word":  # the product of the other words
        others = words[1][:-1]
        words[1][-1] = tuple(reduce(xor, masks) for masks in zip(*others))
        return [1]
    if kind == "too-few-words":
        words[1].pop()
        return [1]
    if kind == "extra-word":  # dependent on the others, so it changes nothing
        words[1].append((x0 ^ x1, z0 ^ z1))
        return []
    if kind == "no-words":
        words[1] = None
        return [1]
    if kind == "state-times-i":  # a global phase: still a valid set
        bases[1][2] = times_i(bases[1][2])
        return []
    if kind == "entry-times-i":
        bases[1][2] = times_i(bases[1][2], entry=0)
        return [1]
    if kind == "bad-norm":
        bases[1][2] = UnnormalizedState(bases[1][2].entries, bases[1][2].norm_sq + 1)
        return [1]
    if kind == "repeated-basis":  # certified, but its pair with basis 3 is not skipped
        bases[1], words[1] = list(bases[2]), list(words[2])
        return []
    if kind == "swapped-states":  # the states keep their signatures
        bases[1][0], bases[1][1] = bases[1][1], bases[1][0]
        return []
    if kind == "repeated-state":  # two states share a signature
        bases[1][1] = bases[1][0]
        return [1]
    if kind == "cut-state":
        bases[1][2] = UnnormalizedState(bases[1][2].entries[:-1], bases[1][2].norm_sq)
        return [1]
    assert kind == "valid"
    return []


TAMPERINGS = [
    "valid", "swapped-words", "anticommuting-word", "dependent-word", "too-few-words",
    "extra-word", "no-words", "state-times-i", "entry-times-i", "bad-norm",
    "repeated-basis", "swapped-states", "repeated-state", "cut-state",
]


@pytest.mark.parametrize("kind", TAMPERINGS)
@pytest.mark.parametrize("d", [4, 8, 16])
def test_certificate_with_words_matches_dense_oracle(type_i_sets, d, kind):
    mubs = type_i_sets[d]
    bases, maps = payload(mubs)
    words = true_words(mubs)
    uncertified = tamper(kind, bases, words)
    packs = [[pack_state(st_) for st_ in b] for b in bases]
    route = [mub._stabilizer(w or (), b, p, d) for w, b, p in zip(words, bases, packs)]
    assert [i for i, r in enumerate(route) if r is None] == uncertified
    checks, failures = assert_same_certificate(bases, d, maps, None, words)
    valid = kind in ("valid", "swapped-words", "anticommuting-word", "dependent-word",
                     "too-few-words", "extra-word", "no-words", "state-times-i",
                     "swapped-states")
    assert (failures == []) == valid
    if kind == "repeated-basis":
        assert failures[0] == "bases 2,3 biased at states (0,0)"


def count_pair_checks(monkeypatch):
    """A list that gets one entry per packed_inner call."""
    calls = []
    real = mub.packed_inner

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(mub, "packed_inner", counting)
    return calls


@pytest.mark.parametrize("n", [3, 4, 5])
def test_build_mub_set_takes_the_structural_route(n, monkeypatch):
    """Every basis of a valid type I set is certified by its generator
    words and every pair skipped, so no inner product is taken: a silent
    fall-back to the pair checks fails here."""
    f = Field(n)
    for v1, v2 in [
        (Point(f.one, f.zero), Point(f.zero, f.one)),
        (Point(f.element(3), f.element(1)), Point(f.element(2), f.element(5))),
    ]:
        calls = count_pair_checks(monkeypatch)
        mubs = build_mub_set(type_I_set(v1, v2))
        assert calls == [] and len(mubs.bases) == f.order + 1


@pytest.mark.parametrize("n", [3, 4, 5])
def test_build_mub_set_checks_each_signature_once(n, monkeypatch):
    """The certificate is the one eigenvector check of a build: one
    signature per state, d (d + 1) in all."""
    calls = []
    real = mub._signature

    def counting(ops, st_, n_):
        calls.append(1)
        return real(ops, st_, n_)

    monkeypatch.setattr(mub, "_signature", counting)
    f = Field(n)
    build_mub_set(type_I_set(Point(f.one, f.zero), Point(f.zero, f.one)))
    assert len(calls) == f.order * (f.order + 1) == {3: 72, 4: 272, 5: 1056}[n]


def oracle_signature(ops, entries):
    """Bit j set where translation j maps the entries to minus its
    principal eigenvalue times themselves; None if it maps them to no
    unit multiple of themselves."""
    signature = 0
    for j, (x, z) in enumerate(ops):
        moved = translate(x, z, entries)
        phases = [u for u in UNITS if moved == tuple(u * e for e in entries)]
        if not phases:
            return None
        principal = I_UNIT if (x & z).bit_count() & 1 else ONE
        signature |= (phases[0] != principal) << j
    return signature


@pytest.mark.parametrize("n", [2, 3])
def test_signatures_and_division_on_planes_match_entries(n, type_i_sets):
    """The eigenvector check and the division by the first entry on packed
    planes against the same on Gaussian integers, over the states of a
    type I set and seeded states of units and zeros, for seeded word
    pairs and each basis's own words."""
    d = 1 << n
    rng = random.Random(d)
    mubs = type_i_sets[d]
    states = [st_.entries for b in mubs.bases for st_ in b.states]
    states += [tuple(rng.choice(INSIDE) for _ in range(d)) for _ in range(60)]
    states = [v for v in states if any(not e.is_zero for e in v)]
    ops_sets = true_words(mubs) + [
        [(rng.randrange(d), rng.randrange(d)) for _ in range(n)] for _ in range(20)
    ]
    seen = set()
    for v in states:
        packed = pack_state(UnnormalizedState(v, 0))
        rotated = mub._divide_by_first(packed)
        assert rotated == pack_state(UnnormalizedState(canonical_rotation(v), 0))
        for ops in ops_sets:
            signature = mub._signature(ops, packed, n)
            assert signature == oracle_signature(ops, v)
            seen.add(signature is None)
    assert seen == {True, False}


# -- the trusted route: build_mub_set's planes ------------------------------------


def trusted_payload(cset):
    """What build_mub_set certifies: per basis its states, the planes
    _eigenbasis unpacked them from, its class map and its generator words."""
    basis_e = default_selfdual_basis(cset.field)
    built = [mub._eigenbasis(ss, basis_e, True) for ss in cset.supersquares]
    states = [list(basis.states) for basis, _, _ in built]
    maps = [basis.class_of_state for basis, _, _ in built]
    return states, [list(p) for _, p, _ in built], maps, [list(w) for _, _, w in built]


def assert_trusted_route_agrees(cset, dense=True):
    """The certificate of a built set on its trusted planes equals the one
    that re-packs its states (certify_bases) and, where asked, the dense
    oracle; the planes are the packed states."""
    states, planes, maps, words = trusted_payload(cset)
    assert planes == [[pack_state(st_) for st_ in b] for b in states]
    d = cset.d
    trusted = mub._certify(states, planes, d, maps, None, words)
    assert trusted == certify_bases(states, d, maps, words=words)
    if dense:
        assert trusted == certify_bases_dense(states, d, maps)
    assert all(trusted[0].values()) and trusted[1] == []


@pytest.mark.parametrize("n", [4, 5])
def test_trusted_planes_on_type_i_sets(n):
    """d = 16 and 32; the dense oracle, d^2 (d + 1) d / 2 entry products,
    runs at d = 16 only."""
    f = Field(n)
    for v1, v2 in [
        (Point(f.one, f.zero), Point(f.zero, f.one)),
        (Point(f.element(3), f.element(1)), Point(f.element(2), f.element(5))),
    ]:
        assert_trusted_route_agrees(type_I_set(v1, v2), dense=n == 4)


def unpacked(plane, d, norm_sq):
    """The state of d entries that the packed planes hold."""
    s, lo, hi = plane
    entries = tuple(
        UNITS[(lo >> k & 1) + 2 * (hi >> k & 1)] if s >> k & 1 else ZERO for k in range(d)
    )
    return UnnormalizedState(entries, norm_sq)


@pytest.mark.parametrize("plane", ["support", "lo", "hi"])
@pytest.mark.parametrize("d", [8, 16])
def test_trusted_planes_with_one_flipped_bit(type_i_sets, d8_type_ii_set, d, plane):
    """One bit of one state's planes flipped, and the state unpacked from
    the flipped planes with its norm kept: the trusted route fails it as
    the re-packing route and the dense oracle do.  A support bit turned
    off drops that entry's phase bits, which keeps the planes canonical;
    a phase bit is flipped only in a state of two or more nonzero entries,
    where it is no global phase."""
    cset = d8_type_ii_set if d == 8 else type_i_sets[16].source_set
    states, planes, maps, words = trusted_payload(cset)
    rng = random.Random(d)
    spread = [(b, i) for b in range(d + 1) for i in range(d) if planes[b][i][0].bit_count() > 1]
    for b, i in rng.sample(spread, 4):
        s, lo, hi = planes[b][i]
        bit = 1 << rng.choice([k for k in range(d) if s >> k & 1])
        if plane == "support":
            s ^= 1 << rng.randrange(d)
            flipped = (s, lo & s, hi & s)
        else:
            flipped = (s, lo ^ bit, hi) if plane == "lo" else (s, lo, hi ^ bit)
        bad_states = [list(col) for col in states]
        bad_planes = [list(col) for col in planes]
        bad_planes[b][i] = flipped
        bad_states[b][i] = unpacked(flipped, d, states[b][i].norm_sq)
        trusted = mub._certify(bad_states, bad_planes, d, maps, None, words)
        assert trusted == certify_bases(bad_states, d, maps, words=words)
        assert trusted == certify_bases_dense(bad_states, d, maps)
        assert trusted[1], (b, i, flipped)
