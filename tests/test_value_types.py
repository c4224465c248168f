"""The value types: equality and hashing on their fields, for instances of
one class only, the validation messages of their constructors, and the
TypeError naming the class for a wrong count of values."""

import itertools

import pytest

from mubkit import (
    CompleteSet,
    CompleteSetReport,
    EntanglementStructure,
    FieldBasis,
    FieldElement,
    GaussInt,
    MubBasis,
    MubSet,
    PauliWord,
    Point,
    SearchResult,
    Separability,
    Square,
    SquareReport,
    Subgroup,
    Supersquare,
    UnnormalizedState,
    build_mub_set,
    type_I_set,
    verify_complete_set,
    verify_square,
)


@pytest.fixture(scope="module")
def cases(f4, f8, d4_type_ii_set):
    """Per class: a function giving fresh constructor arguments, and for
    each argument a value that differs from it."""
    e = f4.element
    type_i = type_I_set(Point(f4.one, f4.zero), Point(f4.zero, f4.one))
    mubs = build_mub_set(d4_type_ii_set)
    b0, b1 = mubs.bases[:2]
    ss = d4_type_ii_set.supersquares
    return {
        FieldElement: (lambda: [f4, 1], [f8, 2]),
        FieldBasis: (lambda: [(e(1), e(2))], [(e(1), e(3))]),
        Point: (lambda: [e(1), e(2)], [e(3), e(3)]),
        Supersquare: (lambda: [ss[0].generator], [ss[1].generator]),
        CompleteSet: (
            lambda: ["II", d4_type_ii_set.v1, d4_type_ii_set.v2, ss],
            ["I", None, None, ss[::-1]],
        ),
        SquareReport: (
            lambda: [ss[0].generator, True, True, True, True, ()],
            [None, False, False, False, False, ("a failure",)],
        ),
        CompleteSetReport: (
            lambda: [True, True, True, True, True, ()],
            [False, False, False, False, False, ("a failure",)],
        ),
        SearchResult: (
            lambda: [f4, ((4, 8), (1, 12)), ((0, 1),), (("I", None, None),), True],
            [f8, ((4, 8),), ((1, 0),), (("II", None, None),), False],
        ),
        PauliWord: (lambda: [("X", "Z")], [("Z", "X")]),
        UnnormalizedState: (
            lambda: [(GaussInt(1, 0), GaussInt(0, 0)), 1],
            [(GaussInt(0, 0), GaussInt(1, 0)), 2],
        ),
        MubBasis: (
            lambda: [b0.source, b0.expansion_basis, b0.states, b0.operator_words, (0, 1, 2, 3)],
            [b1.source, FieldBasis((e(1), e(2))), b0.states[::-1], b1.operator_words, None],
        ),
        MubSet: (lambda: [mubs.bases, d4_type_ii_set], [mubs.bases[::-1], type_i]),
        EntanglementStructure: (lambda: [0, 9, 0], [1, 8, 1]),
    }


def test_all_value_types_are_covered(cases):
    assert len(cases) == 13


def test_equal_fields_give_equal_values_and_hashes(cases):
    for cls, (args, _) in cases.items():
        a, b = cls(*args()), cls(*args())
        assert a == b and not a != b, cls
        assert hash(a) == hash(b), cls
        # one value too many, or one too few where no default fills it in
        fields = args()
        wrong = [fields + [None]]
        if cls is not MubBasis:  # its class_of_state defaults to None
            wrong.append(fields[:-1])
        for values in wrong:
            with pytest.raises(TypeError, match=rf"^{cls.__name__}\b"):
                cls(*values)


def test_one_changed_field_gives_a_different_value(cases):
    for cls, (args, others) in cases.items():
        base = cls(*args())
        for i, other in enumerate(others):
            changed = args()
            changed[i] = other
            assert cls(*changed) != base, (cls, i)
            assert not cls(*changed) == base, (cls, i)


def test_instances_of_different_classes_are_never_equal(cases):
    values = [cls(*args()) for cls, (args, _) in cases.items()]
    for a, b in itertools.combinations(values, 2):
        assert a != b and b != a
    # nor is a value its own fields
    for (cls, (args, _)), value in zip(cases.items(), values):
        assert value != tuple(args()), cls


def test_class_of_state_defaults_to_none(cases):
    source, basis_e, states, words, _ = cases[MubBasis][0]()
    assert MubBasis(source, basis_e, states, words).class_of_state is None


def message(build) -> str:
    with pytest.raises(ValueError) as info:
        build()
    return str(info.value)


def test_validation_messages(f4, f8):
    e = f4.element
    assert message(lambda: Point(f4.one, f8.one)) == "point coordinates must share one field"
    assert message(lambda: FieldBasis(())) == "basis cannot be empty"
    assert message(lambda: FieldBasis((f4.one, f8.mu))) == "basis elements must share one field"
    assert message(lambda: FieldBasis((f4.one,))) == "basis needs 2 elements, got 1"
    assert message(lambda: FieldBasis((e(3), e(3)))) == (
        "basis elements are linearly dependent over F_2"
    )
    line = Subgroup.span([Point(f4.one, f4.zero)])
    assert message(lambda: Supersquare(line)) == "generating subgroup must have 4 elements"
    assert message(lambda: PauliWord(("XY", "Z"))) == "invalid letters ('XY', 'Z')"


def test_field_basis_keeps_its_elements_as_a_tuple(f4):
    basis = FieldBasis(iter([f4.element(1), f4.element(2)]))
    assert basis.elements == (f4.element(1), f4.element(2))


@pytest.mark.parametrize("letters", [["X", "Z"], "XZ", iter("XZ")], ids=["list", "str", "iter"])
def test_pauli_word_keeps_its_letters_as_a_tuple(letters):
    word, want = PauliWord(letters), PauliWord(("X", "Z"))
    assert word.letters == ("X", "Z")
    assert word == want
    assert hash(word) == hash(want)
    assert str(word) == str(want) == "XxZ"


def test_entanglement_structure_outputs():
    kinds = [Separability.BISEPARABLE] * 8 + [Separability.NONSEPARABLE]
    es = EntanglementStructure.count(kinds)
    assert es == EntanglementStructure(0, 8, 1)
    assert es.astuple() == (0, 8, 1)
    assert str(es) == "(0,8,1)"


def test_reports_compare_by_their_checks(d4_type_ii_set):
    report = verify_complete_set(d4_type_ii_set)
    assert report == CompleteSetReport(True, True, True, True, True, ())
    square = d4_type_ii_set.squares[0]
    assert verify_square(square) == SquareReport(
        d4_type_ii_set.generators[0], True, True, True, True, ()
    )


def test_supersquare_caches_on_the_instance(d4_type_ii_set):
    ss = Supersquare(d4_type_ii_set.generators[0])
    assert ss.square is ss.square
    assert ss.coset_reps is ss.coset_reps
    assert set(vars(ss)) == {"square", "coset_reps", "_reps"}


def test_field_element_rejects_a_mask_outside_the_field(f4):
    for mask in (-1, 4, 7, 1.0, True, "1"):
        assert message(lambda: FieldElement(f4, mask)) == (
            f"mask {mask} out of range for GF(2^2)"
        )
    with pytest.raises(ValueError) as info:
        f4.element(7)
    assert message(lambda: FieldElement(f4, 7)) == str(info.value)
    assert FieldElement(f4, 3) == f4.element(3)


def test_the_value_base_covers_the_value_types(cases):
    from mubkit.gf2n import Value

    assert set(Value.__subclasses__()) == set(cases) | {Square, Subgroup}


class _Probe:
    """Records the attributes that a key reads."""

    def __init__(self):
        self.read = []

    def __getattr__(self, name):
        self.read.append(name)
        return name


def test_each_key_reads_every_slot_but_derived_ones():
    from mubkit.gf2n import Value

    derived = {
        Subgroup: {"_set"},
        Supersquare: {"__dict__"},
        SearchResult: {"__dict__"},  # its blocks and sets, cached
    }
    for cls in Value.__subclasses__():
        probe = _Probe()
        cls._key(probe)
        want = [s for s in cls.__slots__ if s not in derived.get(cls, ())]
        assert probe.read == want, cls


def test_square_and_subgroup_compare_by_field_and_data(f4, f8, d4_type_ii_set):
    sq = d4_type_ii_set.squares[0]
    g = d4_type_ii_set.generators[0]
    same_sq, same_g = Square(f4, sq.classes), Subgroup.from_masks(f4, g.masks())
    assert same_sq == sq and hash(same_sq) == hash(sq)
    assert same_g == g and hash(same_g) == hash(g)
    # other labels, other masks, another field
    assert d4_type_ii_set.squares[1] != sq
    assert d4_type_ii_set.generators[1] != g
    assert Square._from_labels(f8, sq._labels) != sq
    assert Subgroup.from_masks(f8, g.masks()) != g
    # neither is its own key
    assert sq != (sq.field, sq._labels) and g != (g.field, g.masks())
