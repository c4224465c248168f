"""Supersquares, striations, orthogonality, classification, and search."""

import itertools
import random
import time
import types

import pytest

from mubkit import (
    Field,
    Point,
    Square,
    SquareKind,
    Subgroup,
    are_orthogonal,
    classify,
    enumerate_extraordinary_subgroups,
    is_extraordinary,
    is_physical_striation,
    is_supersquare,
    perturb_supersquare,
    render_ascii,
    search_complete_sets,
    supersquare_from_subgroup,
    type_I_set,
    type_II_set_d4,
    type_II_set_d8,
    type_III_set_d8,
    type_IV_set_d8,
    verify_complete_set,
    verify_square,
    verify_squares,
)
from mubkit import search, squares
from mubkit.phasespace import _span, iter_lagrangian_bases, point_to_mask
from mubkit.search import _cover_tables, _search
from mubkit.squares import CompleteSet, Supersquare

import oracles
import refdata
from oracles import all_points, line
from conftest import pair_with_det_in_k


def diagonal_subgroup(f4):
    return Subgroup.span(
        [refdata.parse_point(f4, ("1", "1")), refdata.parse_point(f4, ("m", "m"))]
    )


def test_diagonal_supersquare_matches_reference_exactly(f4):
    ss = supersquare_from_subgroup(diagonal_subgroup(f4))
    expected = refdata.classes_from_tokens(f4, refdata.REF_D4_DIAGONAL_CLASSES)
    assert list(ss.square.classes) == expected


def test_axis_subgroup_cosets_are_parallel_lines(f4):
    vertical = line(refdata.parse_point(f4, ("0", "1")))
    ss = supersquare_from_subgroup(vertical)
    for cls in ss.square.classes:
        assert len({p.x for p in cls}) == 1


def test_type_ii_d4_reproduces_reference(f4, d4_type_ii_set):
    grids = [refdata.square_from_grid(f4, g) for g in refdata.REF_D4_TYPE_II_GRIDS]
    assert len(d4_type_ii_set.squares) == 5
    for built, ref in zip(d4_type_ii_set.squares, grids):
        assert built.classes[0] == ref.classes[0]
        assert built.same_partition(ref)
    kinds = [classify(sq).value for sq in d4_type_ii_set.squares]
    assert kinds == refdata.REF_D4_TYPE_II_KINDS


def test_type_ii_d8_reproduces_reference(f8, d8_type_ii_set):
    grids = [refdata.square_from_grid(f8, g) for g in refdata.REF_D8_TYPE_II_GRIDS]
    assert len(d8_type_ii_set.squares) == 9
    for built, ref in zip(d8_type_ii_set.squares, grids):
        assert built.classes[0] == ref.classes[0]
        assert built.same_partition(ref)
    kinds = [classify(sq).value for sq in d8_type_ii_set.squares]
    assert kinds == refdata.REF_D8_TYPE_II_KINDS


def test_square_validation(f4):
    ss = supersquare_from_subgroup(diagonal_subgroup(f4))
    classes = [set(c) for c in ss.square.classes]
    with pytest.raises(ValueError):
        Square(f4, classes[:3])
    moved = [set(c) for c in classes]
    p = next(iter(moved[0]))
    moved[0].discard(p)
    with pytest.raises(ValueError):
        Square(f4, moved)


def test_square_counts_a_repeated_point(f4):
    ss = supersquare_from_subgroup(diagonal_subgroup(f4))
    classes = [sorted(c, key=lambda p: p.sort_key) for c in ss.square.classes]
    five = [classes[0] + [classes[0][1]]] + classes[1:]
    with pytest.raises(ValueError, match="class 1 has 5 points, expected 4"):
        Square(f4, five)
    four = [classes[0][:3] + [classes[0][1]]] + classes[1:]
    with pytest.raises(ValueError):
        Square(f4, four)


def test_is_supersquare(f4, d4_type_ii_set):
    ss = supersquare_from_subgroup(diagonal_subgroup(f4))
    assert is_supersquare(ss.square)
    for built in d4_type_ii_set.supersquares:
        assert is_supersquare(built.square)
    perturbed = perturb_supersquare(ss, seed=3)
    assert not is_supersquare(perturbed)


def test_is_physical_striation(f4, d4_type_ii_set):
    for built in d4_type_ii_set.supersquares:
        assert is_physical_striation(built.square)
    perturbed = perturb_supersquare(d4_type_ii_set.supersquares[0], seed=5)
    assert not is_physical_striation(perturbed)

    # a partition whose origin class is not a subgroup fails the
    # precondition branch outright
    broken = swap_out_of_origin_class(f4)
    assert not is_physical_striation(broken)
    assert not is_supersquare(broken)


def swap_out_of_origin_class(f4):
    """The diagonal supersquare with one point of its origin class swapped
    with a point of class 2: the origin class is no longer closed."""
    ss = supersquare_from_subgroup(diagonal_subgroup(f4))
    classes = [set(c) for c in ss.square.classes]
    p = refdata.parse_point(f4, ("1", "1"))
    q = refdata.parse_point(f4, ("1", "0"))
    classes[0].remove(p)
    classes[0].add(q)
    classes[1].remove(q)
    classes[1].add(p)
    return Square(f4, classes)


@pytest.mark.parametrize("set_type", ["I", "II", "III", "IV"])
def test_square_reports_match_oracle_d8(f8, set_type):
    v1 = refdata.parse_point(f8, refdata.REF_D8_TYPE_II_V1)
    v2 = refdata.parse_point(f8, refdata.REF_D8_TYPE_II_V2)
    ctor = {"I": type_I_set, "II": type_II_set_d8, "III": type_III_set_d8, "IV": type_IV_set_d8}
    for sq in ctor[set_type](v1, v2).squares:
        report = verify_square(sq)
        assert report == oracles.verify_square(sq)
        assert not report.failures


def test_square_reports_match_oracle_d16_type_i():
    f16 = Field(4)
    cset = type_I_set(Point(f16.one, f16.zero), Point(f16.zero, f16.one))
    for sq in cset.squares:
        assert verify_square(sq) == oracles.verify_square(sq)


def test_square_reports_match_oracle_perturbed(f8, d8_type_ii_set):
    reports = []
    for seed in range(20):
        ss = d8_type_ii_set.supersquares[seed % 9]
        sq = perturb_supersquare(ss, seed)
        reports.append(verify_square(sq))
        assert reports[-1] == oracles.verify_square(sq)
    assert all(
        r.failures == ("square is not a supersquare", "square is not a physical striation")
        for r in reports
    )


def half_striated(ss, half_basis):
    """ss with its classes 2 and 3, the cosets p + A and q + A, rebuilt as
    (p + B) | (q + B) and the rest, B the span of ``half_basis``: the
    translations by B fix every class, the others of A do not."""
    half = {0}
    for g in half_basis:
        half |= {h ^ g for h in half}
    labels = list(ss.square._labels)
    p, q = (point_to_mask(r) for r in ss.coset_reps[:2])
    for m, label in enumerate(ss.square._labels):
        if label in (2, 3):
            labels[m] = 2 if m ^ (p if label == 2 else q) in half else 3
    return Square._from_labels(ss.field, labels)


def test_striation_by_basis_matches_every_element(f4, f8, d4_type_ii_set, d8_type_ii_set):
    """verify_square reads the striation verdict off the supersquare
    verdict, by the theorem that a physical striation is an extraordinary
    supersquare; the oracle translates by each nonzero element of the
    origin class.  Perturbed squares at d = 4 and 8, squares striated by
    half of the origin class only, and valid sets at d = 4, 8 and 16."""
    f16 = Field(4)
    valid = [
        d4_type_ii_set,
        type_I_set(Point(f4.one, f4.mu), Point(f4.mu, f4.one)),
        d8_type_ii_set,
        type_I_set(Point(f16.one, f16.zero), Point(f16.zero, f16.one)),
        type_I_set(Point(f16.one, f16.mu), Point(f16.from_power(3), f16.from_power(7))),
    ]
    squares = [sq for cset in valid for sq in cset.squares]
    for cset in (d4_type_ii_set, d8_type_ii_set):
        sss = cset.supersquares
        squares += [perturb_supersquare(sss[seed % len(sss)], seed) for seed in range(50)]
        # invariant under an index-2 subgroup of the origin class only
        basis = [point_to_mask(p) for p in cset.generators[0].basis()]
        ss = cset.supersquares[0]
        squares += [half_striated(ss, basis[:-1]), half_striated(ss, basis[1:])]
    for sq in squares:
        report = verify_square(sq)
        assert report.physical_striation == (
            report.class1_extraordinary and oracles.striated_by_every_element(sq)
        )
        if sq.d <= 8:
            assert report == oracles.verify_square(sq)
    assert sum(verify_square(sq).physical_striation for sq in squares) == 5 + 5 + 9 + 17 + 17


def test_square_report_matches_oracle_unclosed_origin_class(f4):
    broken = swap_out_of_origin_class(f4)
    report = verify_square(broken)
    assert report == oracles.verify_square(broken)
    assert report.generator is None
    assert report.failures[0].startswith(
        "origin class is not a subgroup: set is not closed under addition: "
    )


def test_orthogonality(d4_type_ii_set, d8_type_ii_set):
    for cset in (d4_type_ii_set, d8_type_ii_set):
        squares = cset.squares
        for i in range(len(squares)):
            assert not are_orthogonal(squares[i], squares[i])
            for j in range(i + 1, len(squares)):
                assert are_orthogonal(squares[i], squares[j])
                assert are_orthogonal(squares[j], squares[i])


def test_orthogonality_as_coset_intersections(d8_type_ii_set):
    squares = d8_type_ii_set.squares
    for i in range(len(squares)):
        for j in range(i + 1, len(squares)):
            for ci in squares[i].classes:
                for cj in squares[j].classes:
                    assert len(ci & cj) == 1


def test_classify_reference_square(f4):
    ss = supersquare_from_subgroup(diagonal_subgroup(f4))
    assert classify(ss.square) is SquareKind.LATIN


@pytest.mark.parametrize("n", [2, 3])
def test_diagonal_lines_are_latin(n):
    f = Field(n)
    for lam in f.elements():
        if lam.is_zero:
            continue
        ss = supersquare_from_subgroup(line(Point(f.one, lam)))
        assert classify(ss.square) is SquareKind.LATIN


def test_theorem_biconditional_d4(f4):
    extra = enumerate_extraordinary_subgroups(f4)
    assert len(extra) == 15
    for sub in extra:
        ss = supersquare_from_subgroup(sub)
        assert is_supersquare(ss.square) and is_physical_striation(ss.square)
        for seed in range(20):
            perturbed = perturb_supersquare(ss, seed)
            assert is_supersquare(perturbed) == is_physical_striation(perturbed)
            assert not is_supersquare(perturbed)


def test_theorem_biconditional_d8(f8, d8_type_ii_set):
    v1 = refdata.parse_point(f8, refdata.REF_D8_TYPE_II_V1)
    v2 = refdata.parse_point(f8, refdata.REF_D8_TYPE_II_V2)
    gens = []
    for cset in (
        type_I_set(v1, v2),
        d8_type_ii_set,
        type_III_set_d8(v1, v2),
        type_IV_set_d8(v1, v2),
    ):
        gens.extend(cset.generators)
    assert len(gens) == 36
    for sub in gens:
        ss = supersquare_from_subgroup(sub)
        assert is_supersquare(ss.square) and is_physical_striation(ss.square)
        for seed in (0, 1, 2):
            perturbed = perturb_supersquare(ss, seed)
            assert is_supersquare(perturbed) == is_physical_striation(perturbed)


def test_type_i_set(f4, f8):
    e1 = Point(f4.one, f4.zero)
    e2 = Point(f4.zero, f4.one)
    cset = type_I_set(e1, e2)
    lines = {line(u) for u in all_points(f4) if not u.is_zero}
    assert set(cset.generators) == lines
    assert verify_complete_set(cset).passed

    w1 = refdata.parse_point(f8, ("1", "m5"))
    w2 = refdata.parse_point(f8, ("m2", "m"))
    cset8 = type_I_set(w1, w2)
    assert len(cset8.generators) == 9
    assert all(is_extraordinary(g) for g in cset8.generators)
    assert verify_complete_set(cset8).passed
    with pytest.raises(ValueError):
        type_I_set(e1, Point(f4.mu, f4.zero))


def test_type_ii_d4_preconditions(f4):
    with pytest.raises(ValueError):
        type_II_set_d4(Point(f4.one, f4.zero), Point(f4.mu, f4.zero))
    with pytest.raises(ValueError):
        # det = mu, not 1
        type_II_set_d4(Point(f4.one, f4.zero), Point(f4.zero, f4.mu))


def test_type_ii_d8_rejects_det_outside_k(f8):
    # det = 1 has trace 1, so it is not an admissible determinant here
    with pytest.raises(ValueError):
        type_II_set_d8(Point(f8.one, f8.zero), Point(f8.zero, f8.one))


def test_d8_constructors_for_several_pairs(f8):
    for v1, v2 in pair_with_det_in_k(f8, 3):
        for ctor in (type_II_set_d8, type_III_set_d8, type_IV_set_d8):
            assert verify_complete_set(ctor(v1, v2)).passed


def test_type_iii_line_structure(f8):
    v1 = refdata.parse_point(f8, refdata.REF_D8_TYPE_II_V1)
    v2 = refdata.parse_point(f8, refdata.REF_D8_TYPE_II_V2)
    from mubkit import det

    k = det(v1, v2)
    cset = type_III_set_d8(v1, v2)
    assert cset.generators[0] == line(v2)
    assert cset.generators[1] == line(v1 + v2)
    assert cset.generators[2] == line(v1.scale(k) + v2)


def test_verify_complete_set_flags_failures(d4_type_ii_set):
    ss = d4_type_ii_set.supersquares
    broken = CompleteSet("II", d4_type_ii_set.v1, d4_type_ii_set.v2, (ss[0],) + ss[:4])
    report = verify_complete_set(broken)
    assert not report.passed
    assert not report.orthogonality
    assert any("not orthogonal" in f for f in report.failures)


def test_set_reports_match_the_all_grid_oracle(f4, f8, d4_type_ii_set, d8_type_ii_set):
    """verify_squares reads the orthogonality of two supersquares off their
    generators and compares label grids for every other pair; the reports
    equal those of are_orthogonal on every pair, over swapped, repeated,
    perturbed, foreign and relabelled squares at d = 4, 8 and 16."""
    f16 = Field(4)
    base = [
        d4_type_ii_set,
        type_I_set(Point(f4.one, f4.zero), Point(f4.zero, f4.one)),
        d8_type_ii_set,
        type_III_set_d8(*pair_with_det_in_k(f8, 1)[0]),
        type_I_set(Point(f16.one, f16.zero), Point(f16.zero, f16.one)),
    ]
    # the quotient by {0, (1, 0), (0, mu), (1, mu)}, which is no striation
    plain = Supersquare(Subgroup.span([Point(f4.one, f4.zero), Point(f4.zero, f4.mu)])).square
    variants, relabelled = [], []
    for seed, cset in enumerate(base):
        sq = list(cset.squares)
        others = [c for c in base if c.field == cset.field and c is not cset]
        variants += [
            sq,
            sq[::-1],
            sq[1:2] + sq[:1] + sq[2:],
            sq[:1] + sq[:-1],
            sq[:3] + sq[2:],
            sq[:-1],
            sq[:2] + [perturb_supersquare(cset.supersquares[2], seed)] + sq[3:],
            [perturb_supersquare(ss, seed + i) for i, ss in enumerate(cset.supersquares[:3])],
            sq[:1] + list(others[0].squares[1:3]) + sq[3:] if others else sq[:1],
        ]
        if cset.field == f4:
            variants.append(sq[:4] + [plain])
        # valid sets under other labels: 2..d reversed on every square, and
        # label 2 on one square's origin class
        classes = sq[1].classes
        moved = Square(cset.field, classes[1:2] + classes[:1] + classes[2:])
        relabelled += [
            [Square(cset.field, s.classes[:1] + s.classes[:0:-1]) for s in sq],
            sq[:1] + [moved] + sq[2:],
        ]
    for squares in variants + relabelled:
        assert verify_squares(squares) == oracles.verify_squares_by_grids(squares)
    assert not verify_squares(variants[3]).orthogonality
    assert all(verify_squares(squares).passed for squares in relabelled)
    mixed = list(base[0].squares[:4]) + [base[2].squares[0]]
    for verify in (verify_squares, oracles.verify_squares_by_grids):
        with pytest.raises(ValueError, match="squares must share one field"):
            verify(mixed)


def not_lagrangian(field, seed):
    """An order-d subgroup that is not extraordinary: the span of seeded
    random points, redrawn until it has d points and a pair with nonzero
    trace form."""
    rng = random.Random(seed)
    while True:
        span = {0}
        for m in rng.sample(range(1, field.order**2), field.n):
            span |= {p ^ m for p in span}
        g = Subgroup.from_masks(field, span)
        if g.order == field.order and not is_extraordinary(g):
            return g


def test_generator_report_matches_verify_squares(f4, f8, d4_type_ii_set, d8_type_ii_set):
    """verify_complete_set reads its report off the generators; it equals
    verify_squares on the built squares, failure lines and their order
    included, over swapped, repeated, non-extraordinary and miscounted
    generators at d = 4, 8 and 16, and both reject mixed fields alike."""
    f16 = Field(4)
    base = [
        d4_type_ii_set,
        type_I_set(Point(f4.one, f4.zero), Point(f4.zero, f4.one)),
        d8_type_ii_set,
        type_IV_set_d8(*pair_with_det_in_k(f8, 1)[0]),
        type_I_set(Point(f16.one, f16.zero), Point(f16.zero, f16.one)),
    ]
    seen_failures = set()
    for seed, cset in enumerate(base):
        ss = list(cset.supersquares)
        odd = Supersquare(not_lagrangian(cset.field, seed))
        for variant in [
            ss,
            ss[::-1],
            ss[1:2] + ss[:1] + ss[2:],
            ss[:1] + ss[:-1],
            ss[:3] + ss[2:],
            ss[:-1],
            ss + ss[:1],
            ss[:2] + [odd] + ss[3:],
            [odd] + ss,
        ]:
            c = CompleteSet(cset.set_type, cset.v1, cset.v2, tuple(variant))
            report = verify_complete_set(c)
            assert report == verify_squares(c.squares)
            seen_failures.update(f.split(" ", 1)[0] for f in report.failures)
    assert seen_failures == {"expected", "square", "squares", "generators"}
    mixed = CompleteSet("I", None, None, base[0].supersquares[:4] + base[2].supersquares[:1])
    for verify in (verify_complete_set, lambda c: verify_squares(c.squares)):
        with pytest.raises(ValueError, match="squares must share one field"):
            verify(mixed)


def test_empty_set_is_rejected():
    """An empty square list has no field to check: both set verifiers and
    build_mub_set say so before they read one."""
    from mubkit import build_mub_set

    empty = CompleteSet("I", None, None, ())
    for call in (lambda: verify_squares([]), lambda: verify_complete_set(empty),
                 lambda: build_mub_set(empty)):
        with pytest.raises(ValueError, match="empty square list"):
            call()


def test_supersquare_is_derived_from_its_generator(f8):
    """A supersquare holds only its generator: replacing the generator
    gives the quotient by the new one, representatives included."""
    cset = type_I_set(Point(f8.one, f8.zero), Point(f8.zero, f8.one))
    ss, g = cset.supersquares[1], cset.generators[2]
    moved = Supersquare(g)
    assert moved == supersquare_from_subgroup(g) != ss
    # the quotient by g in Point arithmetic: class 1 is g, and the cosets
    # are labelled in order of their minimal representatives
    cosets, reps = [frozenset(g.points)], []
    for p in all_points(f8):
        if not any(p in c for c in cosets):
            cosets.append(frozenset(p + h for h in g.points))
            reps.append(p)
    assert list(moved.square.classes) == cosets
    assert moved.coset_reps == tuple(reps)


def test_supersquare_rejects_generator_of_wrong_order(f8):
    half = Subgroup.span([Point(f8.one, f8.zero), Point(f8.mu, f8.zero)])
    for build in (Supersquare, supersquare_from_subgroup):
        with pytest.raises(ValueError, match="generating subgroup must have 8 elements"):
            build(half)


def test_render_ascii_matches_reference_layout(f4, d4_type_ii_set):
    text = render_ascii(d4_type_ii_set.squares[0])
    lines = text.splitlines()
    assert lines[0] == "row=x2 bottom-up, col=x1 left-right"
    assert lines[1].split() == ["4", "1*", "3", "2"]
    assert lines[4].split() == ["1*", "4", "2", "3"]


# -- search -------------------------------------------------------------------


def test_search_d4_census(f4, d4_type_ii_set):
    result = search_complete_sets(f4)
    assert result.exhaustive
    assert result.census() == {"I": 1, "II": 5}
    keys = {frozenset(c.generators) for c in result.sets}
    assert frozenset(d4_type_ii_set.generators) in keys
    lines_set = frozenset(line(u) for u in all_points(f4) if not u.is_zero)
    assert lines_set in keys


def test_search_branch_past_deadline_is_incomplete(f4):
    blocks = [g.masks() for g in enumerate_extraordinary_subgroups(f4)]
    tables = _cover_tables(blocks, 4)
    assert _search(tables, time.monotonic() - 1.0) == ([], False)
    sols, complete = _search(tables, None)
    assert complete
    assert sorted(sols) == sorted(oracles.fewest_candidates_covers(blocks, 4))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cover_tables_match_the_tables_built_by_or(n):
    """The byte-row through tables, and the bits and compat tables beside
    them, equal the bitsets OR-ed together bit by bit, at d = 4, 8 and 16
    (6, 135 and 2,295 blocks; the byte rows grow past one byte at d = 8)."""
    d = 1 << n
    blocks = [_span(b) for b in iter_lagrangian_bases(Field(n))]
    bits, through, compat = _cover_tables(iter(blocks), d)
    rows = [compat[i] for i in range(len(bits))]
    assert (bits, through, rows) == oracles.cover_tables_by_or(blocks, d)


def test_compat_rows_are_made_on_first_read():
    """compat starts empty and holds only the rows the cover read, each
    the row of the table built pair by pair; the d = 8 search still finds
    its 960 covers."""
    blocks = [_span(b) for b in iter_lagrangian_bases(Field(3))]
    tables = _cover_tables(blocks, 8)
    compat = tables[2]
    assert compat == {}
    got, complete = _search(tables, None)
    assert complete and len(got) == 960
    full = oracles.cover_tables_by_or(blocks, 8)[2]
    assert 0 < len(compat) <= 135
    assert all(row == full[i] for i, row in compat.items())


@pytest.mark.parametrize("n, count", [(2, 6), (3, 960)])
def test_bitset_cover_matches_fewest_candidates_oracle(n, count):
    """The search gives the oracle's covers, each once."""
    d = 1 << n
    blocks = [_span(b) for b in iter_lagrangian_bases(Field(n))]
    got, complete = _search(_cover_tables(blocks, d), None)
    assert complete
    assert len(got) == len(set(got)) == count
    assert set(got) == set(oracles.fewest_candidates_covers(blocks, d))


@pytest.mark.parametrize("n, count", [(2, 6), (3, 960)])
def test_search_labels_match_template_oracle(n, count):
    """Type, v1 and v2 of every found set, from the recipe-by-recipe table."""
    field = Field(n)
    oracle = oracles.complete_set_templates_by_recipes(field)
    result = search_complete_sets(field)
    assert len(result.sets) == count
    for c in result.sets:
        key = frozenset(tuple(sorted(g.masks())) for g in c.generators)
        assert (c.set_type, c.v1, c.v2) == oracle.get(key, ("Unclassified", None, None))


def test_search_rejects_bad_settings(f4):
    with pytest.raises(ValueError):
        search_complete_sets(f4, time_budget=-1.0)


def test_search_budget_flags_partial(f8):
    result = search_complete_sets(f8, time_budget=1e-9)
    assert not result.exhaustive


def test_budget_cuts_the_d32_walk(monkeypatch):
    """The walk yields once per first row, so a 0.05 s budget stops a d = 32
    search partway through its 75,735 Lagrangians: the search draws one
    basis past those it keeps and leaves the walk undrained."""
    drawn = []

    def walk(field):
        for basis in iter_lagrangian_bases(field):
            drawn.append(basis)
            yield basis
        drawn.append(None)

    monkeypatch.setattr(search, "iter_lagrangian_bases", walk)
    result = search_complete_sets(Field(5), time_budget=0.05)
    assert not result.exhaustive
    assert None not in drawn
    assert list(result.bases) == drawn[:-1]
    assert len(result.bases) < 75_735


def test_partial_search_is_in_canonical_order(f8, monkeypatch):
    """A search cut after 2,000 cover nodes gives some of the census's sets,
    ordered as the exhaustive census orders them: by their generators'
    sort_keys, each set's generators in sort_key order."""
    census = set(search_complete_sets(f8).sets)
    # one clock read for the deadline, one per walked Lagrangian, one per node
    reads = itertools.count()
    fake = types.SimpleNamespace(monotonic=lambda: 0.0 if next(reads) < 1 + 135 + 2000 else 2.0)
    monkeypatch.setattr(search, "time", fake)
    result = search_complete_sets(f8, time_budget=1.0)
    assert not result.exhaustive
    assert 0 < len(result.sets) < len(census)
    keys = [tuple(g.sort_key for g in c.generators) for c in result.sets]
    assert keys == sorted(set(keys))
    for key in keys:
        assert list(key) == sorted(key)
    assert set(result.sets) <= census


def test_search_d8_census(f8, d8_type_ii_set):
    result = search_complete_sets(f8)
    assert result.exhaustive
    census = result.census()
    # frozen regression values from the exhaustive run; the four closed
    # constructions do not exhaust the complete sets at order 8
    assert census == {"I": 1, "II": 504, "III": 84, "IV": 63, "Unclassified": 308}
    keys = {frozenset(c.generators) for c in result.sets}
    v1 = refdata.parse_point(f8, refdata.REF_D8_TYPE_II_V1)
    v2 = refdata.parse_point(f8, refdata.REF_D8_TYPE_II_V2)
    assert frozenset(d8_type_ii_set.generators) in keys
    assert frozenset(type_I_set(v1, v2).generators) in keys
    assert frozenset(type_III_set_d8(v1, v2).generators) in keys
    assert frozenset(type_IV_set_d8(v1, v2).generators) in keys
