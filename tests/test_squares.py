"""Supersquares, striations, orthogonality, classification, and search."""

import concurrent.futures
import time
from dataclasses import replace

import pytest

from mubkit import (
    Field,
    Point,
    Square,
    SquareKind,
    Subgroup,
    all_points,
    are_orthogonal,
    build_mub_set,
    classify,
    enumerate_extraordinary_subgroups,
    is_extraordinary,
    is_physical_striation,
    is_supersquare,
    line,
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
)
from mubkit import squares as squares_module
from mubkit.squares import CompleteSet, _prepare_cover, _search_branch

import oracles
import refdata
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


def test_verify_complete_set_checks_generators_belong_to_squares(f8):
    cset = type_I_set(Point(f8.one, f8.zero), Point(f8.zero, f8.one))
    ss = list(cset.supersquares)
    ss[1], ss[2] = (
        replace(ss[1], generator=ss[2].generator),
        replace(ss[2], generator=ss[1].generator),
    )
    swapped = CompleteSet("I", cset.v1, cset.v2, tuple(ss))
    report = verify_complete_set(swapped)
    assert not report.passed
    assert not report.extraordinary_supersquares
    assert report.orthogonality and report.trivial_intersections and report.striations
    assert sum("not the quotient by its generator" in f for f in report.failures) == 2
    with pytest.raises(ValueError):
        build_mub_set(swapped)


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


def test_search_d4_deterministic_across_workers(f4):
    from mubkit.serialize import complete_set_to_json, dumps_canonical

    single = search_complete_sets(f4, workers=1)
    multi = search_complete_sets(f4, workers=2)
    as_text = lambda r: dumps_canonical([complete_set_to_json(c) for c in r.sets])
    assert as_text(single) == as_text(multi)
    assert single.exhaustive and multi.exhaustive


def test_search_branch_past_deadline_is_incomplete(f4):
    blocks = [g.masks() for g in enumerate_extraordinary_subgroups(f4)]
    cover = _prepare_cover(blocks, 4)
    first = cover.blocks_by_point[1][0]
    assert _search_branch(cover, time.monotonic() - 1.0, first) == ([], False)
    sols, complete = _search_branch(cover, None, first)
    assert complete and sols


def test_search_pool_is_clamped(f4, monkeypatch):
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(squares_module.os, "cpu_count", lambda: 8)
    search_complete_sets(f4, workers=8)  # d = 4 has three branches
    monkeypatch.setattr(squares_module.os, "cpu_count", lambda: 2)
    search_complete_sets(f4, workers=8)
    search_complete_sets(f4, workers=1)
    assert sizes == [3, 2]


def test_search_rejects_bad_settings(f4):
    with pytest.raises(ValueError):
        search_complete_sets(f4, workers=0)
    with pytest.raises(ValueError):
        search_complete_sets(f4, time_budget=-1.0)


def test_search_budget_flags_partial(f8):
    result = search_complete_sets(f8, time_budget=1e-9)
    assert not result.exhaustive


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
