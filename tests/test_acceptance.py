"""Acceptance suite: one test per criterion, each printing a PASS line.

All arithmetic is exact, so every comparison below is equality; the only
tolerances are the per-criterion runtime ceilings, asserted against a
monotonic clock.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time
from contextlib import contextmanager

import pytest

from mubkit import (
    Point,
    Subgroup,
    all_points,
    build_mub_set,
    classify,
    classify_basis,
    default_selfdual_basis,
    enumerate_extraordinary_subgroups,
    is_physical_striation,
    is_supersquare,
    is_unbiased_pair,
    line,
    perturb_supersquare,
    search_complete_sets,
    structure,
    supersquare_from_subgroup,
    trace_condition,
    trace_zero_subgroup,
    type_I_set,
    type_II_set_d8,
    type_III_set_d8,
    type_IV_set_d8,
    verify_complete_set,
)
from mubkit.mub import UnnormalizedState
from mubkit.pauli import GaussInt

import refdata
from conftest import pair_with_det_in_k
from oracles import commutes, enumerate_subgroups, translation_operator


@contextmanager
def budget(label, seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"{label} took {elapsed:.2f}s (limit {seconds}s)"
    print(f"ACCEPTANCE {label}: PASS ({elapsed:.2f}s < {seconds}s)")


def test_criterion_01_order4_diagonal_supersquare(f4):
    with budget("01 order-4 diagonal supersquare", 1.0):
        a1 = Subgroup.span(
            [refdata.parse_point(f4, ("1", "1")), refdata.parse_point(f4, ("m", "m"))]
        )
        ss = supersquare_from_subgroup(a1)
        expected = refdata.classes_from_tokens(f4, refdata.REF_D4_DIAGONAL_CLASSES)
        assert list(ss.square.classes) == expected


def test_criterion_02_order4_type_ii_reproduction(f4, d4_type_ii_set):
    with budget("02 order-4 type II set", 1.0):
        refs = [refdata.square_from_grid(f4, g) for g in refdata.REF_D4_TYPE_II_GRIDS]
        assert len(d4_type_ii_set.squares) == 5
        for built, ref in zip(d4_type_ii_set.squares, refs):
            assert built.classes[0] == ref.classes[0]
            assert built.same_partition(ref)
        kinds = [classify(sq).value for sq in d4_type_ii_set.squares]
        assert kinds == ["Latin", "ColumnLatin", "Plain", "RowLatin", "Plain"]


def test_criterion_03_order8_type_ii_reproduction(f8, d8_type_ii_set):
    with budget("03 order-8 type II set", 1.0):
        refs = [refdata.square_from_grid(f8, g) for g in refdata.REF_D8_TYPE_II_GRIDS]
        assert len(d8_type_ii_set.squares) == 9
        for built, ref in zip(d8_type_ii_set.squares, refs):
            assert built.classes[0] == ref.classes[0]
            assert built.same_partition(ref)
        kinds = [classify(sq).value for sq in d8_type_ii_set.squares]
        assert kinds == [
            "Latin",
            "Latin",
            "Plain",
            "Latin",
            "Plain",
            "RowLatin",
            "ColumnLatin",
            "Plain",
            "Plain",
        ]


def test_criterion_04_order4_operator_rows(f4, d4_type_ii_set):
    with budget("04 order-4 operator rows", 1.0):
        basis = default_selfdual_basis(f4)
        assert len(refdata.REF_D4_OPERATOR_ROWS) == 5
        for gen, (points, words) in zip(
            d4_type_ii_set.generators, refdata.REF_D4_OPERATOR_ROWS
        ):
            assert {refdata.parse_point(f4, t) for t in points} == set(
                gen.nonzero_points()
            )
            built = sorted(
                str(translation_operator(p, basis).word) for p in gen.nonzero_points()
            )
            assert built == sorted(words)


def test_criterion_05_order4_basis_vectors(d4_type_ii_set):
    with budget("05 order-4 basis vectors", 1.0):
        mubs = build_mub_set(d4_type_ii_set)
        all_states = [st for b in mubs.bases for st in b.states]
        printed = [
            UnnormalizedState.from_raw(tuple(GaussInt(re, im) for re, im in vec))
            for row in refdata.REF_D4_BASIS_VECTORS
            for vec in row
        ]
        assert len(printed) == 20
        for vec in printed:
            assert sum(vec.proportional_to(st) for st in all_states) == 1
        pair_count = 0
        for i in range(5):
            for j in range(i + 1, 5):
                for u in mubs.bases[i].states:
                    for v in mubs.bases[j].states:
                        assert is_unbiased_pair(u, v, 4)
                        pair_count += 1
        assert pair_count == 160


def test_criterion_06_order8_operator_rows(f8, d8_type_ii_set):
    with budget("06 order-8 operator rows", 5.0):
        basis = default_selfdual_basis(f8)
        assert len(refdata.REF_D8_OPERATOR_ROWS) == 9
        for gen, words in zip(d8_type_ii_set.generators, refdata.REF_D8_OPERATOR_ROWS):
            built = sorted(
                str(translation_operator(p, basis).word) for p in gen.nonzero_points()
            )
            assert built == sorted(words)


def test_criterion_07_structure_0_9_0(d8_type_ii_set):
    with budget("07 structure (0,9,0)", 5.0):
        mubs = build_mub_set(d8_type_ii_set)
        kinds = [classify_basis(b).value for b in mubs.bases]
        assert kinds == ["biseparable"] * 9
        assert structure(mubs).astuple() == (0, 9, 0)


def test_criterion_08_trace_zero_set_order8(f8):
    with budget("08 order-8 trace-zero set", 1.0):
        assert trace_zero_subgroup(f8) == {
            f8.zero,
            f8.mu,
            f8.from_power(2),
            f8.from_power(4),
        }


def test_criterion_09_commutation_criterion(f4, f8):
    with budget("09 commutation criterion", 30.0):
        for field, pair_total in ((f4, 256), (f8, 4096)):
            basis = default_selfdual_basis(field)
            pts = all_points(field)
            ops = [translation_operator(p, basis) for p in pts]
            checked = 0
            for i, p1 in enumerate(pts):
                for j, p2 in enumerate(pts):
                    assert commutes(ops[i], ops[j]) == trace_condition(p1, p2)
                    checked += 1
            assert checked == pair_total


def test_criterion_10_striation_theorem_suite(f4):
    with budget("10 striation theorem suite", 10.0):
        subgroups = enumerate_subgroups(f4)
        assert len(subgroups) == 35
        extraordinary = enumerate_extraordinary_subgroups(f4)
        for sub in extraordinary:
            ss = supersquare_from_subgroup(sub)
            assert is_supersquare(ss.square) == is_physical_striation(ss.square) == True
            for seed in range(20):
                perturbed = perturb_supersquare(ss, seed)
                assert is_supersquare(perturbed) == is_physical_striation(perturbed)


def test_criterion_11_order4_census(f4):
    with budget("11 order-4 census", 60.0):
        result = search_complete_sets(f4)
        assert result.exhaustive
        census = result.census()
        assert census.get("Unclassified", 0) == 0
        assert set(census) == {"I", "II"}
        assert all(c.set_type in ("I", "II") for c in result.sets)


def test_criterion_12_order8_type_coverage(f8):
    with budget("12 order-8 type coverage", 60.0):
        bases = []
        seen = set()
        for v1 in all_points(f8):
            if v1.is_zero:
                continue
            for v2 in all_points(f8):
                from mubkit import det

                if not v2.is_zero and not det(v1, v2).is_zero:
                    key = frozenset(line(u) for u in (v1, v2))
                    if key not in seen:
                        seen.add(key)
                        bases.append((v1, v2))
                if len(bases) == 3:
                    break
            if len(bases) == 3:
                break
        assert len(bases) == 3
        for v1, v2 in bases:
            assert verify_complete_set(type_I_set(v1, v2)).passed
        pairs = pair_with_det_in_k(f8, 3)
        assert len(pairs) == 3
        for ctor in (type_II_set_d8, type_III_set_d8, type_IV_set_d8):
            for v1, v2 in pairs:
                assert verify_complete_set(ctor(v1, v2)).passed


def test_criterion_13_mub_cardinality_and_exactness(f4, f8, d4_type_ii_set, d8_type_ii_set):
    with budget("13 MUB cardinality and exactness", 60.0):
        built = [
            build_mub_set(d4_type_ii_set),
            build_mub_set(type_I_set(Point(f4.one, f4.zero), Point(f4.zero, f4.one))),
            build_mub_set(d8_type_ii_set),
            build_mub_set(
                type_III_set_d8(
                    refdata.parse_point(f8, refdata.REF_D8_TYPE_II_V1),
                    refdata.parse_point(f8, refdata.REF_D8_TYPE_II_V2),
                )
            ),
            build_mub_set(
                type_IV_set_d8(
                    refdata.parse_point(f8, refdata.REF_D8_TYPE_II_V1),
                    refdata.parse_point(f8, refdata.REF_D8_TYPE_II_V2),
                )
            ),
        ]
        for mubs in built:
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
