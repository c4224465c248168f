import pytest

from mubkit import Field, type_II_set_d4, type_II_set_d8

import refdata


@pytest.fixture(scope="session")
def f4():
    return Field(2)


@pytest.fixture(scope="session")
def f8():
    return Field(3)


@pytest.fixture(scope="session")
def d4_type_ii_set(f4):
    v1 = refdata.parse_point(f4, refdata.REF_D4_TYPE_II_V1)
    v2 = refdata.parse_point(f4, refdata.REF_D4_TYPE_II_V2)
    return type_II_set_d4(v1, v2)


@pytest.fixture(scope="session")
def d8_type_ii_set(f8):
    v1 = refdata.parse_point(f8, refdata.REF_D8_TYPE_II_V1)
    v2 = refdata.parse_point(f8, refdata.REF_D8_TYPE_II_V2)
    return type_II_set_d8(v1, v2)


def pair_with_det_in_k(field, count):
    """The first `count` point pairs (v1, v2), in canonical order, whose
    determinant is a nonzero trace-zero element."""
    from mubkit import det

    from oracles import all_points

    pairs = []
    points = [p for p in all_points(field) if not p.is_zero]
    for v1 in points:
        for v2 in points:
            k = det(v1, v2)
            if not k.is_zero and field.trace(k).is_zero:
                pairs.append((v1, v2))
                if len(pairs) == count:
                    return pairs
    return pairs
