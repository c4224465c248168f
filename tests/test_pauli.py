"""Gaussian-integer matrices, translation operators, and the commutation
criterion."""

import random
from itertools import permutations

import pytest

from mubkit import (
    FieldBasis,
    GaussInt,
    UnnormalizedState,
    default_selfdual_basis,
)
from mubkit.mub import pack_state
from mubkit.pauli import I_UNIT, ONE, UNITS, ZERO, PauliWord, translate_packed, translation_table
from mubkit.phasespace import point_to_mask

import refdata
from oracles import (
    GaussMatrix,
    all_points,
    commutes,
    gauss_divexact,
    gauss_gcd,
    pauli_matrix,
    square_sign,
    tensor,
    trace_condition,
    translate,
    translation_operator,
    unit_multiple,
)


def ops_for(field, points=None):
    basis = default_selfdual_basis(field)
    pts = points if points is not None else all_points(field)
    return [translation_operator(p, basis) for p in pts]


# -- Gaussian integers ---------------------------------------------------------


def test_gauss_int_arithmetic():
    a = GaussInt(2, 3)
    b = GaussInt(1, -1)
    assert a + b == GaussInt(3, 2)
    assert a - b == GaussInt(1, 4)
    assert a * b == GaussInt(5, 1)
    assert (-a) == GaussInt(-2, -3)
    assert a.conj() == GaussInt(2, -3)
    assert a.norm_sq() == 13
    assert str(GaussInt(0, -1)) == "-i"
    assert str(GaussInt(1, 1)) == "1+i"


def test_gauss_gcd_and_divexact():
    a = GaussInt(4, 2)
    b = GaussInt(2, 0)
    g = gauss_gcd(a, b)
    assert g.norm_sq() == 4  # 2 up to a unit
    assert gauss_divexact(a, g) * g == a
    with pytest.raises(ValueError):
        gauss_divexact(GaussInt(1, 0), GaussInt(2, 0))


# -- Pauli matrices ------------------------------------------------------------


def test_pauli_matrices():
    x = pauli_matrix("X")
    z = pauli_matrix("Z")
    y = pauli_matrix("Y")
    assert x.rows == ((ZERO, ONE), (ONE, ZERO))
    assert z.rows == ((ONE, ZERO), (ZERO, -ONE))
    assert (x @ z) == y.scale(-I_UNIT)
    with pytest.raises(ValueError):
        pauli_matrix("Q")


def test_tensor():
    ident = pauli_matrix("I")
    assert tensor(ident, ident) == GaussMatrix.identity(4)
    zz = tensor(pauli_matrix("Z"), pauli_matrix("Z"))
    diag = [zz.rows[i][i] for i in range(4)]
    assert diag == [ONE, -ONE, -ONE, ONE]
    x_ii = tensor(pauli_matrix("X"), GaussMatrix.identity(4))
    for i in range(4):
        assert x_ii.rows[i][i + 4] == ONE
        assert x_ii.rows[i + 4][i] == ONE


# -- translation operators ------------------------------------------------------


def test_translation_words_d4(f4):
    basis = default_selfdual_basis(f4)
    for tokens, word in refdata.REF_D4_TRANSLATION_WORDS:
        op = translation_operator(refdata.parse_point(f4, tokens), basis)
        assert str(op.word) == word


def test_translation_words_d8(f8):
    basis = default_selfdual_basis(f8)
    for tokens, word in refdata.REF_D8_TRANSLATION_WORDS:
        op = translation_operator(refdata.parse_point(f8, tokens), basis)
        assert str(op.word) == word


def test_translation_matrices_match_tensors(f4):
    basis = default_selfdual_basis(f4)
    zz = translation_operator(refdata.parse_point(f4, ("0", "1")), basis)
    assert zz.matrix == tensor(pauli_matrix("Z"), pauli_matrix("Z"))
    yy = translation_operator(refdata.parse_point(f4, ("1", "1")), basis)
    assert str(yy.word) == "YxY"
    assert yy.matrix == tensor(pauli_matrix("Y"), pauli_matrix("Y")).scale(-ONE)


@pytest.mark.parametrize("letters", [("XY", "Z"), ("", "X")])
def test_pauli_word_takes_single_letters_only(letters):
    with pytest.raises(ValueError):
        PauliWord(letters)


def test_non_dual_expansion_bases_rejected(f4):
    basis = default_selfdual_basis(f4)
    not_dual = FieldBasis((f4.one, f4.mu))
    with pytest.raises(ValueError):
        translation_operator(refdata.parse_point(f4, ("1", "1")), basis, not_dual)


def test_operator_word_rows_d4(f4):
    basis = default_selfdual_basis(f4)
    for points, words in refdata.REF_D4_OPERATOR_ROWS:
        built = {
            str(translation_operator(refdata.parse_point(f4, t), basis).word)
            for t in points
        }
        assert built == set(words)


def test_unitarity(f4, f8):
    for field in (f4, f8):
        ident = GaussMatrix.identity(field.order)
        for op in ops_for(field):
            assert op.matrix @ op.matrix.dagger() == ident


def test_square_sign(f4):
    basis = default_selfdual_basis(f4)
    zz = translation_operator(refdata.parse_point(f4, ("0", "1")), basis)
    assert square_sign(zz) == 1
    ym = translation_operator(refdata.parse_point(f4, ("m", "m")), basis)  # YxI
    assert str(ym.word) == "YxI"
    assert square_sign(ym) == -1
    yy = translation_operator(refdata.parse_point(f4, ("1", "1")), basis)
    assert square_sign(yy) == 1
    for field_ops in (ops_for(f4),):
        for op in field_ops:
            sq = op.matrix @ op.matrix
            expected = GaussMatrix.identity(op.matrix.dim).scale(
                ONE if square_sign(op) == 1 else -ONE
            )
            assert sq == expected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_signed_permutations_match_dense_operators(n):
    """X^x Z^z applied to each e_c is column c of the dense Kronecker
    product, for every point, over the default selfdual basis in each of
    its orders (d = 4, 8) or as it is (d = 16); it squares to -I exactly
    when |x & z| is odd."""
    from mubkit import Field

    field = Field(n)
    d = field.order
    default = default_selfdual_basis(field).elements
    orders = permutations(default) if n < 4 else [default]
    units = [tuple(ONE if i == c else ZERO for i in range(d)) for c in range(d)]
    for order in orders:
        basis = FieldBasis(order)
        table = translation_table(basis)
        for p in all_points(field):
            op = translation_operator(p, basis)
            x, z = table[point_to_mask(p)]
            sign = square_sign(op)
            assert (x & z).bit_count() & 1 == (sign < 0)
            for c, e_c in enumerate(units):
                moved = translate(x, z, e_c)
                assert moved == op.matrix.column(c)
                assert translate(x, z, moved) == tuple(GaussInt(sign * e.re, 0) for e in e_c)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_translate_packed_matches_translate(n):
    """The bit-plane translation of a packed state against the entry-by-entry
    one, for every (x, z) on seeded states of units and zeros."""
    d = 1 << n
    rng = random.Random(n)
    states = [tuple(rng.choice((ZERO,) + UNITS) for _ in range(d)) for _ in range(12)]
    states.append(tuple(UNITS[k % 4] for k in range(d)))
    for v in states:
        packed = pack_state(UnnormalizedState(v, 0))
        for x in range(d):
            for z in range(d):
                moved = pack_state(UnnormalizedState(translate(x, z, v), 0))
                assert translate_packed(x, z, packed, n) == moved


def test_commutes_examples(f4, d4_type_ii_set):
    basis = default_selfdual_basis(f4)
    t01 = translation_operator(refdata.parse_point(f4, ("0", "1")), basis)
    t0m = translation_operator(refdata.parse_point(f4, ("0", "m")), basis)
    tm0 = translation_operator(refdata.parse_point(f4, ("m", "0")), basis)
    assert commutes(t01, t0m)
    assert not commutes(tm0, t0m)
    for sub in d4_type_ii_set.generators:
        ops = ops_for(f4, sub.nonzero_points())
        for i in range(len(ops)):
            for j in range(len(ops)):
                assert commutes(ops[i], ops[j])


def test_trace_condition_examples(f4):
    p = refdata.parse_point(f4, ("1", "m2"))
    q = refdata.parse_point(f4, ("m", "1"))
    assert trace_condition(p, p)
    assert trace_condition(p, q)


def test_trace_condition_equals_commutation_d4(f4):
    pts = all_points(f4)
    ops = ops_for(f4)
    for i, p1 in enumerate(pts):
        for j, p2 in enumerate(pts):
            assert trace_condition(p1, p2) == commutes(ops[i], ops[j])


@pytest.mark.parametrize("n", [2, 3])
def test_group_law_up_to_unit_phase(n):
    from mubkit import Field

    field = Field(n)
    pts = all_points(field)
    basis = default_selfdual_basis(field)
    ops = {p.sort_key: translation_operator(p, basis) for p in pts}
    for p1 in pts:
        for p2 in pts:
            prod = ops[p1.sort_key].matrix @ ops[p2.sort_key].matrix
            target = ops[(p1 + p2).sort_key].matrix
            assert unit_multiple(prod, target) is not None
