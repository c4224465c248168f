"""Field arithmetic against an independent polynomial-reduction oracle."""

import itertools
import random

import pytest

import oracles

from mubkit import (
    DEFAULT_POLYS,
    Field,
    FieldBasis,
    default_selfdual_basis,
    dual_basis,
    field_for_dimension,
    is_selfdual,
)
from mubkit.gf2n import _independent


# -- oracle: carry-less polynomial arithmetic, reimplemented from scratch ----


def poly_mulmod(a, b, poly):
    acc = 0
    shift = 0
    while b:
        if b & 1:
            acc ^= a << shift
        b >>= 1
        shift += 1
    deg = poly.bit_length() - 1
    while acc.bit_length() - 1 >= deg and acc:
        acc ^= poly << (acc.bit_length() - 1 - deg)
    return acc


def oracle_pow(base, e, poly):
    out = 1
    for _ in range(e):
        out = poly_mulmod(out, base, poly)
    return out


def oracle_trace(mask, n, poly):
    acc = 0
    sq = mask
    for _ in range(n):
        acc ^= sq
        sq = poly_mulmod(sq, sq, poly)
    return acc


# -- construction ------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_default_fields_construct(n):
    f = Field(n)
    assert f.order == 2**n
    assert f.poly == DEFAULT_POLYS[n]
    # mu generates the full multiplicative group
    powers = {f.from_power(e).mask for e in range(f.order - 1)}
    assert len(powers) == f.order - 1


def test_rejects_bad_degrees():
    with pytest.raises(ValueError):
        Field(1)
    with pytest.raises(ValueError):
        Field(6)


def test_rejects_reducible_modulus():
    # x^2 + 1 = (x + 1)^2
    with pytest.raises(ValueError):
        Field(2, poly=0b101)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_field_accepts_exactly_the_primitive_moduli(n):
    """The primitivity check alone rejects every reducible modulus: a
    reducible ring has fewer than 2^n - 1 units for x's powers to fill."""
    for poly in range(1 << n, 1 << (n + 1)):
        reducible = any(poly_mulmod(poly, 1, q) == 0 for q in range(2, 1 << (n // 2 + 1)))
        primitive = all(oracle_pow(2, e, poly) != 1 for e in range(1, 2**n - 1)) and (
            oracle_pow(2, 2**n - 1, poly) == 1
        )
        assert not (reducible and primitive)
        if primitive:
            assert Field(n, poly).poly == poly
        else:
            with pytest.raises(ValueError, match="is not primitive"):
                Field(n, poly)


def test_rejects_non_primitive_modulus():
    # x^4 + x^3 + x^2 + x + 1 is irreducible but x has order 5
    with pytest.raises(ValueError):
        Field(4, poly=0b11111)


def test_field_equality_and_json():
    f = Field(3)
    assert f == Field(3)
    assert f != Field(2)
    assert field_for_dimension(f.order) == f  # documents carry a field as its d


# -- arithmetic against the oracle -------------------------------------------


def test_add_examples(f4, f8):
    assert f4.mu + f4.from_power(2) == f4.one
    m3 = f8.from_power(3)
    assert f8.zero + m3 == m3
    assert m3 + m3 == f8.zero


def test_add_is_xor_oracle(f4):
    m2 = poly_mulmod(0b10, 0b10, f4.poly)
    assert (f4.mu + f4.element(m2)).mask == 0b10 ^ m2


def test_mul_examples(f4, f8):
    assert f4.mu * f4.mu == f4.element(poly_mulmod(0b10, 0b10, f4.poly))
    assert (f4.mu * f4.mu).mask == 0b11  # mu + 1
    m3, m4 = f8.from_power(3), f8.from_power(4)
    assert m3 * m4 == f8.one
    for f in (f4, f8):
        for a in f.elements():
            assert a * f.one == a


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_mul_matches_oracle_exhaustively(n):
    f = Field(n)
    for a in range(f.order):
        for b in range(f.order):
            assert f.element(a) * f.element(b) == f.element(
                poly_mulmod(a, b, f.poly)
            )


def test_inv_examples(f4, f8):
    assert f8.mu.inv() == f8.from_power(6)
    assert f4.one.inv() == f4.one
    assert f4.mu.inv() == f4.from_power(2)
    with pytest.raises(ValueError):
        f4.zero.inv()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_field_axioms(n):
    f = Field(n)
    els = f.elements()
    for a in els:
        for b in els:
            assert a + b == b + a
            assert a * b == b * a
            if not a.is_zero:
                assert a * a.inv() == f.one
            for c in els:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


def test_trace_examples(f4, f8):
    assert f8.trace(f8.mu) == f8.zero
    assert f4.trace(f4.zero) == f4.zero
    assert f4.trace(f4.mu).mask == oracle_trace(0b10, 2, f4.poly) == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_trace_properties(n):
    f = Field(n)
    els = f.elements()
    for a in els:
        assert f.trace(a).mask == oracle_trace(a.mask, n, f.poly)
        assert f.trace(a * a) == f.trace(a)
        for b in els:
            assert f.trace(a + b) == f.trace(a) + f.trace(b)
    kernel = [a for a in els if f.trace(a).is_zero]
    assert len(kernel) == 2 ** (n - 1)


def test_discrete_log(f4, f8):
    assert f4.discrete_log(f4.one) == 0
    assert f8.discrete_log(f8.element(0b011)) == 3  # mu + 1 = mu^3
    assert f4.discrete_log(f4.element(0b11)) == 2  # mu + 1 = mu^2
    with pytest.raises(ValueError):
        f8.discrete_log(f8.zero)
    for f in (f4, f8):
        for e in range(f.order - 1):
            assert f.from_power(e).mask == oracle_pow(0b10, e, f.poly)
            assert f.discrete_log(f.from_power(e)) == e


def test_mixed_field_operations_raise(f4, f8):
    with pytest.raises(ValueError):
        f4.mu + f8.mu
    with pytest.raises(ValueError):
        f4.mu * f8.one


# -- bases -------------------------------------------------------------------


def test_basis_validation(f4):
    with pytest.raises(ValueError):
        FieldBasis((f4.one, f4.one))
    with pytest.raises(ValueError):
        FieldBasis((f4.one,))


def test_selfdual_examples(f4, f8):
    assert is_selfdual(FieldBasis((f4.mu, f4.from_power(2))))
    assert is_selfdual(
        FieldBasis((f8.from_power(3), f8.from_power(5), f8.from_power(6)))
    )
    assert not is_selfdual(FieldBasis((f4.one, f4.mu)))


def test_dual_basis_selfdual_fixed_points(f4, f8):
    e4 = FieldBasis((f4.mu, f4.from_power(2)))
    assert dual_basis(e4) == e4
    e8 = FieldBasis((f8.from_power(3), f8.from_power(5), f8.from_power(6)))
    assert dual_basis(e8) == e8


def test_dual_basis_of_polynomial_basis_f8(f8):
    basis = FieldBasis((f8.one, f8.mu, f8.from_power(2)))
    dual = dual_basis(basis)
    # brute-force oracle: the unique triple with tr(e_i f_j) = delta_ij
    found = []
    els = f8.elements()
    for fa in els:
        for fb in els:
            for fc in els:
                cand = (fa, fb, fc)
                if all(
                    f8.trace(basis[i] * cand[j]).mask == (1 if i == j else 0)
                    for i in range(3)
                    for j in range(3)
                ):
                    found.append(cand)
    assert found == [tuple(dual.elements)]


def _ordered_bases(field):
    """Every ordered basis of the field over F_2."""
    for masks in itertools.permutations(range(1, field.order), field.n):
        if len(_independent(masks)) == field.n:
            yield FieldBasis(tuple(map(field.element, masks)))


def _sampled_bases(field, count, seed):
    """count ordered bases drawn from a seeded stream of random mask tuples."""
    rng = random.Random(seed)
    while count:
        masks = [rng.randrange(1, field.order) for _ in range(field.n)]
        if len(_independent(masks)) == field.n:
            count -= 1
            yield FieldBasis(tuple(map(field.element, masks)))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_dual_basis_by_search_matches_the_inversion_oracle(n):
    """Every ordered basis at n = 2 and 3, a seeded sample at n = 4 and 5."""
    field = Field(n)
    bases = list(_ordered_bases(field) if n <= 3 else _sampled_bases(field, 400, seed=n))
    assert len(bases) == {2: 6, 3: 168, 4: 400, 5: 400}[n]
    for basis in bases:
        assert dual_basis(basis) == oracles.dual_basis_by_inversion(basis), basis


def test_dual_basis_is_involution(f4, f8):
    for f in (f4, f8):
        els = [e for e in f.elements() if not e.is_zero]
        count = 0
        for combo in itertools.combinations(els, f.n):
            try:
                basis = FieldBasis(tuple(combo))
            except ValueError:
                continue
            count += 1
            assert dual_basis(dual_basis(basis)) == basis
        assert count > 0


def test_default_selfdual_basis_all_degrees():
    for n in (2, 3, 4, 5):
        f = Field(n)
        assert is_selfdual(default_selfdual_basis(f))
    assert [e.mask for e in default_selfdual_basis(Field(4))] == [8, 11, 13, 15]
    assert [e.mask for e in default_selfdual_basis(Field(5))] == [3, 5, 12, 17, 26]


def test_selfdual_search_matches_scan_oracle():
    """The depth-first search over trace-1 masks returns the scan's first
    selfdual basis, for every modulus of degree 2-4 and the default one of
    degree 5 (n = 3 with the default modulus has its fixed basis)."""
    fields = [Field(5)]
    for n in (2, 3, 4):
        for poly in range(1 << n, 2 << n):
            try:
                fields.append(Field(n, poly))
            except ValueError:
                continue
    for f in fields:
        if f.n == 3 and f.poly == DEFAULT_POLYS[3]:
            continue
        assert default_selfdual_basis(f) == oracles.selfdual_basis_by_scan(f)
    assert len(fields) == 1 + 1 + 2 + 2


# -- display and parsing -----------------------------------------------------


def test_display_and_parse_roundtrip(f8):
    for e in f8.elements():
        assert f8.parse(str(e)) == e
        assert f8.parse(str(e.mask)) == e
    assert str(f8.zero) == "0"
    assert str(f8.one) == "1"
    assert str(f8.mu) == "m"
    assert str(f8.from_power(6)) == "m6"


def test_field_for_dimension():
    assert field_for_dimension(8).n == 3
    assert field_for_dimension(8) is field_for_dimension(8)  # built once per d
    with pytest.raises(ValueError):
        field_for_dimension(7)
    with pytest.raises(ValueError):
        field_for_dimension(64)
