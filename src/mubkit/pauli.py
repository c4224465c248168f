"""Exact Gaussian-integer matrices and phase-space translation operators.

Matrices hold Gaussian-integer entries; projectors are built fraction-free,
so nothing is ever rounded.

A translation operator for the point (x, y) is the Kronecker product of
per-qubit factors X^(x_i) Z^(y_i), where the bits x_i = tr(x f_i) and
y_i = tr(y e_i) expand the coordinates over a basis E and its dual F.
The raw product picks up signs (XZ squares to -I); operator *names* drop
the phase, writing the Hermitian letter Y where the raw factor is XZ.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, NamedTuple, Sequence

from .gf2n import FieldBasis, dual_basis, is_dual_pair
from .phasespace import Point


class GaussInt(NamedTuple):
    re: int
    im: int

    def __add__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GaussInt":
        return GaussInt(-self.re, -self.im)

    def conj(self) -> "GaussInt":
        return GaussInt(self.re, -self.im)

    def norm_sq(self) -> int:
        return self.re * self.re + self.im * self.im

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        im = {1: "i", -1: "-i"}.get(self.im, f"{self.im}i")
        if self.re == 0:
            return im
        return f"{self.re}{'+' if self.im > 0 else ''}{im}"


ZERO = GaussInt(0, 0)
ONE = GaussInt(1, 0)
I_UNIT = GaussInt(0, 1)
UNITS = (ONE, I_UNIT, -ONE, -I_UNIT)


def _round_div(p: int, q: int) -> int:
    """Nearest integer to p/q for q > 0 (ties round up)."""
    return (2 * p + q) // (2 * q)


def gauss_divmod(a: GaussInt, b: GaussInt) -> tuple[GaussInt, GaussInt]:
    nb = b.norm_sq()
    t = a * b.conj()
    q = GaussInt(_round_div(t.re, nb), _round_div(t.im, nb))
    return q, a - q * b


def gauss_gcd(a: GaussInt, b: GaussInt) -> GaussInt:
    while not b.is_zero:
        _, r = gauss_divmod(a, b)
        a, b = b, r
    return a


def gauss_divexact(a: GaussInt, b: GaussInt) -> GaussInt:
    """a / b, required to be exact."""
    nb = b.norm_sq()
    t = a * b.conj()
    if t.re % nb or t.im % nb:
        raise ValueError(f"{a} is not divisible by {b}")
    return GaussInt(t.re // nb, t.im // nb)


class GaussMatrix:
    """A dense square matrix of Gaussian integers."""

    __slots__ = ("dim", "rows")

    def __init__(self, rows: Iterable[Iterable[GaussInt]]) -> None:
        rows = tuple(tuple(row) for row in rows)
        dim = len(rows)
        if any(len(r) != dim for r in rows):
            raise ValueError("matrix must be square")
        self.dim = dim
        self.rows = rows

    @classmethod
    def identity(cls, dim: int) -> "GaussMatrix":
        return cls(
            tuple(
                tuple(ONE if i == j else ZERO for j in range(dim)) for i in range(dim)
            )
        )

    def __matmul__(self, other: "GaussMatrix") -> "GaussMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.rows))
        out = []
        for arow in self.rows:
            nz = [(j, e[0], e[1]) for j, e in enumerate(arow) if e[0] or e[1]]
            orow = []
            for col in cols:
                re = im = 0
                for j, ar, ai in nz:
                    br, bi = col[j]
                    re += ar * br - ai * bi
                    im += ar * bi + ai * br
                orow.append(GaussInt(re, im))
            out.append(tuple(orow))
        return GaussMatrix(tuple(out))

    def kron(self, other: "GaussMatrix") -> "GaussMatrix":
        out = []
        for arow in self.rows:
            for brow in other.rows:
                row: list[GaussInt] = []
                for a in arow:
                    if a.re or a.im:
                        row.extend(a * b for b in brow)
                    else:
                        row.extend(ZERO for _ in brow)
                out.append(tuple(row))
        return GaussMatrix(tuple(out))

    def dagger(self) -> "GaussMatrix":
        return GaussMatrix(tuple(tuple(e.conj() for e in col) for col in zip(*self.rows)))

    def __add__(self, other: "GaussMatrix") -> "GaussMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return GaussMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def scale(self, g: GaussInt) -> "GaussMatrix":
        return GaussMatrix(tuple(tuple(g * e for e in row) for row in self.rows))

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.rows for e in row)

    def trace(self) -> GaussInt:
        re = sum(self.rows[i][i].re for i in range(self.dim))
        im = sum(self.rows[i][i].im for i in range(self.dim))
        return GaussInt(re, im)

    def column(self, j: int) -> tuple[GaussInt, ...]:
        return tuple(row[j] for row in self.rows)

    def times_vector(self, v: Sequence[GaussInt]) -> tuple[GaussInt, ...]:
        out = []
        for row in self.rows:
            re = im = 0
            for (ar, ai), (br, bi) in zip(row, v):
                if ar or ai:
                    re += ar * br - ai * bi
                    im += ar * bi + ai * br
            out.append(GaussInt(re, im))
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GaussMatrix)
            and self.dim == other.dim
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.rows))

    def __repr__(self) -> str:
        return f"GaussMatrix(dim={self.dim})"


_PAULI_ENTRIES = {
    "I": ((ONE, ZERO), (ZERO, ONE)),
    "X": ((ZERO, ONE), (ONE, ZERO)),
    "Y": ((ZERO, -I_UNIT), (I_UNIT, ZERO)),
    "Z": ((ONE, ZERO), (ZERO, -ONE)),
}


def pauli_matrix(letter: str) -> GaussMatrix:
    """The standard 2x2 matrix of I, X, Y, or Z."""
    try:
        return GaussMatrix(_PAULI_ENTRIES[letter])
    except KeyError:
        raise ValueError(f"unknown Pauli letter {letter!r}") from None


# Raw per-qubit factor X^x Z^y and the phase-free letter naming it.
_LETTER_BY_BITS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_FACTOR_BY_BITS = {
    (0, 0): pauli_matrix("I"),
    (1, 0): pauli_matrix("X"),
    (0, 1): pauli_matrix("Z"),
    (1, 1): pauli_matrix("X") @ pauli_matrix("Z"),
}


@dataclass(frozen=True)
class PauliWord:
    """Per-qubit letters of the Hermitian (phase-free) operator name."""

    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        if any(c not in _PAULI_ENTRIES for c in self.letters):
            raise ValueError(f"invalid letters {self.letters!r}")

    @classmethod
    def from_bits(cls, x_bits: Sequence[int], y_bits: Sequence[int]) -> "PauliWord":
        return cls(tuple(_LETTER_BY_BITS[(x, y)] for x, y in zip(x_bits, y_bits)))

    def __str__(self) -> str:
        return "x".join(self.letters)


@dataclass(frozen=True)
class TranslationOp:
    point: Point
    basis_e: FieldBasis
    basis_f: FieldBasis
    x_bits: tuple[int, ...]
    y_bits: tuple[int, ...]
    matrix: GaussMatrix
    word: PauliWord


def translation_operator(
    p: Point, basis_e: FieldBasis, basis_f: FieldBasis | None = None
) -> TranslationOp:
    """The operator X^(x_1) Z^(y_1) x ... x X^(x_n) Z^(y_n) for the point
    p = (x, y), with x expanded over basis_e and y over its dual basis_f
    via x_i = tr(x f_i) and y_i = tr(y e_i)."""
    field = p.field
    if basis_e.field != field:
        raise ValueError("expansion basis must live in the point's field")
    if basis_f is None:
        basis_f = dual_basis(basis_e)
    elif not is_dual_pair(basis_e, basis_f):
        raise ValueError("basis_f is not dual to basis_e")
    x_bits, y_bits = expansion_bits(p, basis_e, basis_f)
    factors = [_FACTOR_BY_BITS[(x, y)] for x, y in zip(x_bits, y_bits)]
    matrix = reduce(GaussMatrix.kron, factors)
    word = PauliWord.from_bits(x_bits, y_bits)
    return TranslationOp(p, basis_e, basis_f, x_bits, y_bits, matrix, word)


def expansion_bits(
    p: Point, basis_e: FieldBasis, basis_f: FieldBasis
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The bits x_i = tr(x f_i) and y_i = tr(y e_i) of p = (x, y)."""
    field = p.field
    x_bits = tuple(field.trace(p.x * f).mask for f in basis_f)
    y_bits = tuple(field.trace(p.y * e).mask for e in basis_e)
    return x_bits, y_bits


def trace_condition(p1: Point, p2: Point) -> bool:
    """tr(x1 y2) = tr(x2 y1); the field-side commutation criterion."""
    if p1.field != p2.field:
        raise ValueError("points must share one field")
    field = p1.field
    return field.trace(p1.x * p2.y) == field.trace(p2.x * p1.y)


def square_sign(t: TranslationOp) -> int:
    """s with T^2 = s * identity: -1 raised to the number of qubits whose
    x and y bits are both set (each XZ factor squares to -I)."""
    odd = sum(x & y for x, y in zip(t.x_bits, t.y_bits)) & 1
    return -1 if odd else 1
