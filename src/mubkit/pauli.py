"""Gaussian integers and phase-space translation operators as signed
permutations.

A translation operator for the point (x, y) is the Kronecker product of
per-qubit factors X^(x_i) Z^(y_i), where the bits x_i = tr(x f_i) and
y_i = tr(y e_i) expand the coordinates over a basis E and its dual F.
Packed into masks x and z with qubit 1 as the most significant bit, the
operator X^x Z^z is the real signed permutation
T e_c = (-1)^|z & c| e_(c ^ x) of the computational basis, so it is stored
as its two masks and applied to a Gaussian-integer vector in O(d); nothing
is ever rounded.  T squares to -I exactly when |x & z| is odd (XZ squares
to -I).  Operator *names* drop the phase, writing the Hermitian letter Y
where the raw factor is XZ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .gf2n import FieldBasis
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


# Per-qubit bits (x, z) and the Hermitian letter naming X^x Z^z.
_LETTER_BY_BITS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}


@dataclass(frozen=True)
class PauliWord:
    """Per-qubit letters of the Hermitian (phase-free) operator name."""

    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        if any(c not in "IXYZ" for c in self.letters):
            raise ValueError(f"invalid letters {self.letters!r}")

    @classmethod
    def from_bits(cls, x_bits: Sequence[int], y_bits: Sequence[int]) -> "PauliWord":
        return cls(tuple(_LETTER_BY_BITS[(x, y)] for x, y in zip(x_bits, y_bits)))

    def __str__(self) -> str:
        return "x".join(self.letters)


def expansion_bits(
    p: Point, basis_e: FieldBasis, basis_f: FieldBasis
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The bits x_i = tr(x f_i) and y_i = tr(y e_i) of p = (x, y)."""
    field = p.field
    x_bits = tuple(field.trace(p.x * f).mask for f in basis_f)
    y_bits = tuple(field.trace(p.y * e).mask for e in basis_e)
    return x_bits, y_bits


def translation_masks(p: Point, basis_e: FieldBasis, basis_f: FieldBasis) -> tuple[int, int]:
    """The masks (x, z) of p's translation X^x Z^z: its expansion bits,
    qubit 1 the most significant."""
    x_bits, z_bits = expansion_bits(p, basis_e, basis_f)
    return int("".join(map(str, x_bits)), 2), int("".join(map(str, z_bits)), 2)


def translate(x: int, z: int, v: Sequence[GaussInt]) -> tuple[GaussInt, ...]:
    """X^x Z^z v, entry by entry: e_c goes to (-1)^|z & c| e_(c ^ x)."""
    out = [ZERO] * len(v)
    for c, e in enumerate(v):
        out[c ^ x] = -e if (z & c).bit_count() & 1 else e
    return tuple(out)


def principal_eigenvalue(x: int, z: int) -> GaussInt:
    """i when X^x Z^z squares to -I, which is when |x & z| is odd; else 1."""
    return I_UNIT if (x & z).bit_count() & 1 else ONE


def trace_condition(p1: Point, p2: Point) -> bool:
    """tr(x1 y2) = tr(x2 y1); the field-side commutation criterion."""
    if p1.field != p2.field:
        raise ValueError("points must share one field")
    field = p1.field
    return field.trace(p1.x * p2.y) == field.trace(p2.x * p1.y)
