"""Gaussian integers and phase-space translation operators as signed
permutations.

A translation operator for the point (x, y) is the Kronecker product of
per-qubit factors X^(x_i) Z^(y_i), where the bits x_i = tr(x f_i) and
y_i = tr(y e_i) expand the coordinates over a basis E and its dual F.
Packed into masks x and z with qubit 1 as the most significant bit, the
operator X^x Z^z is the real signed permutation
T e_c = (-1)^|z & c| e_(c ^ x) of the computational basis, so it is stored
as its two masks and applied to a packed state (mub.pack_state) by sign
flips and block swaps of its bit-planes; nothing is ever rounded.  The
bits are GF(2)-linear in the packed point, so one table per expansion
basis, the XOR span of the 2n unit points' masks, holds the masks of
every point.  T squares to -I exactly when |x & z| is odd (XZ squares
to -I).  Operator *names* drop the phase, writing the Hermitian letter Y
where the raw factor is XZ.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, NamedTuple

from .gf2n import FieldBasis, Value, dual_basis


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


# Per-qubit bits (x, z) and the Hermitian letter naming X^x Z^z.
_LETTER_BY_BITS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}


class PauliWord(Value):
    """Per-qubit letters of the Hermitian (phase-free) operator name."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[str]) -> None:
        letters = tuple(letters)
        if any(c not in {"I", "X", "Y", "Z"} for c in letters):
            raise ValueError(f"invalid letters {letters!r}")
        self.letters = letters

    @classmethod
    def from_masks(cls, x: int, z: int, n: int) -> "PauliWord":
        """The word of X^x Z^z on n qubits, qubit 1 the most significant bit."""
        return cls(tuple(_LETTER_BY_BITS[(x >> k & 1, z >> k & 1)] for k in reversed(range(n))))

    def __str__(self) -> str:
        return "x".join(self.letters)


@cache
def translation_table(basis_e: FieldBasis) -> tuple[tuple[int, int], ...]:
    """table[m]: the masks (x, z) of the translation X^x Z^z of the packed
    point m = x | y << n, whose bits are x_i = tr(x f_i) and
    y_i = tr(y e_i) over basis_e and its dual F, qubit 1 the most
    significant.  The bits are GF(2)-linear in m, so the table is the XOR
    span of the rows of the 2n unit points."""
    field = basis_e.field
    n, mul, tr = field.n, field._mul_mask, field._trace
    basis_f = dual_basis(basis_e)
    table = [(0, 0)]
    for i in range(2 * n):
        # the unit point (a, 0) expands over F into x bits, (0, a) over E into z bits
        a = 1 << i % n
        over = basis_f if i < n else basis_e
        bits = sum(tr[mul(a, b.mask)] << n - 1 - k for k, b in enumerate(over))
        if i < n:
            table += [(x ^ bits, z) for x, z in table]
        else:
            table += [(x, z ^ bits) for x, z in table]
    return tuple(table)


@cache
def _index_planes(n: int) -> tuple[int, ...]:
    """Plane j has bit k set for the indices 0 <= k < 2^n with bit j set."""
    return tuple(sum(1 << k for k in range(1 << n) if k >> j & 1) for j in range(n))


def translate_packed(x: int, z: int, state: tuple[int, int, int], n: int) -> tuple[int, int, int]:
    """X^x Z^z on a packed n-qubit state (mub.pack_state): e_c goes to
    (-1)^|z & c| e_(c ^ x), so hi flips on the support where |z & c| is odd,
    and each bit j of x swaps the blocks of 2^j entries index bit j splits."""
    s, lo, hi = state
    planes = _index_planes(n)
    for j, b in enumerate(planes):
        if z >> j & 1:
            hi ^= b & s
    for j, b in enumerate(planes):
        if x >> j & 1:
            w = 1 << j
            s = (s & b) >> w | (s & ~b) << w
            lo = (lo & b) >> w | (lo & ~b) << w
            hi = (hi & b) >> w | (hi & ~b) << w
    return s, lo, hi
