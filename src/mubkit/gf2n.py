"""Exact arithmetic in GF(2^n) for 2 <= n <= 5.

Field elements are n-bit coefficient vectors over the polynomial basis
{1, mu, mu^2, ..., mu^(n-1)}, stored as integer bitmasks: bit i holds the
coefficient of mu^i.  Addition is XOR; multiplication is carry-less
polynomial multiplication reduced modulo the field modulus, tabulated once
per field as log/antilog tables over the generator mu (the class of x,
which is primitive for every supported modulus).

Default moduli (mu = x generates the multiplicative group for each):

    n = 2: x^2 + x + 1            n = 4: x^4 + x + 1
    n = 3: x^3 + x + 1            n = 5: x^5 + x^2 + 1

Display form writes elements as powers of mu: "0", "1", "m", "m2", ...
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

DEFAULT_POLYS = {2: 0b111, 3: 0b1011, 4: 0b10011, 5: 0b100101}


def _poly_deg(p: int) -> int:
    return p.bit_length() - 1


def _poly_mul(a: int, b: int) -> int:
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def _poly_mod(a: int, m: int) -> int:
    dm = _poly_deg(m)
    while a and _poly_deg(a) >= dm:
        a ^= m << (_poly_deg(a) - dm)
    return a


def _is_irreducible(poly: int) -> bool:
    n = _poly_deg(poly)
    if poly & 1 == 0:  # x divides it
        return False
    for q in range(2, 1 << (n // 2 + 1)):
        if _poly_mod(poly, q) == 0:
            return False
    return True


class Field:
    """GF(2^n) with a fixed modulus; the generator mu is the class of x."""

    __slots__ = ("n", "poly", "order", "_exp", "_log", "_trace", "_hash", "_members")

    def __init__(self, n: int, poly: int | None = None) -> None:
        if not 2 <= n <= 5:
            raise ValueError(f"extension degree must be in 2..5, got {n}")
        if poly is None:
            poly = DEFAULT_POLYS[n]
        if _poly_deg(poly) != n:
            raise ValueError(f"modulus 0b{poly:b} does not have degree {n}")
        if not _is_irreducible(poly):
            raise ValueError(f"modulus 0b{poly:b} is reducible over F_2")
        self.n = n
        self.poly = poly
        self.order = 1 << n

        exp = []
        val = 1
        for _ in range(self.order - 1):
            exp.append(val)
            val = _poly_mod(_poly_mul(val, 0b10), poly)
        if val != 1 or len(set(exp)) != self.order - 1:
            raise ValueError(f"x is not primitive modulo 0b{poly:b}")
        self._exp = tuple(exp)
        self._log = {mask: e for e, mask in enumerate(exp)}

        # tr(a) = a + a^2 + a^4 + ... + a^(2^(n-1)), tabulated per mask.
        trace = []
        for mask in range(self.order):
            acc = mask
            sq = mask
            for _ in range(n - 1):
                sq = _poly_mod(_poly_mul(sq, sq), poly)
                acc ^= sq
            trace.append(acc)
        if any(t not in (0, 1) for t in trace):
            raise ValueError(f"trace does not land in F_2 for modulus 0b{poly:b}")
        self._trace = tuple(trace)
        self._hash = hash((n, poly))
        self._members = tuple(FieldElement(self, m) for m in range(self.order))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and (self.n, self.poly) == (other.n, other.poly)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Field(n={self.n}, poly=0b{self.poly:b})"

    # -- element constructors -------------------------------------------

    def element(self, mask: int) -> "FieldElement":
        if not 0 <= mask < self.order:
            raise ValueError(f"mask {mask} out of range for GF(2^{self.n})")
        return self._members[mask]

    @property
    def zero(self) -> "FieldElement":
        return self._members[0]

    @property
    def one(self) -> "FieldElement":
        return self._members[1]

    @property
    def mu(self) -> "FieldElement":
        return self._members[0b10]

    def from_power(self, e: int) -> "FieldElement":
        """mu^e (exponent taken modulo the multiplicative order)."""
        return self._members[self._exp[e % (self.order - 1)]]

    def elements(self) -> tuple["FieldElement", ...]:
        return self._members

    def in_dlog_order(self) -> tuple["FieldElement", ...]:
        """Elements ordered 0, 1, mu, mu^2, ... (zero first, then by exponent)."""
        return (self._members[0],) + tuple(self._members[m] for m in self._exp)

    # -- arithmetic ------------------------------------------------------

    def _check_member(self, a: "FieldElement") -> None:
        if a.field != self:
            raise ValueError(f"element of {a.field!r} used with {self!r}")

    def add(self, a: "FieldElement", b: "FieldElement") -> "FieldElement":
        self._check_member(a)
        self._check_member(b)
        return self._members[a.mask ^ b.mask]

    def mul(self, a: "FieldElement", b: "FieldElement") -> "FieldElement":
        self._check_member(a)
        self._check_member(b)
        return self._members[self._mul_mask(a.mask, b.mask)]

    def _mul_mask(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        e = self._log[a] + self._log[b]
        return self._exp[e % (self.order - 1)]

    def inv(self, a: "FieldElement") -> "FieldElement":
        self._check_member(a)
        if a.mask == 0:
            raise ValueError("zero has no multiplicative inverse")
        e = self._log[a.mask]
        return self._members[self._exp[(self.order - 1 - e) % (self.order - 1)]]

    def trace(self, a: "FieldElement") -> "FieldElement":
        self._check_member(a)
        return self._members[self._trace[a.mask]]

    def _trace_bit(self, mask: int) -> int:
        return self._trace[mask]

    def discrete_log(self, a: "FieldElement") -> int:
        """The exponent e with mu^e = a, 0 <= e <= 2^n - 2."""
        self._check_member(a)
        if a.mask == 0:
            raise ValueError("zero is not a power of mu")
        return self._log[a.mask]

    # -- text and JSON forms ----------------------------------------------

    def parse(self, token: str) -> "FieldElement":
        """Accept power-of-mu tokens ("0", "1", "m", "m3") or integer bitmasks."""
        token = token.strip()
        if token.startswith("m"):
            exp = 1 if token == "m" else int(token[1:])
            return self.from_power(exp)
        return self.element(int(token))

    def to_json(self) -> dict:
        return {"n": self.n, "poly": self.poly}

    @classmethod
    def from_json(cls, data: dict) -> "Field":
        return cls(int(data["n"]), int(data["poly"]))


def field_for_dimension(d: int) -> Field:
    """The canonical GF(d) for d = 2^n, 4 <= d <= 32."""
    n = d.bit_length() - 1
    if d < 1 or d != 1 << n:
        raise ValueError(f"dimension {d} is not a power of 2")
    return Field(n)


@dataclass(frozen=True)
class FieldElement:
    field: Field
    mask: int

    @property
    def is_zero(self) -> bool:
        return self.mask == 0

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return self.field.add(self, other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return self.field.mul(self, other)

    def __pow__(self, k: int) -> "FieldElement":
        if self.mask == 0:
            if k < 0:
                raise ValueError("zero has no multiplicative inverse")
            return self.field.zero if k else self.field.one
        e = self.field.discrete_log(self) * k
        return self.field.from_power(e)

    def inv(self) -> "FieldElement":
        return self.field.inv(self)

    def trace(self) -> "FieldElement":
        return self.field.trace(self)

    def __str__(self) -> str:
        if self.mask == 0:
            return "0"
        e = self.field.discrete_log(self)
        if e == 0:
            return "1"
        return "m" if e == 1 else f"m{e}"

    def __repr__(self) -> str:
        return f"<{self} in GF(2^{self.field.n})>"


@dataclass(frozen=True)
class FieldBasis:
    """A tuple of F_2-linearly independent field elements, one per degree."""

    elements: tuple[FieldElement, ...]

    def __post_init__(self) -> None:
        elements = tuple(self.elements)
        object.__setattr__(self, "elements", elements)
        if not elements:
            raise ValueError("basis cannot be empty")
        field = elements[0].field
        if any(e.field != field for e in elements):
            raise ValueError("basis elements must share one field")
        if len(elements) != field.n:
            raise ValueError(f"basis needs {field.n} elements, got {len(elements)}")
        if not _independent([e.mask for e in elements]):
            raise ValueError("basis elements are linearly dependent over F_2")

    @property
    def field(self) -> Field:
        return self.elements[0].field

    def __iter__(self) -> Iterator[FieldElement]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, i: int) -> FieldElement:
        return self.elements[i]

    def __str__(self) -> str:
        return "{" + ", ".join(str(e) for e in self.elements) + "}"


def _independent(masks: Iterable[int]) -> bool:
    pivots: list[int] = []
    for m in masks:
        for p in pivots:
            m = min(m, m ^ p)
        if m == 0:
            return False
        pivots.append(m)
    return True


def dual_basis(basis: FieldBasis | Iterable[FieldElement]) -> FieldBasis:
    """The basis F with tr(e_i f_j) = delta_ij; an involution."""
    if not isinstance(basis, FieldBasis):
        basis = FieldBasis(tuple(basis))
    field = basis.field
    n = field.n
    # Row i of A holds tr(e_i * mu^k) at bit k; the dual elements' coordinate
    # vectors are the columns of A^-1 over F_2.
    rows = []
    for e in basis:
        bits = 0
        for k in range(n):
            if field._trace[field._mul_mask(e.mask, field._exp[k])]:
                bits |= 1 << k
        rows.append(bits)
    inv = _invert_f2(rows)
    if inv is None:
        raise ValueError("basis elements are linearly dependent over F_2")
    duals = []
    for j in range(n):
        mask = 0
        for k in range(n):
            if inv[k] >> j & 1:
                mask ^= field._exp[k]
        duals.append(field.element(mask))
    out = FieldBasis(tuple(duals))
    assert is_dual_pair(basis, out)
    return out


def _invert_f2(rows: list[int]) -> list[int] | None:
    n = len(rows)
    aug = [rows[i] | (1 << (n + i)) for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r] >> col & 1), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(n):
            if r != col and aug[r] >> col & 1:
                aug[r] ^= aug[col]
    return [aug[i] >> n for i in range(n)]


def is_dual_pair(e_basis: FieldBasis, f_basis: FieldBasis) -> bool:
    field = e_basis.field
    if f_basis.field != field or len(e_basis) != len(f_basis):
        return False
    return all(
        field._trace[field._mul_mask(e.mask, f.mask)] == (1 if i == j else 0)
        for i, e in enumerate(e_basis)
        for j, f in enumerate(f_basis)
    )


def is_selfdual(basis: FieldBasis | Iterable[FieldElement]) -> bool:
    """True iff tr(e_i e_j) = delta_ij."""
    if not isinstance(basis, FieldBasis):
        basis = FieldBasis(tuple(basis))
    return is_dual_pair(basis, basis)


def default_selfdual_basis(field: Field) -> FieldBasis:
    """A fixed selfdual basis per degree: {mu, mu^2} for n=2 and
    {mu^3, mu^5, mu^6} for n=3; the first selfdual combination in mask
    order otherwise."""
    if field.poly == DEFAULT_POLYS.get(field.n):
        if field.n == 2:
            return FieldBasis((field.from_power(1), field.from_power(2)))
        if field.n == 3:
            return FieldBasis(
                (field.from_power(3), field.from_power(5), field.from_power(6))
            )
    for combo in combinations(range(1, field.order), field.n):
        if not _independent(list(combo)):
            continue
        cand = FieldBasis(tuple(field.element(m) for m in combo))
        if is_selfdual(cand):
            return cand
    raise ValueError(f"no selfdual basis found for {field!r}")
