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

from functools import cache
from operator import attrgetter
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


class Value:
    """A value equal to another of its exact class when their ``_key``s
    are equal.  Its fields are its slots but ``__dict__``, which holds
    derived values cached on first read.  ``_key`` reads every field unless
    the class names its own, and the constructor takes one value per field
    in slot order unless the class writes its own."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(s for s in cls.__slots__ if s != "__dict__")
        if "_key" not in cls.__dict__:
            cls._key = attrgetter(*cls._fields)

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            raise TypeError(
                f"{type(self).__name__} takes {len(self._fields)} values, got {len(values)}"
            )
        for name, value in zip(self._fields, values):
            setattr(self, name, value)

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))


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
        self.n = n
        self.poly = poly
        self.order = 1 << n

        exp = []
        val = 1
        for _ in range(self.order - 1):
            exp.append(val)
            val = _poly_mod(_poly_mul(val, 0b10), poly)
        # x has 2^n - 1 distinct powers only if the modulus is primitive,
        # which makes it irreducible: a reducible modulus leaves fewer units
        if val != 1 or len(set(exp)) != self.order - 1:
            raise ValueError(f"modulus 0b{poly:b} is not primitive over F_2")
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

    def _mul_mask(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        e = self._log[a] + self._log[b]
        return self._exp[e % (self.order - 1)]

    def trace(self, a: "FieldElement") -> "FieldElement":
        if a.field != self:
            raise ValueError(f"element of {a.field!r} used with {self!r}")
        return self._members[self._trace[a.mask]]

    def discrete_log(self, a: "FieldElement") -> int:
        """The exponent e with mu^e = a, 0 <= e <= 2^n - 2."""
        if a.field != self:
            raise ValueError(f"element of {a.field!r} used with {self!r}")
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


@cache
def field_for_dimension(d: int) -> Field:
    """The canonical GF(d) for d = 2^n, 4 <= d <= 32, built once per d."""
    n = d.bit_length() - 1
    if d < 1 or d != 1 << n:
        raise ValueError(f"dimension {d} is not a power of 2")
    return Field(n)


class FieldElement(Value):
    __slots__ = ("field", "mask")

    def __init__(self, field: Field, mask: int) -> None:
        if mask.__class__ is not int or not 0 <= mask < field.order:
            raise ValueError(f"mask {mask} out of range for GF(2^{field.n})")
        self.field = field
        self.mask = mask

    @property
    def is_zero(self) -> bool:
        return self.mask == 0

    def __add__(self, other: "FieldElement") -> "FieldElement":
        if other.field != self.field:
            raise ValueError(f"element of {other.field!r} used with {self.field!r}")
        return self.field._members[self.mask ^ other.mask]

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        if other.field != self.field:
            raise ValueError(f"element of {other.field!r} used with {self.field!r}")
        return self.field._members[self.field._mul_mask(self.mask, other.mask)]

    def __pow__(self, k: int) -> "FieldElement":
        if self.mask == 0:
            if k < 0:
                raise ValueError("zero has no multiplicative inverse")
            return self.field.zero if k else self.field.one
        e = self.field.discrete_log(self) * k
        return self.field.from_power(e)

    def inv(self) -> "FieldElement":
        f = self.field
        if self.mask == 0:
            raise ValueError("zero has no multiplicative inverse")
        return f._members[f._exp[(f.order - 1 - f._log[self.mask]) % (f.order - 1)]]

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


class FieldBasis(Value):
    """A tuple of F_2-linearly independent field elements, one per degree."""

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable[FieldElement]) -> None:
        self.elements = elements = tuple(elements)
        if not elements:
            raise ValueError("basis cannot be empty")
        field = elements[0].field
        if any(e.field != field for e in elements):
            raise ValueError("basis elements must share one field")
        if len(elements) != field.n:
            raise ValueError(f"basis needs {field.n} elements, got {len(elements)}")
        if len(_independent([e.mask for e in elements])) != len(elements):
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


def _independent(masks: Iterable[int]) -> list[int]:
    """The masks independent over F_2 of the masks before them, in order."""
    pivots: list[int] = []
    gens: list[int] = []
    for m in masks:
        r = m
        for piv in pivots:
            r = min(r, r ^ piv)
        if r:
            pivots.append(r)
            gens.append(m)
    return gens


def dual_basis(basis: FieldBasis | Iterable[FieldElement]) -> FieldBasis:
    """The basis F with tr(e_i f_j) = delta_ij; an involution.  f_j is the
    one nonzero mask whose trace products with the e_i are 1 at i = j and 0
    elsewhere: m -> (tr(e_i m))_i is a bijection, since the e_i are a basis
    and the trace form is nondegenerate."""
    if not isinstance(basis, FieldBasis):
        basis = FieldBasis(tuple(basis))
    field = basis.field
    mul, tr = field._mul_mask, field._trace
    code = {sum(tr[mul(e.mask, m)] << i for i, e in enumerate(basis)): m
            for m in range(1, field.order)}
    return FieldBasis(tuple(field.element(code[1 << j]) for j in range(field.n)))


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
    """{mu^3, mu^5, mu^6} for n=3 with the default modulus; otherwise the
    first orthonormal n-set of masks in lexicographic order ({mu, mu^2}
    for n=2).  Every GF(2^n) has one (Seroussi and Lempel, 1980).

    Only masks of trace 1 can be basis elements, and an orthonormal set is
    independent, so a depth-first search over them, keeping a mask only
    when tr(m*c) = 0 for every mask c already kept, meets the orthonormal
    sets in lexicographic order."""
    if field.n == 3 and field.poly == DEFAULT_POLYS[3]:
        return FieldBasis((field.from_power(3), field.from_power(5), field.from_power(6)))
    mul, tr = field._mul_mask, field._trace
    cands = [m for m in range(1, field.order) if tr[m]]

    def extend(start: int, chosen: list[int]) -> Iterator[list[int]]:
        if len(chosen) == field.n:
            yield chosen
        for i in range(start, len(cands)):
            if not any(tr[mul(cands[i], c)] for c in chosen):
                yield from extend(i + 1, chosen + [cands[i]])

    return FieldBasis(tuple(map(field.element, next(extend(0, [])))))
