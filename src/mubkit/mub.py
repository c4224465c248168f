"""Common eigenbases of commuting translation operators, the class-state
correspondence, exact unbiasedness checks, and three-qubit entanglement
structure.

Everything is computed over the Gaussian integers.  A state is stored as
integer entries plus the squared norm; the physical vector is
entries / sqrt(norm_sq), so orthogonality and unbiasedness reduce to
integer identities (d * |<u,v>|^2 = N_u * N_v for unbiasedness).

Each basis takes one exact rank-one projector: for generators g_1..g_n of
an extraordinary subgroup at their principal eigenvalues lambda_j, the
fraction-free product of the factors (1 + conj(lambda_j) T_(g_j)) has
trace 2^n exactly, and its first nonzero column, content-reduced, is the
ray state.  The other d - 1 states are the ray state translated by the
coset representatives of the supersquare: T_r negates the eigenvalue of
every generator it anticommutes with, so the representative's flip
signature is both the state's eigenvalue assignment and its class.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Sequence

from .gf2n import FieldBasis, default_selfdual_basis, dual_basis
from .pauli import (
    GaussInt,
    GaussMatrix,
    I_UNIT,
    ONE,
    PauliWord,
    UNITS,
    ZERO,
    expansion_bits,
    gauss_divexact,
    gauss_gcd,
    square_sign,
    trace_condition,
    translation_operator,
)
from .phasespace import Point, Subgroup, is_extraordinary
from .squares import CompleteSet, Supersquare, supersquare_from_subgroup, verify_complete_set


class ConstructionError(RuntimeError):
    """An exactness certificate failed while building a basis or set."""


def _canonical_unit(z: GaussInt) -> GaussInt:
    """The unit u with u*z in the half-open quadrant re > 0, im >= 0."""
    for u in UNITS:
        w = u * z
        if w.re > 0 and w.im >= 0:
            return u
    raise ValueError("zero has no canonical unit")


def content_reduce(entries: Sequence[GaussInt]) -> tuple[GaussInt, ...]:
    """Divide out the Gaussian gcd and rotate by a unit so the first
    nonzero entry lands in the canonical quadrant."""
    g = ZERO
    for e in entries:
        if not e.is_zero:
            g = e if g.is_zero else gauss_gcd(g, e)
    if g.is_zero:
        raise ValueError("cannot reduce the zero vector")
    reduced = tuple(gauss_divexact(e, g) for e in entries)
    first = next(e for e in reduced if not e.is_zero)
    u = _canonical_unit(first)
    return tuple(u * e for e in reduced)


@dataclass(frozen=True)
class UnnormalizedState:
    """Integer entries with implicit 1/sqrt(norm_sq) normalization."""

    entries: tuple[GaussInt, ...]
    norm_sq: int

    @classmethod
    def from_raw(cls, entries: Sequence[GaussInt]) -> "UnnormalizedState":
        reduced = content_reduce(entries)
        return cls(reduced, sum(e.norm_sq() for e in reduced))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def inner(self, other: "UnnormalizedState") -> GaussInt:
        """<self|other> = sum conj(a_k) b_k."""
        re = im = 0
        for a, b in zip(self.entries, other.entries):
            re += a.re * b.re + a.im * b.im
            im += a.re * b.im - a.im * b.re
        return GaussInt(re, im)

    def proportional_to(self, other: "UnnormalizedState") -> bool:
        """Equal up to a Gaussian-rational factor (exact cross products)."""
        if self.dim != other.dim:
            return False
        ref = next(
            ((a, b) for a, b in zip(self.entries, other.entries) if not a.is_zero or not b.is_zero),
            None,
        )
        if ref is None:
            return True
        ra, rb = ref
        if ra.is_zero or rb.is_zero:
            return False
        return all(
            a * rb == b * ra for a, b in zip(self.entries, other.entries)
        )


def is_unbiased_pair(u: UnnormalizedState, v: UnnormalizedState, d: int) -> bool:
    """d * |<u,v>|^2 = norm_sq(u) * norm_sq(v), as exact integers."""
    if u.dim != d or v.dim != d:
        raise ValueError("states must have dimension d")
    return d * u.inner(v).norm_sq() == u.norm_sq * v.norm_sq


@dataclass(frozen=True)
class MubBasis:
    """State s carries, for generator j of ``source.basis()``, the principal
    eigenvalue negated when bit j of s is set; state 0 is the ray state."""

    source: Subgroup
    expansion_basis: FieldBasis
    states: tuple[UnnormalizedState, ...]
    operator_words: tuple[PauliWord, ...]
    class_of_state: tuple[int, ...] | None = None

    @property
    def d(self) -> int:
        return self.source.order

    @property
    def ray_state(self) -> UnnormalizedState:
        return self.states[0]


def _flip_signature(gens: Sequence[Point], rep: Point) -> int:
    """Bit j set iff T_rep anticommutes with the translation of gens[j]."""
    return sum(1 << j for j, g in enumerate(gens) if not trace_condition(g, rep))


def common_eigenbasis(a1: Subgroup, expansion_basis: FieldBasis) -> MubBasis:
    """The d common eigenvectors of the translation operators of a1.

    The ray state is a column of the exact rank-one projector for the
    all-principal assignment; state s is the ray state translated by the
    coset representative whose flip signature is s.  Every state is
    checked to be a common eigenvector with its assignment's eigenvalues.
    Distinct assignments make the states pairwise orthogonal;
    certify_bases, which build_mub_set runs, checks that exactly.
    """
    field = a1.field
    d = field.order
    if a1.order != d:
        raise ValueError(f"need an order-{d} subgroup")
    if not is_extraordinary(a1):
        raise ValueError("subgroup is not extraordinary: operators do not commute")
    gens = a1.basis()
    ops = [translation_operator(g, expansion_basis) for g in gens]
    principals = [I_UNIT if square_sign(op) < 0 else ONE for op in ops]
    ident = GaussMatrix.identity(d)
    proj = ident
    for op, lam in zip(ops, principals):
        proj = proj @ (ident + op.matrix.scale(lam.conj()))
    if proj.trace() != GaussInt(d, 0):
        raise ConstructionError(
            f"ray projector has rank != 1; generators of {a1!r} do not commute"
        )
    ray = UnnormalizedState.from_raw(
        next(c for c in map(proj.column, range(d)) if any(not e.is_zero for e in c))
    )
    reps = supersquare_from_subgroup(a1).coset_reps
    slots = [0] + [_flip_signature(gens, rep) for rep in reps]
    if sorted(slots) != list(range(d)):
        raise ConstructionError(
            f"flip signatures {slots} do not fill the {d} assignments once each"
        )
    states: list[UnnormalizedState] = [ray] * d
    for s, rep in zip(slots[1:], reps):
        op = translation_operator(rep, expansion_basis)
        states[s] = UnnormalizedState.from_raw(op.matrix.times_vector(ray.entries))
    for s, state in enumerate(states):
        for j, (op, lam) in enumerate(zip(ops, principals)):
            lam = -lam if s >> j & 1 else lam
            if op.matrix.times_vector(state.entries) != tuple(lam * e for e in state.entries):
                raise ConstructionError(
                    f"state {s} is not a common eigenvector for {op.point}"
                )

    basis_f = dual_basis(expansion_basis)
    words = tuple(
        PauliWord.from_bits(*expansion_bits(p, expansion_basis, basis_f))
        for p in a1.nonzero_points()
    )
    return MubBasis(
        source=a1,
        expansion_basis=expansion_basis,
        states=tuple(states),
        operator_words=words,
    )


def apply_correspondence(basis: MubBasis, ss: Supersquare) -> MubBasis:
    """Fix the class-state map: class 1 holds the ray state, and class k
    the state its canonical representative translates the ray state onto,
    which is the state indexed by that representative's flip signature.
    certify_bases checks that the map is a bijection."""
    if ss.generator != basis.source:
        raise ValueError("supersquare generator differs from the basis source")
    gens = basis.source.basis()
    return replace(
        basis,
        class_of_state=(0,) + tuple(_flip_signature(gens, rep) for rep in ss.coset_reps),
    )


@dataclass(frozen=True)
class MubSet:
    bases: tuple[MubBasis, ...]
    source_set: CompleteSet

    @property
    def d(self) -> int:
        return self.source_set.d


def certify_bases(
    bases: Sequence[Sequence[UnnormalizedState]],
    d: int,
    class_maps: Sequence[Sequence[int] | None],
    expected_structure: Sequence[int] | None = None,
) -> tuple[dict[str, bool], list[str]]:
    """The exact MUB certificate: d+1 bases of d states of d entries each;
    each norm_sq equal to the recomputed, nonzero squared norm; states
    orthogonal within each basis; d * |<u,v>|^2 = N_u * N_v across bases;
    every class map a bijection onto the d states.  With
    ``expected_structure`` and d = 8, the entanglement structure recounted
    from the states must equal it.  A state without d entries fails the
    cardinality check and is left out of the pair checks.  Returns the
    checks and every failure."""
    failures: list[str] = []
    checks = {"cardinality": len(bases) == d + 1}
    if not checks["cardinality"]:
        failures.append(f"expected {d + 1} bases, got {len(bases)}")
    for bi, states in enumerate(bases, start=1):
        if len(states) != d:
            checks["cardinality"] = False
            failures.append(f"basis {bi} has {len(states)} states, expected {d}")
        for si, st in enumerate(states):
            if st.dim != d:
                checks["cardinality"] = False
                failures.append(f"basis {bi} state {si} has {st.dim} entries, expected {d}")
    checks["norms"] = True
    for bi, states in enumerate(bases, start=1):
        for si, st in enumerate(states):
            recomputed = sum(e.norm_sq() for e in st.entries)
            if st.norm_sq != recomputed or recomputed == 0:
                checks["norms"] = False
                failures.append(f"basis {bi} state {si} has a bad norm_sq")
    # (index, state) pairs of the states the pair checks take
    sized = [[(i, st) for i, st in enumerate(states) if st.dim == d] for states in bases]
    checks["orthogonality"] = True
    for bi, states in enumerate(sized, start=1):
        for (i, u), (j, v) in combinations(states, 2):
            if not u.inner(v).is_zero:
                checks["orthogonality"] = False
                failures.append(f"basis {bi} states {i},{j} not orthogonal")
    checks["unbiasedness"] = True
    for (bi, us), (bj, vs) in combinations(enumerate(sized, start=1), 2):
        for i, u in us:
            for j, v in vs:
                if not is_unbiased_pair(u, v, d):
                    checks["unbiasedness"] = False
                    failures.append(f"bases {bi},{bj} biased at states ({i},{j})")
    checks["class_maps"] = True
    for bi, m in enumerate(class_maps, start=1):
        fault = _class_map_fault(m, d)
        if fault:
            checks["class_maps"] = False
            failures.append(f"basis {bi} {fault}")
    if expected_structure is not None and d == 8:
        kinds = [separability([st for _, st in states]) for states in sized]
        recount = (
            [0, 0, 0] if None in kinds else list(EntanglementStructure.count(kinds).astuple())
        )
        checks["structure"] = recount == list(expected_structure)
        if not checks["structure"]:
            failures.append(f"structure mismatch: recomputed {recount}")
    return checks, failures


def _class_map_fault(m: Sequence[int] | None, d: int) -> str | None:
    """Why the class->state map m is no bijection onto the d states, naming
    the states at fault; None when it is one."""
    if m is None:
        return "has no class->state map"
    if len(m) != d:
        return f"class->state map has {len(m)} entries, expected {d}"
    faults = [f"state {s} out of range" for s in sorted(set(m) - set(range(d)))]
    faults += [f"state {s} repeated" for s in sorted({s for s in m if m.count(s) > 1})]
    faults += [f"state {s} missing" for s in range(d) if s not in m]
    return "class->state map is not a bijection: " + ", ".join(faults) if faults else None


def build_mub_set(
    c: CompleteSet, expansion_basis: FieldBasis | None = None
) -> MubSet:
    """Run the eigenbasis construction and correspondence over every
    square of a verified complete set, then run certify_bases on the
    result; the first failure raises ConstructionError."""
    field = c.field
    if expansion_basis is None:
        expansion_basis = default_selfdual_basis(field)
    report = verify_complete_set(c)
    if not report.passed:
        raise ValueError(
            "complete set fails verification: " + "; ".join(report.failures)
        )
    bases = tuple(
        apply_correspondence(common_eigenbasis(ss.generator, expansion_basis), ss)
        for ss in c.supersquares
    )
    _, failures = certify_bases(
        [b.states for b in bases], field.order, [b.class_of_state for b in bases]
    )
    if failures:
        raise ConstructionError(failures[0])
    return MubSet(bases, c)


# ---------------------------------------------------------------------------
# Three-qubit entanglement structure
# ---------------------------------------------------------------------------

BIPARTITIONS = ("1|23", "2|13", "3|12")

_RESHAPES = {
    "1|23": lambda b: (b >> 2 & 1, b & 3),
    "2|13": lambda b: (b >> 1 & 1, (b >> 2 & 1) << 1 | (b & 1)),
    "3|12": lambda b: (b & 1, b >> 1),
}


def _gauss_rank(rows: list[list[GaussInt]]) -> int:
    """Fraction-free elimination rank over the Gaussian rationals."""
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next(
            (r for r in range(rank, len(rows)) if not rows[r][c].is_zero), None
        )
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][c].is_zero:
                continue
            factor_lead = rows[rank][c]
            factor_this = rows[r][c]
            rows[r] = [
                factor_lead * rows[r][j] - factor_this * rows[rank][j]
                for j in range(cols)
            ]
        rank += 1
    return rank


def schmidt_rank(u: UnnormalizedState, bipartition: str) -> int:
    """Exact rank of the 2x4 reshape of a three-qubit state across the cut;
    qubit 1 is the most significant index bit."""
    if u.dim != 8:
        raise ValueError("schmidt_rank supports three-qubit states only")
    if bipartition not in _RESHAPES:
        raise ValueError(f"bipartition must be one of {BIPARTITIONS}")
    pos = _RESHAPES[bipartition]
    mat = [[ZERO] * 4 for _ in range(2)]
    for b, e in enumerate(u.entries):
        r, c = pos(b)
        mat[r][c] = e
    return _gauss_rank(mat)


def rank_profile(u: UnnormalizedState) -> tuple[int, int, int]:
    return tuple(schmidt_rank(u, bp) for bp in BIPARTITIONS)  # type: ignore[return-value]


def two_qubit_rank(u: UnnormalizedState) -> int:
    """Rank across the single 1|2 cut of a two-qubit state: 1 means
    product, 2 means entangled.  Informational output only."""
    if u.dim != 4:
        raise ValueError("two_qubit_rank supports two-qubit states only")
    rows = [[u.entries[0], u.entries[1]], [u.entries[2], u.entries[3]]]
    return _gauss_rank(rows)


class Separability(enum.Enum):
    FACTORIZED = "factorized"
    BISEPARABLE = "biseparable"
    NONSEPARABLE = "nonseparable"


def separability(states: Sequence[UnnormalizedState]) -> Separability | None:
    """The class of three-qubit states from the rank profile across the
    three cuts they all share; None when their profiles differ."""
    profiles = {rank_profile(st) for st in states}
    if len(profiles) != 1:
        return None
    (profile,) = profiles
    if all(r == 1 for r in profile):
        return Separability.FACTORIZED
    if all(r == 2 for r in profile):
        return Separability.NONSEPARABLE
    return Separability.BISEPARABLE


def classify_basis(basis: MubBasis) -> Separability:
    """The separability class every state of the basis shares."""
    if basis.d != 8:
        raise ValueError("entanglement classification is defined for d = 8")
    kind = separability(basis.states)
    if kind is None:
        raise ConstructionError("basis states have mixed rank profiles")
    return kind


@dataclass(frozen=True)
class EntanglementStructure:
    n_f: int
    n_b: int
    n_ns: int

    @classmethod
    def count(cls, kinds: Sequence[Separability]) -> "EntanglementStructure":
        """The structure of bases whose classes are ``kinds``."""
        return cls(*(kinds.count(k) for k in Separability))

    def astuple(self) -> tuple[int, int, int]:
        return (self.n_f, self.n_b, self.n_ns)

    def __str__(self) -> str:
        return f"({self.n_f},{self.n_b},{self.n_ns})"


def structure(m: MubSet) -> EntanglementStructure:
    """Counts of factorized, biseparable, and nonseparable bases."""
    if m.d != 8:
        raise ValueError("entanglement structure is defined for d = 8")
    return EntanglementStructure.count([classify_basis(basis) for basis in m.bases])
