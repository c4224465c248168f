"""Common eigenbases of commuting translation operators, the class-state
correspondence, exact unbiasedness checks, and three-qubit entanglement
structure.

Everything is computed over the Gaussian integers.  A state is stored as
integer entries plus the squared norm; the physical vector is
entries / sqrt(norm_sq), so orthogonality and unbiasedness reduce to
integer identities (d * |<u,v>|^2 = N_u * N_v for unbiasedness).

For generators g_1..g_n of an extraordinary subgroup at their principal
eigenvalues lambda_j, the product P of the commuting factors
(1 + conj(lambda_j) T_(g_j)) is d |psi><psi| for a stabilizer state psi;
the ray state is P e_c for the first c where that is nonzero, taken one
factor at a time, so that its entry c is 1.  T_r negates the eigenvalue
of each generator whose polar mask (phasespace) has odd parity with r, so
a coset representative's flip signature is both the eigenvalue
assignment of the state it translates the ray state onto and its class.

Every basis state is a stabilizer state with entries in {0, +-1, +-i},
packed into a support mask and two phase bit-planes (entry k is i^p,
p = lo_k + 2 hi_k).  Translations and eigenvector checks work on the
planes, and the certificate reads <u,v> off popcounts; a state with any
other entry, which only a document given to `mub verify` can hold, takes
the entry-by-entry inner product; that command enters through mubdoc.
"""

from __future__ import annotations

import enum
from itertools import combinations
from typing import TYPE_CHECKING, Sequence

from .gf2n import FieldBasis, Value, _independent, default_selfdual_basis
from .pauli import GaussInt, PauliWord, UNITS, ZERO, translate_packed, translation_table
from .phasespace import Subgroup, _polars, is_extraordinary

if TYPE_CHECKING:  # imported where a set is built, so certify_bases never loads squares
    from .squares import CompleteSet, Supersquare


class ConstructionError(RuntimeError):
    """An exactness certificate failed while building a basis or set."""


class UnnormalizedState(Value):
    """Integer entries with implicit 1/sqrt(norm_sq) normalization."""

    __slots__ = ("entries", "norm_sq")

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


class MubBasis(Value):
    """State s carries, for generator j of ``source.basis()``, the principal
    eigenvalue negated when bit j of s is set; state 0 is the ray state."""

    __slots__ = ("source", "expansion_basis", "states", "operator_words", "class_of_state")

    def __init__(
        self,
        source: Subgroup,
        expansion_basis: FieldBasis,
        states: tuple[UnnormalizedState, ...],
        operator_words: tuple[PauliWord, ...],
        class_of_state: tuple[int, ...] | None = None,
    ) -> None:
        self.source = source
        self.expansion_basis = expansion_basis
        self.states = states
        self.operator_words = operator_words
        self.class_of_state = class_of_state

    @property
    def d(self) -> int:
        return self.source.order

    @property
    def ray_state(self) -> UnnormalizedState:
        return self.states[0]


def _cosets(ss: Supersquare) -> tuple[tuple[int, ...], tuple[int, ...], list[int]]:
    """The canonical basis of ss's generating subgroup, the coset
    representatives ss caches in label order, and the flip signature
    of every class, 0 for class 1.  Bit j of a signature is set iff T_rep
    anticommutes with the translation of generator j, which is where the
    symplectic form of the two points is 1: the parity of polar & rep."""
    polars = _polars(ss.field)
    gens, reps = ss.generator._basis, ss._reps
    slots = [0] + [
        sum(((polars[g] & rep).bit_count() & 1) << j for j, g in enumerate(gens))
        for rep in reps
    ]
    return gens, reps, slots


def _times_minus_i(st: tuple[int, int, int]) -> tuple[int, int, int]:
    """A packed state times -i: every phase on the support drops by one,
    which flips lo and borrows from hi where lo was clear."""
    s, lo, hi = st
    return s, lo ^ s, hi ^ (s & ~lo)


def _divide_by_first(st: tuple[int, int, int]) -> tuple[int, int, int]:
    """A packed state divided by its first nonzero entry, into the canonical
    quadrant: times -i where that entry's phase is odd, then times -1
    where it is 2."""
    s, lo, hi = st
    first = s & -s
    if lo & first:
        s, lo, hi = _times_minus_i(st)
    if hi & first:
        hi ^= s
    return s, lo, hi


def _ray_planes(ops: Sequence[tuple[int, int]], d: int, n: int) -> tuple[int, int, int]:
    """The ray state on planes: P e_c for the first c where it is nonzero,
    the factors 1 + conj(lambda_j) T_j of P applied one at a time.  A
    translation moves the support, a coset of the x masks' span so far,
    onto a disjoint one, where the sum is the union of the planes, or
    gives +-1 times the state, which keeps it or annihilates it.  Entry c
    is then 1, the canonical quadrant.  Any other image raises
    ConstructionError."""
    for c in range(d):
        st = (1 << c, 0, 0)
        for x, z in ops:
            t = translate_packed(x, z, st, n)
            if (x & z).bit_count() & 1:
                t = _times_minus_i(t)
            if t[0] != st[0]:
                st = (st[0] | t[0], st[1] | t[1], st[2] | t[2])
            elif t != st:
                if t != (st[0], st[1], st[2] ^ st[0]):
                    raise ConstructionError("translations do not commute on the ray state")
                break
        else:
            return st
    raise ConstructionError("the projector of the eigenvalue assignment is zero")


def _signature(ops: Sequence[tuple[int, int]], st: tuple[int, int, int], n: int) -> int | None:
    """Bit j set where X^x Z^z = ops[j] maps the packed state to -i^q times
    itself, clear where to i^q, q = |x & z| mod 2 (the principal eigenvalue);
    None if a translation moves the support or shifts its phases unevenly."""
    s, lo, hi = st
    signature = 0
    for j, (x, z) in enumerate(ops):
        t, tlo, thi = translate_packed(x, z, st, n)
        dlo, dhi = lo ^ tlo, hi ^ thi ^ (lo & ~tlo)
        if t != s or dlo not in (0, s) or dhi not in (0, s):
            return None
        signature |= (dhi != 0) << j
    return signature


def common_eigenbasis(a1: Subgroup, expansion_basis: FieldBasis) -> MubBasis:
    """The d common eigenvectors of the translation operators of a1: state
    s is the ray state translated by the coset representative whose flip
    signature is s: the flip identity, a tested theorem.  Only
    build_mub_set's certificate checks states against the generators."""
    from .squares import Supersquare

    ss = Supersquare(a1)
    if not is_extraordinary(a1):
        raise ValueError("subgroup is not extraordinary: operators do not commute")
    return _eigenbasis(ss, expansion_basis)[0]


def _eigenbasis(
    ss: Supersquare, expansion_basis: FieldBasis, correspond: bool = False
) -> tuple[MubBasis, list[tuple[int, int, int]], list[tuple[int, int]]]:
    """common_eigenbasis of ss's generator, with apply_correspondence's
    class map if correspond; then its states as the planes they were
    unpacked from, and the (x, z) masks of its generator translations.
    The caller checks that the generator A is Lagrangian, so the d flip
    signatures are distinct: r -> (omega(g_j, r))_j has kernel A^perp = A."""
    a1 = ss.generator
    d, n = a1.field.order, a1.field.n
    table = translation_table(expansion_basis)
    gens, reps, slots = _cosets(ss)
    ops = [table[g] for g in gens]
    ray = _ray_planes(ops, d, n)
    states = [ray] * d
    for s, rep in zip(slots[1:], reps):
        states[s] = _divide_by_first(translate_packed(*table[rep], ray, n))
    # entry k of a packed state: i^(lo_k + 2 hi_k) on the support, else 0
    entries = [
        tuple(UNITS[(lo >> k & 1) + 2 * (hi >> k & 1)] if s >> k & 1 else ZERO for k in range(d))
        for s, lo, hi in states
    ]
    words = tuple(PauliWord.from_masks(*table[m], n) for m in a1.masks()[1:])
    return MubBasis(
        source=a1,
        expansion_basis=expansion_basis,
        states=tuple(UnnormalizedState(e, ray[0].bit_count()) for e in entries),
        operator_words=words,
        class_of_state=tuple(slots) if correspond else None,
    ), states, ops


def apply_correspondence(basis: MubBasis, ss: Supersquare) -> MubBasis:
    """Fix the class-state map: class 1 holds the ray state, and class k
    the state its canonical representative translates the ray state onto,
    which is the state indexed by that representative's flip signature.
    certify_bases checks that the map is a bijection."""
    if ss.generator != basis.source:
        raise ValueError("supersquare generator differs from the basis source")
    cmap = tuple(_cosets(ss)[2])
    return MubBasis(basis.source, basis.expansion_basis, basis.states, basis.operator_words, cmap)


class MubSet(Value):
    __slots__ = ("bases", "source_set")

    @property
    def d(self) -> int:
        return self.source_set.d


def packed_inner(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int]:
    """(re, im) of <a|b> for packed states: each common support bit adds
    i^q for the phase difference q = p_b - p_a mod 4, whose bit-planes are
    lo_a ^ lo_b and hi_a ^ hi_b ^ (the borrow lo_a & ~lo_b)."""
    sa, la, ha = a
    sb, lb, hb = b
    s = sa & sb
    lo = la ^ lb
    hi = ha ^ hb ^ (la & ~lb)
    even = s & ~lo
    odd = s & lo
    return (
        even.bit_count() - 2 * (even & hi).bit_count(),
        odd.bit_count() - 2 * (odd & hi).bit_count(),
    )


def _stabilizer(words, states, packs, d: int) -> list[int] | None:
    """The masks x << n | z of the first n independent words when the
    basis has d packed states of d entries with right, nonzero norms and d
    distinct signatures under them; else None.  The states are then
    pairwise orthogonal, so the words, diagonal in their basis, commute and
    generate the stabilizer group of each of them."""
    n = d.bit_length() - 1
    gens = _independent(x << n | z for x, z in words if 0 <= x < d and 0 <= z < d)
    ops = [(m >> n, m & d - 1) for m in gens]
    fit = all(p and st.dim == d and st.norm_sq == p[0].bit_count() > 0
              for st, p in zip(states, packs))
    if d != 1 << n or len(ops) != n or len(states) != d or not fit:
        return None
    return gens if len({_signature(ops, p, n) for p in packs} - {None}) == d else None


def _certify(bases, packs, d: int, class_maps, words):
    """mubdoc.certify_bases but the structure check, given packs[b][s]: the
    planes of bases[b][s], or None where it has an entry outside
    {0, +-1, +-i}."""
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
    for bi, (states, ps) in enumerate(zip(bases, packs), start=1):
        for si, (st, p) in enumerate(zip(states, ps)):
            recomputed = p[0].bit_count() if p else sum(e.norm_sq() for e in st.entries)
            if st.norm_sq != recomputed or recomputed == 0:
                checks["norms"] = False
                failures.append(f"basis {bi} state {si} has a bad norm_sq")
    words = [*(words or ()), *[()] * len(bases)]
    stabilizers = [_stabilizer(w or (), sts, ps, d) for w, sts, ps in zip(words, bases, packs)]
    # (index, state, packed state or None) of the states the pair checks take
    sized = [
        [(i, st, p) for i, (st, p) in enumerate(zip(states, ps)) if st.dim == d]
        for states, ps in zip(bases, packs)
    ]
    checks["orthogonality"] = True
    for bi, states in enumerate(sized, start=1):
        if stabilizers[bi - 1]:
            continue
        for (i, u, pu), (j, v, pv) in combinations(states, 2):
            if (packed_inner(pu, pv) if pu and pv else u.inner(v)) != (0, 0):
                checks["orthogonality"] = False
                failures.append(f"basis {bi} states {i},{j} not orthogonal")
    checks["unbiasedness"] = True
    for (bi, us), (bj, vs) in combinations(enumerate(sized, start=1), 2):
        ga, gb = stabilizers[bi - 1], stabilizers[bj - 1]
        if ga and gb and len(_independent(ga + gb)) == len(ga) + len(gb):
            continue
        for i, u, pu in us:
            for j, v, pv in vs:
                re, im = packed_inner(pu, pv) if pu and pv else u.inner(v)
                if d * (re * re + im * im) != u.norm_sq * v.norm_sq:
                    checks["unbiasedness"] = False
                    failures.append(f"bases {bi},{bj} biased at states ({i},{j})")
    checks["class_maps"] = True
    for bi, m in enumerate(class_maps, start=1):
        fault = _class_map_fault(m, d)
        if fault:
            checks["class_maps"] = False
            failures.append(f"basis {bi} {fault}")
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
    square of a verified complete set, then certify the result as
    mubdoc.certify_bases does, on the planes its states were unpacked from
    and its generator translations; the first failure raises
    ConstructionError."""
    from .squares import verify_complete_set

    report = verify_complete_set(c)
    if not report.passed:
        raise ValueError(
            "complete set fails verification: " + "; ".join(report.failures)
        )
    field = c.field
    if expansion_basis is None:
        expansion_basis = default_selfdual_basis(field)
    bases, packs, words = zip(*(_eigenbasis(ss, expansion_basis, True) for ss in c.supersquares))
    states, maps = [b.states for b in bases], [b.class_of_state for b in bases]
    _, failures = _certify(states, packs, field.order, maps, words)
    if failures:
        raise ConstructionError(failures[0])
    return MubSet(bases, c)


# ---------------------------------------------------------------------------
# Three-qubit entanglement structure
# ---------------------------------------------------------------------------

class Separability(enum.Enum):
    FACTORIZED = "factorized"
    BISEPARABLE = "biseparable"
    NONSEPARABLE = "nonseparable"


def _kind(profile: Sequence[int]) -> Separability:
    if all(r == 1 for r in profile):
        return Separability.FACTORIZED
    if all(r == 2 for r in profile):
        return Separability.NONSEPARABLE
    return Separability.BISEPARABLE


def _word_ranks(basis: MubBasis) -> list[int]:
    """The Schmidt rank every state of the basis has across each cut
    q|rest, qubit 1 first, read off its d - 1 stabilizer words.  The
    letters the words carry at qubit q, with I, are the group's restriction
    to q, of order 2^r for its GF(2) rank r; every state has Schmidt rank
    2^(r - 1) across the cut (Fattal et al., quant-ph/0406168): 1 when the
    words carry one non-identity letter there, else 2.  The Schmidt ranks
    of the states are its oracle."""
    words = basis.operator_words
    return [len({"I", *(w.letters[q] for w in words)}) // 2 for q in range(len(words[0].letters))]


def classify_basis(basis: MubBasis) -> Separability:
    """The separability class every state of the basis shares, from the
    ranks of its words across the three cuts."""
    if basis.d != 8:
        raise ValueError("entanglement classification is defined for d = 8")
    return _kind(_word_ranks(basis))


class EntanglementStructure(Value):
    __slots__ = ("n_f", "n_b", "n_ns")

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
