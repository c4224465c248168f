"""A MUB document read back, by `mub verify` alone: its decoders, and the
certificate's entry that packs its states and recounts a claimed structure
from their Schmidt ranks.  Like serialize's decoders before, it imports mub
where it uses its types, and it never loads squares.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from .gf2n import field_for_dimension
from .pauli import UNITS, GaussInt
from .serialize import _expect, _ints

if TYPE_CHECKING:
    from .mub import Separability, UnnormalizedState


def state_from_json(data: Any) -> UnnormalizedState:
    from .mub import UnnormalizedState

    data = _expect(data, dict, "a state")
    entries = tuple(
        GaussInt(*_ints(e, "an entry", 2)) for e in _expect(data.get("num"), list, "num")
    )
    return UnnormalizedState(entries, _expect(data.get("norm_sq"), int, "norm_sq"))


def mub_payload_from_json(
    data: Any,
) -> tuple[int, list[list[UnnormalizedState]], list[list[int] | None], list[int] | None]:
    """(d, states per basis, class map per basis, structure or None) from a
    MUB document."""
    data = _expect(data, dict, "the document")
    d = field_for_dimension(_expect(data.get("d"), int, "d")).order
    bases, maps = [], []
    for basis in _expect(data.get("bases"), list, "bases"):
        basis = _expect(basis, dict, "a basis")
        states = _expect(basis.get("states"), list, "states")
        bases.append([state_from_json(s) for s in states])
        cmap = basis.get("class_of_state")
        maps.append(None if cmap is None else _ints(cmap, "class_of_state"))
    triple = data.get("structure")
    return d, bases, maps, None if triple is None else _ints(triple, "structure", 3)


# a word's letters -> the bits of its x and of its z mask, qubit 1 first, Y = XZ
_X_BITS, _Z_BITS = str.maketrans("IXYZ", "0110"), str.maketrans("IXYZ", "0011")


def mub_words_from_json(data: Any, d: int) -> list[list[tuple[int, int]]]:
    """The (x, z) masks of the n-letter "words" of each basis in a MUB
    document that mub_payload_from_json has read.  They are untrusted hints
    for certify_bases, so words that do not parse are dropped."""
    out = []
    for basis in data["bases"]:
        try:
            words = ["".join(w) for w in basis["words"]]
        except (KeyError, TypeError):
            words = []
        words = [w for w in words if 1 << len(w) == d and not w.strip("IXYZ")]
        out.append([(int(w.translate(_X_BITS), 2), int(w.translate(_Z_BITS), 2)) for w in words])
    return out


# entry i^p -> p
_PHASE = {u: p for p, u in enumerate(UNITS)}


def pack_state(st: UnnormalizedState) -> tuple[int, int, int] | None:
    """(support, lo, hi) bit masks of a state whose entries all lie in
    {0, +-1, +-i}: bit k of support is set where entry k is nonzero, and
    there entry k is i^p with p = lo_k + 2 hi_k.  None for any other state."""
    support = lo = hi = 0
    for k, e in enumerate(st.entries):
        if e.is_zero:
            continue
        p = _PHASE.get(e)
        if p is None:
            return None
        support |= 1 << k
        lo |= (p & 1) << k
        hi |= (p >> 1) << k
    return support, lo, hi


def certify_bases(
    bases: Sequence[Sequence[UnnormalizedState]],
    d: int,
    class_maps: Sequence[Sequence[int] | None],
    expected_structure: Sequence[int] | None = None,
    words: Sequence[Sequence[tuple[int, int]] | None] | None = None,
) -> tuple[dict[str, bool], list[str]]:
    """The exact MUB certificate: d+1 bases of d states of d entries each;
    each norm_sq equal to the recomputed, nonzero squared norm; states
    orthogonal within each basis; d * |<u,v>|^2 = N_u * N_v across bases;
    every class map a bijection onto the d states.  With
    ``expected_structure``, the entanglement structure recounted from the
    states must equal it, which needs d = 8.  A state without d entries
    fails the cardinality check and is left out of the pair checks.
    Inner products of packed states are read off popcounts (packed_inner),
    others taken entry by entry.

    ``words`` are untrusted (x, z) masks per basis, of translations claimed
    to stabilize its states.  A basis they certify (_stabilizer) skips its
    orthogonality pairs, and two such bases whose 2n generator masks are
    independent skip their d^2 inner products: stabilizer bases whose
    groups meet only in the identity are unbiased.  Every other basis and
    pair is checked, so the result never depends on the words.  Returns
    the checks and every failure."""
    from .mub import EntanglementStructure, _certify

    packs = [[pack_state(st) for st in states] for states in bases]
    checks, failures = _certify(bases, packs, d, class_maps, words)
    if expected_structure is not None and d != 8:
        checks["structure"] = False
        failures.append(f"structure is defined for d = 8 only, document has d = {d}")
    elif expected_structure is not None:
        kinds = [separability([st for st in states if st.dim == d]) for states in bases]
        recount = (
            [0, 0, 0] if None in kinds else list(EntanglementStructure.count(kinds).astuple())
        )
        checks["structure"] = recount == list(expected_structure)
        if not checks["structure"]:
            failures.append(f"structure mismatch: recomputed {recount}")
    return checks, failures


BIPARTITIONS = ("1|23", "2|13", "3|12")


def _two_row_rank(top: Sequence[GaussInt], bottom: Sequence[GaussInt]) -> int:
    """Rank of a two-row matrix over the Gaussian rationals, read off its
    2x2 minors: 0 when both rows are zero, 1 when every minor vanishes,
    2 otherwise."""
    if all(e.is_zero for e in top) and all(e.is_zero for e in bottom):
        return 0
    minors = (
        top[i] * bottom[j] - top[j] * bottom[i]
        for i in range(len(top))
        for j in range(i + 1, len(top))
    )
    return 2 if any(not m.is_zero for m in minors) else 1


def _cut_rank(u: UnnormalizedState, n: int, q: int) -> int:
    """Rank of an n-qubit state across the cut of qubit q from the rest: the
    two rows are the entries with bit n - q of the index clear and set,
    in index order; qubit 1 is the most significant index bit."""
    rows: tuple[list[GaussInt], list[GaussInt]] = ([], [])
    for b, e in enumerate(u.entries):
        rows[b >> (n - q) & 1].append(e)
    return _two_row_rank(*rows)


def schmidt_rank(u: UnnormalizedState, bipartition: str) -> int:
    """Exact rank of the 2x4 reshape of a three-qubit state across the cut
    "q|rest"."""
    if u.dim != 8:
        raise ValueError("schmidt_rank supports three-qubit states only")
    if bipartition not in BIPARTITIONS:
        raise ValueError(f"bipartition must be one of {BIPARTITIONS}")
    return _cut_rank(u, 3, BIPARTITIONS.index(bipartition) + 1)


def rank_profile(u: UnnormalizedState) -> tuple[int, int, int]:
    return tuple(schmidt_rank(u, bp) for bp in BIPARTITIONS)  # type: ignore[return-value]


def separability(states: Sequence[UnnormalizedState]) -> Separability | None:
    """The class of three-qubit states from the rank profile across the
    three cuts they all share; None when their profiles differ."""
    from .mub import _kind

    profiles = {rank_profile(st) for st in states}
    return _kind(*profiles) if len(profiles) == 1 else None
