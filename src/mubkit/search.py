"""Complete-set search: exact cover of the nonzero points by extraordinary
subgroups, and the census typing of the sets it finds.

The search enumerates every tiling by one depth-first exact cover in one
process over the extraordinary subgroups, held as integer bitsets of
their points with a bitset of compatible blocks per block; its result is
one value of those blocks' bases, the covers and their labels, and builds
supersquares and sets only when they are read.  Only ``squares search``
loads this module.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import cached_property, partial, reduce
from operator import itemgetter, or_
from typing import Iterable, Sequence

from .gf2n import Field, Value
from .phasespace import Point, Subgroup, _sorted_bases, _span, iter_lagrangian_bases, point_table
from .squares import (
    CompleteSet,
    Supersquare,
    _pair_table,
    _recipes,
    _scale,
    supersquare_from_subgroup,
)


class SearchResult(Value):
    """The complete sets a search found over the blocks with these bases,
    in canonical order: each set is its cover (the sorted indices of its
    d + 1 blocks) and its (type, v1, v2) label.  ``exhaustive`` says
    whether the search ran to the end.  ``blocks`` and ``sets`` are built
    on first read, and sets that hold the same block share its one
    Supersquare."""

    __slots__ = ("field", "bases", "covers", "labels", "exhaustive", "__dict__")

    @cached_property
    def blocks(self) -> dict[int, Supersquare]:
        """One Supersquare per block that some set holds, by block index."""
        trusted = partial(Subgroup._trusted, self.field)
        used = sorted(set().union(*self.covers))
        return {i: supersquare_from_subgroup(trusted(self.bases[i])) for i in used}

    @cached_property
    def sets(self) -> tuple[CompleteSet, ...]:
        get = self.blocks.__getitem__
        return tuple(
            CompleteSet(*label, tuple(map(get, cover)))
            for cover, label in zip(self.covers, self.labels)
        )

    def census(self) -> dict[str, int]:
        return dict(Counter(set_type for set_type, _, _ in self.labels))


def complete_set_templates(field: Field) -> dict[frozenset[int], tuple[str, Point, Point]]:
    """Generator-set templates keyed by frozensets of subgroup bitsets (bit
    m set for every nonzero packed point m); first match wins, scanning
    types in order I, II, III, IV.  Every pair with det(v1, v2) != 0 gives
    the one type I template, the d + 1 lines, labelled (e1, e2) = ((1, 0),
    (0, 1)) rather than its first pair in canonical point order, ((0, 1),
    (1, 0)).  A type II-IV template is labelled with its first valid pair
    (v1, v2) in canonical point order: the base generators of _recipes
    mapped through that pair's table.  _template_scan skips the pairs whose
    template is known to repeat."""
    table = point_table(field)
    lines = frozenset(sum(1 << m for m in _span(b)[1:]) for b in _recipes(field, "I", 1))
    templates = {lines: ("I", table[1], table[1 << field.n])}
    for set_type, pairs in _template_scan(field)[0].items():  # types in order II, III, IV
        for key, (v1, v2) in pairs.items():
            templates.setdefault(key, (set_type, table[v1], table[v2]))
    return templates


def _template_scan(
    field: Field,
) -> tuple[
    dict[str, dict[frozenset[int], tuple[int, int]]],
    dict[tuple[str, int], set[tuple[int, int]]],
]:
    """The first pair (v1, v2) of each type II-IV template, per type, in
    canonical pair order, and the maps learned on the way.

    Pair p = (v1, v2) has the table T_p of (x, y) -> x*v1 + y*v2, and its
    template is the image of the base template at k = det p under T_p.  A
    map B = (b1, b2), two packed points, takes p to p.B = (T_p[b1],
    T_p[b2]); if B keeps a type's template at one pair of det k, it keeps
    it at every valid pair of det k.  keeps[type, k] holds such maps, each
    learned from two pairs whose keys were equal: when pair q repeats the
    template first met at pair f, B = f^-1.q = (T_f.index(q1),
    T_f.index(q2)) goes to keeps[type, det f] and its inverse
    (T_q.index(f1), T_q.index(f2)) to keeps[type, det q].  The scan keeps
    the table of every first pair, as bytes.  When it finds a first pair p, it marks
    p.B for every B in keeps[type, det p]; when it learns a new B at det k,
    it marks p.B for every first pair p of det k found so far.  A marked
    pair's template was met at an earlier pair, so its key is never
    computed and the first pairs are those of the full scan."""
    d, n = field.order, field.n
    types = {4: ("II",), 8: ("II", "III", "IV")}.get(d)
    if types is None:
        return {}, {}
    lo, n2 = d - 1, 2 * n
    # nonzero packed points in canonical (x mask, y mask) order
    points = [x | y << n for x in range(d) for y in range(d)][1:]
    multiples = [[_scale(field, u, c) for c in range(d)] for u in range(d * d)]
    times = multiples[:d]  # the points (a, 0): times[a][b] = a*b in F_d
    dets = [1] if d == 4 else [k for k in range(1, d) if not field._trace[k]]
    # each base subgroup as a getter of its nonzero points' entries in a table
    getters = {
        k: [(t, [itemgetter(*_span(b)[1:]) for b in _recipes(field, t, k)]) for t in types]
        for k in dets
    }
    firsts: dict[str, dict[frozenset[int], tuple[int, int]]] = {t: {} for t in types}
    first_tables: dict[str, dict[frozenset[int], bytes]] = {t: {} for t in types}
    scanned = {(t, k): [] for t in types for k in dets}  # the first pairs' tables, by det
    keeps = {(t, k): set() for t in types for k in dets}
    marks = {t: bytearray(d**4) for t in types}
    powers = [1 << m for m in range(d * d)]

    def mark(set_type: str, tables: list[bytes], maps: Iterable[tuple[int, int]]) -> None:
        marked = marks[set_type]
        for b1, b2 in maps:
            for table in tables:
                marked[table[b1] << n2 | table[b2]] = 1

    def learn(set_type: str, k: int, b: tuple[int, int]) -> None:
        if b not in keeps[set_type, k]:
            keeps[set_type, k].add(b)
            mark(set_type, scanned[set_type, k], [b])

    for v1 in points:
        s1, times_x, times_y = multiples[v1], times[v1 & lo], times[v1 >> n]
        for v2 in points:
            k = times_x[v2 >> n] ^ times_y[v2 & lo]  # det(v1, v2)
            by_type = getters.get(k)
            if by_type is None:
                continue
            pair, table = v1 << n2 | v2, None
            for set_type, gets in by_type:
                marked = marks[set_type]
                if marked[pair]:
                    continue
                if table is None:
                    table = bytes(_pair_table(s1, multiples[v2]))  # d*d <= 64 points
                    bits = list(map(powers.__getitem__, table))
                key = frozenset([sum(g(bits)) for g in gets])
                first = first_tables[set_type].setdefault(key, table)
                if first is table:
                    firsts[set_type][key] = (v1, v2)
                    scanned[set_type, k].append(table)
                    mark(set_type, [table], keeps[set_type, k])
                else:
                    f1, f2 = firsts[set_type][key]
                    fk = times[f1 & lo][f2 >> n] ^ times[f2 & lo][f1 >> n]  # det(f1, f2)
                    learn(set_type, fk, (first.index(v1), first.index(v2)))
                    learn(set_type, k, (table.index(f1), table.index(f2)))  # its inverse
    return firsts, keeps


class _Deadline(Exception):
    pass


def _cover_tables(
    blocks: Iterable[Sequence[int]], d: int, deadline: float | None = None
) -> tuple[list[int], list[int], list[int]] | None:
    """Exact-cover tables over block masks listed origin first: each
    block's nonzero points as a bitset, through[p] the bitset of the blocks
    that contain point p, and compat[i] the bitset of the blocks that share
    no nonzero point with block i.  None if the absolute
    ``time.monotonic()`` deadline passes first: each pass over the blocks
    checks it per block, the second being quadratic in the block count.
    through[p] is set in a byte row, doubled when full, read once as an int."""
    points: list[Sequence[int]] = []
    bits: list[int] = []
    rows = [bytearray() for _ in range(d * d)]
    for i, masks in enumerate(blocks):
        if deadline is not None and time.monotonic() > deadline:
            return None
        if i >> 3 == len(rows[0]):
            zeros = bytes(len(rows[0]) or 1)
            for row in rows:
                row += zeros
        points.append(masks[1:])
        bits.append(sum(1 << m for m in masks[1:]))
        for m in masks[1:]:
            rows[m][i >> 3] |= 1 << (i & 7)
    through = [int.from_bytes(row, "little") for row in rows]
    all_blocks = (1 << len(bits)) - 1
    compat = []
    for block in points:
        if deadline is not None and time.monotonic() > deadline:
            return None
        compat.append(all_blocks & ~reduce(or_, map(through.__getitem__, block)))
    return bits, through, compat


def _search(
    tables: tuple[list[int], list[int], list[int]], deadline: float | None
) -> tuple[list[tuple[int, ...]], bool]:
    """Every cover, and whether the search ran to the end before the
    absolute ``time.monotonic()`` deadline.

    The search state is (covered, alive, chosen): the covered points with
    the origin, the blocks disjoint from every chosen one, and the chosen
    blocks.  Each step branches on the lowest uncovered point, over the
    alive blocks through it, so every cover is met once."""
    bits, through, compat = tables
    full = (1 << len(through)) - 1
    solutions: list[tuple[int, ...]] = []

    def cover(covered: int, alive: int, chosen: tuple[int, ...]) -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise _Deadline
        if covered == full:
            solutions.append(tuple(sorted(chosen)))
            return
        cands = through[(~covered & (covered + 1)).bit_length() - 1] & alive
        while cands:
            low = cands & -cands
            i = low.bit_length() - 1
            cover(covered | bits[i], alive & compat[i], chosen + (i,))
            cands ^= low

    try:
        cover(1, (1 << len(bits)) - 1, ())
        return solutions, True
    except _Deadline:
        return solutions, False


def search_complete_sets(field: Field, time_budget: float | None = None) -> SearchResult:
    """All sets of d+1 extraordinary subgroups with pairwise trivial
    intersections, each once, canonically ordered, and annotated with
    the matching construction type.  A time budget makes the result
    best-effort; the ``exhaustive`` flag reports whether it was hit.

    The search is one depth-first exact cover on bitsets, in this
    process, and the enumeration and the cover share one absolute
    deadline.  Its blocks are in canonical order, so each cover's sorted
    indices are its generators in order and sorted covers are the sets in
    order.  The result holds each set as its cover and its label until its
    sets are read; sets that use the same subgroup share one Supersquare."""
    if time_budget is not None and not time_budget >= 0:
        raise ValueError(f"time budget must be non-negative, got {time_budget}")
    deadline = time.monotonic() + time_budget if time_budget is not None else None
    bases: list[tuple[int, ...]] = []
    enum_complete = True
    for basis in iter_lagrangian_bases(field):
        if deadline is not None and time.monotonic() > deadline:
            enum_complete = False
            break
        bases.append(basis)

    bases = tuple(_sorted_bases(field, bases))
    tables = None  # a cut walk leaves a cover that would stop at its first node
    if enum_complete:
        tables = _cover_tables(map(_span, bases), field.order, deadline)
    if tables is None:
        return SearchResult(field, bases, (), (), False)
    bits = tables[0]
    solutions, exhaustive = _search(tables, deadline)
    solutions.sort()
    templates = complete_set_templates(field)
    unclassified = ("Unclassified", None, None)  # one object: the writer keys labels by id
    labels = tuple(templates.get(frozenset(bits[i] for i in c), unclassified) for c in solutions)
    return SearchResult(field, bases, tuple(solutions), labels, exhaustive)
