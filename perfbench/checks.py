"""Exact checks of mubkit's outputs, written without mubkit.

Every function takes a parsed JSON document in mubkit's canonical form
and returns a list of failures (empty when the document passes).  Points
are packed as x | y << n, the convention of mubkit's JSON and its
bitmask internals.
"""

from __future__ import annotations

from itertools import combinations

# Field moduli by degree n, from mubkit's documented conventions.
MODULI = {2: 0b111, 3: 0b1011, 4: 0b10011, 5: 0b100101}


def degree(d: int) -> int:
    return d.bit_length() - 1


def gf_mul(a: int, b: int, n: int) -> int:
    poly = MODULI[n]
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> n & 1:
            a ^= poly
    return acc


def gf_trace(a: int, n: int) -> int:
    acc, sq = a, a
    for _ in range(n - 1):
        sq = gf_mul(sq, sq, n)
        acc ^= sq
    return acc


def lagrangian_count(n: int) -> int:
    """Isotropic n-dimensional subspaces of the symplectic space F_2^(2n):
    the product of (2^i + 1) for i = 1..n."""
    out = 1
    for i in range(1, n + 1):
        out *= (1 << i) + 1
    return out


def _pack(point, n: int) -> int:
    x, y = point
    return x | y << n


def _square_failures(square, d: int) -> tuple[list[str], frozenset[int] | None]:
    """Checks that a square is a supersquare over an extraordinary subgroup;
    returns the failures and the generator class."""
    n = degree(d)
    if square.get("d") != d:
        return [f"square has d = {square.get('d')}, expected {d}"], None
    classes = [frozenset(_pack(p, n) for p in cls) for cls in square["classes"]]
    if len(classes) != d or any(len(c) != d for c in classes):
        return ["square is not d classes of d points"], None
    if frozenset().union(*classes) != frozenset(range(d * d)):
        return ["classes do not partition the plane"], None
    gen = next(c for c in classes if 0 in c)
    if any(a ^ b not in gen for a in gen for b in gen):
        return ["origin class is not a subgroup"], gen
    for cls in classes:
        rep = min(cls)
        if frozenset(rep ^ g for g in gen) != cls:
            return ["a class is not a coset of the origin class"], gen
    if not is_isotropic(gen, n):
        return ["origin class is not extraordinary"], gen
    return [], gen


def is_isotropic(points, n: int) -> bool:
    """tr(x1 y2 + x2 y1) = 0 on every pair; the form is bilinear, so a
    basis suffices."""
    low = (1 << n) - 1
    basis: list[int] = []
    reduced: list[int] = []
    for p in sorted(points):
        m = p
        for r in reduced:
            m = min(m, m ^ r)
        if m:
            reduced.append(m)
            basis.append(p)
    for a, b in combinations(basis, 2):
        form = gf_mul(a & low, b >> n, n) ^ gf_mul(b & low, a >> n, n)
        if gf_trace(form, n):
            return False
    return True


def generator_classes(doc) -> list[frozenset[int]]:
    """The class through the origin of each square of a set document."""
    n = degree(doc["squares"][0]["d"])
    out = []
    for square in doc["squares"]:
        for cls in square["classes"]:
            packed = frozenset(_pack(p, n) for p in cls)
            if 0 in packed:
                out.append(packed)
                break
    return out


def check_partition(gens: list[frozenset[int]], d: int) -> list[str]:
    """The d + 1 generator classes cover the d^2 - 1 nonzero points once."""
    if len(gens) != d + 1:
        return [f"{len(gens)} generator classes, expected {d + 1}"]
    nonzero = [p for g in gens for p in g if p]
    if len(nonzero) != d * d - 1 or set(nonzero) != set(range(1, d * d)):
        return ["generator classes do not partition the nonzero points"]
    return []


def check_set(doc, d: int) -> list[str]:
    """A complete set: d + 1 extraordinary supersquares whose generators
    partition the nonzero points (hence pairwise orthogonal)."""
    squares = doc.get("squares")
    if not isinstance(squares, list) or not squares:
        return ["no squares"]
    gens = []
    for i, square in enumerate(squares, start=1):
        failures, gen = _square_failures(square, d)
        if failures:
            return [f"square {i}: {failures[0]}"]
        gens.append(gen)
    return check_partition(gens, d)


def check_square(doc, d: int) -> list[str]:
    return _square_failures(doc, d)[0]


def classify_set(doc) -> list[str]:
    """Latin / RowLatin / ColumnLatin / Plain per square: rows fix the
    second coordinate, columns the first."""
    out = []
    for square in doc["squares"]:
        d = square["d"]
        label = {}
        for idx, cls in enumerate(square["classes"]):
            for x, y in cls:
                label[x, y] = idx
        rows = all(len({label[x, y] for x in range(d)}) == d for y in range(d))
        cols = all(len({label[x, y] for y in range(d)}) == d for x in range(d))
        out.append(
            "Latin" if rows and cols else "RowLatin" if rows else "ColumnLatin" if cols else "Plain"
        )
    return out


def check_census(doc, d: int, census: dict[str, int]) -> list[str]:
    """Census counts, exhaustiveness, and per set: the generator classes
    partition the nonzero points; all sets are distinct."""
    failures = []
    if doc.get("d") != d or doc.get("exhaustive") is not True:
        failures.append("census is not an exhaustive search at this d")
    if doc.get("census") != census:
        failures.append(f"census {doc.get('census')} != {census}")
    sets = doc.get("sets", [])
    if len(sets) != sum(census.values()):
        failures.append(f"{len(sets)} sets listed, census says {sum(census.values())}")
    types: dict[str, int] = {}
    seen = set()
    for i, cset in enumerate(sets):
        types[cset["type"]] = types.get(cset["type"], 0) + 1
        gens = generator_classes(cset)
        bad = check_partition(gens, d)
        if bad:
            failures.append(f"set {i}: {bad[0]}")
            break
        seen.add(frozenset(gens))
    if types != census:
        failures.append(f"set types {types} != census {census}")
    if len(seen) != len(sets):
        failures.append(f"only {len(seen)} of {len(sets)} sets are distinct")
    return failures


def check_mub(doc, d: int) -> list[str]:
    """Consistent norm_sq, orthogonality within bases,
    d * |<u,v>|^2 = N_u * N_v across bases, bijective class maps."""
    if doc.get("d") != d:
        return [f"MUB document has d = {doc.get('d')}, expected {d}"]
    bases = doc.get("bases", [])
    if len(bases) != d + 1:
        return [f"{len(bases)} bases, expected {d + 1}"]
    states = []
    for bi, basis in enumerate(bases, start=1):
        if sorted(basis.get("class_of_state") or []) != list(range(d)):
            return [f"basis {bi}: class map is not a bijection"]
        if len(basis["states"]) != d:
            return [f"basis {bi}: {len(basis['states'])} states"]
        row = []
        for si, state in enumerate(basis["states"]):
            num = state["num"]
            norm = sum(re * re + im * im for re, im in num)
            if len(num) != d or norm == 0 or norm != state["norm_sq"]:
                return [f"basis {bi} state {si}: bad entries or norm_sq"]
            row.append(([re for re, _ in num], [im for _, im in num], norm))
        states.append(row)
    for bi, row in enumerate(states, start=1):
        for (i, u), (j, v) in combinations(enumerate(row), 2):
            if _inner(u, v) != (0, 0):
                return [f"basis {bi}: states {i} and {j} are not orthogonal"]
    for (bi, a), (bj, b) in combinations(enumerate(states, start=1), 2):
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                re, im = _inner(u, v)
                if d * (re * re + im * im) != u[2] * v[2]:
                    return [f"bases {bi},{bj} biased at states ({i},{j})"]
    return []


def _inner(u, v) -> tuple[int, int]:
    """<u, v> = sum conj(u_k) v_k, as (re, im)."""
    ur, ui = u[0], u[1]
    vr, vi = v[0], v[1]
    re = sum(map(int.__mul__, ur, vr)) + sum(map(int.__mul__, ui, vi))
    im = sum(map(int.__mul__, ur, vi)) - sum(map(int.__mul__, ui, vr))
    return re, im


def check_structure(doc) -> list[str]:
    """An entanglement census of nine bases agrees with its per-basis kinds."""
    triple, kinds = doc.get("structure"), doc.get("bases")
    names = ("factorized", "biseparable", "nonseparable")
    if not isinstance(kinds, list) or len(kinds) != 9 or set(kinds) - set(names):
        return ["bases are not nine separability kinds"]
    if triple != [kinds.count(name) for name in names]:
        return [f"structure {triple} does not match the basis kinds"]
    return []


def check_enumeration(doc, d: int) -> list[str]:
    """Every extraordinary subgroup of F_d x F_d, each listed once: count
    equal to the number of Lagrangian subspaces, each an isotropic
    subgroup of order d."""
    n = degree(d)
    subs = doc.get("subgroups", [])
    expected = lagrangian_count(n)
    if len(subs) != expected:
        return [f"{len(subs)} subgroups, expected {expected}"]
    seen = set()
    for sub in subs:
        pts = frozenset(_pack(p, n) for p in sub)
        if len(pts) != d or any(a ^ b not in pts for a in pts for b in pts):
            return ["a listed set is not an order-d subgroup"]
        if not is_isotropic(pts, n):
            return ["a listed subgroup is not extraordinary"]
        seen.add(pts)
    if len(seen) != len(subs):
        return ["subgroups repeat"]
    return []
