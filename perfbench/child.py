"""One benchmark op in a fresh process: a library call, or a traced op.

    python3 perfbench/child.py [--trace SPANS] lib enumerate OUT
    python3 perfbench/child.py [--trace SPANS] lib mub16 X1,Y1 X2,Y2 OUT
    python3 perfbench/child.py --trace SPANS cli ARG...

`lib enumerate` writes every extraordinary subgroup of F_16 x F_16;
`lib mub16` writes the MUB set of the type I set built from the basis
(v1, v2) of F_16 x F_16 (points given as integer masks).  `cli` runs
`mubkit.cli.main(ARG...)` and exits with its code, as `python3 -m
mubkit.cli ARG...` does.

With `--trace`, spans are put around the calls into each mubkit module's
public functions by rebinding them in this process only; nothing under
src/ changes.  The spans are folded in memory into per-layer self time,
inclusive time per metric group and counts, and written to SPANS as JSON
when the op ends.  Self time of a span is its duration minus the time its
child spans cover.  Per-element field and point arithmetic and the
private cover search are left unwrapped, so their cost shows in their
callers' self time.  A listed name the program no longer has is skipped,
and its figures read 0.
"""

from __future__ import annotations

import json
import sys
import time
import types
from collections import Counter, defaultdict


def monotonic() -> float:
    """CLOCK_MONOTONIC, which the parent process reads too."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# (layer, owner, attribute, groups, count): owner is "module" or
# "module:Class"; groups are inclusive-time metrics, counted at the
# outermost call only; count is the metric that counts the calls.
SPANS = [
    ("gf2n", "gf2n:Field", "__init__", (), "gf2n.fields_built"),
    ("gf2n", "gf2n", "field_for_dimension", (), None),
    ("gf2n", "gf2n", "dual_basis", (), None),
    ("gf2n", "gf2n", "is_dual_pair", (), None),
    ("gf2n", "gf2n", "is_selfdual", (), None),
    ("gf2n", "gf2n", "default_selfdual_basis", (), None),
    ("phasespace", "phasespace:Subgroup", "__init__", (), "phasespace.subgroups_built"),
    ("phasespace", "phasespace", "all_points", (), None),
    ("phasespace", "phasespace", "trace_zero_subgroup", (), None),
    ("phasespace", "phasespace", "scale_set", (), None),
    ("phasespace", "phasespace", "line", (), None),
    ("phasespace", "phasespace", "affine_span", (), None),
    ("phasespace", "phasespace", "is_extraordinary", (), None),
    ("phasespace", "phasespace", "enumerate_subgroups", ("phasespace.enumerate_s",), None),
    ("phasespace", "phasespace", "enumerate_extraordinary_subgroups", ("phasespace.enumerate_s",), None),
    ("phasespace", "phasespace", "extraordinary_subgroups_from_forms", ("phasespace.enumerate_s",), None),
    ("squares", "squares:Square", "__init__", (), None),
    ("squares", "squares", "supersquare_from_subgroup", (), "squares.supersquares_built"),
    ("squares", "squares", "is_supersquare", ("squares.verify_s",), "squares.predicate_calls"),
    ("squares", "squares", "is_physical_striation", ("squares.verify_s",), "squares.predicate_calls"),
    ("squares", "squares", "are_orthogonal", ("squares.verify_s",), "squares.predicate_calls"),
    ("squares", "squares", "verify_complete_set", ("squares.verify_s",), "squares.predicate_calls"),
    ("squares", "squares", "classify", (), None),
    ("squares", "squares", "render_ascii", (), None),
    ("squares", "squares", "perturb_supersquare", (), None),
    ("squares", "squares", "type_I_set", (), None),
    ("squares", "squares", "type_II_set_d4", (), None),
    ("squares", "squares", "type_II_set_d8", (), None),
    ("squares", "squares", "type_III_set_d8", (), None),
    ("squares", "squares", "type_IV_set_d8", (), None),
    ("squares", "squares", "complete_set_templates", ("squares.templates_s",), None),
    ("squares", "squares", "search_complete_sets", ("squares.search_s",), None),
    ("pauli", "pauli", "translation_operator", (), "pauli.operators_built"),
    ("pauli", "pauli:GaussMatrix", "__matmul__", (), "pauli.matmuls"),
    ("pauli", "pauli:GaussMatrix", "kron", (), None),
    ("pauli", "pauli", "commutes", (), None),
    ("pauli", "pauli", "trace_condition", (), None),
    ("pauli", "pauli", "unit_multiple", (), None),
    ("pauli", "pauli", "tensor", (), None),
    ("pauli", "pauli", "pauli_matrix", (), None),
    ("mub", "mub", "common_eigenbasis", ("mub.eigenbasis_s",), None),
    ("mub", "mub", "apply_correspondence", ("mub.correspondence_s",), None),
    ("mub", "mub", "is_unbiased_pair", ("mub.certificate_s",), "mub.unbiased_pairs"),
    ("mub", "mub", "build_mub_set", (), None),
    ("mub", "mub", "structure", ("mub.census_s",), None),
    ("mub", "mub", "classify_basis", ("mub.census_s",), None),
    ("mub", "mub", "rank_profile", ("mub.census_s",), None),
    ("mub", "mub", "schmidt_rank", ("mub.census_s",), None),
    ("mub", "mub", "two_qubit_rank", ("mub.census_s",), None),
    ("serialize", "serialize", "dumps_canonical", ("serialize.dump_s",), None),
    ("serialize", "serialize", "subgroup_to_json", ("serialize.encode_s",), None),
    ("serialize", "serialize", "square_to_json", ("serialize.encode_s",), None),
    ("serialize", "serialize", "complete_set_to_json", ("serialize.encode_s",), None),
    ("serialize", "serialize", "state_to_json", ("serialize.encode_s",), None),
    ("serialize", "serialize", "basis_to_json", ("serialize.encode_s",), None),
    ("serialize", "serialize", "mub_set_to_json", ("serialize.encode_s",), None),
    ("serialize", "serialize", "subgroup_from_json", ("serialize.decode_s",), None),
    ("serialize", "serialize", "square_from_json", ("serialize.decode_s",), None),
    ("serialize", "serialize", "squares_payload_from_json", ("serialize.decode_s",), None),
    ("serialize", "serialize", "state_from_json", ("serialize.decode_s",), None),
    ("cli", "cli", "main", (), None),
    ("cli", "cli", "cmd_field_info", (), None),
    ("cli", "cli", "cmd_squares_gen", (), None),
    ("cli", "cli", "cmd_squares_verify", (), None),
    ("cli", "cli", "cmd_squares_classify", (), None),
    ("cli", "cli", "cmd_squares_search", (), None),
    ("cli", "cli", "cmd_mub_gen", (), None),
    ("cli", "cli", "cmd_mub_verify", (), None),
    ("cli", "cli", "cmd_mub_structure", (), None),
]


class Tracer:
    """Span wrappers folded into per-layer self time, group time and counts."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.distinct_subgroups: set = set()
        self._depth: Counter[str] = Counter()
        # Time covered by child spans of each open span; the base entry
        # collects the top-level spans.
        self._stack = [0.0]

    def span(self, layer, fn, groups=(), count=None, after=None):
        stack, self_s, incl_s, depth, counts = (
            self._stack, self.self_s, self.incl_s, self._depth, self.counts
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            for g in groups:
                depth[g] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[layer] += dt - stack.pop()
                stack[-1] += dt
                for g in groups:
                    depth[g] -= 1
                    if not depth[g]:
                        incl_s[g] += dt
            if count:
                counts[count] += 1
            if after:
                after(args, result)
            return result

        return wrapper

    def install(self, mubkit) -> None:
        import mubkit.cli

        modules = {
            name: getattr(mubkit, name)
            for name in ("gf2n", "phasespace", "squares", "pauli", "mub", "serialize", "cli")
        }
        counts = self.counts
        after = {
            "phasespace:Subgroup.__init__": lambda args, _r: self.distinct_subgroups.add(
                args[0].points
            ),
            "squares.search_complete_sets": lambda _a, r: counts.update(
                {"squares.sets_found": len(r.sets)}
            ),
            "serialize.dumps_canonical": lambda _a, r: counts.update(
                {"serialize.bytes_out": len(r)}
            ),
        }
        for layer, owner, attr, groups, count in SPANS:
            mod_name, _, cls_name = owner.partition(":")
            holder = getattr(modules[mod_name], cls_name, None) if cls_name else modules[mod_name]
            fn = getattr(holder, attr, None)
            if fn is None:  # gone from the program: the span's figures read 0
                continue
            wrapped = self.span(layer, fn, groups, count, after.get(f"{owner}.{attr}"))
            if cls_name:
                setattr(holder, attr, wrapped)
            else:
                self._rebind(mubkit, modules, fn, wrapped)

        phasespace = modules["phasespace"]
        step = self.span("phasespace", next, ("phasespace.enumerate_s",))
        scan = getattr(phasespace, "iter_subgroup_masks", None)

        def iter_subgroup_masks(*args, **kwargs):
            it = scan(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                counts["phasespace.subspaces_scanned"] += 1
                yield item

        if scan is not None:
            self._rebind(mubkit, modules, scan, iter_subgroup_masks)

        # Counted, not timed: the filter runs once per scanned subspace.
        keep = getattr(phasespace, "_is_extraordinary_masks", None)

        def is_extraordinary_masks(field, masks):
            kept = keep(field, masks)
            if kept:
                counts["phasespace.extraordinary_kept"] += 1
            return kept

        if keep is not None:
            self._rebind(mubkit, modules, keep, is_extraordinary_masks)

        # The CLI parses JSON input through json.load; give it a copy of
        # the json module whose load is a serialize-layer span.
        stdlib_loads = json.loads

        def load(fh, **kwargs):
            text = fh.read()
            counts["serialize.bytes_in"] += len(text.encode("utf-8"))
            return stdlib_loads(text, **kwargs)

        shim = types.ModuleType("json")
        shim.__dict__.update(json.__dict__)
        shim.load = self.span("serialize", load, ("serialize.decode_s",))
        modules["cli"].json = shim

    @staticmethod
    def _rebind(package, modules, fn, wrapped) -> None:
        """Point every module-level name bound to fn at wrapped."""
        for mod in (package, *modules.values()):
            for name, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, name, wrapped)

    def report(self, imported: float) -> dict:
        counts = dict(self.counts)
        counts["phasespace.subgroups_distinct"] = len(self.distinct_subgroups)
        return {
            "imported": imported,
            "root_s": self._stack[0],
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "counts": counts,
        }


def lib_op(mubkit, args: list[str]) -> int:
    from mubkit.serialize import dumps_canonical, mub_set_to_json, subgroup_to_json

    kind, *rest = args
    field = mubkit.field_for_dimension(16)
    if kind == "enumerate":
        (out,) = rest
        subs = mubkit.enumerate_extraordinary_subgroups(field)
        text = dumps_canonical({"d": 16, "subgroups": [subgroup_to_json(s) for s in subs]})
    elif kind == "mub16":
        p1, p2, out = rest
        v1, v2 = (
            mubkit.Point(*(field.element(int(t)) for t in p.split(","))) for p in (p1, p2)
        )
        mubs = mubkit.build_mub_set(mubkit.type_I_set(v1, v2))
        text = dumps_canonical(mub_set_to_json(mubs, None))
    else:
        raise SystemExit(f"unknown library op {kind!r}")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    mode, args = argv[0], argv[1:]
    import mubkit

    if mode == "cli":
        import mubkit.cli
    imported = monotonic()
    tracer = None
    if trace_path:
        tracer = Tracer()
        tracer.install(mubkit)
    try:
        if mode == "cli":
            return mubkit.cli.main(args)
        root = lib_op if tracer is None else tracer.span("bench", lib_op)
        return root(mubkit, args)
    finally:
        if tracer is not None:
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump(tracer.report(imported), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
