"""Command-line surface.

Subcommands:

    mubkit field-info --d 8
    mubkit squares gen --d 4 --type II --v1 1,m2 --v2 1,m
    mubkit squares verify SET.json
    mubkit squares classify SET.json
    mubkit squares search --d 4 --time-budget 10
    mubkit mub gen --d 8 --type II
    mubkit mub verify MUBS.json
    mubkit mub structure --d 8 --type II

Exit codes: 0 pass, 1 verification failure, 2 usage or parse error,
3 incomplete (budget-limited) search.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Iterable, Sequence

from .gf2n import Field, FieldBasis, default_selfdual_basis, field_for_dimension, is_selfdual
from .phasespace import Point, trace_zero_subgroup

# Each command imports the modules it runs, before it reads its input:
# squares commands never load mub or pauli, and `mub verify` never loads
# squares.
if TYPE_CHECKING:
    from .mub import MubSet
    from .squares import CompleteSet

PASS, FAIL, USAGE, INCOMPLETE = 0, 1, 2, 3

DEFAULT_PAIRS = {
    (4, "I"): ("1,0", "0,1"),
    (4, "II"): ("1,m2", "1,m"),
    (8, "I"): ("1,0", "0,1"),
    (8, "II"): ("1,m", "m3,m2"),
    (8, "III"): ("1,m", "m3,m2"),
    (8, "IV"): ("1,m", "m3,m2"),
}


class UsageError(Exception):
    pass


def _parse_point(field: Field, text: str) -> Point:
    try:
        xs, ys = text.split(",")
        return Point(field.parse(xs), field.parse(ys))
    except (ValueError, KeyError) as exc:
        raise UsageError(f"cannot parse point {text!r}: {exc}") from None


def _parse_basis(field: Field, text: str | None) -> FieldBasis:
    if text is None:
        return default_selfdual_basis(field)
    try:
        basis = FieldBasis(tuple(field.parse(tok) for tok in text.split(",")))
    except ValueError as exc:
        raise UsageError(f"cannot parse basis {text!r}: {exc}") from None
    if not is_selfdual(basis):
        raise UsageError(f"basis {text!r} is not selfdual")
    return basis


def _build_set(args: argparse.Namespace) -> CompleteSet:
    from .squares import (
        type_I_set,
        type_II_set_d4,
        type_II_set_d8,
        type_III_set_d8,
        type_IV_set_d8,
    )

    d = args.d
    set_type = args.type
    if d not in (4, 8):
        raise UsageError("set construction supports d in {4, 8}")
    if set_type in ("III", "IV") and d != 8:
        raise UsageError(f"type {set_type} is only defined for d = 8")
    defaults = DEFAULT_PAIRS[(d, set_type)]
    field = field_for_dimension(d)
    v1 = _parse_point(field, args.v1 or defaults[0])
    v2 = _parse_point(field, args.v2 or defaults[1])
    try:
        if set_type == "I":
            return type_I_set(v1, v2)
        if d == 4:
            return type_II_set_d4(v1, v2)
        return {"II": type_II_set_d8, "III": type_III_set_d8, "IV": type_IV_set_d8}[
            set_type
        ](v1, v2)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _emit(args: argparse.Namespace, pieces: Iterable[str]) -> None:
    """Write the pieces of a document in turn, never joined into one string.

    A file takes them through a 64 KiB buffer, so the 41 MB census makes
    one write call per 64 KiB rather than per 8 KiB.  Larger buffers gain
    little more and add their size to peak memory."""
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8", buffering=1 << 16) as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


# -- field-info -------------------------------------------------------------


def cmd_field_info(args: argparse.Namespace) -> int:
    from .serialize import _canonical_pieces

    field = field_for_dimension(args.d)
    basis = default_selfdual_basis(field)
    kset = sorted(trace_zero_subgroup(field), key=lambda e: e.mask)
    if args.format == "json":
        payload = {
            "n": field.n,
            "poly": field.poly,
            "elements": [
                {"display": str(e), "mask": e.mask, "trace": field.trace(e).mask}
                for e in field.in_dlog_order()
            ],
            "trace_zero": [e.mask for e in kset],
            "selfdual_basis": [e.mask for e in basis],
            "selfdual_verified": is_selfdual(basis),
        }
        _emit(args, _canonical_pieces(payload))
        return PASS
    lines = [
        f"GF(2^{field.n}), modulus 0b{field.poly:b}, d = {field.order}",
        "element  mask  trace",
    ]
    for e in field.in_dlog_order():
        lines.append(f"{str(e):>7}  {e.mask:>4}  {field.trace(e).mask:>5}")
    lines.append(
        "trace-zero set K = {" + ", ".join(str(e) for e in kset) + "}"
    )
    lines.append(
        f"selfdual basis {basis}: "
        + ("verified" if is_selfdual(basis) else "NOT selfdual")
    )
    _emit(args, ["\n".join(lines) + "\n"])
    return PASS


# -- squares ----------------------------------------------------------------


def cmd_squares_gen(args: argparse.Namespace) -> int:
    from .serialize import _canonical_pieces, complete_set_to_json, square_to_json
    from .squares import classify, perturb_supersquare, render_ascii

    cset = _build_set(args)
    if args.perturb:
        perturbed = perturb_supersquare(cset.supersquares[0], args.seed)
        if args.format == "json":
            _emit(args, _canonical_pieces(square_to_json(perturbed)))
        else:
            _emit(args, [render_ascii(perturbed) + "\n"])
        return PASS
    if args.format == "json":
        _emit(args, _canonical_pieces(complete_set_to_json(cset)))
        return PASS
    chunks = []
    for idx, ss in enumerate(cset.supersquares, start=1):
        kind = classify(ss.square).value
        chunks.append(f"square {idx} ({kind}), generator class marked with *")
        chunks.append(render_ascii(ss.square))
        chunks.append("")
    _emit(args, ["\n".join(chunks)])
    return PASS


def _report(args: argparse.Namespace, checks: dict[str, bool], failures: list[str]) -> int:
    from .serialize import _canonical_pieces

    ok = all(checks.values())
    if args.format == "json":
        _emit(args, _canonical_pieces({"checks": checks, "failures": failures, "pass": ok}))
    else:
        lines = [f"{name}: {'PASS' if value else 'FAIL'}" for name, value in checks.items()]
        lines += [f"  - {f}" for f in failures]
        lines.append("overall: " + ("PASS" if ok else "FAIL"))
        _emit(args, ["\n".join(lines) + "\n"])
    return PASS if ok else FAIL


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def cmd_squares_verify(args: argparse.Namespace) -> int:
    from .serialize import squares_payload_from_json
    from .squares import verify_square, verify_squares

    kind, payload = squares_payload_from_json(_read_json(args.input))
    report = verify_square(payload) if kind == "square" else verify_squares(payload[3])
    return _report(args, report.checks(), list(report.failures))


def cmd_squares_classify(args: argparse.Namespace) -> int:
    from .serialize import _canonical_pieces, squares_payload_from_json
    from .squares import classify

    kind, payload = squares_payload_from_json(_read_json(args.input))
    squares = [payload] if kind == "square" else payload[3]
    kinds = [classify(sq).value for sq in squares]
    if args.format == "json":
        _emit(args, _canonical_pieces({"classifications": kinds}))
    else:
        _emit(args, ["\n".join(kinds) + "\n"])
    return PASS


def cmd_squares_search(args: argparse.Namespace) -> int:
    from .serialize import _canonical_pieces, search_result_to_json
    from .squares import search_complete_sets

    field = field_for_dimension(args.d)
    result = search_complete_sets(field, time_budget=args.time_budget)
    if args.format == "json":
        _emit(args, _canonical_pieces(search_result_to_json(args.d, result)))
    else:
        lines = [f"d={args.d} complete sets: {len(result.sets)}"]
        for name, count in sorted(result.census().items()):
            lines.append(f"  type {name}: {count}")
        lines.append("exhaustive: " + ("yes" if result.exhaustive else "no (budget hit)"))
        _emit(args, ["\n".join(lines) + "\n"])
    return PASS if result.exhaustive else INCOMPLETE


# -- mub ---------------------------------------------------------------------


def _build_mubs(args: argparse.Namespace) -> MubSet:
    from .mub import build_mub_set

    cset = _build_set(args)
    return build_mub_set(cset, _parse_basis(cset.field, args.basis))


def cmd_mub_gen(args: argparse.Namespace) -> int:
    from .mub import EntanglementStructure, classify_basis, two_qubit_rank
    from .serialize import _canonical_pieces, mub_set_to_json

    mubs = _build_mubs(args)
    field = mubs.source_set.field
    kinds = [classify_basis(b) for b in mubs.bases] if field.order == 8 else None
    triple = EntanglementStructure.count(kinds).astuple() if kinds else None
    if args.format == "json":
        _emit(args, _canonical_pieces(mub_set_to_json(mubs, triple)))
        return PASS
    lines = []
    for idx, b in enumerate(mubs.bases, start=1):
        words = "; ".join(str(w) for w in b.operator_words)
        lines.append(f"basis {idx}: operators {words}")
        lines.append(f"  class->state: {list(b.class_of_state or ())}")
        if kinds:
            lines.append(f"  entanglement: {kinds[idx - 1].value}")
        else:
            kind = "entangled" if two_qubit_rank(b.ray_state) == 2 else "product"
            lines.append(f"  entanglement: {kind}")
        for st in b.states:
            entries = ", ".join(str(e) for e in st.entries)
            lines.append(f"  ({entries}) / sqrt({st.norm_sq})")
    lines.append("unbiasedness: verified exactly")
    if triple is not None:
        lines.append(f"structure (n_f,n_b,n_ns): {triple}")
    _emit(args, ["\n".join(lines) + "\n"])
    return PASS


def cmd_mub_verify(args: argparse.Namespace) -> int:
    from .mub import certify_bases
    from .serialize import mub_payload_from_json, mub_words_from_json

    doc = _read_json(args.input)
    d, bases, maps, triple = mub_payload_from_json(doc)
    checks, failures = certify_bases(bases, d, maps, triple, mub_words_from_json(doc, d))
    return _report(args, checks, failures)


def cmd_mub_structure(args: argparse.Namespace) -> int:
    from .mub import EntanglementStructure, classify_basis
    from .serialize import _canonical_pieces

    if args.d != 8:
        raise UsageError("entanglement structure is defined for d = 8")
    mubs = _build_mubs(args)
    kinds = [classify_basis(b) for b in mubs.bases]
    triple = EntanglementStructure.count(kinds).astuple()
    if args.format == "json":
        names = [k.value for k in kinds]
        _emit(args, _canonical_pieces({"structure": list(triple), "bases": names}))
    else:
        lines = [f"basis {i}: {k.value}" for i, k in enumerate(kinds, start=1)]
        lines.append(f"structure (n_f,n_b,n_ns): {triple}")
        _emit(args, ["\n".join(lines) + "\n"])
    return PASS


# -- parser -------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, with_type: bool = True) -> None:
    parser.add_argument("--d", type=int, choices=(4, 8, 16, 32), default=4)
    if with_type:
        parser.add_argument("--type", choices=("I", "II", "III", "IV"), default="II")
        parser.add_argument("--v1", help="point as 'x,y' (mu-power tokens or bitmasks)")
        parser.add_argument("--v2", help="point as 'x,y' (mu-power tokens or bitmasks)")
    parser.add_argument("--format", choices=("json", "ascii"), default="ascii")
    parser.add_argument("--out", help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mubkit",
        description="Exact extraordinary supersquares and mutually unbiased bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_field = sub.add_parser("field-info", help="element, trace, and basis tables")
    _add_common(p_field, with_type=False)
    p_field.set_defaults(func=cmd_field_info)

    p_squares = sub.add_parser("squares", help="complete-set construction and checks")
    squares_sub = p_squares.add_subparsers(dest="subcommand", required=True)

    p_gen = squares_sub.add_parser("gen", help="build a complete set")
    _add_common(p_gen)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument(
        "--perturb",
        action="store_true",
        help="emit a seeded label-perturbed square instead (negative-test input)",
    )
    p_gen.set_defaults(func=cmd_squares_gen)

    p_verify = squares_sub.add_parser("verify", help="verify a square or set file")
    p_verify.add_argument("input")
    p_verify.add_argument("--format", choices=("json", "ascii"), default="ascii")
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=cmd_squares_verify)

    p_classify = squares_sub.add_parser("classify", help="Latin-type classification")
    p_classify.add_argument("input")
    p_classify.add_argument("--format", choices=("json", "ascii"), default="ascii")
    p_classify.add_argument("--out")
    p_classify.set_defaults(func=cmd_squares_classify)

    p_search = squares_sub.add_parser("search", help="enumerate all complete sets")
    _add_common(p_search, with_type=False)
    p_search.add_argument("--time-budget", type=float, default=None)
    p_search.set_defaults(func=cmd_squares_search, format="json")

    p_mub = sub.add_parser("mub", help="mutually unbiased bases")
    mub_sub = p_mub.add_subparsers(dest="subcommand", required=True)

    p_mgen = mub_sub.add_parser("gen", help="build the MUB set of a complete set")
    _add_common(p_mgen)
    p_mgen.add_argument("--basis", help="selfdual basis as comma-separated tokens")
    p_mgen.set_defaults(func=cmd_mub_gen)

    p_mverify = mub_sub.add_parser("verify", help="re-verify an emitted MUB file")
    p_mverify.add_argument("input")
    p_mverify.add_argument("--format", choices=("json", "ascii"), default="ascii")
    p_mverify.add_argument("--out")
    p_mverify.set_defaults(func=cmd_mub_verify)

    p_mstruct = mub_sub.add_parser("structure", help="three-qubit entanglement census")
    _add_common(p_mstruct)
    p_mstruct.add_argument("--basis", help="selfdual basis as comma-separated tokens")
    p_mstruct.set_defaults(func=cmd_mub_structure, d=8)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except (json.JSONDecodeError, ValueError, RecursionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
