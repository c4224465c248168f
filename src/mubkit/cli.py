"""Command-line surface: the commands of COMMANDS, such as

    mubkit squares gen --d 4 --type II --v1 1,m2 --v2 1,m
    mubkit mub verify MUBS.json

Exit codes: 0 pass, 1 verification failure, 2 usage or parse error,
3 incomplete (budget-limited) search.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import islice
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Sequence

from .gf2n import Field, FieldBasis, default_selfdual_basis, field_for_dimension, is_selfdual
from .phasespace import Point, trace_zero_subgroup

# Each command imports the modules it runs, a reader once its input has
# parsed: squares commands never load mub or pauli, and `mub verify` never
# loads squares.  main imports argparse only for a line _exact_args leaves.
if TYPE_CHECKING:
    import argparse

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


def _emit(args: argparse.Namespace, pieces: Iterable[str | bytes]) -> None:
    """Write the pieces of a document in turn, never joined into one string.

    A file takes them through os.writev, at most 1,024 pieces a call (the
    IOV_MAX of Linux), each str piece encoded as it is taken.  The census
    pieces are bytes already, each shared text encoded once, so the 41 MB
    document is written with no copy in this process.  stdout takes the
    pieces through sys.stdout, bytes decoded, so that a replaced text
    stream receives them."""
    if not getattr(args, "out", None):
        sys.stdout.writelines(p if type(p) is str else p.decode() for p in pieces)
        return
    pieces = iter(pieces)
    with open(args.out, "wb", buffering=0) as fh:
        while batch := [p.encode() if type(p) is str else p for p in islice(pieces, 1024)]:
            _writev_all(fh.fileno(), batch)


def _writev_all(fd: int, batch: list) -> None:
    """os.writev of the whole batch, a short write resumed where it stopped."""
    left = sum(map(len, batch))
    while (done := os.writev(fd, batch)) < left:
        left -= done
        i = 0
        while done >= len(batch[i]):
            done -= len(batch[i])
            i += 1
        batch = [memoryview(batch[i])[done:], *batch[i + 1 :]]


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
    doc = _read_json(args.input)
    from .squaresdoc import squares_payload_from_json, verify_square, verify_squares

    kind, payload = squares_payload_from_json(doc)
    report = verify_square(payload) if kind == "square" else verify_squares(payload[3])
    return _report(args, report.checks(), list(report.failures))


def cmd_squares_classify(args: argparse.Namespace) -> int:
    doc = _read_json(args.input)
    from .serialize import _canonical_pieces
    from .squares import classify
    from .squaresdoc import squares_payload_from_json

    kind, payload = squares_payload_from_json(doc)
    squares = [payload] if kind == "square" else payload[3]
    kinds = [classify(sq).value for sq in squares]
    if args.format == "json":
        _emit(args, _canonical_pieces({"classifications": kinds}))
    else:
        _emit(args, ["\n".join(kinds) + "\n"])
    return PASS


def cmd_squares_search(args: argparse.Namespace) -> int:
    from .search import search_complete_sets, search_result_pieces

    result = search_complete_sets(field_for_dimension(args.d), time_budget=args.time_budget)
    if args.format == "json":
        _emit(args, search_result_pieces(result))
    else:
        census = result.census()
        lines = [f"d={args.d} complete sets: {sum(census.values())}"]
        lines += [f"  type {name}: {count}" for name, count in sorted(census.items())]
        lines.append("exhaustive: " + ("yes" if result.exhaustive else "no (budget hit)"))
        _emit(args, ["\n".join(lines) + "\n"])
    return PASS if result.exhaustive else INCOMPLETE


# -- mub ---------------------------------------------------------------------


def _build_mubs(args: argparse.Namespace) -> MubSet:
    from .mub import build_mub_set

    cset = _build_set(args)
    return build_mub_set(cset, _parse_basis(cset.field, args.basis))


def cmd_mub_gen(args: argparse.Namespace) -> int:
    from .mub import EntanglementStructure, _word_ranks, classify_basis
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
            kind = "entangled" if _word_ranks(b)[0] == 2 else "product"
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
    doc = _read_json(args.input)
    from .mubdoc import certify_bases, mub_payload_from_json, mub_words_from_json

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

# An option: (flag, type, choices, default, help), type None for a string
# and bool for a flag that takes no value.
_D = ("--d", int, (4, 8, 16, 32), 4, None)
_FORMAT = ("--format", None, ("json", "ascii"), "ascii", None)
_OUT = ("--out", None, None, None, "write output to this path instead of stdout")
_READ = (_FORMAT, ("--out", None, None, None, None))  # a command that reads one JSON file
_POINT = "point as 'x,y' (mu-power tokens or bitmasks)"
_BUILD = (("--type", None, ("I", "II", "III", "IV"), "II", None),
          ("--v1", None, None, None, _POINT), ("--v2", None, None, None, _POINT), _FORMAT, _OUT)
_BASIS = ("--basis", None, None, None, "selfdual basis as comma-separated tokens")
_PERTURB_HELP = "emit a seeded label-perturbed square instead (negative-test input)"
_GROUPS = {"squares": "complete-set construction and checks", "mub": "mutually unbiased bases"}

# Every command once, in help order: (words, help, function, positional or
# None, options), read by build_parser and _exact_args.
COMMANDS = (
    ("field-info", "element, trace, and basis tables", cmd_field_info, None, (_D, _FORMAT, _OUT)),
    ("squares gen", "build a complete set", cmd_squares_gen, None, (
        _D, *_BUILD, ("--seed", int, None, 0, None), ("--perturb", bool, None, False, _PERTURB_HELP)
    )),
    ("squares verify", "verify a square or set file", cmd_squares_verify, "input", _READ),
    ("squares classify", "Latin-type classification", cmd_squares_classify, "input", _READ),
    ("squares search", "enumerate all complete sets", cmd_squares_search, None, (
        _D, (*_FORMAT[:3], "json", None), _OUT, ("--time-budget", float, None, None, None)
    )),
    ("mub gen", "build the MUB set of a complete set", cmd_mub_gen, None, (_D, *_BUILD, _BASIS)),
    ("mub verify", "re-verify an emitted MUB file", cmd_mub_verify, "input", _READ),
    ("mub structure", "three-qubit entanglement census", cmd_mub_structure, None, (
        (*_D[:3], 8, None), *_BUILD, _BASIS
    )),
)


def build_parser() -> argparse.ArgumentParser:
    """argparse's tree of COMMANDS: the help text, abbreviated flags and
    usage errors of every line _exact_args leaves to it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="mubkit",
        description="Exact extraordinary supersquares and mutually unbiased bases.",
    )
    subs = {"": parser.add_subparsers(dest="command", required=True)}
    for path, text, func, positional, options in COMMANDS:
        group, _, name = path.rpartition(" ")
        if group not in subs:
            p = subs[""].add_parser(group, help=_GROUPS[group])
            subs[group] = p.add_subparsers(dest="subcommand", required=True)
        p = subs[group].add_parser(name, help=text)
        if positional:
            p.add_argument(positional)
        for flag, kind, choices, default, hint in options:
            if kind is bool:
                p.add_argument(flag, action="store_true", help=hint)
            else:
                p.add_argument(flag, type=kind, choices=choices, default=default, help=hint)
        p.set_defaults(func=func)
    return parser


def _exact_args(argv: list[str]) -> SimpleNamespace | None:
    """build_parser()'s namespace of a well-formed argv: a command's words,
    its exact flags, each but a bool with one value that does not start
    with "-" and converts into its choices, and its one positional if it
    has one.  None for any other argv: this parser reports no error."""
    for path, _, func, positional, options in COMMANDS:
        words = path.split()
        if argv[: len(words)] == words:
            break
    else:
        return None
    specs = {spec[0]: spec for spec in options}
    values = dict(zip(("command", "subcommand"), words), func=func)
    values.update((flag[2:].replace("-", "_"), default) for flag, _, _, default, _ in options)
    rest = iter(argv[len(words) :])
    for arg in rest:
        if not arg.startswith("-"):
            if positional is None or positional in values:
                return None
            values[positional] = arg
            continue
        if arg not in specs:
            return None
        _, kind, choices, _, _ = specs[arg]
        if kind is bool:
            value = True
        else:
            value = next(rest, "-")
            if value.startswith("-"):
                return None
            try:
                value = value if kind is None else kind(value)
            except ValueError:
                return None
            if choices and value not in choices:
                return None
        values[arg[2:].replace("-", "_")] = value
    if positional and positional not in values:
        return None
    return SimpleNamespace(**values)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _exact_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
