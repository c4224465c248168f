"""Set-up for one benchmark run: draw the ops from the seed and write
their input files.

    python3 perfbench/plan.py WORKLOAD SEED DIR

writes DIR/plan.json and, for verify-files, the documents the ops read.
Input documents are built through mubkit's public library API.  The
same WORKLOAD and SEED always give the same bytes.

An op is {"kind", "cli" | "lib": [arguments], "out": file or null,
"rc": expected exit code (0 if absent), "check": {...}}.  `inputs` lists
the written documents with whether each should pass verification, and
`probes` the ops run once outside the timed stream.  Ops come in rounds:
every round of a workload has the same kinds in the same order, and the
seed picks each op's inputs, so medians do not move with how many ops a
run holds.
"""

from __future__ import annotations

import json
import os
import random
import sys
from itertools import permutations

HERE = os.path.dirname(os.path.abspath(__file__))
ROUNDS = 64  # the stream cycles through them if a run outlasts them

# Selfdual bases of GF(4) and GF(8) in mubkit's default moduli: the
# --basis orderings a mub gen op may be given.
SELFDUAL = {4: ("m", "m2"), 8: ("m3", "m5", "m6")}

# Malformed documents and the command that reads each; the README's
# exit-code contract says each gives exit 2.
MALFORMED = [
    ("squares", "truncated.json", '{"d": 4, "classes": ['),
    ("squares", "not-an-object.json", "[1, 2, 3]"),
    ("squares", "bad-dimension.json", '{"d": 6, "classes": []}'),
    ("squares", "neither.json", '{"d": 4}'),
    ("mub", "no-bases.json", '{"d": 4}'),
    ("mub", "bad-entry.json", '{"bases": [{"states": [{"norm_sq": 1, "num": [[1]]}]}], "d": 4}'),
]
# Known to exit 1 with a traceback instead of 2 at the time of writing.
# Run outside the timed stream as a probe, so the failure is reported
# without counting as a failed op of the stream.
PROBES = [("squares", "int-classes.json", '{"d":4,"classes":[1,2,3,4]}')]


def golden() -> dict:
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Drawer:
    """Seeded draws of valid (v1, v2) pairs, as [x, y] integer masks."""

    def __init__(self, mubkit, rng: random.Random) -> None:
        self.mubkit = mubkit
        self.rng = rng

    def pair(self, d: int, set_type: str) -> tuple[list[int], list[int]]:
        """Uniform over the pairs the type's constructor accepts: det != 0
        for type I, det = 1 for type II at d = 4, det a nonzero trace-zero
        element otherwise."""
        field = self.mubkit.field_for_dimension(d)
        while True:
            masks = [self.rng.randrange(1, d * d) for _ in range(2)]
            v1, v2 = (
                self.mubkit.Point(field.element(m % d), field.element(m // d)) for m in masks
            )
            k = self.mubkit.det(v1, v2)
            if set_type == "I":
                ok = not k.is_zero
            elif d == 4:
                ok = k == field.one
            else:
                ok = not k.is_zero and field.trace(k).is_zero
            if ok:
                return [v1.x.mask, v1.y.mask], [v2.x.mask, v2.y.mask]

    def basis_args(self, d: int) -> list[str]:
        orders = [None, *permutations(SELFDUAL[d])]
        order = self.rng.choice(orders)
        return [] if order is None else ["--basis", ",".join(order)]

    def complete_set(self, d: int, set_type: str, unclassified: list[str] | None = None):
        m = self.mubkit
        field = m.field_for_dimension(d)
        if set_type == "Unclassified":
            labels = self.rng.choice(unclassified)
            gens = [
                [0] + [p for p in range(1, d * d) if labels[p - 1] == str(i)]
                for i in range(d + 1)
            ]
            return m.CompleteSet(
                "Unclassified",
                None,
                None,
                tuple(m.supersquare_from_subgroup(m.Subgroup.from_masks(field, g)) for g in gens),
            )
        v1, v2 = (m.Point(field.element(x), field.element(y)) for x, y in self.pair(d, set_type))
        if set_type == "I":
            return m.type_I_set(v1, v2)
        if d == 4:
            return m.type_II_set_d4(v1, v2)
        return {"II": m.type_II_set_d8, "III": m.type_III_set_d8, "IV": m.type_IV_set_d8}[
            set_type
        ](v1, v2)


def point_arg(p: list[int]) -> str:
    return f"{p[0]},{p[1]}"


def census_d8(seed: int, outdir: str) -> dict:
    gold = golden()["outputs"]["squares search --d 8 --format json"]
    op = {
        "kind": "census-d8",
        "cli": ["squares", "search", "--d", "8", "--format", "json", "--out", "census.json"],
        "out": "census.json",
        "check": {"golden": gold["sha256"], "census": {"d": 8, "counts": gold["census"]}},
    }
    # Two ops a round, so the median of a run is never a single op.
    return {"rounds": [[op, op]] * ROUNDS, "inputs": [], "probes": []}


def mub_stream(seed: int, outdir: str) -> dict:
    import mubkit

    draw = Drawer(mubkit, random.Random(f"mub-stream:{seed}"))
    outputs = golden()["outputs"]
    golden_ops = [
        ("squares gen --d 4 --format json", "set", 4),
        ("squares gen --d 8 --format json", "set", 8),
        ("mub gen --d 4 --format json", "mub", 4),
        ("mub gen --d 8 --format json", "mub", 8),
    ]
    # Every round runs the same commands, so the share of d = 4 and d = 8
    # ops, which sets where the median falls, is the same in every run.
    # Four in five ops are d = 8 ones, which keeps the median well inside
    # them rather than in the gap below, where it would jump between runs.
    slots = [(8, t) for t in ("I", "II", "III", "IV") * 3] + [(4, "I"), (4, "II")]
    rounds = []
    for _ in range(ROUNDS):
        ops = []
        for d, set_type in slots:
            v1, v2 = draw.pair(d, set_type)
            ops.append({
                "kind": "mub-gen",
                "cli": ["mub", "gen", "--d", str(d), "--type", set_type, "--v1", point_arg(v1),
                        "--v2", point_arg(v2), *draw.basis_args(d),
                        "--format", "json", "--out", "out.json"],
                "out": "out.json",
                "check": {"mub": {"d": d, "type": set_type, "v1": v1, "v2": v2}},
            })
        for _ in range(2):
            set_type = draw.rng.choice(["I", "II", "III", "IV"])
            v1, v2 = draw.pair(8, set_type)
            ops.append({
                "kind": "mub-structure",
                "cli": ["mub", "structure", "--d", "8", "--type", set_type, "--v1", point_arg(v1),
                        "--v2", point_arg(v2), *draw.basis_args(8),
                        "--format", "json", "--out", "out.json"],
                "out": "out.json",
                "check": {"structure": True},
            })
        for command, doc, d in golden_ops:
            ops.append({
                "kind": "golden",
                "cli": [*command.split(), "--out", "out.json"],
                "out": "out.json",
                "check": {"golden": outputs[command]["sha256"], doc: {"d": d}},
            })
        rounds.append(ops)
    return {"rounds": rounds, "inputs": [], "probes": []}


def verify_files(seed: int, outdir: str) -> dict:
    import mubkit
    from mubkit.serialize import (
        complete_set_to_json, dumps_canonical, mub_set_to_json, square_to_json,
    )

    rng = random.Random(f"verify-files:{seed}")
    draw = Drawer(mubkit, rng)
    gold = golden()
    inputs = []

    def write(name: str, text: str, doc: str | None = None, d: int = 0, valid: bool = True):
        with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        if doc:
            inputs.append({"path": name, "doc": doc, "d": d, "valid": valid})

    def mub_doc(cset):
        mubs = mubkit.build_mub_set(cset)
        triple = mubkit.structure(mubs).astuple() if cset.d == 8 else None
        return mub_set_to_json(mubs, triple)

    sets = {}
    kinds = [(4, "I"), (4, "II"), (8, "I"), (8, "II"), (8, "III"), (8, "IV"),
             (8, "Unclassified"), (16, "I")]
    for d, set_type in kinds:
        cset = draw.complete_set(d, set_type, gold["unclassified_d8"])
        sets[d, set_type] = cset
        write(f"set-{d}-{set_type}.json", dumps_canonical(complete_set_to_json(cset)), "set", d)

    mubs = {}
    for d, types in ((4, ["I", "II"]), (8, ["I", "II", "III", "IV"]), (16, ["I"])):
        doc = mub_doc(sets[d, rng.choice(types)])
        mubs[d] = doc
        write(f"mub-{d}.json", dumps_canonical(doc), "mub", d)

    # Negatives, each expected to fail verification with exit 1.
    d8_type = rng.choice(["I", "II", "III", "IV"])
    perturbed = mubkit.perturb_supersquare(sets[8, d8_type].supersquares[0], rng.randrange(1 << 16))
    write("neg-perturbed.json", dumps_canonical(square_to_json(perturbed)), "square", 8, False)
    repeated = complete_set_to_json(sets[8, d8_type])
    i, j = rng.sample(range(9), 2)
    repeated["squares"][j] = repeated["squares"][i]
    write("neg-repeated.json", dumps_canonical(repeated), "set", 8, False)
    altered = json.loads(dumps_canonical(mubs[8]))
    state = rng.choice(rng.choice(altered["bases"])["states"])
    k = rng.choice([k for k, (re, im) in enumerate(state["num"]) if re or im])
    re, im = state["num"][k]
    state["num"][k] = [-im, re]  # times i: norm_sq holds, orthogonality does not
    write("neg-altered.json", dumps_canonical(altered), "mub", 8, False)
    negatives = [
        ("squares", "neg-perturbed.json"), ("squares", "neg-repeated.json"),
        ("mub", "neg-altered.json"),
    ]
    for _cmd, name, text in MALFORMED + PROBES:
        write(name, text)

    def verify(kind, command, path, rc, check=None):
        return {
            "kind": kind,
            "cli": [command, "verify", path, "--format", "json", "--out", "out.json"],
            "out": "out.json" if rc != 2 else None,
            "rc": rc,
            "check": {"verify": rc == 0} if check is None else check,
        }

    census_d4 = gold["outputs"]["squares search --d 4 --format json"]
    rounds = []
    for r in range(ROUNDS):
        d4 = rng.choice(["I", "II"])
        d8 = rng.choice(["I", "II", "III", "IV", "Unclassified"])
        classify_set = rng.choice(kinds[:-1])
        command, name = negatives[r % len(negatives)]
        bad_command, bad_name, _ = MALFORMED[r % len(MALFORMED)]
        rounds.append([
            verify("squares-verify", "squares", f"set-4-{d4}.json", 0),
            verify("squares-verify", "squares", f"set-8-{d8}.json", 0),
            verify("squares-verify", "squares", "set-16-I.json", 0),
            {
                "kind": "squares-classify",
                "cli": ["squares", "classify", "set-{}-{}.json".format(*classify_set),
                        "--format", "json", "--out", "out.json"],
                "out": "out.json",
                "check": {"classify": "set-{}-{}.json".format(*classify_set)},
            },
            verify("mub-verify", "mub", "mub-4.json", 0),
            verify("mub-verify", "mub", "mub-8.json", 0),
            verify("mub-verify", "mub", "mub-16.json", 0),
            verify("negative", command, name, 1),
            verify("malformed", bad_command, bad_name, 2, {}),
            {
                "kind": "census-d4",
                "cli": ["squares", "search", "--d", "4", "--format", "json", "--out", "out.json"],
                "out": "out.json",
                "check": {
                    "golden": census_d4["sha256"],
                    "census": {"d": 4, "counts": census_d4["census"]},
                },
            },
        ])
    probes = [verify("probe-malformed", cmd, name, 2, {}) for cmd, name, _ in PROBES]
    return {"rounds": rounds, "inputs": inputs, "probes": probes}


def library_d16(seed: int, outdir: str) -> dict:
    import mubkit

    draw = Drawer(mubkit, random.Random(f"library-d16:{seed}"))
    enum_sha = golden()["outputs"]["lib enumerate"]["sha256"]
    rounds = []
    for _ in range(ROUNDS):
        ops = [{
            "kind": "enumerate-d16",
            "lib": ["enumerate", "out.json"],
            "out": "out.json",
            "check": {"golden": enum_sha, "enumeration": {"d": 16}},
        }]
        # Two MUB ops to one enumeration keeps the median among the MUB ops.
        for _ in range(2):
            v1, v2 = draw.pair(16, "I")
            ops.append({
                "kind": "mub-d16",
                "lib": ["mub16", point_arg(v1), point_arg(v2), "out.json"],
                "out": "out.json",
                "check": {"mub": {"d": 16, "type": "I", "v1": v1, "v2": v2}},
            })
        rounds.append(ops)
    return {"rounds": rounds, "inputs": [], "probes": []}


WORKLOADS = {
    "census-d8": census_d8,
    "mub-stream": mub_stream,
    "verify-files": verify_files,
    "library-d16": library_d16,
}


def main(argv: list[str]) -> int:
    workload, seed, outdir = argv[0], int(argv[1]), argv[2]
    os.makedirs(outdir, exist_ok=True)
    plan = WORKLOADS[workload](seed, outdir)
    with open(os.path.join(outdir, "plan.json"), "w", encoding="utf-8") as fh:
        json.dump(plan, fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
