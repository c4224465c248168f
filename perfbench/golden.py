"""Regenerate golden.json: digests of mubkit's deterministic outputs.

    python3 perfbench/golden.py

Run from the root of a checkout whose outputs define the reference
bytes.  Each output is certified by the independent checks in checks.py
before its digest is recorded.  golden.json also lists the "Unclassified"
sets of the d = 8 census, one string per set: character p - 1 is the
index of the generator holding the nonzero point with packed mask p.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
from run import child_env  # noqa: E402

COMMANDS = {
    "squares search --d 8 --format json": ("census", 8),
    "squares search --d 4 --format json": ("census", 4),
    "squares gen --d 4 --format json": ("set", 4),
    "squares gen --d 8 --format json": ("set", 8),
    "mub gen --d 4 --format json": ("mub", 4),
    "mub gen --d 8 --format json": ("mub", 8),
    "lib enumerate": ("enumeration", 16),
}


def main() -> int:
    workdir = os.path.join(ROOT, ".perfbench", "golden")
    os.makedirs(workdir, exist_ok=True)
    out = os.path.join(workdir, "out.json")
    outputs, unclassified = {}, []
    try:
        for command, (kind, d) in COMMANDS.items():
            if command.startswith("lib "):
                argv = [sys.executable, os.path.join(HERE, "child.py"), "lib",
                        command.split()[1], out]
            else:
                argv = [sys.executable, "-m", "mubkit.cli", *command.split(), "--out", out]
            subprocess.run(argv, cwd=ROOT, env=child_env(), check=True)
            with open(out, "rb") as fh:
                data = fh.read()
            doc = json.loads(data)
            entry = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
            if kind == "census":
                entry["census"] = doc["census"]
                failures = checks.check_census(doc, d, doc["census"])
            elif kind == "set":
                failures = checks.check_set(doc, d)
            elif kind == "mub":
                failures = checks.check_mub(doc, d)
            else:
                failures = checks.check_enumeration(doc, d)
            if failures:
                raise SystemExit(f"{command}: {failures}")
            outputs[command] = entry
            if command == "squares search --d 8 --format json":
                for cset in doc["sets"]:
                    if cset["type"] == "Unclassified":
                        label = {p: str(i) for i, g in enumerate(checks.generator_classes(cset))
                                 for p in g if p}
                        unclassified.append("".join(label[p] for p in range(1, 64)))
            print(f"{command}: {entry['sha256']} ({entry['bytes']} bytes)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump({"outputs": outputs, "unclassified_d8": unclassified}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
