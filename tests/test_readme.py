"""The README's code example runs and prints what it says, and its import
table says what each command loads."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_prints_its_structure():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert out.getvalue() == "(0,9,0)\n"


BASE = {"mubkit", "mubkit.cli", "mubkit.gf2n", "mubkit.phasespace", "mubkit.serialize"}


def _load_table() -> list[tuple[list[str], set[str], set[str]]]:
    """(commands, also loads, never loads) of each row of the README's
    import table, module names in full: a submodule's with its package."""
    text = README.read_text(encoding="utf-8")
    block = text[text.index("| command | also loads | never loads |") :].split("\n\n")[0]
    rows = []
    for line in block.splitlines()[2:]:
        commands, also, never = (re.findall(r"`([^`]+)`", c) for c in line.strip(" |").split(" | "))
        full = [name if name == "argparse" else f"mubkit.{name}" for name in also + never]
        rows.append((commands, set(full[: len(also)]), set(full[len(also) :])))
    return rows


def test_readme_import_table_matches_what_each_command_loads(tmp_path):
    from mubkit.cli import COMMANDS, main

    from test_cli import _loaded_by

    for kind, argv in {"squares": ["--type", "III"], "mub": []}.items():
        out = str(tmp_path / f"{kind}.json")
        assert main([kind, "gen", "--d", "8", *argv, "--format", "json", "--out", out]) == 0
    reads = {path: positional is not None for path, _, _, positional, _ in COMMANDS}
    rows = _load_table()
    assert sorted(c for commands, _, _ in rows for c in commands) == sorted(reads)
    for commands, also, never in rows:
        assert not also & never
        for command in commands:
            words = command.split()
            if reads[command]:
                args = [str(tmp_path / f"{words[0]}.json")]
            else:
                args = ["--d", "4" if words[-1] == "search" else "8"]
            loaded = _loaded_by(*words, *args)
            assert also <= loaded and not never & loaded, command
            assert {m for m in loaded if m.startswith("mubkit")} == BASE | (also - {"argparse"})
