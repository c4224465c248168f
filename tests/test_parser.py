"""The exact parser against argparse's tree of the same command table.

main takes a well-formed line through cli._exact_args, without importing
argparse, and leaves every other line to build_parser()'s tree, so help
text, usage errors and exit codes stay argparse's own.  Drawn lines mix
every command's flags with their prefixes, `--flag=value`, `-h`, `--`,
values with and without a leading "-", bad ints, floats and choices, and
missing or extra positionals.  Where argparse exits, main must print and
return exactly what it does; where it parses, the exact parser either
passes the line on or gives the same namespace.  Help text is compared
within the running Python, never pinned: its wording differs between
Python versions.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubkit.cli import COMMANDS, _exact_args, build_parser, main

PARSER = settings(max_examples=300, deadline=None, derandomize=True)

FLAGS = sorted({spec[0] for *_, options in COMMANDS for spec in options})
VALUES = [
    "4", "8", "16", "32", "3", "08", " 8", "8.0", "x", "", "-1", "-8", "1e-9", "0", "nan", "inf",
    "-inf", "2.5", "I", "II", "III", "IV", "V", "ii", "json", "ascii", "xml", "1,m2", "1,m",
    "m3,m2", "m,m2", "m3,m5,m6", "in.json", "-", "--", "-h", "--help", "a=b",
]


def argparse_run(argv):
    """(code, stdout, stderr) of the argparse tree on argv if it exits,
    else (None, namespace, "")."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return None, build_parser().parse_args(argv), ""
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def main_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def same_namespace(fast, slow):
    # repr, so that a nan budget equals itself and 8 differs from 8.0
    return repr(sorted(vars(fast).items())) == repr(sorted(vars(slow).items()))


@st.composite
def tokens(draw):
    flag = draw(st.sampled_from(FLAGS))
    return draw(st.one_of(
        st.just(flag),
        st.sampled_from(VALUES),
        st.integers(2, len(flag) - 1).map(lambda k: flag[:k]),  # a prefix
        st.sampled_from(VALUES).map(lambda v: f"{flag}={v}"),
    ))


@st.composite
def lines(draw):
    head = draw(st.sampled_from(
        [path.split() for path, *_ in COMMANDS] + [[], ["squares"], ["mub"], ["nope"], ["mub", "x"]]
    ))
    return head + draw(st.lists(tokens(), max_size=7))


@st.composite
def well_formed(draw):
    """A line of one command with some of its flags, each with a value it
    takes, in any order, and its positional if it has one."""
    path, _, _, positional, options = draw(st.sampled_from(COMMANDS))
    parts = []
    for flag, kind, choices, _, _ in draw(st.lists(st.sampled_from(options), max_size=6)):
        if kind is bool:
            parts.append([flag])
        elif choices:
            parts.append([flag, str(draw(st.sampled_from(choices)))])
        else:
            takes = {int: ["0", "7"], float: ["0.5", "1e-9"], None: ["1,m", "m3,m5,m6", "o.json"]}
            parts.append([flag, draw(st.sampled_from(takes[kind]))])
    if positional:
        parts.append([draw(st.sampled_from(["in.json", "x", ""]))])
    parts = draw(st.permutations(parts))
    return path.split() + [token for part in parts for token in part]


@PARSER
@given(argv=lines())
def test_main_matches_the_argparse_tree(argv):
    code, out, err = argparse_run(argv)
    fast = _exact_args(argv)
    if code is not None:
        assert fast is None  # checked first: a line taken by mistake would run
        assert main_run(argv) == (code, out, err)
    elif fast is not None:
        assert same_namespace(fast, out)


@PARSER
@given(argv=well_formed())
def test_exact_parser_takes_every_well_formed_line(argv):
    code, slow, _ = argparse_run(argv)
    assert code is None
    fast = _exact_args(argv)
    assert fast is not None, argv
    assert same_namespace(fast, slow)


HELP_LINES = [["--help"], ["squares", "--help"], ["mub", "--help"]] + [
    [*path.split(), "--help"] for path, *_ in COMMANDS
]


@pytest.mark.parametrize("argv", HELP_LINES, ids=" ".join)
def test_help_is_argparse_text_and_exits_0(argv):
    help_text = argparse_run(argv)
    assert help_text[0] == 0 and help_text[1].startswith("usage: mubkit")
    assert main_run(argv) == help_text == (0, help_text[1], "")


@pytest.mark.parametrize(
    "argv",
    [
        ["mub", "gen", "--d", "3"],
        ["squares", "search", "--d", "4", "--workers", "2"],
        ["squares", "verify"],
        ["squares", "verify", "a.json", "b.json"],
        ["squares", "gen", "--type", "V"],
        ["mub"],
        [],
    ],
    ids=" ".join,
)
def test_usage_errors_are_argparse_text_and_exit_2(argv):
    error = argparse_run(argv)
    assert error[0] == 2 and error[2].startswith("usage: mubkit")
    assert main_run(argv) == error == (2, "", error[2])
