"""Command-line surface: exit codes, emission formats, and round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mubkit
from mubkit import (
    CompleteSet,
    Point,
    build_mub_set,
    det,
    type_I_set,
    type_II_set_d4,
    verify_complete_set,
)
from mubkit.cli import DEFAULT_PAIRS, _parse_basis, _parse_point, main
from mubkit.mub import _word_ranks
from mubkit.pauli import translation_table
from mubkit.serialize import (
    complete_set_to_json,
    dumps_canonical,
    mub_set_to_json,
    mub_words_from_json,
    square_to_json,
    squares_payload_from_json,
)

from oracles import all_points, two_qubit_rank


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_field_info_d8(capsys):
    code, out, _ = run(capsys, "field-info", "--d", "8")
    assert code == 0
    assert "K = {0, m, m2, m4}" in out
    assert "selfdual basis {m3, m5, m6}: verified" in out


def test_field_info_d4(capsys):
    code, out, _ = run(capsys, "field-info", "--d", "4")
    assert code == 0
    assert "selfdual basis {m, m2}: verified" in out


def test_rejects_unsupported_dimension(capsys):
    code, _, _ = run(capsys, "field-info", "--d", "7")
    assert code == 2


def test_squares_gen_ascii(capsys):
    code, out, _ = run(capsys, "squares", "gen", "--d", "4", "--type", "II")
    assert code == 0
    assert out.count("square ") == 5
    assert "(Latin)" in out and "(ColumnLatin)" in out and "(RowLatin)" in out


def test_squares_gen_rejects_bad_determinant(capsys):
    code, _, err = run(
        capsys, "squares", "gen", "--d", "8", "--type", "II", "--v1", "1,0", "--v2", "0,1"
    )
    assert code == 2
    assert "det(v1,v2) not in K" in err


def test_type_iii_requires_d8(capsys):
    code, _, err = run(capsys, "squares", "gen", "--d", "4", "--type", "III")
    assert code == 2
    assert "only defined for d = 8" in err


def test_gen_verify_roundtrip(capsys, tmp_path):
    path = tmp_path / "set.json"
    code, _, _ = run(
        capsys, "squares", "gen", "--d", "4", "--format", "json", "--out", str(path)
    )
    assert code == 0
    code, out, _ = run(capsys, "squares", "verify", str(path))
    assert code == 0
    assert "overall: PASS" in out

    # emitted JSON re-parses into the identical canonical document
    original = path.read_text()
    data = json.loads(original)
    kind, payload = squares_payload_from_json(data)
    assert kind == "set"
    set_type, v1, v2, squares = payload
    rebuilt = dumps_canonical(
        {
            "type": set_type,
            "v1": [v1.x.mask, v1.y.mask],
            "v2": [v2.x.mask, v2.y.mask],
            "squares": [square_to_json(sq) for sq in squares],
        }
    )
    assert rebuilt == original


def test_perturbed_square_fails_verification(capsys, tmp_path):
    path = tmp_path / "bad.json"
    code, _, _ = run(
        capsys,
        "squares", "gen", "--d", "4", "--perturb", "--seed", "7",
        "--format", "json", "--out", str(path),
    )
    assert code == 0
    code, out, _ = run(capsys, "squares", "verify", str(path))
    assert code == 1
    assert "physical_striation: FAIL" in out


def test_verify_rejects_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "squares", "verify", str(path))
    assert code == 2

    path2 = tmp_path / "wrong.json"
    path2.write_text(json.dumps({"foo": 1}))
    code, _, err = run(capsys, "squares", "verify", str(path2))
    assert code == 2


def test_squares_verify_matches_library(capsys, tmp_path, f8, d4_type_ii_set, d8_type_ii_set):
    d8_type_i = type_I_set(Point(f8.one, f8.zero), Point(f8.zero, f8.one))
    ss = d8_type_ii_set.supersquares
    repeated = CompleteSet("II", None, None, ss[:3] + (ss[1],) + ss[4:])
    path = tmp_path / "set.json"
    for cset, ok in ((d4_type_ii_set, True), (d8_type_i, True), (repeated, False)):
        path.write_text(dumps_canonical(complete_set_to_json(cset)))
        code, out, _ = run(capsys, "squares", "verify", str(path), "--format", "json")
        report = verify_complete_set(cset)
        assert report.passed is ok
        assert code == (0 if ok else 1)
        assert json.loads(out) == {
            "checks": report.checks(),
            "failures": list(report.failures),
            "pass": ok,
        }


def test_classify_command(capsys, tmp_path):
    path = tmp_path / "set.json"
    run(capsys, "squares", "gen", "--d", "4", "--format", "json", "--out", str(path))
    code, out, _ = run(capsys, "squares", "classify", str(path))
    assert code == 0
    assert out.splitlines() == ["Latin", "ColumnLatin", "Plain", "RowLatin", "Plain"]


@pytest.mark.parametrize(
    "argv",
    [
        ("squares", "search", "--d", "4"),
        ("mub", "gen", "--d", "8", "--format", "json"),
        ("mub", "structure", "--format", "json"),
        ("field-info", "--d", "8", "--format", "json"),
    ],
)
def test_out_file_bytes_equal_stdout_bytes(capsys, tmp_path, argv):
    """A document written to --out and the same document on stdout go
    through different writers; their bytes must agree."""
    code, out, _ = run(capsys, *argv)
    assert code == 0
    path = tmp_path / "doc.json"
    assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
    assert path.read_bytes() == out.encode("utf-8")


def test_out_into_a_missing_directory_is_one_line(capsys, tmp_path):
    path = tmp_path / "missing" / "census.json"
    code, out, err = run(capsys, "squares", "search", "--d", "4", "--out", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(path)!r}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_out_onto_a_full_device_is_one_line(capsys):
    code, out, err = run(capsys, "squares", "search", "--d", "4", "--out", "/dev/full")
    assert (code, out) == (2, "")
    assert err == "error: [Errno 28] No space left on device\n"


def test_stdout_into_a_closed_pipe_is_one_line():
    """The census written to a pipe whose reader is gone: exit 2 and one
    line on stderr, no traceback."""
    src = str(Path(mubkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    read_end, write_end = os.pipe()
    os.close(read_end)
    argv = ["squares", "search", "--d", "8", "--format", "json"]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mubkit.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == b"error: [Errno 32] Broken pipe\n"


def test_search_census_d4(capsys):
    code, out, _ = run(capsys, "squares", "search", "--d", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["census"] == {"I": 1, "II": 5}
    assert payload["exhaustive"] is True


def test_search_rejects_bad_settings(capsys):
    code, out, err = run(capsys, "squares", "search", "--d", "4", "--time-budget", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_search_has_no_workers_flag(capsys):
    code, out, err = run(capsys, "squares", "search", "--d", "4", "--workers", "2")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --workers 2" in err
    assert "Traceback" not in err


def test_search_time_budget_flags_incomplete(capsys):
    code, out, _ = run(
        capsys, "squares", "search", "--d", "8", "--time-budget", "1e-9"
    )
    assert code == 3
    assert json.loads(out)["exhaustive"] is False


def test_mub_gen_ascii(capsys):
    code, out, _ = run(capsys, "mub", "gen", "--d", "4", "--type", "II")
    assert code == 0
    assert "operators XxY; YxZ; ZxX" in out
    assert "unbiasedness: verified exactly" in out


def test_mub_gen_structure_line(capsys):
    code, out, _ = run(capsys, "mub", "gen", "--d", "8", "--type", "II")
    assert code == 0
    assert "structure (n_f,n_b,n_ns): (0, 9, 0)" in out


def test_mub_gen_type_i(capsys):
    code, out, _ = run(
        capsys, "mub", "gen", "--d", "4", "--type", "I", "--v1", "1,0", "--v2", "0,1"
    )
    assert code == 0
    assert out.count("basis ") == 5
    assert "unbiasedness: verified exactly" in out


def test_mub_gen_d4_entanglement_lines(capsys, f4):
    """The d = 4 entanglement line reads a basis's words: the rank they
    give at either qubit is the two-qubit rank of each of its states, on
    every basis of every valid (type, v1, v2) under both orders of the
    selfdual basis."""
    points = [p for p in all_points(f4) if not p.is_zero]
    pairs = [(v1, v2, det(v1, v2)) for v1 in points for v2 in points]
    sets = [type_I_set(v1, v2) for v1, v2, k in pairs if not k.is_zero]
    sets += [type_II_set_d4(v1, v2) for v1, v2, k in pairs if k == f4.one]
    assert len(sets) == 240
    for order in ("m,m2", "m2,m"):
        basis_e = _parse_basis(f4, order)
        for cset in sets:
            for b in build_mub_set(cset, basis_e).bases:
                (rank,) = {two_qubit_rank(st) for st in b.states}
                assert _word_ranks(b) == [rank, rank], (order, cset.set_type, cset.v1, cset.v2)
    want = {
        "I": ["product", "product", "entangled", "entangled", "product"],
        "II": ["entangled", "product", "product", "product", "entangled"],
    }
    for set_type, kinds in want.items():
        argv = ("mub", "gen", "--d", "4", "--type", set_type, "--format", "ascii")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("  entanglement: ")]
        assert lines == [f"  entanglement: {kind}" for kind in kinds], set_type


def test_mub_gen_verify_roundtrip(capsys, tmp_path):
    path = tmp_path / "mubs.json"
    code, _, _ = run(
        capsys, "mub", "gen", "--d", "8", "--format", "json", "--out", str(path)
    )
    assert code == 0
    code, out, _ = run(capsys, "mub", "verify", str(path))
    assert code == 0
    assert "overall: PASS" in out


def test_mub_verify_detects_bias(capsys, tmp_path):
    path = tmp_path / "mubs.json"
    run(capsys, "mub", "gen", "--d", "4", "--format", "json", "--out", str(path))
    data = json.loads(path.read_text())
    # overwrite one basis with a copy of another: cross pairs collide
    data["bases"][1]["states"] = data["bases"][0]["states"]
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "mub", "verify", str(path))
    assert code == 1
    assert "unbiasedness: FAIL" in out


@pytest.fixture(scope="module")
def d16_document():
    """The type I MUB document on the axes at d = 16, built by the library
    since `mub gen` stops at d = 8."""
    f16 = mubkit.Field(4)
    v1, v2 = Point(f16.one, f16.zero), Point(f16.zero, f16.one)
    mubs = mubkit.build_mub_set(type_I_set(v1, v2))
    return mubs, json.loads(dumps_canonical(mub_set_to_json(mubs, None)))


@pytest.fixture(scope="module")
def d8_mubs_by_type():
    f8 = mubkit.Field(3)
    ctors = {
        "I": mubkit.type_I_set,
        "II": mubkit.type_II_set_d8,
        "III": mubkit.type_III_set_d8,
        "IV": mubkit.type_IV_set_d8,
    }
    return [
        mubkit.build_mub_set(ctor(*(_parse_point(f8, t) for t in DEFAULT_PAIRS[(8, name)])))
        for name, ctor in ctors.items()
    ]


def test_mub_words_from_json_reads_every_word(d16_document, d8_mubs_by_type):
    for mubs, doc in [d16_document] + [(m, mub_set_to_json(m, None)) for m in d8_mubs_by_type]:
        masks = mub_words_from_json(doc, mubs.d)
        assert masks == [
            [translation_table(b.expansion_basis)[m] for m in b.source.masks()[1:]]
            for b in mubs.bases
        ]


WORD_TAMPERINGS = ["swapped", "missing", "malformed", "not-a-list", "all-dropped"]


def tamper_words(bases, kind):
    if kind == "swapped":
        bases[0]["words"], bases[1]["words"] = bases[1]["words"], bases[0]["words"]
    elif kind == "missing":
        del bases[0]["words"]
    elif kind == "malformed":
        bases[0]["words"] = [["Q"] * 4, 5, [[1]], "XX"]
    elif kind == "not-a-list":
        bases[1]["words"] = {"X": 1}
    else:
        for basis in bases:
            del basis["words"]


@pytest.mark.parametrize("phase", ["valid", "entry-times-i"])
def test_mub_verify_words_never_change_the_report(
    capsys, tmp_path, monkeypatch, d16_document, phase
):
    """The document's words send a d = 16 set down the structural route,
    which takes no inner product when the set is valid; swapped, missing
    or malformed words send bases to the pair checks, with the same
    report and exit code."""
    from mubkit import mub

    _, doc = d16_document
    doc = json.loads(json.dumps(doc))
    if phase == "entry-times-i":
        num = doc["bases"][0]["states"][0]["num"]
        k = next(k for k, e in enumerate(num) if e != [0, 0])
        num[k] = [-num[k][1], num[k][0]]
    calls = []
    real = mub.packed_inner
    monkeypatch.setattr(mub, "packed_inner", lambda a, b: calls.append(1) or real(a, b))
    path = tmp_path / "m16.json"
    path.write_text(json.dumps(doc))
    want = run(capsys, "mub", "verify", str(path))
    assert want[0] == (0 if phase == "valid" else 1)
    assert (calls == []) == (phase == "valid")
    for kind in WORD_TAMPERINGS:
        tampered = json.loads(json.dumps(doc))
        tamper_words(tampered["bases"], kind)
        path.write_text(json.dumps(tampered))
        calls.clear()
        assert run(capsys, "mub", "verify", str(path)) == want, kind
        assert calls, kind


@pytest.mark.parametrize("kept", [1, 3])
def test_mub_verify_rejects_missing_states(capsys, tmp_path, kept):
    path = tmp_path / "mubs.json"
    run(capsys, "mub", "gen", "--d", "4", "--format", "json", "--out", str(path))
    data = json.loads(path.read_text())
    for basis in data["bases"]:
        basis["states"] = basis["states"][:kept]
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "mub", "verify", str(path))
    assert code == 1
    assert "cardinality: FAIL" in out
    for bi in range(1, 6):
        assert f"basis {bi} has {kept} states, expected 4" in out


def test_mub_verify_names_a_short_state(capsys, tmp_path):
    path = tmp_path / "mubs.json"
    run(capsys, "mub", "gen", "--d", "4", "--format", "json", "--out", str(path))
    data = json.loads(path.read_text())
    data["bases"][0]["states"][0]["num"] = data["bases"][0]["states"][0]["num"][:3]
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "mub", "verify", str(path))
    assert (code, err) == (1, "")
    assert "cardinality: FAIL" in out
    assert "  - basis 1 state 0 has 3 entries, expected 4" in out.splitlines()
    assert "unbiasedness: PASS" in out and "orthogonality: PASS" in out


@pytest.mark.parametrize(
    "cmap, line",
    [
        ([0, 1, 2, 2], "basis 2 class->state map is not a bijection: state 2 repeated, state 3 missing"),
        ([0, 1, 2, 3, 4], "basis 2 class->state map has 5 entries, expected 4"),
        ([0, 1, 7, 3], "basis 2 class->state map is not a bijection: state 7 out of range, state 2 missing"),
        (None, "basis 2 has no class->state map"),
    ],
    ids=["repeated", "too-long", "out-of-range", "absent"],
)
def test_mub_verify_names_the_bad_class_map(capsys, tmp_path, cmap, line):
    path = tmp_path / "mubs.json"
    run(capsys, "mub", "gen", "--d", "4", "--format", "json", "--out", str(path))
    data = json.loads(path.read_text())
    data["bases"][1]["class_of_state"] = cmap
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "mub", "verify", str(path))
    assert code == 1
    failures = [f for f in out.splitlines() if f.startswith("  - ")]
    assert failures == ["  - " + line]
    assert "class_maps: FAIL" in out


def test_mub_verify_rejects_a_structure_claim_off_d8(capsys, tmp_path):
    # the structure census counts three-qubit bases, so a d = 4 claim fails
    path = tmp_path / "mubs.json"
    run(capsys, "mub", "gen", "--d", "4", "--format", "json", "--out", str(path))
    data = json.loads(path.read_text())
    assert "structure" not in data
    data["structure"] = [9, 9, 9]
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "mub", "verify", str(path))
    assert (code, err) == (1, "")
    assert "structure: FAIL" in out
    failures = [f for f in out.splitlines() if f.startswith("  - ")]
    assert failures == ["  - structure is defined for d = 8 only, document has d = 4"]


@pytest.mark.parametrize(
    "d, triple",
    [(8, []), (8, [0, 9]), (8, [0, 9, 0, 0]), (4, [1, 2])],
    ids=["d8-empty", "d8-short", "d8-long", "d4-short"],
)
def test_mub_verify_rejects_a_structure_of_the_wrong_length(capsys, tmp_path, d, triple):
    # a structure is an (n_f, n_b, n_ns) triple: any other length is
    # malformed input, whatever the dimension
    path = tmp_path / "mubs.json"
    run(capsys, "mub", "gen", "--d", str(d), "--format", "json", "--out", str(path))
    data = json.loads(path.read_text())
    data["structure"] = triple
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "mub", "verify", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: structure: expected 3 entries, got {len(triple)}\n"


ONE_ENTRY_BASIS = {"states": [{"num": [[1, 0]], "norm_sq": 1}], "class_of_state": [0]}


@pytest.mark.parametrize(
    "doc",
    [
        {"d": -1, "bases": []},
        {"d": 0, "bases": [{"states": [], "class_of_state": []}]},
        {"d": 1, "bases": [ONE_ENTRY_BASIS, ONE_ENTRY_BASIS]},
    ],
    ids=["d=-1", "d=0", "d=1"],
)
def test_mub_verify_rejects_unsupported_dimension(capsys, tmp_path, doc):
    # d + 1 bases of d states each: only the dimension is wrong
    path = tmp_path / "mubs.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "mub", "verify", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    path.write_text(json.dumps({"d": doc["d"], "classes": []}))
    assert run(capsys, "squares", "verify", str(path)) == (2, "", err)


def test_squares_verify_rejects_a_repeated_point(capsys, tmp_path, d4_type_ii_set):
    doc = square_to_json(d4_type_ii_set.squares[0])
    doc["classes"][0].append(doc["classes"][0][1])
    path = tmp_path / "square.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "squares", "verify", str(path))
    assert (code, out, err) == (2, "", "error: class 1 has 5 points, expected 4\n")


def test_mub_structure_command(capsys):
    code, out, _ = run(capsys, "mub", "structure", "--type", "IV")
    assert code == 0
    assert "structure (n_f,n_b,n_ns):" in out


def test_mub_gen_rejects_non_selfdual_basis(capsys):
    code, _, err = run(
        capsys, "mub", "gen", "--d", "4", "--type", "II", "--basis", "1,m"
    )
    assert code == 2
    assert "not selfdual" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("mub", "structure", "--d", "8", "--format", "json"),
        ("mub", "structure", "--d", "8"),
        ("mub", "gen", "--d", "8"),
        ("mub", "gen", "--d", "8", "--format", "json"),
    ],
)
def test_d8_mub_commands_classify_each_basis_once(capsys, monkeypatch, argv):
    from mubkit import mub

    calls = []
    real = mub.classify_basis

    def counting(basis):
        calls.append(basis)
        return real(basis)

    monkeypatch.setattr(mub, "classify_basis", counting)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "(0, 9, 0)" in out or "[\n    0,\n    9,\n    0\n  ]" in out
    assert len(calls) == len({id(b) for b in calls}) == 9


def _probe(code: str) -> str:
    """The stripped stdout of code run in a fresh interpreter on this mubkit."""
    src = str(Path(mubkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout.strip()


def test_cli_import_leaves_pool_modules_unloaded():
    # a start-up guard: importing the CLI loads no process machinery, and
    # neither dataclasses nor the inspect module it pulls in
    unloaded = {"concurrent.futures.process", "multiprocessing", "dataclasses", "inspect"}
    assert _probe(f"import sys, mubkit.cli; print(sorted({unloaded!r} & set(sys.modules)))") == "[]"


def _loaded_by(*argv: str) -> set[str]:
    """The mubkit modules loaded by running the CLI on argv in a fresh
    interpreter; the command must exit 0."""
    out = _probe(
        "import contextlib, io, sys, mubkit.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = mubkit.cli.main({list(argv)!r})\n"
        "print(code, *sorted(m for m in sys.modules if m.startswith('mubkit')))"
    ).split()
    assert out[0] == "0"
    return set(out[1:])


@pytest.mark.parametrize("command", ["verify", "classify", "search"])
def test_squares_commands_load_no_mub_modules(tmp_path, command):
    path = tmp_path / "set.json"
    argv = ["squares", "gen", "--d", "8", "--type", "III", "--format", "json", "--out", str(path)]
    assert main(argv) == 0
    loaded = _loaded_by("squares", command, *(["--d", "4"] if command == "search" else [str(path)]))
    assert "mubkit.squares" in loaded
    assert not loaded & {"mubkit.mub", "mubkit.pauli"}
    assert ("mubkit.search" in loaded) == (command == "search")


@pytest.mark.parametrize("group, command", [("squares", "gen"), ("mub", "gen"), ("mub", "structure")])
def test_gen_and_structure_load_no_search_module(group, command):
    loaded = _loaded_by(group, command, "--d", "8", "--type", "II")
    assert "mubkit.squares" in loaded
    assert "mubkit.search" not in loaded


def test_mub_verify_loads_no_squares_module(tmp_path):
    path = tmp_path / "mubs.json"
    assert main(["mub", "gen", "--d", "8", "--format", "json", "--out", str(path)]) == 0
    loaded = _loaded_by("mub", "verify", str(path))
    assert "mubkit.mub" in loaded
    assert "mubkit.squares" not in loaded


def test_bare_package_import_loads_no_submodule():
    assert _probe("import sys, mubkit; print(sorted(m for m in sys.modules if 'mubkit' in m))") == (
        "['mubkit']"
    )


def test_every_public_name_is_the_object_of_its_home_module():
    # resolved lazily in a fresh interpreter, each name must be the very
    # object its home module holds, and a class or function must be
    # defined there, not imported into it
    out = _probe(
        "import importlib, mubkit\n"
        "for name in mubkit.__all__:\n"
        "    home = importlib.import_module('mubkit.' + mubkit._HOME[name])\n"
        "    value = getattr(mubkit, name)\n"
        "    where = value.__module__ if callable(value) else home.__name__\n"
        "    if value is not getattr(home, name) or where != home.__name__:\n"
        "        print(name)\n"
        "print(len(mubkit.__all__))"
    )
    assert out == "56"


def test_submodules_resolve_as_package_attributes():
    out = _probe(
        "import sys, mubkit\n"
        "names = 'gf2n phasespace squares search pauli mub serialize cli'.split()\n"
        "print(all(getattr(mubkit, m) is sys.modules['mubkit.' + m] for m in names))\n"
        "print(set(names) <= set(dir(mubkit)), set(mubkit.__all__) <= set(dir(mubkit)))"
    )
    assert out.split() == ["True"] * 3


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        mubkit.no_such_name
    with pytest.raises(ImportError):
        from mubkit import no_such_name  # noqa: F401
