"""Command-line surface: exit codes, emission formats, and round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mubkit
from mubkit import CompleteSet, Point, type_I_set, verify_complete_set
from mubkit.cli import main
from mubkit.serialize import (
    complete_set_to_json,
    dumps_canonical,
    square_to_json,
    squares_payload_from_json,
)


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


def test_search_census_and_worker_determinism(capsys):
    code, single, _ = run(capsys, "squares", "search", "--d", "4")
    assert code == 0
    payload = json.loads(single)
    assert payload["census"] == {"I": 1, "II": 5}
    assert payload["exhaustive"] is True
    code, multi, _ = run(capsys, "squares", "search", "--d", "4", "--workers", "8")
    assert code == 0
    assert multi == single


def test_search_output_independent_of_workers(capsys):
    outputs = {
        run(capsys, "squares", "search", "--d", "4", "--workers", w)[1] for w in ("1", "2")
    }
    assert len(outputs) == 1


@pytest.mark.parametrize(
    "flags", [("--workers", "0"), ("--workers", "-3"), ("--time-budget", "-1")]
)
def test_search_rejects_bad_settings(capsys, flags):
    code, out, err = run(capsys, "squares", "search", "--d", "4", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_bad_worker_env_only_affects_search(capsys, monkeypatch):
    monkeypatch.setenv("MUBKIT_WORKERS", "abc")
    code, _, _ = run(capsys, "field-info", "--d", "4")
    assert code == 0
    code, out, err = run(capsys, "squares", "search", "--d", "4")
    assert code == 2
    assert out == ""
    assert err == "error: MUBKIT_WORKERS must be an integer, got 'abc'\n"


def test_search_env_worker_fallback(capsys, monkeypatch):
    monkeypatch.setenv("MUBKIT_WORKERS", "2")
    code, out, _ = run(capsys, "squares", "search", "--d", "4")
    assert code == 0
    assert json.loads(out)["census"] == {"I": 1, "II": 5}


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
    real = mub.separability

    def counting(states):
        calls.append(len(states))
        return real(states)

    monkeypatch.setattr(mub, "separability", counting)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "(0, 9, 0)" in out or "[\n    0,\n    9,\n    0\n  ]" in out
    assert calls == [8] * 9


def test_cli_import_leaves_pool_modules_unloaded():
    # only a search on more than one process needs the pool machinery
    probe = (
        "import sys, mubkit.cli; "
        "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
    )
    src = str(Path(mubkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "[]"
