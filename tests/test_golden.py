"""Golden outputs and the shared supersquares of the d = 8 census.

The six CLI commands recorded in perfbench/golden.json run through
cli.main, and the d = 16 enumeration is encoded as the benchmark's
`lib enumerate` op encodes it; each must reproduce the recorded sha256
digest and byte count, also through a writer that takes a few bytes a
call.  The file is only read.  The type I MUB
documents at d = 16 and 32, built through the library, have pinned
digests of their own.  The d = 8 search builds
one Supersquare per distinct extraordinary subgroup and shares it
between the sets.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from mubkit import (
    Field,
    Point,
    build_mub_set,
    enumerate_extraordinary_subgroups,
    search_complete_sets,
    supersquare_from_subgroup,
    type_I_set,
    verify_complete_set,
)
from mubkit.cli import main
from mubkit.serialize import dumps_canonical, mub_set_to_json, subgroup_to_json

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text()
)["outputs"]
CLI_COMMANDS = sorted(cmd for cmd in GOLDEN if not cmd.startswith("lib "))


def test_golden_covers_six_cli_commands():
    assert len(CLI_COMMANDS) == 6


@pytest.mark.parametrize("command", CLI_COMMANDS)
def test_cli_output_matches_golden(tmp_path, command):
    out = tmp_path / "out.json"
    assert main([*command.split(), "--out", str(out)]) == 0
    data = out.read_bytes()
    assert len(data) == GOLDEN[command]["bytes"]
    assert hashlib.sha256(data).hexdigest() == GOLDEN[command]["sha256"]
    if "census" in GOLDEN[command]:
        assert json.loads(data)["census"] == GOLDEN[command]["census"]


@pytest.mark.parametrize("d, most", [(8, 4096), (4, 7)])
def test_census_survives_short_writes(monkeypatch, tmp_path, d, most):
    """A writer that takes at most this many bytes a call, as a pipe or a
    full disk may, must still leave the golden census in the file."""
    command = f"squares search --d {d} --format json"
    real = os.writev

    def short_writev(fd, buffers):
        taken = bytearray()
        for b in buffers:
            taken += b[: most - len(taken)]
            if len(taken) == most:
                break
        return real(fd, [taken])

    monkeypatch.setattr(os, "writev", short_writev)
    out = tmp_path / "out.json"
    assert main([*command.split(), "--out", str(out)]) == 0
    data = out.read_bytes()
    assert len(data) == GOLDEN[command]["bytes"]
    assert hashlib.sha256(data).hexdigest() == GOLDEN[command]["sha256"]


def test_lib_enumerate_matches_golden():
    """The document the benchmark's `lib enumerate` op writes."""
    subs = enumerate_extraordinary_subgroups(Field(4))
    doc = {"d": 16, "subgroups": [subgroup_to_json(s) for s in subs]}
    data = dumps_canonical(doc).encode("utf-8")
    assert len(data) == GOLDEN["lib enumerate"]["bytes"]
    assert hashlib.sha256(data).hexdigest() == GOLDEN["lib enumerate"]["sha256"]


# The type I MUB documents on the axes (e1, e2), which `mub gen` cannot
# write: (d, bytes, sha256).
PINNED_MUB_DOCUMENTS = [
    (16, 611_580, "573b8cecbbe01602da65ae4f8c7229997706d3cc43e090182ad1621da4538981"),
    (32, 4_523_981, "d6471d3f110feffe6f42e62088e83ca4cfee60b85e8a0cafd4b8bd1b02ed7f35"),
]


@pytest.mark.parametrize("d, size, digest", PINNED_MUB_DOCUMENTS)
def test_type_i_mub_document_bytes_are_pinned(d, size, digest):
    f = Field(d.bit_length() - 1)
    mubs = build_mub_set(type_I_set(Point(f.one, f.zero), Point(f.zero, f.one)))
    data = dumps_canonical(mub_set_to_json(mubs, None)).encode("utf-8")
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.fixture(scope="module")
def census_d8():
    return search_complete_sets(Field(3))


def test_d8_sets_share_135_supersquares(census_d8):
    assert len(census_d8.sets) == 960
    shared = {id(ss): ss for c in census_d8.sets for ss in c.supersquares}
    assert len(shared) == 135
    assert len({ss.generator for ss in shared.values()}) == 135
    for ss in shared.values():
        assert ss == supersquare_from_subgroup(ss.generator)


def test_d8_sets_of_every_type_verify(census_d8):
    by_type = {}
    for c in census_d8.sets:
        by_type.setdefault(c.set_type, []).append(c)
    picked = [by_type[t][0] for t in ("I", "II", "III", "IV")]
    unclassified = by_type["Unclassified"]
    picked += unclassified[:: len(unclassified) // 5][:5]
    assert len(picked) == 9
    for c in picked:
        assert verify_complete_set(c).passed
