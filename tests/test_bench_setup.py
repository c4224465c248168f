"""The benchmark's set-up runs against the library as it is.

perfbench/plan.py builds every workload's plan, and the verify-files
documents, through mubkit's public API.  A name the plan calls that the
library no longer has, or a document that no longer passes or fails as
planned, would leave the benchmark with no valid run, so each workload's
set-up is run here as the benchmark runs it: in a fresh process with
src on PYTHONPATH.  perfbench/ is only read.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def set_up(tmp_path, workload, seed):
    """Run the plan of one workload and seed into tmp_path."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "plan.py"), workload, str(seed), str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", ["census-d8", "mub-stream", "verify-files", "library-d16"])
def test_plan_sets_up(tmp_path, workload):
    set_up(tmp_path, workload, 1)
    plan = json.loads((tmp_path / "plan.json").read_text())
    assert plan["rounds"]
    if workload == "verify-files":
        assert len(plan["inputs"]) == 14
        assert load_run_module().Checker(str(tmp_path)).input_failures(plan["inputs"]) == []


@pytest.mark.xfail(
    strict=True,
    reason="plan.py can alter one nonzero entry of a state by a factor i, a global "
    "phase when it is the state's only nonzero entry, so neg-altered.json still verifies",
)
@pytest.mark.parametrize("seed", [54, 79])
def test_verify_files_negatives_are_invalid(tmp_path, seed):
    set_up(tmp_path, "verify-files", seed)
    plan = json.loads((tmp_path / "plan.json").read_text())
    assert load_run_module().Checker(str(tmp_path)).input_failures(plan["inputs"]) == []
