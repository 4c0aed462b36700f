"""The benchmark harness runs clean against the current package.

``perfbench`` wraps library methods by name to time them and its workers call
the library API; a rename or restructure of either should fail here, not in
the next benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", ["ladder", "observables"])
def test_library_workload_runs_one_clean_pass(workload, tmp_path):
    """One pass of each library workload, whose reads the self-test does not run.

    The workers call library names (``plan.particle_hole``, ``parity``,
    ``z_value``, ``state.degenerate``) that a refactor could drop while every
    other test still passes."""
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", "--workload", workload, "--seconds", "0",
         "--result", str(result)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(result.read_text(encoding="utf-8"))
    assert payload["attempted"] > 0
    assert payload["failed"] == 0, payload["problems"]
