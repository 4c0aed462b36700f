"""The benchmark harness runs clean against the current package.

``perfbench`` wraps library methods by name to time them and its workers call
the library API; a rename or restructure of either should fail here, not in
the next benchmark.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from kitaev_chain import cli

ROOT = Path(__file__).resolve().parent.parent


def load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


@pytest.mark.parametrize("seed", range(4))
def test_scan_commands_parse(seed):
    """Every CLI argv of the scan workload parses and passes the usage checks.

    The library workloads run above; the scan workload's flags are checked here
    without running a point, so that a renamed or removed flag fails here."""
    for _, argv in load_workloads().scan_commands(seed):
        args = cli.build_parser().parse_args(argv)
        cli._check_flags(args)
        for flag in ("mu_grid", "w_grid", "two_w_grid"):
            if hasattr(args, flag):
                cli.parse_grid(getattr(args, flag))
