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

import kitaev_chain
from kitaev_chain import BondOverflowError, KitaevParams, cli

ROOT = Path(__file__).resolve().parent.parent


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
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


def traced_lone_build(monkeypatch, params, **kwargs) -> tuple[dict, object]:
    """Per-layer metrics of one ``prepare_eigenstate`` call under the benchmark's tracer.

    Returns the metrics and the plan built, or the exception the build raised."""
    monkeypatch.setitem(sys.modules, "workloads", load_perfbench("workloads"))  # spans imports it by name
    spans = load_perfbench("spans")
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        _, _, outcome = kitaev_chain.prepare_eigenstate(params, **kwargs)
    except BondOverflowError as exc:
        outcome = exc
    finally:
        restore()
    return spans.layer_metrics(tracer.spans, 1, 1.0, 0.0, 0.0), outcome


@pytest.mark.parametrize("mu, w", [(1.0, 1.0), (2.0, 1.0)], ids=["topo", "critical"])
def test_traced_lone_build_counts_every_gate(mu, w, monkeypatch):
    """The tracer counts a lone build's gates through ``TensorChain.apply_two_site_gate``.

    The per-layer gate counters read the spans of that method under
    ``reconstruct_eigenstate``, so a lone build that reached the two-site
    kernel some other way would read fewer gates than its plan has, and a
    capped one no overflow."""
    params = KitaevParams(16, w, mu, 1.0)
    metrics, plan = traced_lone_build(monkeypatch, params)
    gates = len(plan.rotations)
    assert metrics["folding.gates_applied"] == metrics["tensor.gate2_calls"] == gates == 64
    metrics, error = traced_lone_build(monkeypatch, params, max_bond=4)
    assert isinstance(error, BondOverflowError)
    assert metrics["tensor.overflows"] == 1


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
    for _, argv in load_perfbench("workloads").scan_commands(seed):
        args = cli.build_parser().parse_args(argv)
        cli._check_flags(args)
        for flag in ("mu_grid", "w_grid", "two_w_grid"):
            if hasattr(args, flag):
                cli.parse_grid(getattr(args, flag))
