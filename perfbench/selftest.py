"""Self-test of the benchmark harness; prints one line per check.

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` declares exactly the metrics (names and units)
the harness reports, that the deterministic per-layer counts (gates,
rotations, peak bond dimension, overflows) repeat exactly between two traced
runs of the same inputs, that a failure injected through a low ``max_bond``
passed to ``prepare_eigenstate`` is counted as a failed operation and as an
overflow, that failed and degenerate CLI rows are told apart, and that
``run.py`` refuses to run in a directory without the package sources.
Exit code 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import functools
import json
import re
import shutil
import subprocess
import sys
import types

import checkout
import run
import spans
import workloads
import worker

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
COUNTS = ("tensor.svd_calls", "tensor.gate1_calls", "tensor.gate2_calls", "tensor.svd_work",
          "tensor.peak_chi", "tensor.overflows", "folding.rotations", "folding.gates_applied",
          "folding.gates_two_site", "quadratic.calls")

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def check_declaration() -> None:
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json has exactly the contract keys")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "declared workloads are the ones run.py runs")
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check(declared == run.END_TO_END, "end-to-end names and units match run.END_TO_END")
    check(all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
              for m in spec["end_to_end"]), "end-to-end entries carry a bound in (0, 0.25]")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    check(bounds.get("setup_s") == max(bounds.values()), "setup_s has the largest bound")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(declared == spans.PER_LAYER, "per-layer names and units match spans.PER_LAYER")
    metrics = spec["end_to_end"] + spec["per_layer"] + spec["workloads"]
    check(all(NAME.match(m["name"]) for m in metrics), "metric and workload names are well formed")
    check(all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"]),
          "units are well formed")
    check(len({m["name"] for m in metrics}) == len(metrics), "every name is used once")


def traced_counts(kc, points) -> dict:
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        for name, mu, w, n in points:
            tracer.run_id = f"p0:{name}.N{n}"
            kc.prepare_eigenstate(kc.KitaevParams(n, w, mu, 1.0))
    finally:
        restore()
    return spans.layer_metrics(tracer.spans, 1, 1.0, 0.0, 0.0)


def check_determinism(kc) -> None:
    points = [("critical", 2.0, 1.0, 12), ("topo", 1.0, 1.0, 12)]
    first, second = traced_counts(kc, points), traced_counts(kc, points)
    check(set(first) == set(spans.PER_LAYER), "a traced run reports every per-layer metric")
    first, second = ({name: m[name] for name in COUNTS} for m in (first, second))
    check(first == second and first["folding.gates_applied"] > 0,
          f"deterministic counts repeat exactly ({first['folding.gates_applied']:.0f} gates)")


def check_injected_failure(kc) -> None:
    low_cap = types.SimpleNamespace(**vars(kc))
    low_cap.prepare_eigenstate = functools.partial(kc.prepare_eigenstate, max_bond=4)
    tracer = spans.Tracer()
    result = worker.run_ladder(low_cap, 0, 0.0, tracer)
    metrics = spans.layer_metrics(tracer.spans, 1, 1.0, 0.0, result["failed"] / result["attempted"])
    overflowing = len(workloads.ladder_points(0))
    check(result["failed"] == result["attempted"] == overflowing,
          f"max_bond=4 failures are counted ({result['failed']}/{result['attempted']})")
    check(metrics["tensor.overflows"] == overflowing and metrics["failed_frac"] == 1.0,
          "injected overflows show in tensor.overflows and failed_frac")


def check_scan_rows() -> None:
    payload = {
        "config": {"n": 10},
        "summary": {"points": 3, "max_abs_difference": 1e-14},
        "rows": [
            {"mu": 0.0, "error": "", "degenerate": True, "abs_difference": None},
            {"mu": 1.0, "error": "", "degenerate": False, "abs_difference": 1e-14},
            {"mu": 2.0, "error": "bond 3 would grow to 300 (cap 256)", "degenerate": False,
             "abs_difference": None},
        ],
    }
    rows, problems = workloads.check_scan_output("energy-accuracy", payload)
    check(rows == 3 and len(problems) == 1,
          "an in-row error is one failure and a degenerate skip is none")


def check_bare_directory() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(checkout.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "ladder", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"run.py without package sources exits {proc.returncode} and prints no result")


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    check_declaration()
    kc = checkout.import_package()
    check_determinism(kc)
    check_injected_failure(kc)
    check_scan_rows()
    check_bare_directory()
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
