"""Benchmark of the kitaev_chain pipeline on three workloads.

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for the inputs and ``README.md`` for why):

``ladder``       open-chain ground states at a topological, a trivial and a
                 critical point for N in {16, 32, 40}, built through the
                 library API (gate replay at large bond dimension).
``scan``         the ``particles``, ``energy-accuracy`` and ``zscan`` commands,
                 each in a fresh process as a user runs them.
``observables``  repeated measurement sweeps and a JSON round trip on three
                 N = 32 states built before the timed section.

Every workload runs whole passes until the next pass would end after
``--seconds`` (at least one) and checks its outputs outside the timed section.
With ``--trace 0`` the result carries the end-to-end metrics: ``wall_s``
(seconds of one pass, summed from the median timing of each operation in it),
``setup_s`` (median over fresh processes of start, import and warm-up),
``peak_rss_mb`` (largest child process) and ``ok_frac`` (share of operations
that neither raised, recorded an in-row error nor missed a check).  With ``--trace 1`` the layer entry points are wrapped and the result
carries the per-layer metrics of ``spans.PER_LAYER`` instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it are
``#`` comments with the metrics table, provenance and any failed check.  The
full report and the span files go to ``.bench_out/`` in the checkout.  Exit
code 0 means every check passed, 1 a failed check or a failed child process,
2 a checkout without package sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import queue
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

import checkout
import spans
import workloads

BENCH = Path(__file__).resolve().parent
OUT = checkout.ROOT / ".bench_out"

#: Fresh processes whose set-up time is measured per run (median reported).
SETUP_SAMPLES = 5
#: Wall-clock budget of one workload run, kept below the 180 s limit.
DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
WORKLOADS = ("ladder", "scan", "observables")


class ChildError(RuntimeError):
    """A child process failed, timed out or exited before finishing its set-up."""


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        remaining = self.end - time.monotonic()
        if remaining <= 0:
            raise ChildError(f"run exceeded its {DEADLINE_S:.0f} s budget")
        return remaining


class Child:
    """A Python child process whose stdout is read line by line in a thread."""

    def __init__(self, script: str, *args: str) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / script), *args],
            cwd=checkout.ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def wait_ready(self, deadline: Deadline) -> tuple[float, dict]:
        """Seconds from spawn to the READY line, and the runtime it reports."""
        while True:
            try:
                line = self._lines.get(timeout=deadline.left())
            except queue.Empty:
                raise ChildError("child did not finish its set-up in time") from None
            if line is None:
                raise ChildError(f"child exited with {self.proc.wait()} before set-up finished")
            if line.startswith(checkout.READY):
                return time.perf_counter() - self.started, json.loads(line[len(checkout.READY) :])

    def finish(self, deadline: Deadline) -> None:
        try:
            code = self.proc.wait(timeout=deadline.left())
        except subprocess.TimeoutExpired:
            raise ChildError("child did not finish in time") from None
        self._reader.join()
        if code != 0:
            raise ChildError(f"child {self.proc.args[1]} exited with {code}")

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join()


def _setup_samples(script: str, args: tuple[str, ...], count: int, deadline: Deadline):
    samples, info = [], {}
    for _ in range(count):
        with Child(script, *args, "--setup-only") as child:
            seconds, info = child.wait_ready(deadline)
            child.finish(deadline)
        samples.append(seconds)
    return samples, info


def run_library(workload: str, seed: int, seconds: float, trace: bool, deadline: Deadline) -> dict:
    """``ladder`` and ``observables``: one worker process, plus set-up-only ones."""
    setup, _ = _setup_samples("worker.py", ("--workload", workload), SETUP_SAMPLES - 1, deadline)
    stem = OUT / f"{workload}-seed{seed}"
    result_path = stem.with_suffix(".worker.json")
    args = ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds)]
    args += ["--result", str(result_path)]
    span_files = []
    if trace:
        span_files.append(stem.with_suffix(".spans.json"))
        args += ["--trace-out", str(span_files[0])]
    with Child("worker.py", *args) as child:
        ready_s, info = child.wait_ready(deadline)
        child.finish(deadline)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result.update(setup=setup + [ready_s], runtime=info, span_files=span_files)
    return result


def run_scan(seed: int, seconds: float, trace: bool, deadline: Deadline) -> dict:
    """``scan``: every CLI command in a fresh process; warm-up is part of the pass."""
    setup, info = _setup_samples("cli_main.py", (), SETUP_SAMPLES, deadline)
    commands = workloads.scan_commands(seed)
    passes: list[float] = []
    op_times: dict[str, list[float]] = {}
    outputs = []
    span_files: list[Path] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for label, argv in commands:
            extra = []
            if trace:
                span_files.append(OUT / f"scan-seed{seed}-p{len(passes)}-{label}.spans.json")
                extra = ["--trace-out", str(span_files[-1]), "--run-id", f"p{len(passes)}:{label}"]
            t1 = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "cli_main.py"), *extra, "--", *argv],
                    cwd=checkout.ROOT,
                    capture_output=True,
                    text=True,
                    timeout=deadline.left(),
                )
            except subprocess.TimeoutExpired:
                raise ChildError(f"{label} did not finish in time") from None
            op_times.setdefault(label, []).append(time.perf_counter() - t1)
            outputs.append((label, argv, proc))
        passes.append(time.perf_counter() - t0)
        if time.perf_counter() - start + workloads.median(passes) > seconds:
            break

    attempted, problems = 0, []
    for label, argv, proc in outputs:
        if proc.returncode != 0:
            rows = workloads.grid_points(argv)
            attempted += rows
            problems += [f"{label} exited with {proc.returncode}: {proc.stderr.strip()}"] * rows
            continue
        try:
            rows, found = workloads.check_scan_output(label, json.loads(proc.stdout))
        except (ValueError, KeyError, TypeError) as exc:  # output not in the documented form
            rows = workloads.grid_points(argv)
            found = [f"{label}: unreadable output ({type(exc).__name__}: {exc})"] * rows
        attempted += rows
        problems += found
    return {
        "passes": passes,
        "op_times": op_times,
        "attempted": attempted,
        "failed": len(problems),
        "problems": sorted(set(problems)),
        "setup": setup,
        "runtime": info,
        "span_files": span_files,
    }


def provenance(seed: int, runtime: dict) -> dict:
    commit = None  # a checkout without git history has no commit to report
    if (checkout.ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(checkout.ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(checkout.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(checkout.SRC)).encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest(), "seed": seed, **runtime}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = Deadline(DEADLINE_S)
    if workload == "scan":
        run = run_scan(seed, seconds, trace, deadline)
    else:
        run = run_library(workload, seed, seconds, trace, deadline)
    failed_frac = run["failed"] / run["attempted"]
    if trace:
        span_list, overhead = spans.load(run["span_files"])
        values = spans.layer_metrics(
            span_list, len(run["passes"]), sum(run["passes"]), overhead, failed_frac
        )
        units = spans.PER_LAYER
    else:
        values = {
            "wall_s": workloads.pass_seconds(run["op_times"], len(run["passes"])),
            "setup_s": workloads.median(run["setup"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed_frac,
        }
        units = END_TO_END
    report = {
        "workload": workload,
        "trace": int(trace),
        "provenance": provenance(seed, run["runtime"]),
        "passes_s": run["passes"],
        "setup_s": run["setup"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "failed_frac": failed_frac,
        "problems": run["problems"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    if "build_s" in run:
        report["inputs_build_s"] = run["build_s"]
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.report.json").write_text(
        json.dumps(report, indent=2), encoding="utf-8"
    )
    return report


def print_report(report: dict) -> None:
    samples = {
        "wall_s": f"per pass, from per-operation medians over {len(report['passes_s'])} passes",
        "setup_s": f"median of {len(report['setup_s'])} fresh processes",
        "peak_rss_mb": "largest child process",
        "ok_frac": f"{report['attempted']} attempted, {report['failed']} failed",
    }
    print(f"# workload={report['workload']} trace={report['trace']}")
    print("# provenance " + json.dumps(report["provenance"], sort_keys=True))
    for name, metric in report["metrics"].items():
        note = samples.get(name, "per pass" if report["trace"] else "")
        print(f"# {name:<40} {metric['value']:>16.6g} {metric['unit']:<12} {note}")
    print(f"# failed_frac={report['failed_frac']:.6g} ({report['failed']}/{report['attempted']})")
    for problem in report["problems"]:
        print("# FAILED " + " ".join(problem.split()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        checkout.require_sources()
    except checkout.CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    print_report(report)
    failed = report["failed"]
    result = {
        "correct": failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
