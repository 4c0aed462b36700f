"""Child process of the library workloads (``ladder``, ``observables``).

    python3 perfbench/worker.py --workload ladder --result OUT.json [--seed 0]
        [--seconds 30] [--trace-out SPANS.json] [--setup-only]

Set-up is the import of ``kitaev_chain`` plus a warm-up that runs every
numerical kernel once (the first Schur and SVD calls in a process pay BLAS
start-up), after which the process prints ``READY`` and the runtime it sees.
With ``--setup-only`` it exits there.  Otherwise it builds its inputs, runs
whole passes of the workload until the next pass would end after
``--seconds`` (at least one), checks the outputs outside the timed section and
writes the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

import checkout
import spans
import workloads


def warm_up(kc) -> None:
    params = kc.KitaevParams(16, 1.0, 2.0, 1.0)
    state, _, plan = kc.prepare_eigenstate(params)
    kc.z_value(state, kc.parity([0] * 16, plan.particle_hole))
    kc.energy_expectation(state, params)
    kc.mean_particle_number(state)
    state.parity_expectation()
    state.canonical_residuals()
    kc.TensorChain.from_json(state.to_json())


def _passes(seconds: float, run_pass) -> list[float]:
    """Run whole passes while the next one is expected to end within ``seconds``."""
    times: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run_pass(len(times))
        times.append(time.perf_counter() - t0)
        if time.perf_counter() - start + workloads.median(times) > seconds:
            return times


def _timed(op_times: dict[str, list[float]], op: str, fn, *args):
    t0 = time.perf_counter()
    try:
        return fn(*args)
    finally:
        op_times.setdefault(op, []).append(time.perf_counter() - t0)


def _params(kc, point: workloads.Point):
    return kc.KitaevParams(point.n, point.w, point.mu, point.delta)


def run_ladder(kc, seed: int, seconds: float, tracer) -> dict:
    points = workloads.ladder_points(seed)
    built: dict[str, object] = {}
    errors: list[str] = []
    op_times: dict[str, list[float]] = {}

    def run_pass(index: int) -> None:
        for point in points:
            if tracer is not None:
                tracer.run_id = f"p{index}:{point.label}"
            try:
                built[point.label] = _timed(
                    op_times, point.label, kc.prepare_eigenstate, _params(kc, point)
                )
            except Exception as exc:  # a failed build is a counted operation
                built[point.label] = None
                errors.append(f"{point.label}: {type(exc).__name__}: {exc}")

    restore = spans.install(tracer) if tracer is not None else None
    times = _passes(seconds, run_pass)
    if restore is not None:
        restore()

    missed: dict[str, str] = {}
    critical_z = []
    for point in points:
        result = built[point.label]
        if result is None:
            continue
        state, schur, plan = result
        params = _params(kc, point)
        reference = -0.5 * float(sum(schur.epsilons))
        energy = kc.energy_expectation(state, params)
        if not abs(energy - reference) <= workloads.ENERGY_TOL:
            missed[point.label] = f"energy {energy!r} vs {reference!r}"
        p = state.parity_expectation()
        if not abs(abs(p) - 1.0) <= workloads.PARITY_TOL:
            missed[point.label] = f"parity {p!r}"
        z = kc.z_value(state, kc.parity([0] * point.n, plan.particle_hole))
        if point.name == "critical":
            critical_z.append((point.n, z, point.label))
        elif point.n >= 32:
            expected = workloads.z_closed_form(point.mu, point.w, point.delta)
            if not abs(z - expected) <= workloads.Z_ANALYTIC_TOL:
                missed[point.label] = f"Z {z!r} vs closed form {expected!r}"
    critical_z.sort()
    for (_, smaller, _), (_, larger, label) in zip(critical_z, critical_z[1:]):
        if not larger < smaller:
            missed[label] = f"critical Z {larger!r} does not drop below {smaller!r}"
    return {
        "passes": times,
        "op_times": op_times,
        "attempted": len(times) * len(points),
        "failed": len(errors) + len(missed),
        "problems": errors + [f"{label}: {why}" for label, why in missed.items()],
    }


READS_PER_SWEEP = 5


def _sweep(kc, state, params, sector) -> tuple:
    return (
        kc.z_value(state, sector),
        kc.energy_expectation(state, params),
        kc.mean_particle_number(state),
        state.parity_expectation(),
        tuple(sorted(state.canonical_residuals().items())),
    )


def run_observables(kc, seed: int, seconds: float, tracer) -> dict:
    items = []
    build_start = time.perf_counter()
    for point in workloads.observables_points(seed):
        params = _params(kc, point)
        state, _, plan = kc.prepare_eigenstate(params)
        items.append((point.label, state, params, kc.parity([0] * point.n, plan.particle_hole)))
    build_s = time.perf_counter() - build_start

    reads: dict[str, list] = {label: [] for label, *_ in items}
    copies: dict[str, object] = {}
    errors: list[str] = []
    failed = 0
    op_times: dict[str, list[float]] = {}

    def round_trip(state):
        return kc.TensorChain.from_json(state.to_json())

    def run_pass(index: int) -> None:
        nonlocal failed
        for label, state, params, sector in items:
            if tracer is not None:
                tracer.run_id = f"p{index}:{label}"
            for _ in range(workloads.SWEEPS_PER_PASS):
                try:
                    reads[label].append(
                        _timed(op_times, f"{label}/sweep", _sweep, kc, state, params, sector)
                    )
                except Exception as exc:  # every read of the sweep counts as failed
                    errors.append(f"{label}: {type(exc).__name__}: {exc}")
                    failed += READS_PER_SWEEP
            try:
                copies[label] = _timed(op_times, f"{label}/json", round_trip, state)
            except Exception as exc:
                errors.append(f"{label} JSON round trip: {type(exc).__name__}: {exc}")
                failed += 1

    restore = spans.install(tracer) if tracer is not None else None
    times = _passes(seconds, run_pass)
    if restore is not None:
        restore()

    problems = list(errors)
    for label, state, _, _ in items:
        first = reads[label][0] if reads[label] else None
        mismatched = sum(1 for value in reads[label] if value != first)
        if mismatched:
            problems.append(f"{label}: {mismatched} sweeps differ from the first")
            failed += READS_PER_SWEEP * mismatched
        copy = copies.get(label)
        if copy is not None and not (
            copy.degenerate == state.degenerate
            and len(copy.gammas) == len(state.gammas)
            and all(np.array_equal(a, b) for a, b in zip(copy.gammas, state.gammas))
            and all(np.array_equal(a, b) for a, b in zip(copy.lambdas, state.lambdas))
        ):
            problems.append(f"{label}: JSON round trip changed the state")
            failed += 1
    per_pass = len(items) * (workloads.SWEEPS_PER_PASS * READS_PER_SWEEP + 1)
    return {
        "passes": times,
        "op_times": op_times,
        "attempted": len(times) * per_pass,
        "failed": failed,
        "problems": problems,
        "build_s": build_s,
    }


WORKLOADS = {"ladder": run_ladder, "observables": run_observables}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    kc = checkout.import_package()
    warm_up(kc)
    print(checkout.READY, json.dumps(checkout.runtime_info()), flush=True)
    if args.setup_only:
        return 0

    tracer = spans.Tracer() if args.trace_out else None
    result = WORKLOADS[args.workload](kc, args.seed, args.seconds, tracer)
    if tracer is not None:
        tracer.dump(args.trace_out)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
