"""Command-line front end: spectra, Z scans, energy accuracy, particle counts.

Every subcommand emits either CSV (deterministic row order and formatting:
LF line endings, ``.`` decimal separator, floats at 6 decimals, Z columns at
3 decimals, scalar results as leading ``# key=value`` comment lines) or JSON
(one top-level object with ``config``, ``rows``, and ``summary``; floats at
full precision).  Exit codes: 0 success, 1 numerical failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import oracle
from .correlations import (
    DEFAULT_SATURATION_TOL,
    DEFAULT_SCHEDULE,
    mean_particle_number,
    parity,
    z_analytic,
    z_saturated,
    z_value,
)
from .folding import compute_folding_plan, prepare_eigenstate, reconstruct_eigenstate
from .quadratic import (
    KitaevParams,
    analytic_periodic_energies,
    build_coupling_matrix,
    eigenenergy,
    schur_decompose,
)
from .tensor import TRUNCATION_THRESHOLD, energy_expectation

__all__ = ["MAX_AXIS_POINTS", "MAX_GRID_POINTS", "main", "run"]

#: Most values one grid axis or chain-length schedule may hold.  Ranges are
#: sized before any value is built, so ``0:1:1e-300`` fails at once.
MAX_AXIS_POINTS = 10_000

#: Most points a whole grid may hold, checked on the axis lengths before any
#: point's parameters are built.
MAX_GRID_POINTS = 100_000

#: Subcommands defined for one boundary only; it is also their default.
FIXED_BOUNDARY = {"zscan": "open", "verify": "open",
                  "energy-accuracy": "periodic", "particles": "periodic"}

#: Decimals of the float-valued summary entries in CSV comment lines.
SUMMARY_DECIMALS = {"ground_energy": 6, "max_deviation": 12, "max_abs_difference": 12}


class UsageError(ValueError):
    """Invalid flag combination or malformed grid/schedule syntax."""


# -- parsing helpers ---------------------------------------------------------


def parse_schedule(text: str) -> tuple[int, ...]:
    """Chain-length schedule: ``8,16,24`` or ``start:stop:step`` (inclusive),
    strictly increasing from at least 3 sites (the end-pair contraction needs 3)."""
    try:
        if ":" in text:
            start, stop, step = (int(part) for part in text.split(":"))
            if step <= 0:
                raise ValueError
            values: Sequence[int] = range(start, stop + 1, step)
        else:
            values = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad schedule {text!r}; use N,N,... or start:stop:step") from exc
    if len(values) > MAX_AXIS_POINTS:
        raise UsageError(f"schedule {text!r} has more than {MAX_AXIS_POINTS} entries")
    if not values or values[0] < 3 or any(b <= a for a, b in zip(values, values[1:])):
        raise UsageError(f"schedule {text!r} needs increasing chain lengths of at least 3 sites")
    return tuple(values)


def parse_grid(text: str) -> tuple[float, ...]:
    """Parameter grid: ``0,0.5,1`` or ``min:max:step`` (inclusive, rounded to 10 decimals).

    A range whose rounded values are not strictly increasing is a usage error."""
    try:
        if ":" in text:
            lo, hi, step = (float(part) for part in text.split(":"))
            if not (math.isfinite(lo) and math.isfinite(step) and step > 0 and hi >= lo):
                raise ValueError
            # floor, so the last value never passes max; the 1e-9 absorbs rounding in the
            # quotient (0:0.3:0.1 ends at 0.3); OverflowError when hi is infinite
            count = math.floor((hi - lo) / step + 1e-9) + 1
        else:
            values = tuple(float(part) for part in text.split(","))
            count = len(values)
    except (ValueError, OverflowError) as exc:
        raise UsageError(f"bad grid {text!r}; use v,v,... or min:max:step") from exc
    if count > MAX_AXIS_POINTS:
        raise UsageError(f"grid {text!r} has more than {MAX_AXIS_POINTS} points")
    if ":" in text:
        values = tuple(round(lo + k * step, 10) for k in range(count))
        if any(b <= a for a, b in zip(values, values[1:])):
            raise UsageError(f"grid {text!r} has a step too fine for 10 decimals")
    return values


# -- output ------------------------------------------------------------------


def _cell(value, decimals: int | None) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    return f"{float(value) + 0.0:.{decimals}f}"


def emit(args: argparse.Namespace, columns, rows: list, summary: dict, **config) -> None:
    """Write ``rows`` and ``summary`` as CSV or JSON.

    ``columns`` is the CSV column spec, ``(name, decimals)`` pairs in print order; ``decimals``
    applies to float cells.  JSON ``config`` holds every flag that is set, updated by ``config``."""
    if args.format == "json":
        flags = {key: value for key, value in vars(args).items() if value is not None}
        del flags["func"]
        payload = {"config": {**flags, **config}, "rows": rows, "summary": summary}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [
            f"# {key}={_cell(value, SUMMARY_DECIMALS.get(key))}"
            for key, value in sorted(summary.items())
        ]
        lines.append(",".join(name for name, _ in columns))
        lines.extend(
            ",".join(_cell(row[name], decimals) for name, decimals in columns) for row in rows
        )
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# -- shared parameter plumbing ----------------------------------------------


def _check_flags(args: argparse.Namespace) -> None:
    """Reject flag values the subcommand cannot use."""
    boundary = FIXED_BOUNDARY.get(args.command, args.boundary)
    if args.boundary != boundary:
        raise UsageError(f"{args.command} is defined for {boundary} chains only")
    if getattr(args, "trunc", None) is not None and not 0.0 < args.trunc < 1.0:
        raise UsageError("--trunc must lie in (0, 1)")
    if getattr(args, "tol", None) is not None and not 0.0 < args.tol < math.inf:
        raise UsageError("--tol must be finite and positive")
    if getattr(args, "jobs", 1) < 1:
        raise UsageError("--jobs must be at least 1")


def make_params(args: argparse.Namespace, **fields) -> KitaevParams:
    """Parameters from the shared flags plus ``fields``; invalid values are usage errors."""
    shared = dict(pairing_magnitude=args.delta, boundary=args.boundary)
    try:
        return KitaevParams(**{**shared, **fields})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def run_grid(args, worker: Callable, points: list, columns, summarize, **config) -> dict:
    """Emit the rows ``worker`` makes of each point, in point order, and return their summary.

    ``points`` are validated ``KitaevParams``; ``summarize`` maps all rows to the summary
    dict.  ``--jobs`` is capped at one worker process per CPU and per point."""
    jobs = min(args.jobs, os.cpu_count() or 1, len(points))
    if jobs <= 1:
        results = [worker(point) for point in points]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(worker, points))
    rows = [row for point_rows in results for row in point_rows]
    summary = summarize(rows)
    emit(args, columns, rows, summary, **config)
    return summary


def grid_product(*axes: Sequence[float]) -> list[tuple[float, ...]]:
    """Every combination of the axes' values, first axis outermost; more than
    ``MAX_GRID_POINTS`` combinations is a usage error, raised before any is built."""
    size = math.prod(len(axis) for axis in axes)
    if size > MAX_GRID_POINTS:
        raise UsageError(f"grid has {size} points, more than {MAX_GRID_POINTS}")
    return list(itertools.product(*axes))


def _surface_points(args: argparse.Namespace) -> list[KitaevParams]:
    """The (mu, w) surface of energy-accuracy and particles: w, then mu, ascending."""
    grid = grid_product(sorted(parse_grid(args.w_grid)), sorted(parse_grid(args.mu_grid)))
    return [make_params(args, n_sites=args.n, hopping=w, chemical_potential=mu) for w, mu in grid]


# -- spectrum ----------------------------------------------------------------

SPECTRUM_COLUMNS = (("mode", None), ("epsilon", 6))
PERIODIC_COLUMNS = (("epsilon_analytic", 6), ("deviation", 12))


def cmd_spectrum(args: argparse.Namespace) -> int:
    params = make_params(args, n_sites=args.n, hopping=args.w, chemical_potential=args.mu)
    schur = schur_decompose(build_coupling_matrix(params))
    ground = eigenenergy(schur.epsilons, [0] * params.n_sites)
    summary = {"ground_energy": ground, "degenerate": schur.is_degenerate}
    rows = [{"mode": index + 1, "epsilon": float(eps)} for index, eps in enumerate(schur.epsilons)]
    columns = SPECTRUM_COLUMNS
    if params.boundary == "periodic":
        analytic = np.sort(np.abs(analytic_periodic_energies(params)))[::-1]
        summary["max_deviation"] = float(np.abs(schur.epsilons - analytic).max())
        for row, exact in zip(rows, analytic):
            row.update(epsilon_analytic=float(exact), deviation=float(abs(row["epsilon"] - exact)))
        columns = SPECTRUM_COLUMNS + PERIODIC_COLUMNS
    emit(args, columns, rows, summary)
    return 0


# -- zscan -------------------------------------------------------------------

ZSCAN_COLUMNS = (
    ("mu", 6), ("two_w", 6), ("z", 3), ("converged", None), ("n_used", None),
    ("z_analytic", 3), ("abs_difference", 6), ("error", None),
)


def _zscan_point(params: KitaevParams, *, schedule, tol: float, trunc: float) -> list[dict]:
    analytic = z_analytic(params)
    row = {"mu": params.chemical_potential, "two_w": 2.0 * params.hopping, "z_analytic": analytic}
    try:
        result = z_saturated(params, schedule=schedule, tol=tol, threshold=trunc)
    except Exception as exc:  # recorded in-row; the scan continues
        row.update(z=None, converged=None, n_used=None, abs_difference=None, error=str(exc))
        return [row]
    row.update(z=result.z, converged=result.converged, n_used=result.n_used, error="")
    row["abs_difference"] = abs(result.z - analytic)
    return [row]


def _zscan_summary(rows: list[dict]) -> dict:
    failed = sum(row["z"] is None for row in rows)
    unconverged = sum(row["converged"] is False for row in rows)
    return {"points": len(rows), "failed": failed, "unconverged": unconverged}


def cmd_zscan(args: argparse.Namespace) -> int:
    schedule = parse_schedule(args.n_schedule) if args.n_schedule else DEFAULT_SCHEDULE
    grid = grid_product(
        sorted(parse_grid(args.mu_grid), reverse=True), sorted(parse_grid(args.two_w_grid))
    )
    points = [
        make_params(args, n_sites=schedule[0], hopping=two_w / 2.0, chemical_potential=mu)
        for mu, two_w in grid
    ]
    worker = partial(_zscan_point, schedule=schedule, tol=args.tol, trunc=args.trunc)
    run_grid(args, worker, points, ZSCAN_COLUMNS, _zscan_summary, schedule=list(schedule))
    return 0


# -- energy accuracy ---------------------------------------------------------

ENERGY_COLUMNS = (
    ("mu", 6), ("w", 6), ("energy_tensor", 6), ("energy_reference", 6),
    ("abs_difference", 12), ("degenerate", None), ("error", None),
)


def _energy_point(params: KitaevParams, *, trunc: float) -> list[dict]:
    schur = schur_decompose(build_coupling_matrix(params))
    reference = -0.5 * float(np.sum(schur.epsilons))
    row = dict(mu=params.chemical_potential, w=params.hopping, energy_reference=reference)
    row.update(energy_tensor=None, abs_difference=None, degenerate=schur.is_degenerate, error="")
    if schur.is_degenerate:
        return [row]
    occupation = [0] * params.n_sites
    try:
        plan = compute_folding_plan(schur, occupation)
        state = reconstruct_eigenstate(plan, threshold=trunc)
        energy = energy_expectation(state, params)
    except Exception as exc:  # recorded in-row; the scan continues
        row["error"] = str(exc)
        return [row]
    row.update(energy_tensor=energy, abs_difference=abs(energy - reference))
    return [row]


def _energy_summary(rows: list[dict]) -> dict:
    differences = [row["abs_difference"] for row in rows if row["abs_difference"] is not None]
    skipped = sum(row["degenerate"] for row in rows)
    worst = max(differences, default="")
    return {"points": len(rows), "degenerate_skipped": skipped, "max_abs_difference": worst}


def cmd_energy_accuracy(args: argparse.Namespace) -> int:
    worker = partial(_energy_point, trunc=args.trunc)
    run_grid(args, worker, _surface_points(args), ENERGY_COLUMNS, _energy_summary)
    return 0


# -- particles ---------------------------------------------------------------

PARTICLES_COLUMNS = (
    ("mu", 6), ("w", 6), ("mean_particles", 6), ("parity", None), ("degenerate", None),
    ("error", None),
)


def _particles_point(params: KitaevParams, *, trunc: float) -> list[dict]:
    row = {"mu": params.chemical_potential, "w": params.hopping}
    try:
        state, _, plan = prepare_eigenstate(params, threshold=trunc)
    except Exception as exc:  # recorded in-row; the scan continues
        row.update(mean_particles=None, parity="", degenerate=None, error=str(exc))
        return [row]
    sector = parity([0] * params.n_sites, plan.particle_hole)
    row.update(mean_particles=mean_particle_number(state), parity=sector, error="")
    row["degenerate"] = plan.degenerate
    return [row]


def _particles_summary(rows: list[dict]) -> dict:
    return {"points": len(rows), "failed": sum(row["mean_particles"] is None for row in rows)}


def cmd_particles(args: argparse.Namespace) -> int:
    worker = partial(_particles_point, trunc=args.trunc)
    run_grid(args, worker, _surface_points(args), PARTICLES_COLUMNS, _particles_summary)
    return 0


# -- verify ------------------------------------------------------------------

_VERIFY_GRID = (
    (1.0, 0.0, 1.0),
    (1.0, 0.5, 1.0),
    (1.0, 1.0, 1.0),
    (1.0, 2.5, 1.0),
    (0.7, 0.8, 1.0),
    (1.3, 1.7, 0.6),
)

#: The single point ``verify`` checks when any of its coordinates is set by a flag.
VERIFY_POINT = {"w": 1.0, "mu": 0.0, "delta": 1.0}

VERIFY_COLUMNS = (
    ("w", 6), ("mu", 6), ("delta", 6), ("check", None), ("status", None), ("residual", 12),
    ("detail", None),
)


def _verify_point(params: KitaevParams, *, trunc: float) -> list[dict]:
    n_sites = params.n_sites
    w, mu, delta = params.hopping, params.chemical_potential, params.pairing_magnitude
    point = {"w": w, "mu": mu, "delta": delta}
    schur = schur_decompose(build_coupling_matrix(params))
    h = oracle.dense_hamiltonian(n_sites, w, mu, delta)
    checks: list[dict] = []

    def record(check: str, status: str, residual: float | None, detail: str = "") -> None:
        checks.append(dict(point, check=check, status=status, residual=residual, detail=detail))

    dense_spectrum = oracle.ed_spectrum(h)
    rebuilt = np.sort(
        [
            eigenenergy(schur.epsilons, [(index >> k) & 1 for k in range(n_sites)])
            for index in range(2**n_sites)
        ]
    )
    residual = float(np.abs(rebuilt - dense_spectrum).max())
    record("spectrum_multiset", "pass" if residual < 1e-9 else "fail", residual)

    occupation = [0] * n_sites
    plan = compute_folding_plan(schur, occupation)
    state = reconstruct_eigenstate(plan, threshold=trunc)
    vec = state.fock_coefficients().reshape(-1)
    ground = None if plan.degenerate else oracle.ed_ground_state(h)[1]

    if plan.degenerate:
        record("ground_overlap", "skipped", None, "degenerate ground level")
    else:
        overlap = abs(np.vdot(ground, vec))
        record("ground_overlap", "pass" if overlap >= 1.0 - 1e-9 else "fail", max(0.0, 1.0 - overlap))

    if n_sites < 3:
        record("rdm_ends", "skipped", None, "end-pair contraction needs 3 sites")
    else:
        rho = state.rdm_ends().entries
        dense_rho = oracle.partial_trace_ends(vec, n_sites)
        residual = float(np.abs(rho - dense_rho).max())
        record("rdm_ends", "pass" if residual < 1e-10 else "fail", residual)

    if plan.degenerate:
        record("z_value", "skipped", None, "degenerate ground level")
    elif n_sites < 3:
        record("z_value", "skipped", None, "end-pair contraction needs 3 sites")
    else:
        sector = parity([0] * n_sites, plan.particle_hole)
        dense_z = abs(oracle.ed_expectation(oracle.dense_edge_operator(n_sites, "Q"), ground).real)
        residual = abs(z_value(state, sector) - dense_z)
        record("z_value", "pass" if residual < 1e-9 else "fail", residual)
    return checks


def _verify_summary(rows: list[dict]) -> dict:
    status = [row["status"] for row in rows]
    failures, skipped = status.count("fail"), status.count("skipped")
    return {"checks": len(rows), "failures": failures, "skipped": skipped}


def cmd_verify(args: argparse.Namespace) -> int:
    if not 2 <= args.n <= 8:
        raise UsageError("verify needs 2 <= --n <= 8 (dense reference)")
    # any of --w, --mu, --delta selects one point, which JSON config then records
    chosen = {key: getattr(args, key) for key in VERIFY_POINT if getattr(args, key) is not None}
    grid, config = _VERIFY_GRID, {}
    if chosen:
        config = {**VERIFY_POINT, **chosen}
        grid = [(config["w"], config["mu"], config["delta"])]
    points = [
        make_params(args, n_sites=args.n, hopping=w, chemical_potential=mu, pairing_magnitude=d)
        for w, mu, d in grid
    ]
    worker = partial(_verify_point, trunc=args.trunc)
    summary = run_grid(args, worker, points, VERIFY_COLUMNS, _verify_summary, **config)
    return 0 if summary["failures"] == 0 else 1


# -- parser ------------------------------------------------------------------


def _command(sub, name: str, func: Callable, help_text: str, *, n_default: int | None = None,
                grid: bool = True) -> argparse.ArgumentParser:
    """A subparser with the shared flags; ``grid`` adds ``--trunc`` and ``--jobs``."""
    parser = sub.add_parser(name, help=help_text, allow_abbrev=False)
    parser.set_defaults(func=func)
    if n_default is not None:
        parser.add_argument("--n", type=int, default=n_default, help="number of chain sites")
    parser.add_argument("--delta", type=float, default=1.0, help="pairing magnitude")
    boundary = FIXED_BOUNDARY.get(name, "open")
    parser.add_argument(
        "--boundary", choices=("open", "periodic"), default=boundary, help="chain boundary"
    )
    if grid:
        parser.add_argument("--trunc", type=float, default=TRUNCATION_THRESHOLD,
                            help="relative truncation threshold")
        parser.add_argument("--jobs", type=int, default=1, help="parallel workers for grid points")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    parser.add_argument("--out", help="output path (default stdout)")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kitaev-chain",
        description="Kitaev-chain spectra, eigenstates, and end-to-end correlation scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The cmd_* functions are looked up here, at call time, so wrappers
    # installed on this module before main() runs take effect.

    spectrum = _command(sub, "spectrum", cmd_spectrum, "single-body energies and ground energy",
                           n_default=10, grid=False)
    spectrum.add_argument("--w", type=float, default=1.0, help="hopping amplitude")
    spectrum.add_argument("--mu", type=float, default=0.0, help="chemical potential")

    zscan = _command(sub, "zscan", cmd_zscan, "saturated Z over a (mu, 2w) grid")
    zscan.add_argument("--mu-grid", default="-4:4:1", help="mu grid (list or min:max:step)")
    zscan.add_argument("--two-w-grid", default="-4:4:1", help="2w grid (list or min:max:step)")
    zscan.add_argument("--n-schedule", default="", help="chain lengths (list or start:stop:step)")
    zscan.add_argument("--tol", type=float, default=DEFAULT_SATURATION_TOL, help="saturation tolerance")

    for name, func, help_text in (
        ("energy-accuracy", cmd_energy_accuracy, "tensor-route ground-energy error on a grid"),
        ("particles", cmd_particles, "mean particle number and parity on a grid"),
    ):
        surface = _command(sub, name, func, help_text, n_default=10)
        surface.add_argument("--mu-grid", default="-4:4:0.5", help="mu grid (list or min:max:step)")
        surface.add_argument("--w-grid", default="-4:4:0.5", help="w grid (list or min:max:step)")

    verify = _command(sub, "verify", cmd_verify, "dense-reference equivalence suite", n_default=6)
    verify.add_argument("--w", type=float, default=None, help="hopping (default: built-in grid)")
    verify.add_argument("--mu", type=float, default=None, help="chemical potential")
    verify.set_defaults(delta=None)  # unset: the built-in grid sets each point's |D|
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical failure surfaced with exit code 1
        print(f"failed: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
