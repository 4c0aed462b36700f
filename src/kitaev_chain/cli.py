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
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import oracle
from .correlations import (
    DEFAULT_SATURATION_TOL,
    DEFAULT_SCHEDULE,
    mean_particle_number,
    z_analytic,
    z_saturated,
    z_value,
)
from .folding import build_eigenstates, prepare_eigenstate
from .quadratic import (
    KitaevParams,
    analytic_periodic_energies,
    build_coupling_matrix,
    eigenenergy,
    schur_decompose,
)
from .tensor import MAX_BOND_DIMENSION, energy_expectation

__all__ = ["BATCH_BYTES", "MAX_AXIS_POINTS", "MAX_GRID_POINTS", "MAX_SITES", "main", "run"]

#: Most sites a chain may have, from ``--n`` or a ``--n-schedule`` entry.  Its
#: coupling block B is N x N doubles, 32 MB at this cap; the check runs before
#: any matrix is built, so a larger N is a usage error, not a failed allocation.
MAX_SITES = 2048

#: Most values one grid axis or chain-length schedule may hold.  Ranges are
#: sized before any value is built, so ``0:1:1e-300`` fails at once.
MAX_AXIS_POINTS = 10_000

#: Most points a whole grid may hold, checked on the axis lengths before any
#: point's parameters are built.
MAX_GRID_POINTS = 100_000

#: Bytes of site tensors one batch of ``particles`` or ``energy-accuracy`` points
#: may hold when every bond of every chain has its largest possible dimension
#: (see ``batch_size``).  The default 10-site surface fits 48 points in a batch.
BATCH_BYTES = 2**20

#: Subcommands defined for one boundary only; they take no ``--boundary`` flag.
FIXED_BOUNDARY = {"zscan": "open", "verify": "open",
                  "energy-accuracy": "periodic", "particles": "periodic"}

#: Environment a ``--jobs`` worker starts with: one BLAS thread each, since the
#: matrices are too small to gain from threads and the workers already share the CPUs.
WORKER_ENVIRONMENT = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

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
    if values[-1] > MAX_SITES:
        raise UsageError(f"schedule {text!r} has a chain longer than {MAX_SITES} sites")
    return tuple(values)


def parse_grid(text: str) -> tuple[float, ...]:
    """Parameter grid: ``0,0.5,1`` or ``min:max:step`` (inclusive, rounded to 10 decimals).

    A grid that holds a value twice is a usage error: a list that repeats one, or
    a range whose step is too fine for 10 decimals."""
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
    if len(set(values)) < len(values):
        raise UsageError(f"grid {text!r} holds a value twice")
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
    """Reject flag values the subcommand cannot use.

    ``--out`` is checked, not opened: a run that fails keeps the previous output."""
    if getattr(args, "n", 0) > MAX_SITES:
        raise UsageError(f"--n must be at most {MAX_SITES} sites")
    if getattr(args, "tol", None) is not None and not 0.0 < args.tol < math.inf:
        raise UsageError("--tol must be finite and positive")
    if getattr(args, "jobs", 1) < 1:
        raise UsageError("--jobs must be at least 1")
    if args.out and os.path.isdir(args.out):
        raise UsageError(f"--out {args.out!r} is a directory")
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise UsageError(f"--out {args.out!r}: its directory does not exist")


def make_params(args: argparse.Namespace, **fields) -> KitaevParams:
    """Parameters from the shared flags plus ``fields``; invalid values are usage errors."""
    shared = dict(pairing_magnitude=args.delta, boundary=args.boundary)
    try:
        return KitaevParams(**{**shared, **fields})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def batch_size(n_sites: int) -> int:
    """Points of ``n_sites`` chains that one batch of a grid builds together.

    The bound is memory, not a setting: as many chains as fit ``BATCH_BYTES``
    when each bond i has its largest possible dimension, min(2^(i+1),
    2^(N-1-i), ``MAX_BOND_DIMENSION``), and each site tensor 2 chi_L chi_R
    doubles; at least one.  The stacked kernel's temporaries are a small
    multiple of one bond's tensors.  A 10-site chain needs at most 21 824
    bytes (48 in a batch), and from 15 sites on one chain fills the budget,
    so long chains build one at a time.
    """
    bonds = [min(2 ** min(i + 1, n_sites - 1 - i), MAX_BOND_DIMENSION) for i in range(n_sites - 1)]
    dims = [1, *bonds, 1]
    worst = sum(2 * 8 * left * right for left, right in zip(dims, dims[1:]))
    return max(1, BATCH_BYTES // worst)


def run_grid(
    args, worker: Callable, points: list, columns, summarize, *, batch: int = 1, **config
) -> dict:
    """Emit the rows ``worker`` makes of each batch of points, in point order; return their summary.

    ``points`` are validated ``KitaevParams``, handed to ``worker`` in batches
    of up to ``batch`` consecutive points; it returns the rows of a batch.
    ``summarize`` maps all rows to the summary dict.  With ``--jobs 1`` the
    batches run in sequence in this process; above 1 they are mapped over a
    pool of worker processes, capped at one per CPU and per batch.  The
    workers are spawned, not forked, so that they load BLAS under
    ``WORKER_ENVIRONMENT``; the parent's environment is restored once the
    pool has closed.  The pool modules are imported only then, so a serial
    command does not pay for them."""
    batches = [points[start : start + batch] for start in range(0, len(points), batch)]
    jobs = min(args.jobs, os.cpu_count() or 1, len(batches))
    if jobs <= 1:
        results = [worker(chunk) for chunk in batches]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        saved = {key: os.environ.get(key) for key in WORKER_ENVIRONMENT}
        os.environ.update(WORKER_ENVIRONMENT)
        try:
            context = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
                results = list(pool.map(worker, batches))
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
    rows = [row for batch_rows in results for row in batch_rows]
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


def _zscan_rows(points: list[KitaevParams], *, schedule, tol: float) -> list[dict]:
    return [_zscan_row(params, schedule, tol) for params in points]


def _zscan_row(params: KitaevParams, schedule, tol: float) -> dict:
    analytic = z_analytic(params)
    row = {"mu": params.chemical_potential, "two_w": 2.0 * params.hopping, "z_analytic": analytic}
    try:
        result = z_saturated(params, schedule=schedule, tol=tol)
    except Exception as exc:  # recorded in-row; the scan continues
        row.update(z=None, converged=None, n_used=None, abs_difference=None, error=str(exc))
        return row
    row.update(z=result.z, converged=result.converged, n_used=result.n_used, error="")
    row["abs_difference"] = abs(result.z - analytic)
    return row


def _zscan_summary(rows: list[dict]) -> dict:
    failed = sum(row["z"] is None for row in rows)
    unconverged = sum(row["converged"] is False for row in rows)
    return {"points": len(rows), "failed": failed, "unconverged": unconverged}


def cmd_zscan(args: argparse.Namespace) -> int:
    schedule = parse_schedule(args.n_schedule) if args.n_schedule else DEFAULT_SCHEDULE
    grid = grid_product(
        sorted(parse_grid(args.mu_grid), reverse=True), sorted(parse_grid(args.two_w_grid))
    )
    # built at the longest chain, so couplings that overflow there are a usage error
    points = [
        make_params(args, n_sites=schedule[-1], hopping=two_w / 2.0, chemical_potential=mu)
        for mu, two_w in grid
    ]
    worker = partial(_zscan_rows, schedule=schedule, tol=args.tol)
    run_grid(args, worker, points, ZSCAN_COLUMNS, _zscan_summary, schedule=list(schedule))
    return 0


# -- surfaces: energy accuracy and particles ---------------------------------

ENERGY_COLUMNS = (
    ("mu", 6), ("w", 6), ("energy_tensor", 6), ("energy_reference", 6),
    ("abs_difference", 12), ("degenerate", None), ("error", None),
)

PARTICLES_COLUMNS = (
    ("mu", 6), ("w", 6), ("mean_particles", 6), ("parity", None), ("degenerate", None),
    ("error", None),
)


def _surface_rows(
    points: list[KitaevParams], *, blank: dict, read: Callable, decomposed: Callable | None = None
) -> list[dict]:
    """One row per point of a surface batch: decompose, build, read.

    Each point is decomposed, the ground states of those that were are built
    in lockstep by one ``build_eigenstates`` call, and each state is handed
    to ``read(params, state, plan, row)``, which returns the columns it
    fills.  A row starts as ``blank``, the columns of a point that failed;
    ``decomposed(schur)``, if given, fills the columns a decomposition
    settles, which stay when the build or read fails.  A failure at any of
    the three stages lands in that point's ``error`` column, and the batch
    goes on.
    """
    rows, built = [], []
    for params in points:
        row = {"mu": params.chemical_potential, "w": params.hopping, **blank, "error": ""}
        rows.append(row)
        try:
            schur = schur_decompose(build_coupling_matrix(params))
            if decomposed:
                row.update(decomposed(schur))
        except Exception as exc:  # recorded in-row; the scan continues
            row["error"] = str(exc)
            continue
        built.append((params, row, schur))
    for (params, row, _), result in zip(built, build_eigenstates([item[2] for item in built])):
        try:
            if isinstance(result, Exception):
                raise result
            row.update(read(params, *result, row))
        except Exception as exc:  # recorded in-row; the scan continues
            row["error"] = str(exc)
    return rows


def _energy_decomposed(schur) -> dict:
    return {"energy_reference": -0.5 * float(np.sum(schur.epsilons)),
            "degenerate": schur.is_degenerate}


def _energy_read(params: KitaevParams, state, plan, row: dict) -> dict:
    energy = energy_expectation(state, params)
    return {"energy_tensor": energy, "abs_difference": abs(energy - row["energy_reference"])}


def _particles_read(params: KitaevParams, state, plan, row: dict) -> dict:
    return {"mean_particles": mean_particle_number(state), "parity": state.parity,
            "degenerate": plan.degenerate}


def _energy_summary(rows: list[dict]) -> dict:
    differences = [row["abs_difference"] for row in rows if row["abs_difference"] is not None]
    return {"points": len(rows), "max_abs_difference": max(differences, default=None)}


def _particles_summary(rows: list[dict]) -> dict:
    return {"points": len(rows), "failed": sum(row["mean_particles"] is None for row in rows)}


def _run_surface(args: argparse.Namespace, columns, summarize, **stages) -> int:
    """Run ``_surface_rows`` with ``stages`` over the (mu, w) surface: w, then mu, ascending."""
    grid = grid_product(sorted(parse_grid(args.w_grid)), sorted(parse_grid(args.mu_grid)))
    points = [make_params(args, n_sites=args.n, hopping=w, chemical_potential=mu) for w, mu in grid]
    worker = partial(_surface_rows, **stages)
    run_grid(args, worker, points, columns, summarize, batch=batch_size(args.n))
    return 0


def cmd_energy_accuracy(args: argparse.Namespace) -> int:
    if args.n < 3:
        raise UsageError("energy-accuracy needs --n >= 3 (the periodic energy sums N bonds)")
    blank = dict(energy_tensor=None, energy_reference=None, abs_difference=None, degenerate=None)
    return _run_surface(args, ENERGY_COLUMNS, _energy_summary, blank=blank, read=_energy_read,
                        decomposed=_energy_decomposed)


def cmd_particles(args: argparse.Namespace) -> int:
    blank = dict(mean_particles=None, parity="", degenerate=None)
    return _run_surface(args, PARTICLES_COLUMNS, _particles_summary, blank=blank,
                        read=_particles_read)


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


def _verify_rows(points: list[KitaevParams]) -> list[dict]:
    return [row for params in points for row in _verify_point(params)]


def _verify_point(params: KitaevParams) -> list[dict]:
    n_sites = params.n_sites
    w, mu, delta = params.hopping, params.chemical_potential, params.pairing_magnitude
    point = {"w": w, "mu": mu, "delta": delta}
    state, schur, plan = prepare_eigenstate(params)
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
    # relative to the spectrum's own scale: an all-zero spectrum passes only at residual 0
    scale = float(np.abs(dense_spectrum).max())
    record("spectrum_multiset", "pass" if residual <= 1e-9 * scale else "fail", residual)

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
        rho = state.rdm_ends()
        dense_rho = oracle.partial_trace_ends(vec, n_sites)
        residual = float(np.abs(rho - dense_rho).max())
        record("rdm_ends", "pass" if residual < 1e-10 else "fail", residual)

    if plan.degenerate:
        record("z_value", "skipped", None, "degenerate ground level")
    elif n_sites < 3:
        record("z_value", "skipped", None, "end-pair contraction needs 3 sites")
    else:
        dense_z = abs(oracle.ed_expectation(oracle.dense_edge_operator(n_sites, "Q"), ground).real)
        residual = abs(z_value(state, state.parity) - dense_z)
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
    summary = run_grid(args, _verify_rows, points, VERIFY_COLUMNS, _verify_summary, **config)
    return 0 if summary["failures"] == 0 else 1


# -- parser ------------------------------------------------------------------


def _command(sub, name: str, func: Callable, help_text: str, *, n_default: int | None = None,
                grid: bool = True) -> argparse.ArgumentParser:
    """A subparser with the shared flags; ``grid`` adds ``--jobs``.

    A subcommand of ``FIXED_BOUNDARY`` gets its boundary as a parser default, so
    JSON ``config`` still records it; every other one takes ``--boundary``."""
    parser = sub.add_parser(name, help=help_text, allow_abbrev=False)
    parser.set_defaults(func=func)
    if n_default is not None:
        parser.add_argument("--n", type=int, default=n_default, help="number of chain sites")
    parser.add_argument("--delta", type=float, default=1.0, help="pairing magnitude")
    if name in FIXED_BOUNDARY:
        parser.set_defaults(boundary=FIXED_BOUNDARY[name])
    else:
        parser.add_argument(
            "--boundary", choices=("open", "periodic"), default="open", help="chain boundary"
        )
    if grid:
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
