"""Seeded inputs and output checks of the three benchmark workloads.

Seed 0 gives the nominal inputs.  Any other seed permutes the order in which
points (or CLI commands) run and scales (mu, w) by factors within
``JITTER`` of 1.  The factors are small enough that no point changes phase,
saturation outcome or failure class, and every scan grid is scaled as a whole,
so the exact phase boundaries on it (and the degenerate points they carry)
stay exactly on the grid.  The critical ladder point stays exactly on
mu = 2w.

Standard library only: the orchestrator imports this module without numpy.
"""

from __future__ import annotations

import random
from typing import NamedTuple

JITTER = 0.01

#: (name, mu, w) at |Delta| = 1: gapped topological, gapped trivial, critical.
LADDER_POINTS = (("topo", 1.0, 1.0), ("trivial", 3.0, 1.0), ("critical", 2.0, 1.0))
LADDER_SIZES = (16, 32, 40)
OBSERVABLES_SIZE = 32
#: Measurement sweeps per state between two JSON round trips; at N = 32 this
#: keeps contractions at about three quarters of an observables pass.
SWEEPS_PER_PASS = 20

ENERGY_TOL = 1e-9
PARITY_TOL = 1e-9
Z_ANALYTIC_TOL = 1e-6
ZSCAN_TOL = 1e-3


class Point(NamedTuple):
    name: str
    mu: float
    w: float
    delta: float
    n: int

    @property
    def label(self) -> str:
        return f"{self.name}.N{self.n}"


def _jittered_points(rng: random.Random, seed: int) -> list[tuple[str, float, float]]:
    points = []
    for name, mu, w in LADDER_POINTS:
        if seed:
            w *= 1.0 + rng.uniform(-JITTER, JITTER)
            mu = 2.0 * w if name == "critical" else mu * (1.0 + rng.uniform(-JITTER, JITTER))
        points.append((name, mu, w))
    return points


def ladder_points(seed: int) -> list[Point]:
    """The nine (point, N) ladder builds in run order."""
    rng = random.Random(seed)
    points = [
        Point(name, mu, w, 1.0, n)
        for name, mu, w in _jittered_points(rng, seed)
        for n in LADDER_SIZES
    ]
    if seed:
        rng.shuffle(points)
    return points


def observables_points(seed: int) -> list[Point]:
    """The three N = 32 states the observables workload reads."""
    rng = random.Random(seed)
    points = [
        Point(name, mu, w, 1.0, OBSERVABLES_SIZE) for name, mu, w in _jittered_points(rng, seed)
    ]
    if seed:
        rng.shuffle(points)
    return points


def _grid(flag: str, values, scale: float) -> str:
    # One token with "=", so that a leading minus sign is not read as a flag.
    return f"{flag}=" + ",".join(repr(v * scale) for v in values)


def scan_commands(seed: int) -> list[tuple[str, list[str]]]:
    """CLI invocations of the scan workload, each run in a fresh process.

    ``particles`` and ``energy-accuracy`` use the values of their default
    17 x 17 grid; ``zscan`` uses a 2 x 2 grid of gapped points that all
    saturate within the default schedule.
    """
    rng = random.Random(seed)

    def scale() -> float:
        return 1.0 + rng.uniform(-JITTER, JITTER) if seed else 1.0

    surface = [0.5 * k for k in range(-8, 9)]
    commands = []
    for command in ("particles", "energy-accuracy"):
        s = scale()
        commands.append(
            (command, [command, _grid("--mu-grid", surface, s), _grid("--w-grid", surface, s)])
        )
    s = scale()
    zscan = [_grid("--mu-grid", (0.0, 3.0), s), _grid("--two-w-grid", (2.0, 4.0), s)]
    commands.append(("zscan", ["zscan", *zscan, "--tol", repr(ZSCAN_TOL)]))
    if seed:
        rng.shuffle(commands)
    return [(label, argv + ["--format", "json", "--jobs", "1"]) for label, argv in commands]


def z_closed_form(mu: float, w: float, delta: float) -> float:
    """Saturated Z of the open chain, max(4|w D|/(|D|+|w|)^2 (1 - (mu/2w)^2), 0)."""
    if w == 0.0:
        return 0.0
    value = 4.0 * abs(w * delta) / (abs(delta) + abs(w)) ** 2 * (1.0 - (mu / (2.0 * w)) ** 2)
    return max(value, 0.0)


def check_scan_output(label: str, payload: dict) -> tuple[int, list[str]]:
    """Check one CLI command's JSON output; returns (rows, failure messages).

    Each row is one operation.  A row fails when it carries an in-row error or
    misses its check; degenerate rows that ``energy-accuracy`` skips are not
    failures.
    """
    rows = payload["rows"]
    problems = []
    if payload["summary"]["points"] != len(rows):
        problems.append(f"{label}: summary counts {payload['summary']['points']} of {len(rows)} rows")
    for row in rows:
        where = f"{label} mu={row['mu']!r}"
        if row["error"]:
            problems.append(f"{where}: {row['error']}")
        elif label == "particles":
            n = payload["config"]["n"]
            if not -1e-9 <= row["mean_particles"] <= n + 1e-9:
                problems.append(f"{where}: mean particles {row['mean_particles']} outside [0, {n}]")
        elif label == "energy-accuracy":
            if not row["degenerate"] and not row["abs_difference"] <= ENERGY_TOL:
                problems.append(f"{where}: energy error {row['abs_difference']:.3e}")
        elif row["converged"]:
            expected = z_closed_form(row["mu"], row["two_w"] / 2.0, payload["config"]["delta"])
            if not abs(row["z"] - expected) <= payload["config"]["tol"]:
                problems.append(f"{where}: Z {row['z']} vs closed form {expected}")
    if label == "energy-accuracy":
        worst = payload["summary"]["max_abs_difference"]
        if not (isinstance(worst, float) and worst <= ENERGY_TOL):
            problems.append(f"{label}: max_abs_difference {worst!r}")
    return len(rows), problems


def grid_points(argv: list[str]) -> int:
    """Number of grid points (output rows) a scan command asks for."""
    count = 1
    for arg in argv:
        if arg.split("=", 1)[0] in ("--mu-grid", "--w-grid", "--two-w-grid"):
            count *= len(arg.split(","))
    return count


def pass_seconds(op_times: dict[str, list[float]], passes: int) -> float:
    """Time of one pass from the median of each operation's repeated timings.

    Every pass runs each operation the same number of times, so an operation
    timed ``k`` times in ``passes`` passes weighs ``k / passes`` medians.
    Medians keep a burst of machine noise in one timing out of the result.
    """
    return sum(len(times) / passes * median(times) for times in op_times.values())


def median(values) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0
