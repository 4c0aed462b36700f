"""End-to-end correlations: edge operators, parity, and the Z measure.

The Z measure is the magnitude of the end-to-end hopping expectation
< 2 (c_1 c+_N + c_N c+_1) >, evaluated from the end-pair reduced density
matrix and saturated in the chain length N.  In the reduced (site 1, site N)
basis |00>, |01>, |10>, |11| the operator acts as a 4x4 matrix whose entries
carry the parity factor (-1)^P of the state, which absorbs the fermionic
string through the bulk; Q splits into left- and right-edge parts QL and QR
built from single Majorana modes of each end.

The 4x4 matrices are frozen constants, derived once by brute-force expansion
of the edge Majorana products in the two-site reduced basis (the dense oracle
reproduces them, which is covered by tests).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .folding import prepare_eigenstate
from .quadratic import KitaevParams
from .tensor import MAX_BOND_DIMENSION, TRUNCATION_THRESHOLD, TensorChain

__all__ = [
    "DEFAULT_SCHEDULE",
    "DEFAULT_SATURATION_TOL",
    "ZResult",
    "edge_operator_matrix",
    "parity",
    "z_value",
    "z_saturated",
    "z_analytic",
    "mean_particle_number",
]

#: Default chain lengths swept by the saturation search.
DEFAULT_SCHEDULE = tuple(range(8, 97, 8))

#: Default |Z(N) - Z(N_prev)| below which the sweep stops.
DEFAULT_SATURATION_TOL = 1e-3

_EDGE_BASES = {
    # 2 (|01><10| + |10><01|): the end-to-end hopping.
    "Q": np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 2.0, 0.0],
            [0.0, 2.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    ),
    # i gamma_2 gamma_{2N-1} (second mode of site 1, first mode of site N).
    "QL": np.array(
        [
            [0.0, 0.0, 0.0, -1.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0, 0.0],
        ]
    ),
    # i gamma_{2N} gamma_1 (second mode of site N, first mode of site 1).
    "QR": np.array(
        [
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
        ]
    ),
}

_PARITIES = ("even", "odd")


def edge_operator_matrix(kind: str, parity: str) -> np.ndarray:
    """4x4 matrix of Q, QL, or QR in the (site 1, site N) reduced basis.

    ``parity`` is the parity sector of the state the matrix acts on; the
    matrices are the even-sector ones times (-1) in the odd sector.
    """
    if kind not in _EDGE_BASES:
        raise ValueError(f"kind must be one of {sorted(_EDGE_BASES)}, got {kind!r}")
    if parity not in _PARITIES:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    sign = 1.0 if parity == "even" else -1.0
    return sign * _EDGE_BASES[kind].copy()


def parity(occupation: Sequence[int], particle_hole: bool) -> str:
    """Parity sector of the eigenstate with the given mode occupations.

    The particle-hole flag contributes one extra fermion (the base reference
    state is |0...01> instead of the vacuum); the gates that build the full
    eigenstate conserve parity.
    """
    occ = np.asarray(occupation, dtype=int)
    if occ.ndim != 1 or not np.isin(occ, (0, 1)).all():
        raise ValueError("occupation entries must be 0 or 1")
    total = int(occ.sum()) + int(bool(particle_hole))
    return "odd" if total % 2 else "even"


def z_value(state: TensorChain, parity: str) -> float:
    """|<Q>| from the end-pair reduced density matrix.

    The parity sector only sets the sign of <Q>, which the magnitude drops.
    Bounded by 2 (operator norm of Q); at most 1 + rounding for the
    eigenstates of the chain.
    """
    rho = state.rdm_ends().entries
    q = edge_operator_matrix("Q", parity)
    return abs(float(np.trace(rho @ q).real))


@dataclass(frozen=True)
class ZResult:
    """Outcome of a Z saturation sweep.

    ``z`` is the value at the largest chain evaluated (the last history
    entry); ``converged`` records whether consecutive values got closer than
    the tolerance before the schedule ran out.  ``degenerate`` is the
    zero-mode flag of the last evaluated chain: on phase boundaries the
    ground state is (numerically) non-unique and the sweep is expected to
    exhaust the schedule.
    """

    z: float
    n_used: int
    history: tuple[tuple[int, float], ...]
    converged: bool
    degenerate: bool


def z_saturated(
    params: KitaevParams,
    schedule: Sequence[int] | None = None,
    tol: float = DEFAULT_SATURATION_TOL,
    *,
    threshold: float = TRUNCATION_THRESHOLD,
    max_bond: int = MAX_BOND_DIMENSION,
) -> ZResult:
    """Saturate the ground-state Z in the chain length.

    Reconstructs the open-chain ground state for each N in the schedule,
    evaluates |<Q>|, and stops as soon as two consecutive values differ by
    less than ``tol``.  The chain length enters only here: ``params.n_sites``
    is replaced by each schedule entry.

    Saturation must be detected with schedule left over: a sub-tolerance step
    that lands exactly on the final entry is schedule exhaustion, not
    convergence (there is no remaining capacity to confirm the plateau), so
    ``converged`` stays False there.
    """
    if params.boundary != "open":
        raise ValueError("Z saturation is defined for open chains")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    schedule = tuple(int(n) for n in (DEFAULT_SCHEDULE if schedule is None else schedule))
    if not schedule or schedule[0] < 3:
        raise ValueError("schedule must contain chain lengths of at least 3 sites")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")

    history: list[tuple[int, float]] = []
    converged = False
    degenerate = False
    previous: float | None = None
    for n in schedule:
        point = dataclasses.replace(params, n_sites=n)
        state, _, plan = prepare_eigenstate(point, threshold=threshold, max_bond=max_bond)
        sector = parity([0] * n, plan.particle_hole)
        value = z_value(state, sector)
        history.append((n, value))
        degenerate = plan.degenerate
        if previous is not None and abs(value - previous) < tol and n != schedule[-1]:
            converged = True
            break
        previous = value
    return ZResult(
        z=history[-1][1],
        n_used=history[-1][0],
        history=tuple(history),
        converged=converged,
        degenerate=degenerate,
    )


def z_analytic(params: KitaevParams) -> float:
    """Closed-form saturated Z: max(4|wD|/(|D|+|w|)^2 (1 - (mu/2w)^2), 0).

    Zero in the trivial phase (clamped); w = 0 returns the defined limit 0
    (no end-to-end channel without hopping).
    """
    w = params.hopping
    dabs = params.pairing_magnitude
    mu = params.chemical_potential
    if w == 0.0:
        return 0.0
    value = 4.0 * abs(w * dabs) / (dabs + abs(w)) ** 2 * (1.0 - (mu / (2.0 * w)) ** 2)
    return max(value, 0.0)


def mean_particle_number(state: TensorChain) -> float:
    """Sum of site occupations <n_j> from single-site density matrices."""
    return float(
        sum(state.rdm_site(site).entries[1, 1].real for site in range(state.n_sites))
    )
