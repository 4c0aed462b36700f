"""End-to-end correlations: the Z measure, its saturation and closed form.

The Z measure is the magnitude of the end-to-end hopping expectation
< 2 (c_1 c+_N + c_N c+_1) >, evaluated from the end-pair reduced density
matrix and saturated in the chain length N.  In the reduced (site 1, site N)
basis |00>, |01>, |10>, |11> the operator acts as a 4x4 matrix times the
parity sign (-1)^P of the state, which absorbs the fermionic string through
the bulk.  The sign drops out of the magnitude, so ``z_value`` contracts
with the even-sector matrix alone, a frozen constant (the dense oracle's
``dense_edge_operator`` is its referee, which is covered by tests).  The
parity sector of a built state is ``TensorChain.parity``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .folding import prepare_eigenstate
from .quadratic import KitaevParams
from .tensor import TensorChain

__all__ = [
    "DEFAULT_SCHEDULE",
    "DEFAULT_SATURATION_TOL",
    "ZResult",
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

#: 2 (|01><10| + |10><01|): the end-to-end hopping of an even state.
_Q = np.array(
    [
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 2.0, 0.0],
        [0.0, 2.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ]
)


def parity(occupation: Sequence[int], particle_hole: bool) -> str:
    """Parity sector of the eigenstate with the given mode occupations.

    The particle-hole flag of the plan (an odd number of its reference bits
    differ from the occupation) contributes one extra fermion; the gates
    that build the eigenstate conserve parity.  A built state reports the
    same sector as ``TensorChain.parity``.
    """
    occ = np.asarray(occupation)
    if occ.ndim != 1 or not np.isin(occ, (0, 1)).all():
        raise ValueError("occupation entries must be 0 or 1")
    total = np.count_nonzero(occ) + int(bool(particle_hole))
    return "odd" if total % 2 else "even"


def z_value(state: TensorChain, parity: str) -> float:
    """|<Q>| from the end-pair reduced density matrix.

    ``parity`` is the state's sector, ``"even"`` or ``"odd"``; it only sets
    the sign of <Q>, which the magnitude drops.  Bounded by 2 (operator norm
    of Q); at most 1 + rounding for the eigenstates of the chain.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    return abs(float(np.trace(state.rdm_ends() @ _Q)))


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
) -> ZResult:
    """Saturate the ground-state Z in the chain length.

    Reconstructs the open-chain ground state for each N in the schedule,
    evaluates |<Q>|, and stops as soon as two consecutive values differ by
    less than ``tol``.  The chain length enters only here: ``params.n_sites``
    is replaced by each schedule entry.  Each state is built by
    ``prepare_eigenstate`` at the fixed ``TRUNCATION_THRESHOLD`` and the
    default bond cap.

    Saturation must be detected with schedule left over: a sub-tolerance step
    that lands exactly on the final entry is schedule exhaustion, not
    convergence (there is no remaining capacity to confirm the plateau), so
    ``converged`` stays False there.
    """
    if params.boundary != "open":
        raise ValueError("Z saturation is defined for open chains")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    schedule = tuple(DEFAULT_SCHEDULE if schedule is None else schedule)
    # checked before the cast, which would truncate 16.9 to 16
    if not all(float(n).is_integer() for n in schedule):
        raise ValueError(f"schedule entries must be whole chain lengths, got {schedule}")
    schedule = tuple(int(n) for n in schedule)
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
        state, _, plan = prepare_eigenstate(point)
        value = z_value(state, state.parity)
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

    Zero (+0.0) in the trivial phase |mu| >= |2w|, which includes the limit
    w = 0 (no end-to-end channel without hopping).  Z depends on the ratios
    of the couplings only, and is formed from them, so tiny or lopsided
    couplings neither underflow nor overflow.
    """
    w = abs(params.hopping)
    dabs = params.pairing_magnitude
    mu = params.chemical_potential
    if abs(mu) >= 2.0 * w:
        return 0.0
    total = w + dabs
    return 4.0 * (w / total) * (dabs / total) * (1.0 - (mu / (2.0 * w)) ** 2)


def mean_particle_number(state: TensorChain) -> float:
    """Sum of site occupations <n_j> from single-site density matrices."""
    return float(sum(state.rdm_sites()[:, 1, 1]))
