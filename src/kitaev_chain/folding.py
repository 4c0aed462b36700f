"""Folding an orthogonal Majorana transformation into two-mode rotations.

The canonical decomposition yields an orthogonal matrix W whose rows express
the diagonal Majorana modes in the bare ones.  Folding eliminates the row
entries with plane rotations acting on adjacent column pairs: for row k (top
to bottom) and column j (last down to k+1), the angle

    theta = atan2(W[k, j], W[k, j-1])

rotates columns (j-1, j) so that W[k, j] vanishes while the surviving
coefficient stays non-negative.  After all rows are processed W is the
identity except possibly for the sign of the last diagonal entry; a negative
sign is recorded as the particle-hole flag (the last diagonal mode comes out
as minus a bare mode, exchanging the roles of filled and empty for the last
site's reference occupation).

Each rotation corresponds to a Fock-space gate on the Majorana pair
(column j-1, column j).  Columns of the same site (odd j, 0-based) give a
single-site phase gate; columns straddling a bond (even j, 0-based) give a
two-site gate.  Replaying the gates in reverse order with negated angles on
the reference occupation state builds the corresponding chain eigenstate.

An eigenstate fixes W only up to a unitary mixing of its modes: it is the
Gaussian state annihilated by the complex modes a_k = W[2k] + i s_k W[2k+1]
(s_k = -1 on occupied modes, +1 otherwise), and any a -> U a with U in U(N)
leaves their span, hence the state, unchanged.  ``reduce_modes`` picks the U
that makes mode k vanish beyond Majorana N+k (a QR factorization with the
Majorana order reversed), and every plan folds that reduced matrix: about
N^2 nonzero rotations instead of up to 2N^2 - N, with lower intermediate
bond dimensions in the replay.  A plan is therefore the fold of one
eigenstate: it records its occupation, lists only its nonzero rotations
(one gate each), and builds that eigenstate alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .quadratic import (
    KitaevParams,
    MajoranaSchur,
    as_occupation,
    build_coupling_matrix,
    schur_decompose,
)
from .tensor import MAX_BOND_DIMENSION, TRUNCATION_THRESHOLD, TensorChain

__all__ = [
    "Rotation",
    "FoldingPlan",
    "compute_folding_plan",
    "reduce_modes",
    "gate_matrix_even",
    "gate_matrix_odd",
    "reference_state",
    "reconstruct_eigenstate",
    "prepare_eigenstate",
]

#: Residual above which the input matrix is rejected as non-orthogonal.
_ORTHOGONALITY_TOL = 1e-10

#: Residual above which the folded matrix is reported as a numerical failure.
_REPLAY_TOL = 1e-9


class Rotation(NamedTuple):
    """One plane rotation: row being folded, higher column index, angle."""

    row: int
    column: int
    angle: float


@dataclass(frozen=True)
class FoldingPlan:
    """Ordered rotations that reduce one eigenstate's reduced W to the identity.

    Attributes
    ----------
    n_sites : int
        Number of chain sites N (the matrix is 2N x 2N).
    rotations : tuple of Rotation
        The nonzero rotations among the (row, column) pairs for row =
        0..2N-2, column = 2N-1 down to row+1, in execution order; each is
        one gate of the reconstruction.  Angles lie in (-pi, pi].
    particle_hole : bool
        True when the last diagonal entry folds to -1, i.e. the last
        reference-site occupation must be read through a particle-hole
        exchange.
    replay_residual : float
        Max deviation of the fully folded matrix from its target.
    degenerate : bool
        The targeted eigenstate is not unique: the decomposition has a
        numerically zero single-body energy, or the occupation fills a level
        of equal energies (within ``schur.zero_tol``) only in part.
    occupation : tuple of int
        The occupation the folded matrix was reduced for (``reduce_modes``),
        i.e. the one eigenstate the plan builds.
    """

    n_sites: int
    rotations: tuple[Rotation, ...]
    particle_hole: bool
    replay_residual: float
    degenerate: bool
    occupation: tuple[int, ...]


def _rotation_angle(entry_high: float, entry_low: float) -> float:
    """Angle with sin signed like the high-column entry, cos like the low one."""
    if entry_high == 0.0 and entry_low == 0.0:
        return 0.0
    theta = float(np.arctan2(entry_high, entry_low))
    return np.pi if theta == -np.pi else theta


def _apply_rotation(matrix: np.ndarray, rotation: Rotation) -> None:
    """Rotate columns (column-1, column) of ``matrix`` in place."""
    c, s = np.cos(rotation.angle), np.sin(rotation.angle)
    lo, hi = rotation.column - 1, rotation.column
    low_col = matrix[:, lo].copy()
    high_col = matrix[:, hi].copy()
    matrix[:, lo] = c * low_col + s * high_col
    matrix[:, hi] = -s * low_col + c * high_col


def reduce_modes(w_matrix: np.ndarray, occupation: Sequence[int]) -> np.ndarray:
    """Recombine the modes of an orthogonal W, keeping its eigenstate.

    Builds a_k = W[2k] + i s_k W[2k+1] (s_k = -1 on occupied modes, +1
    otherwise), takes the QR factorization of ``a[:, ::-1]`` and flips R back,
    so that mode k has no weight beyond Majorana N+k.  A phase per mode makes
    that last entry real and non-negative, so the imaginary row ends one
    Majorana earlier.  Returns ``[Re a'_k; s_k Im a'_k]`` interleaved, which is
    orthogonal again.  The recombination is unitary on the modes, so it
    commutes with the reference state's complex structure: the occupation,
    the particle-hole flag of the fold and the parity keep their meaning, and
    the same eigenstate is built from about N^2 nonzero rotations.
    """
    w = np.asarray(w_matrix, dtype=float)
    n_sites = w.shape[0] // 2
    signs = 1 - 2 * as_occupation(occupation, n_sites)
    modes = w[0::2] + 1j * signs[:, None] * w[1::2]
    r = np.linalg.qr(modes[:, ::-1], mode="r")[::-1, ::-1]
    last = r[np.arange(n_sites), n_sites + np.arange(n_sites)]
    magnitude = np.abs(last)
    r *= np.divide(last.conj(), magnitude, out=np.ones_like(last), where=magnitude > 0.0)[:, None]
    reduced = np.empty_like(w)
    reduced[0::2] = r.real
    reduced[1::2] = signs[:, None] * r.imag
    return reduced


def _splits_a_level(schur: MajoranaSchur, occupation: np.ndarray) -> bool:
    """True when modes of equal energy (within ``schur.zero_tol``) are filled unequally."""
    tied = np.abs(np.diff(schur.epsilons)) < schur.zero_tol
    return bool(np.any(tied & (occupation[1:] != occupation[:-1])))


def compute_folding_plan(schur: MajoranaSchur, occupation: Sequence[int]) -> FoldingPlan:
    """Fold the Schur factor reduced for ``occupation`` into a rotation plan.

    Folds ``reduce_modes(schur.w_matrix, occupation)`` and records the
    occupation and its nonzero rotations: the plan builds that eigenstate.

    Raises
    ------
    ValueError
        If the input matrix is not orthogonal, or the occupation is invalid.
    RuntimeError
        If the folded matrix misses its target beyond tolerance (numerical
        failure is surfaced, never ignored).
    """
    w = np.array(schur.w_matrix, dtype=float)
    dim = w.shape[0]
    if np.abs(w @ w.T - np.eye(dim)).max(initial=0.0) > _ORTHOGONALITY_TOL:
        raise ValueError("folding requires an orthogonal matrix")
    occupation = as_occupation(occupation, dim // 2)
    w = reduce_modes(w, occupation)

    rotations: list[Rotation] = []
    for row in range(dim - 1):
        for column in range(dim - 1, row, -1):
            angle = _rotation_angle(w[row, column], w[row, column - 1])
            if angle != 0.0:
                rotation = Rotation(row, column, angle)
                rotations.append(rotation)
                _apply_rotation(w, rotation)

    particle_hole = bool(w[-1, -1] < 0.0)
    target = np.eye(dim)
    if particle_hole:
        target[-1, -1] = -1.0
    residual = float(np.abs(w - target).max(initial=0.0))
    if residual > _REPLAY_TOL:
        raise RuntimeError(f"folding failed to reach the identity (residual {residual:.3e})")
    return FoldingPlan(
        n_sites=dim // 2,
        rotations=tuple(rotations),
        particle_hole=particle_hole,
        replay_residual=residual,
        degenerate=schur.is_degenerate or _splits_a_level(schur, occupation),
        occupation=tuple(occupation.tolist()),
    )


def gate_matrix_even(theta: float) -> np.ndarray:
    """Single-site gate diag(e^{i theta/2}, e^{-i theta/2}).

    Realizes the rotation generated by the two Majorana modes of one site;
    diagonal, hence parity preserving.
    """
    half = theta / 2.0
    return np.diag([np.exp(1j * half), np.exp(-1j * half)])


def gate_matrix_odd(theta: float) -> np.ndarray:
    """Two-site gate cos(theta/2) I + i sin(theta/2) * antidiag(1, 1, 1, 1).

    Realizes the rotation generated by the bond-straddling Majorana pair in
    the basis |00>, |01>, |10>, |11>; couples only equal-parity states.
    """
    half = theta / 2.0
    return np.cos(half) * np.eye(4, dtype=complex) + 1j * np.sin(half) * np.fliplr(
        np.eye(4)
    )


def reference_state(
    n_sites: int, occupation: Sequence[int], particle_hole: bool
) -> TensorChain:
    """Product state encoding the occupation of the diagonal modes.

    Without the particle-hole flag, site k holds n_k directly.  With it, the
    last site's occupancy is flipped: the base state is |0...01> and filling
    the last diagonal mode empties the last site.
    """
    bits = list(as_occupation(occupation, n_sites))
    if particle_hole:
        bits[-1] = 1 - bits[-1]
    return TensorChain.product_state(bits)


def reconstruct_eigenstate(
    plan: FoldingPlan,
    *,
    threshold: float = TRUNCATION_THRESHOLD,
    max_bond: int = MAX_BOND_DIMENSION,
) -> TensorChain:
    """Build the chain eigenstate of the plan's occupation.

    Undoes the folding on the reference state: rotations replay in reverse
    order with negated angles, each as a Fock-space gate.  Odd columns
    (0-based) act within site (column - 1) // 2; even columns straddle sites
    (column // 2 - 1, column // 2).

    The returned state carries the plan's degeneracy flag; its energy equals
    the sum of the occupied single-body energies measured from the ground
    state.

    Raises
    ------
    ValueError
        If ``threshold`` is not in [0, 1).
    """
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must lie in [0, 1), got {threshold}")
    state = reference_state(plan.n_sites, plan.occupation, plan.particle_hole)
    state.degenerate = plan.degenerate
    for rotation in reversed(plan.rotations):
        column = rotation.column
        if column % 2 == 1:
            state.apply_single_site_gate(
                (column - 1) // 2, gate_matrix_even(-rotation.angle)
            )
        else:
            state.apply_two_site_gate(
                column // 2 - 1,
                gate_matrix_odd(-rotation.angle),
                threshold=threshold,
                max_bond=max_bond,
            )
    return state


def prepare_eigenstate(
    params: KitaevParams,
    occupation: Sequence[int] | None = None,
    *,
    threshold: float = TRUNCATION_THRESHOLD,
    max_bond: int = MAX_BOND_DIMENSION,
) -> tuple[TensorChain, MajoranaSchur, FoldingPlan]:
    """Full pipeline: parameters -> coupling matrix -> plan -> tensor state.

    ``occupation`` defaults to the ground state (all diagonal modes empty).
    Only real positive pairing (phase 0) is supported on this path: the
    two-site gate matrix used for reconstruction is phase-free.

    Returns the state together with the decomposition (single-body energies)
    and the folding plan (particle-hole flag, degeneracy).
    """
    if params.pairing_phase != 0.0:
        raise ValueError(
            "eigenstate reconstruction is validated for pairing_phase = 0 only"
        )
    if occupation is None:
        occupation = [0] * params.n_sites
    schur = schur_decompose(build_coupling_matrix(params))
    plan = compute_folding_plan(schur, occupation)
    state = reconstruct_eigenstate(plan, threshold=threshold, max_bond=max_bond)
    return state, schur, plan
