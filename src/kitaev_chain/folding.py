"""Folding a chiral Majorana transformation into real two-site gates.

The canonical decomposition yields an orthogonal matrix W whose rows express
the diagonal Majorana modes in the bare ones.  Every Kitaev-chain coupling
joins an even Majorana to an odd one, so W is chiral: the even half of mode k
acts on the even Majoranas only and the odd half on the odd ones.
``MajoranaSchur`` holds W as these two orthogonal N x N blocks, E (``even``)
and F (``odd``).  Its eigenstate is a real Gaussian state.

An eigenstate fixes W only up to a unitary mixing of its modes: it is the
Gaussian state annihilated by a_k = E[k] gamma_even + i s_k F[k] gamma_odd
(s_k = -1 on occupied modes, +1 otherwise), and any a -> O a with O in U(N)
leaves their span, hence the state, unchanged.  ``reduce_modes`` picks the
real O that makes mode k vanish beyond Majorana N+k (a QR factorization of
the real N x 2N matrix of the a_k with the Majorana order reversed) and
returns the two reduced blocks.

Folding eliminates the entries of E and F in lockstep with plane rotations
of adjacent columns: for row k (top to bottom) and column j (last down to
k+1), each block takes the angle

    theta = atan2(B[k, j], B[k, j-1])  mod pi,  in (-pi/2, pi/2]

that rotates its columns (j-1, j) so that B[k, j] vanishes; the surviving
coefficient keeps its sign instead of costing a rotation by pi.  A step
whose two angles are both the identity to double precision
(|sin(theta/2)| < 2^-53, as in the exponentially small tails of a gapped
mode) is skipped; the fold residual still checks the whole fold.  Each row
starts at its last column that is nonzero in either block: the steps beyond
it, beyond Majorana N+k, meet two exact zeros, and atan2(+-0, x) folds to
0.  The reduced modes leave about N^2/4 steps (exactly floor(N^2/4) on the
ground states of the benchmark ladder).  After all rows
E and F are diagonal with entries +-1, and their signs are the reference
bits: folded mode k is sigma_E (gamma_{2k} + i s_k sigma_E sigma_F
gamma_{2k+1}), which annihilates site k empty when s_k sigma_E sigma_F = +1
and filled otherwise, so site k of the reference product state holds n_k,
flipped where the two signs differ.

Each step rotates the even pair (gamma_{2j-2}, gamma_{2j}) and the odd pair
(gamma_{2j-1}, gamma_{2j+1}), all four on sites (j-1, j): one real,
parity-conserving two-site gate (``bond_gate``).  Replaying the gates in
reverse order on the reference product state builds the eigenstate with
real tensors; on the benchmark ladder the replay's bond dimensions stay
within a few of the target's, and on its critical points never exceed
them.  A plan is the fold of one eigenstate: it
records its occupation, lists only the steps it needs (one gate each), and
builds that eigenstate alone.
"""

from __future__ import annotations

import math
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
from .tensor import MAX_BOND_DIMENSION, TensorChain

__all__ = [
    "Rotation",
    "FoldingPlan",
    "compute_folding_plan",
    "reduce_modes",
    "bond_gate",
    "reconstruct_eigenstate",
    "prepare_eigenstate",
]

#: Residual above which the folded matrix is reported as a numerical failure.
_REPLAY_TOL = 1e-9

#: A rotation with |sin(angle / 2)| below this is the identity to double
#: precision (cos(angle / 2) rounds to 1) and is left out of the plan.
_IDENTITY_SIN = 2.0**-53

#: Majorana products on sites (j, j+1) in the basis |00>, |01>, |10>, |11>:
#: gamma_{2j} gamma_{2j+2} = J (x) X and gamma_{2j+1} gamma_{2j+3} = -X (x) J.
_J = np.array([[0.0, -1.0], [1.0, 0.0]])
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_EVEN_PAIR = np.kron(_J, _X)
_ODD_PAIR = -np.kron(_X, _J)
_IDENTITY4 = np.eye(4)


class Rotation(NamedTuple):
    """One fold step: row being folded, higher column index, even and odd angles.

    The step rotates columns (column-1, column) of the even block by
    ``even_angle`` and of the odd block by ``odd_angle``: one gate on sites
    (column-1, column).
    """

    row: int
    column: int
    even_angle: float
    odd_angle: float


@dataclass(frozen=True)
class FoldingPlan:
    """Ordered fold steps that reduce one eigenstate's reduced W to diag(+-1).

    Attributes
    ----------
    n_sites : int
        Number of chain sites N (each block is N x N).
    rotations : tuple of Rotation
        The steps among the (row, column) pairs for row = 0..N-2, column =
        N-1 down to row+1, whose two angles are not both the identity to
        double precision, in execution order; each is one gate of the
        reconstruction.  Every angle lies in (-pi/2, pi/2].
    reference : tuple of int
        The bits of the product state the gates start from: the occupation,
        flipped on each site whose diagonal entry folds to opposite signs in
        the even and the odd block.
    replay_residual : float
        Max deviation of the two folded blocks from their diagonal signs.
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
    reference: tuple[int, ...]
    replay_residual: float
    degenerate: bool
    occupation: tuple[int, ...]

    @property
    def particle_hole(self) -> bool:
        """True when an odd number of reference bits differ from the occupation."""
        return sum(r != n for r, n in zip(self.reference, self.occupation)) % 2 == 1


def _fold_angle(theta: float) -> float:
    """``theta`` taken mod pi, in (-pi/2, pi/2], so the low entry keeps its sign."""
    if theta > np.pi / 2:
        return theta - np.pi
    return theta + np.pi if theta <= -np.pi / 2 else theta


def reduce_modes(
    even: np.ndarray, odd: np.ndarray, occupation: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Recombine the modes of the chiral blocks of W, keeping its eigenstate.

    Builds the real N x 2N matrix M of the modes a_k, M[k, 2j] = even[k, j]
    and M[k, 2j+1] = s_k odd[k, j] (s_k = -1 on occupied modes, +1
    otherwise), takes the QR factorization of ``M[:, ::-1]`` and flips R back,
    so that mode k has no weight beyond Majorana N+k; each row's sign makes
    that last entry non-negative.  Returns the even block R[:, 0::2] and the
    odd block s R[:, 1::2], both orthogonal again.  The recombination is real
    and orthogonal on the modes, so it keeps the span of the annihilators
    a_k: the occupation, the reference bits of the fold and the parity keep
    their meaning, and the same eigenstate is built from about N^2/4
    steps.

    Raises
    ------
    ValueError
        If the occupation is invalid.
    """
    n_sites = len(even)
    signs = 1 - 2 * as_occupation(occupation, n_sites)
    modes = np.empty((n_sites, 2 * n_sites))
    modes[:, 0::2] = even
    modes[:, 1::2] = signs[:, None] * odd
    r = np.linalg.qr(modes[:, ::-1], mode="r")[::-1, ::-1]
    r[r[np.arange(n_sites), n_sites + np.arange(n_sites)] < 0.0] *= -1.0
    return r[:, 0::2], signs[:, None] * r[:, 1::2]


def _splits_a_level(schur: MajoranaSchur, occupation: np.ndarray) -> bool:
    """True when modes of equal energy (within ``schur.zero_tol``) are filled unequally."""
    tied = np.abs(np.diff(schur.epsilons)) < schur.zero_tol
    return bool(np.any(tied & (occupation[1:] != occupation[:-1])))


def compute_folding_plan(schur: MajoranaSchur, occupation: Sequence[int]) -> FoldingPlan:
    """Fold the Schur factor reduced for ``occupation`` into a gate plan.

    Folds the blocks ``reduce_modes(schur.even, schur.odd, occupation)`` in
    lockstep and records the occupation, the steps whose angles are not both
    the identity to double precision and the reference bits the folded
    diagonal signs give: the plan builds that eigenstate.

    The two blocks are one (2, N, N) stack, and a step rotates one column
    pair of it with a (cos, sin) per block.  Each row starts at its last
    column that is nonzero in either block; the steps skipped beyond it
    would each meet two exact zeros, the identity.

    Raises
    ------
    ValueError
        If the occupation is invalid.
    RuntimeError
        If the folded matrix misses its target beyond tolerance (numerical
        failure is surfaced, never ignored).
    """
    n_sites = schur.n_sites
    occupation = as_occupation(occupation, n_sites)
    blocks = np.stack(reduce_modes(schur.even, schur.odd, occupation))

    rotations: list[Rotation] = []
    for row in range(n_sites - 1):
        support = np.flatnonzero(blocks[:, row].any(axis=0))
        last = int(support[-1]) if support.size else row
        for column in range(last, row, -1):
            # numpy's atan2, not math.atan2: the two differ in the last bit on some inputs
            theta = np.arctan2(blocks[:, row, column], blocks[:, row, column - 1])
            even_angle, odd_angle = map(_fold_angle, theta.tolist())
            half_sine = max(abs(math.sin(even_angle / 2.0)), abs(math.sin(odd_angle / 2.0)))
            if half_sine >= _IDENTITY_SIN:
                rotations.append(Rotation(row, column, even_angle, odd_angle))
                # columns (low, high) -> (c low + s high, c high - s low), per block
                pair = blocks[:, :, column - 1 : column + 1]
                cos = np.array((math.cos(even_angle), math.cos(odd_angle)))[:, None, None]
                s_even, s_odd = math.sin(even_angle), math.sin(odd_angle)
                sin = np.array(((s_even, -s_even), (s_odd, -s_odd)))[:, None, :]
                blocks[:, :, column - 1 : column + 1] = pair * cos + pair[:, :, ::-1] * sin

    even, odd = blocks
    even_signs, odd_signs = (np.where(np.diagonal(b) < 0.0, -1.0, 1.0) for b in (even, odd))
    residual = max(
        float(np.abs(block - np.diag(signs)).max(initial=0.0))
        for block, signs in ((even, even_signs), (odd, odd_signs))
    )
    if residual > _REPLAY_TOL:
        raise RuntimeError(f"folding failed to reach diag(+-1) (residual {residual:.3e})")
    return FoldingPlan(
        n_sites=n_sites,
        rotations=tuple(rotations),
        reference=tuple((occupation ^ (even_signs != odd_signs)).tolist()),
        replay_residual=residual,
        degenerate=schur.is_degenerate or _splits_a_level(schur, occupation),
        occupation=tuple(occupation.tolist()),
    )


def bond_gate(even_angle: float | np.ndarray, odd_angle: float | np.ndarray) -> np.ndarray:
    """Real two-site gate of one fold step on sites (j, j+1).

    (cos(a/2) I - sin(a/2) gamma_{2j} gamma_{2j+2}) times
    (cos(b/2) I - sin(b/2) gamma_{2j+1} gamma_{2j+3}) with a = ``even_angle``
    and b = ``odd_angle``, in the basis |00>, |01>, |10>, |11>.  Each factor
    is real orthogonal (the square of a Majorana pair product is -1), the two
    commute, and both conserve parity.

    Scalar angles give one (4, 4) gate; two angle arrays of shape (G,) give
    the (G, 4, 4) stack of gates, entry g the gate of the angles at g.
    """
    even_angle, odd_angle = np.asarray(even_angle), np.asarray(odd_angle)
    even = (
        np.cos(even_angle / 2.0)[..., None, None] * _IDENTITY4
        - np.sin(even_angle / 2.0)[..., None, None] * _EVEN_PAIR
    )
    odd = (
        np.cos(odd_angle / 2.0)[..., None, None] * _IDENTITY4
        - np.sin(odd_angle / 2.0)[..., None, None] * _ODD_PAIR
    )
    return even @ odd


def reconstruct_eigenstate(
    plan: FoldingPlan,
    *,
    max_bond: int = MAX_BOND_DIMENSION,
) -> TensorChain:
    """Build the chain eigenstate of the plan's occupation.

    Undoes the folding on the product state of the plan's reference bits:
    the steps replay in reverse order, each as ``bond_gate(even_angle,
    odd_angle)`` on sites (column - 1, column), truncated at the fixed
    ``TRUNCATION_THRESHOLD``.  All gates of the plan are built by one
    ``bond_gate`` call on the angle arrays.  Every gate is real, so the
    state's tensors stay real.

    The returned state carries the plan's degeneracy flag; its energy equals
    the sum of the occupied single-body energies measured from the ground
    state.
    """
    state = TensorChain.product_state(plan.reference)
    state.degenerate = plan.degenerate
    steps = plan.rotations[::-1]
    angles = np.array([(r.even_angle, r.odd_angle) for r in steps], dtype=float).reshape(-1, 2)
    for rotation, gate in zip(steps, bond_gate(angles[:, 0], angles[:, 1])):
        state.apply_two_site_gate(rotation.column - 1, gate, max_bond=max_bond)
    return state


def prepare_eigenstate(
    params: KitaevParams,
    occupation: Sequence[int] | None = None,
    *,
    max_bond: int = MAX_BOND_DIMENSION,
) -> tuple[TensorChain, MajoranaSchur, FoldingPlan]:
    """Full pipeline: parameters -> coupling block B -> plan -> tensor state.

    ``occupation`` defaults to the ground state (all diagonal modes empty).

    Returns the state together with the decomposition (single-body energies)
    and the folding plan (reference bits, degeneracy).
    """
    if occupation is None:
        occupation = [0] * params.n_sites
    schur = schur_decompose(build_coupling_matrix(params))
    plan = compute_folding_plan(schur, occupation)
    state = reconstruct_eigenstate(plan, max_bond=max_bond)
    return state, schur, plan
