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

Batches.  The fold runs on a stack of P members of one chain length at once:
each step takes its (P, 2) angles from one ``np.arctan2`` call and rotates
the column pairs of the members whose step is not the identity, so
``compute_folding_plan`` is the case P = 1.  ``build_eigenstates`` builds a
batch in lockstep: one stacked fold per chain length, one ``bond_gate`` call
for every gate, and a replay that walks the union of the members' steps and
updates, at each step, every member of one local layout with one kernel
call (``tensor.apply_two_site_gates``).  Each member's plan and state are the
ones it gets alone, bit for bit.
"""

from __future__ import annotations

import itertools
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
from .tensor import MAX_BOND_DIMENSION, TensorChain, apply_two_site_gates

__all__ = [
    "Rotation",
    "FoldingPlan",
    "compute_folding_plan",
    "reduce_modes",
    "bond_gate",
    "reconstruct_eigenstate",
    "prepare_eigenstate",
    "build_eigenstates",
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

#: A fold angle atan2(high, low) is taken mod pi into (-pi/2, pi/2] by subtracting
#: the shift of its interval: (-inf, -pi/2] -> -pi, (-pi/2, pi/2] -> 0, above -> pi.
_FOLD_EDGES = np.array((-np.pi / 2, np.pi / 2))
_FOLD_SHIFTS = np.array((-np.pi, 0.0, np.pi))

#: Signs of the sine on a step's (low, high) columns: low gains s high, high loses s low.
_SIN_SIGNS = np.array((1.0, -1.0)).reshape(2, 1, 1, 1)


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
    diagonal signs give: the plan builds that eigenstate.  It is the
    one-member case of the stacked fold (``_fold``).

    Raises
    ------
    ValueError
        If the occupation is invalid.
    RuntimeError
        If the folded matrix misses its target beyond tolerance (numerical
        failure is surfaced, never ignored).
    """
    (plan,) = _fold_plans([schur], [occupation])
    if isinstance(plan, Exception):
        raise plan
    return plan


def _fold(columns: np.ndarray) -> list[list[Rotation]]:
    """Fold a stack of P members' reduced blocks in place; returns each member's steps.

    ``columns`` holds the (2, N, N) blocks column-major, as an (N, P, 2, N)
    array: ``columns[j, p, b, i]`` is entry (i, j) of block b of member p, so
    that a step's column pair is one contiguous (2, P, 2, N) slab.  Each step of
    the triangle takes its (P, 2) angles from one ``np.arctan2`` call, folded
    into (-pi/2, pi/2], and rotates the column pair of the members whose
    step is not the identity; the other members' columns are left as they
    are.  Each row starts at the last column that is nonzero in any member:
    beyond a member's own last column both entries are exact zeros, whose
    angle folds to 0, the identity.
    """
    n_sites, n_members = columns.shape[:2]
    rotations: list[list[Rotation]] = [[] for _ in range(n_members)]
    for row in range(n_sites - 1):
        entries = columns[..., row]
        support = np.logical_or.reduce(entries, axis=(1, 2)).nonzero()[0]
        last = int(support[-1]) if support.size else row
        for column in range(last, row, -1):
            # numpy's atan2, not math.atan2: the two differ in the last bit on some inputs
            theta = np.arctan2(entries[column], entries[column - 1])
            # theta mod pi in (-pi/2, pi/2], so the low entry keeps its sign
            angles = theta - _FOLD_SHIFTS[_FOLD_EDGES.searchsorted(theta)]
            moving = [
                member
                for member, (even, odd) in enumerate(np.sin(angles / 2.0).tolist())
                if max(abs(even), abs(odd)) >= _IDENTITY_SIN
            ]
            if not moving:
                continue
            at = slice(None) if len(moving) == n_members else moving
            angles = angles[at]
            for member, (even_angle, odd_angle) in zip(moving, angles.tolist()):
                rotations[member].append(Rotation(row, column, even_angle, odd_angle))
            # columns (low, high) -> (c low + s high, c high - s low), per block
            pair = columns[column - 1 : column + 1, at]
            cos = np.cos(angles)[..., None]
            sin = np.sin(angles)[..., None] * _SIN_SIGNS
            columns[column - 1 : column + 1, at] = pair * cos + pair[::-1] * sin
    return rotations


def _fold_plans(
    schurs: Sequence[MajoranaSchur], occupations: Sequence[Sequence[int]]
) -> list[FoldingPlan | Exception]:
    """The plan of each (schur, occupation) pair, or the exception that rejects it.

    The members of each chain length are folded as one stack (``_fold``);
    an invalid occupation (``ValueError``) or a fold that misses diag(+-1)
    (``RuntimeError``) fails that member alone.
    """
    plans: list[FoldingPlan | Exception | None] = [None] * len(schurs)
    by_size: dict[int, list[tuple[int, MajoranaSchur, np.ndarray]]] = {}
    for k, (schur, occupation) in enumerate(zip(schurs, occupations, strict=True)):
        try:
            occupation = as_occupation(occupation, schur.n_sites)
        except ValueError as exc:
            plans[k] = exc
            continue
        by_size.setdefault(schur.n_sites, []).append((k, schur, occupation))
    for n_sites, members in by_size.items():
        blocks = np.stack(
            [np.stack(reduce_modes(schur.even, schur.odd, occ)) for _, schur, occ in members]
        )
        columns = np.ascontiguousarray(blocks.transpose(3, 0, 1, 2))
        rotations = _fold(columns)
        blocks = columns.transpose(1, 2, 3, 0)
        signs = np.where(np.diagonal(blocks, axis1=2, axis2=3) < 0.0, -1.0, 1.0)
        residuals = np.abs(blocks - signs[..., None] * np.eye(n_sites)).max(axis=(1, 2, 3))
        for (k, schur, occupation), steps, (even_signs, odd_signs), residual in zip(
            members, rotations, signs, residuals.tolist()
        ):
            if residual > _REPLAY_TOL:
                plans[k] = RuntimeError(
                    f"folding failed to reach diag(+-1) (residual {residual:.3e})"
                )
                continue
            plans[k] = FoldingPlan(
                n_sites=n_sites,
                rotations=tuple(steps),
                reference=tuple((occupation ^ (even_signs != odd_signs)).tolist()),
                replay_residual=residual,
                degenerate=schur.is_degenerate or _splits_a_level(schur, occupation),
                occupation=tuple(occupation.tolist()),
            )
    return plans


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


def build_eigenstates(
    schurs: Sequence[MajoranaSchur],
    occupations: Sequence[Sequence[int]] | None = None,
    *,
    max_bond: int = MAX_BOND_DIMENSION,
) -> list[tuple[TensorChain, FoldingPlan] | Exception]:
    """Build the eigenstates of a batch of decompositions in lockstep.

    Entry k is ``(state, plan)`` for ``schurs[k]`` and ``occupations[k]``
    (default: every ground state), bit for bit the plan
    ``compute_folding_plan`` and the state ``reconstruct_eigenstate`` give
    alone, or the exception one of them would raise, with the same text.  A
    member that fails drops out and the others go on.

    The plans of each chain length come from one stacked fold.  All gates
    come from one ``bond_gate`` call, and the replay walks the union of the
    members' steps in replay order (rows last to first, columns low to high).
    At each step the members that take it go through
    ``apply_two_site_gates``, which buckets them by local layout and calls
    the stacked two-site kernel once per bucket.  Every member's tensors are
    held at once, so memory grows with the batch; the caller bounds it by
    the batches it passes.
    """
    if occupations is None:
        occupations = [[0] * schur.n_sites for schur in schurs]
    results: list = _fold_plans(schurs, occupations)
    states: dict[int, TensorChain] = {}
    steps: list[tuple[int, int, int, float, float]] = []
    for k, plan in enumerate(results):
        if isinstance(plan, Exception):
            continue
        states[k] = TensorChain.product_state(plan.reference)
        states[k].degenerate = plan.degenerate
        steps.extend((-r.row, r.column, k, r.even_angle, r.odd_angle) for r in plan.rotations)
    steps.sort()
    angles = np.array([step[3:] for step in steps], dtype=float).reshape(-1, 2)
    gates = bond_gate(angles[:, 0], angles[:, 1])
    for (_, column), group in itertools.groupby(enumerate(steps), key=lambda item: item[1][:2]):
        live = [(i, step[2]) for i, step in group if step[2] in states]
        if not live:
            continue
        indices, members = zip(*live)
        errors = apply_two_site_gates(
            [states[k] for k in members], column - 1, gates[list(indices)], max_bond=max_bond
        )
        for k, error in zip(members, errors):
            if error is not None:
                results[k] = error
                del states[k]
    for k, state in states.items():
        results[k] = (state, results[k])
    return results
