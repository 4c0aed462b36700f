"""Majorana coupling of the Kitaev chain and its canonical decomposition.

The chain Hamiltonian

    H = sum_j [ -w (c+_j c_{j+1} + c+_{j+1} c_j) - mu (n_j - 1/2)
                + |D| (c_j c_{j+1} + c+_{j+1} c+_j) ],

is quadratic in the 2N Majorana operators attached to the sites,

    gamma_{2j-1} = c_j + c+_j,    gamma_{2j} = -i c_j + i c+_j,

and can be written as H = (i/4) sum_{kl} A_{kl} gamma_k gamma_l with a real
antisymmetric coupling matrix A.  A pairing phase, D = |D| e^{i phi}, is a
gauge: c_j -> e^{i phi/2} c_j maps that chain onto this one.

Every term of the chain couples an even Majorana to an odd one, so in
(even, odd) order A = [[0, B], [-B^T, 0]] is chiral, and its N x N even-odd
block B = A[0::2, 1::2] is the whole coupling.  This module builds B
(``build_coupling_matrix``), reduces the coupling to canonical 2x2 blocks
with an orthogonal transformation (real Schur form), evaluates closed-form
single-body energies of the periodic chain, and combines single-body
energies into many-body eigenenergies.  The singular value decomposition
B = U diag(eps) V^T is the Schur form (``schur_decompose``); its transform is
held as the two N x N blocks U^T and V^T.  No general Schur routine is
needed.

Indices in this module are 0-based: Majorana mode k (0 <= k < 2N) belongs to
site k // 2, and B[i, j] couples gamma_{2i} to gamma_{2j+1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Bound once at import: code that wraps ``np.linalg.svd`` later (tests that
# record the gate SVDs, the benchmark's ``tensor.svd`` spans) sees the
# two-site gates' SVDs only, never this one.
_svd = np.linalg.svd

#: Couplings whose largest entry is below this are decomposed at a power-of-two
#: scale (``schur_decompose``): 1e-9 of them stays a normal double.
_SMALL_SCALE = 2.0**-960

__all__ = [
    "KitaevParams",
    "MajoranaSchur",
    "as_occupation",
    "build_coupling_matrix",
    "schur_decompose",
    "analytic_periodic_energies",
    "eigenenergy",
]

#: Relative scale of the zero-mode threshold used for degeneracy *flags*.
ZERO_MODE_RTOL = 1e-12

#: Residual |O O^T - 1| above which a block is rejected as non-orthogonal.
_ORTHOGONALITY_TOL = 1e-10


@dataclass(frozen=True)
class KitaevParams:
    """Physical and boundary parameters of a Kitaev chain.

    Attributes
    ----------
    n_sites : int
        Number of sites N, at least 2.
    hopping : float
        Hopping amplitude w, finite.  With mu and |D| it must keep
        N (|mu| + 2|w| + 2|D|) finite, which bounds every energy.
    chemical_potential : float
        Chemical potential mu, finite.
    pairing_magnitude : float
        Pairing magnitude |D| >= 0, finite.
    boundary : str
        Either ``"open"`` or ``"periodic"``.
    """

    n_sites: int
    hopping: float
    chemical_potential: float
    pairing_magnitude: float
    boundary: str = "open"

    def __post_init__(self) -> None:
        try:  # int() raises OverflowError on an infinity and ValueError on a NaN
            whole = int(self.n_sites) == self.n_sites
        except (OverflowError, ValueError):
            whole = False
        if not whole or self.n_sites < 2:
            raise ValueError(f"n_sites must be an integer >= 2, got {self.n_sites}")
        for name in ("hopping", "chemical_potential", "pairing_magnitude"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.pairing_magnitude < 0:
            raise ValueError("pairing_magnitude must be non-negative")
        # The bracket bounds every row and column sum of B, so a finite bound
        # keeps every energy and the ground energy -sum(eps)/2 finite.
        per_site = (
            abs(self.chemical_potential) + 2 * abs(self.hopping) + 2 * self.pairing_magnitude
        )
        try:
            bound = self.n_sites * per_site
        except OverflowError:  # an n_sites beyond the float range
            bound = math.inf
        if not math.isfinite(bound):
            raise ValueError(
                "couplings overflow: n_sites * (|chemical_potential| + 2 |hopping| "
                f"+ 2 pairing_magnitude) must be finite, got {self.n_sites} * {per_site}"
            )
        if self.boundary not in ("open", "periodic"):
            raise ValueError(f"boundary must be 'open' or 'periodic', got {self.boundary!r}")
        object.__setattr__(self, "n_sites", int(self.n_sites))


@dataclass(frozen=True)
class MajoranaSchur:
    """Canonical decomposition W A W^T = blockdiag([[0, eps], [-eps, 0]]).

    W is chiral and is held as its two blocks: W[2k, 2j] = even[k, j],
    W[2k+1, 2j+1] = odd[k, j], every other entry zero.  The constructor
    raises ``ValueError`` unless both blocks are N x N and orthogonal
    (max |O O^T - 1| <= 1e-10) and the N energies are finite.  The
    zero-mode threshold ``zero_tol`` is derived from the energies, so it
    always agrees with them.

    Attributes
    ----------
    even, odd : np.ndarray
        Real orthogonal N x N blocks; row k of ``even`` (``odd``) holds the
        coefficients of mode k's even (odd) half on the even (odd) Majoranas.
    epsilons : np.ndarray
        N single-body energies; ``schur_decompose`` gives them non-negative
        in non-increasing order (zero modes last).
    """

    even: np.ndarray
    odd: np.ndarray
    epsilons: np.ndarray

    def __post_init__(self) -> None:
        eps = np.array(self.epsilons, dtype=float)
        n_sites = eps.size
        if eps.ndim != 1 or not np.isfinite(eps).all():
            raise ValueError("epsilons must be a vector of finite energies")
        for name in ("even", "odd"):
            block = np.array(getattr(self, name), dtype=float)
            if block.shape != (n_sites, n_sites):
                raise ValueError(f"{name} block must be {n_sites} x {n_sites}, got {block.shape}")
            residual = np.abs(block @ block.T - np.eye(n_sites)).max(initial=0.0)
            if not residual <= _ORTHOGONALITY_TOL:
                raise ValueError(f"{name} block must be orthogonal (residual {residual:.3e})")
            block.setflags(write=False)
            object.__setattr__(self, name, block)
        eps.setflags(write=False)
        object.__setattr__(self, "epsilons", eps)

    @property
    def n_sites(self) -> int:
        return self.epsilons.size

    @property
    def zero_tol(self) -> float:
        """Threshold at or below which an epsilon is *flagged* (never altered)
        as a zero mode: ``ZERO_MODE_RTOL`` x max epsilon, the largest epsilon
        being the spectral norm of the coupling block B.  It scales with the
        couplings, so scaling them all by one factor flags the same modes; a
        chain whose couplings are all 0 has N zero modes."""
        return ZERO_MODE_RTOL * self.epsilons.max(initial=0.0)

    @property
    def n_zero_modes(self) -> int:
        return int(np.count_nonzero(self.epsilons <= self.zero_tol))

    @property
    def is_degenerate(self) -> bool:
        return self.n_zero_modes > 0


def as_occupation(bits: Sequence[int], n_sites: int) -> np.ndarray:
    """Validate and return an occupation pattern as an integer array.

    Parameters
    ----------
    bits : sequence of int
        One entry per diagonal fermionic mode, each 0 or 1.
    n_sites : int
        Expected length N.
    """
    occ = np.asarray(bits)
    if occ.ndim != 1 or occ.size != n_sites:
        raise ValueError(f"occupation pattern must have length {n_sites}, got shape {occ.shape}")
    # checked before the cast, which would truncate 0.5 to 0 and 1.9 to 1
    if not ((occ == 0) | (occ == 1)).all():
        raise ValueError("occupation entries must be 0 or 1")
    return occ.astype(int)


def build_coupling_matrix(params: KitaevParams) -> np.ndarray:
    """Build the even-odd coupling block B of a Kitaev chain, read-only N x N.

    For each site j (0-based) ``B[j, j] = -mu``, and each bond (j, j+1)
    contributes ``B[j, j+1] += |D| - w`` and ``B[j+1, j] += -(|D| + w)``.
    Periodic boundaries take the site indices modulo N (for N = 2 the two
    bonds accumulate on the same entries, doubling the hopping and cancelling
    the pairing, which matches the operator algebra).

    Raises
    ------
    ValueError
        If the parameters are invalid (delegated to ``KitaevParams``).
    """
    n = params.n_sites
    w = params.hopping
    dabs = params.pairing_magnitude
    b = np.zeros((n, n))
    sites = np.arange(n)
    b[sites, sites] -= params.chemical_potential
    left = sites if params.boundary == "periodic" else sites[:-1]
    right = (left + 1) % n
    b[left, right] += dabs - w
    b[right, left] -= dabs + w
    b.setflags(write=False)
    return b


def schur_decompose(b: np.ndarray) -> MajoranaSchur:
    """Reduce the chiral coupling with even-odd block B to canonical 2x2 blocks.

    Returns the two blocks of an orthogonal W and non-negative single-body
    energies eps such that ``W @ A @ W.T`` is block diagonal with blocks
    [[0, eps_k], [-eps_k, 0]], eps sorted non-increasingly (zero modes last),
    where A = [[0, B], [-B^T, 0]] in (even, odd) order.

    One SVD ``B = U diag(eps) V^T`` is that Schur form: ``even = U^T`` and
    ``odd = V^T``, so every block carries +eps_k on its superdiagonal.  eps
    and the order of tied values are those LAPACK's SVD returns; zero modes
    pair ``U[:, k]`` with ``V[:, k]`` as returned.  The output is
    deterministic for a fixed input.

    Raises
    ------
    ValueError
        If B is not a square matrix with finite entries.
    RuntimeError
        If max |U^T B V - diag(eps)| exceeds 1e-9 times max |B| (a zero B
        has residual 0 and passes), or a block is not orthogonal (numerical
        failure is never silently ignored).  A B whose entries are all below
        2^-960 is decomposed as B 2^k with max |B 2^k| in [1/2, 1), exactly,
        and eps is scaled back by 2^-k.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1] or not np.isfinite(b).all():
        raise ValueError(f"expected a square matrix with finite entries, got shape {b.shape}")
    scale = np.abs(b).max(initial=0.0)
    # Near the subnormal range 1e-9 x scale underflows and products round to
    # absolute, not relative, steps: such a B is decomposed at a power-of-two
    # scale, which is exact, and eps is scaled back.
    shift = -math.frexp(scale)[1] if 0.0 < scale < _SMALL_SCALE else 0
    if shift:
        b, scale = np.ldexp(b, shift), math.ldexp(scale, shift)
    u, eps, vt = _svd(b)
    residual = np.abs(u.T @ b @ vt.T - np.diag(eps)).max(initial=0.0)
    if residual > 1e-9 * scale:
        raise RuntimeError(f"Schur reduction failed: block residual {residual:.3e}")
    try:
        return MajoranaSchur(even=u.T, odd=vt, epsilons=np.ldexp(eps, -shift) if shift else eps)
    except ValueError as err:
        raise RuntimeError(f"Schur reduction failed: {err}") from err


def analytic_periodic_energies(params: KitaevParams) -> np.ndarray:
    """Closed-form signed single-body energies of the periodic chain.

    For even N the paired momenta contribute

        E_k(+-) = +- sqrt((2 w cos(2 pi k / N) + mu)^2
                          + 4 |D|^2 sin^2(2 pi k / N)),   1 <= k < N/2,

    plus the two unpaired momenta E(+) = 2w - mu and E(-) = -2w - mu.  For
    odd N only the generic +- branch applies (k = 1 .. (N-1)/2) and the
    single unpaired k = 0 momentum contributes -2w - mu.  The returned array
    has exactly N entries; the non-negative single-body energies of
    ``schur_decompose`` are their absolute values.

    Raises
    ------
    ValueError
        For open-boundary parameters (this closed form is periodic-only).
    """
    if params.boundary != "periodic":
        raise ValueError("analytic periodic energies require boundary='periodic'")
    n = params.n_sites
    w = params.hopping
    mu = params.chemical_potential
    dabs = params.pairing_magnitude

    ks = np.arange(1, (n + 1) // 2 if n % 2 else n // 2)
    angles = 2.0 * np.pi * ks / n
    branch = np.sqrt((2.0 * w * np.cos(angles) + mu) ** 2 + 4.0 * dabs**2 * np.sin(angles) ** 2)
    energies = np.concatenate([branch, -branch, [-2.0 * w - mu]])
    if n % 2 == 0:
        energies = np.concatenate([energies, [2.0 * w - mu]])
    return energies


def eigenenergy(epsilons: Sequence[float], occupation: Sequence[int]) -> float:
    """Many-body eigenenergy E = sum_k eps_k (n_k - 1/2).

    With all n_k = 0 this is the ground energy -sum(eps)/2.

    Raises
    ------
    ValueError
        If the lengths differ or the occupation is not binary.
    """
    eps = np.asarray(epsilons, dtype=float)
    occ = as_occupation(occupation, eps.size)
    return float(np.sum(eps * (occ - 0.5)))
