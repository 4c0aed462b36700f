"""Canonical tensor-chain states: gates, truncation, and reduced density matrices.

A state on N sites is stored as per-site tensors Gamma^k_{mu nu} (k the local
occupation, mu/nu the left/right bond indices) and per-internal-bond vectors
of positive Schmidt coefficients lambda with sum(lambda^2) = 1; boundary bonds
have dimension 1.  In this canonical form the Schmidt vectors accumulated from
either end are orthonormal, so single-site and two-site reduced density
matrices are local contractions, and the end-pair density matrix follows from
a transfer-matrix sweep through the bulk.

Two-site gates are absorbed by contracting the neighborhood into a single
matrix, applying a singular value decomposition, discarding singular values
below a relative threshold, renormalizing the kept ones, and dividing out the
outer Schmidt vectors.  Truncation is dynamic: nothing above the threshold is
ever dropped, and exceeding the bond-dimension safety cap raises instead of
silently degrading the state.  The singular vectors keep LAPACK's phases and
its order within tied singular values: the canonical form fixes neither, and
no observable depends on them (only the raw Gamma of ``to_json`` does).

Parity (Z2) layout.  Every state here is a parity eigenstate, every gate
conserves parity, and each Schmidt vector has a definite parity of its left
half.  A bond lists the even-parity vectors first, each block with
non-increasing lambda, and ``even_counts`` records how many are even (the last
entry, for the right boundary, is 1 for an even and 0 for an odd state).  The
layout is an invariant, checked where a state or gate enters: the constructor
(and so ``from_json``) infers the counts from the exact zeros of Gamma and
rejects a state that has none, and the gate methods reject a gate that mixes
parity.  A two-site gate then splits the neighborhood into its two parity
blocks and decomposes each one (half the dimension on each side, about a
quarter of the work of one dense decomposition); the truncation threshold
stays relative to the bond's largest singular value across both blocks.

Sites and bonds are indexed 0-based: bond i sits between sites i and i+1.
The basis order of two-site objects is |00>, |01>, |10>, |11> with the first
slot belonging to the left site; Fock coefficients index site 0 as the most
significant bit.  Contractions treat sites as distinguishable tensor factors;
fermionic string bookkeeping for end-to-end operators lives entirely in the
parity factor of the edge-operator matrices (valid because every state handled
here is a parity eigenstate).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .quadratic import KitaevParams

__all__ = [
    "TRUNCATION_THRESHOLD",
    "MAX_BOND_DIMENSION",
    "FOCK_SITE_LIMIT",
    "TruncationError",
    "BondOverflowError",
    "DensityBlock",
    "TensorChain",
    "bond_hamiltonian",
    "energy_expectation",
]

#: Default relative truncation threshold for singular values.
TRUNCATION_THRESHOLD = 1e-12

#: Default safety cap on bond dimensions; overflow raises BondOverflowError.
MAX_BOND_DIMENSION = 256

#: Largest chain for which all 2^N Fock coefficients are materialized.
FOCK_SITE_LIMIT = 14

#: Residual above which a gate matrix is rejected as non-unitary.
_UNITARY_TOL = 1e-10

_IDENTITY = {2: np.eye(2), 4: np.eye(4)}

#: Entries of a 2x2 gate (basis |0>, |1>) and of a 4x4 gate (basis |00>, |01>,
#: |10>, |11>) that couple even to odd states.
_EVEN = {2: np.array([True, False]), 4: np.array([True, False, False, True])}
_PARITY_MIXING = {dim: even[:, None] != even[None, :] for dim, even in _EVEN.items()}


class TruncationError(RuntimeError):
    """Raised when a bond update leaves no singular value above threshold."""


class BondOverflowError(RuntimeError):
    """Raised when an operation would exceed the bond-dimension safety cap."""


@dataclass(frozen=True)
class DensityBlock:
    """A validated reduced density matrix of one site (2x2) or two (4x4).

    Construction checks Hermiticity, unit trace, and positive semidefiniteness
    to 1e-10; a violation means the producing contraction is broken and is
    reported instead of propagated.  Basis order is |0>, |1> for one site and
    |00>, |01>, |10>, |11> (first slot = left/first site) for two.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        rho = np.array(self.entries, dtype=complex)
        if rho.shape not in ((2, 2), (4, 4)):
            raise ValueError(f"density block must be 2x2 or 4x4, got {rho.shape}")
        herm = np.abs(rho - rho.conj().T).max(initial=0.0)
        trace = abs(rho.trace() - 1.0)
        lowest = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min())
        if herm > 1e-10 or trace > 1e-10 or lowest < -1e-10:
            raise ValueError(
                "invalid density block: Hermiticity residual "
                f"{herm:.3e}, trace deviation {trace:.3e}, lowest eigenvalue {lowest:.3e}"
            )
        rho.setflags(write=False)
        object.__setattr__(self, "entries", rho)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _ones_bond() -> np.ndarray:
    return np.ones(1)


def _even_counts(gammas: Sequence[np.ndarray]) -> list[int]:
    """For the bond right of each site, the number of even-parity Schmidt vectors listed first.

    Reads the parity of each right Schmidt vector of a site off the exact
    zeros of its Gamma, given the left bond's layout: a vector is even when
    its nonzero entries all sit where the left vector's parity plus the local
    occupation is even, and odd when they all sit where it is odd.  The last
    entry is the right boundary bond.

    Raises
    ------
    ValueError
        If a vector has no definite parity or an odd vector comes before an
        even one.
    """
    counts = []
    even = 1  # the empty left half of site 0 is even
    for site, g in enumerate(gammas):
        nonzero = g != 0
        to_even = nonzero[0, :even].any(axis=0) | nonzero[1, even:].any(axis=0)
        to_odd = nonzero[1, :even].any(axis=0) | nonzero[0, even:].any(axis=0)
        if (to_even == to_odd).any():
            raise ValueError(f"bond right of site {site} has a vector of no definite parity")
        even = int(np.count_nonzero(to_even))
        if to_odd[:even].any():
            raise ValueError(f"bond right of site {site} lists an odd vector before an even one")
        counts.append(even)
    return counts


class TensorChain:
    """Mutable canonical tensor-chain state.

    Gate methods mutate the state in place and keep the canonical invariants;
    use :meth:`copy` for snapshots.  The ``degenerate`` attribute is metadata
    attached by state builders when the underlying single-body problem has a
    zero mode (the state is still well defined, but quantities that assume a
    unique eigenstate should refuse to use it).

    ``even_counts`` is the parity layout (see the module docstring): one entry
    per site, the number of even-parity Schmidt vectors listed first on the
    bond to its right.  It is inferred at construction, which raises
    ``ValueError`` for a state outside the layout, and kept up to date by the
    gate methods, which raise ``ValueError`` for a gate that mixes parity.
    """

    def __init__(
        self,
        gammas: Sequence[np.ndarray],
        lambdas: Sequence[np.ndarray],
        *,
        degenerate: bool = False,
    ) -> None:
        gammas = [np.array(g, dtype=complex) for g in gammas]
        lambdas = [np.array(l, dtype=float) for l in lambdas]
        n = len(gammas)
        if n < 1:
            raise ValueError("a tensor chain needs at least one site")
        if len(lambdas) != n - 1:
            raise ValueError(f"expected {n - 1} internal bonds, got {len(lambdas)}")
        for i, g in enumerate(gammas):
            if g.ndim != 3 or g.shape[0] != 2:
                raise ValueError(f"site tensor {i} must have shape (2, chi_L, chi_R)")
        if gammas[0].shape[1] != 1 or gammas[-1].shape[2] != 1:
            raise ValueError("boundary bonds must have dimension 1")
        for i, lam in enumerate(lambdas):
            if lam.ndim != 1 or lam.size == 0:
                raise ValueError(f"bond vector {i} must be a nonempty 1-D array")
            if (lam <= 0.0).any():
                raise ValueError(f"bond vector {i} must be strictly positive")
            if abs(np.sum(lam**2) - 1.0) > 1e-6:
                raise ValueError(f"bond vector {i} is not normalized")
            if gammas[i].shape[2] != lam.size or gammas[i + 1].shape[1] != lam.size:
                raise ValueError(f"bond {i} dimension mismatch")
        self.gammas = gammas
        self.lambdas = lambdas
        self.degenerate = bool(degenerate)
        self.even_counts = _even_counts(gammas)

    # -- construction -----------------------------------------------------

    @classmethod
    def product_state(cls, bits: Sequence[int]) -> "TensorChain":
        """Bond-dimension-1 basis state |b_0 b_1 ... b_{N-1}>."""
        bits = list(bits)
        if not bits or any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be a nonempty sequence of 0/1")
        gammas = []
        for b in bits:
            g = np.zeros((2, 1, 1), dtype=complex)
            g[b, 0, 0] = 1.0
            gammas.append(g)
        return cls(gammas, [_ones_bond() for _ in bits[:-1]])

    def copy(self) -> "TensorChain":
        return TensorChain(self.gammas, self.lambdas, degenerate=self.degenerate)

    @property
    def n_sites(self) -> int:
        return len(self.gammas)

    @property
    def bond_dimensions(self) -> tuple[int, ...]:
        """Dimensions of the N-1 internal bonds."""
        return tuple(lam.size for lam in self.lambdas)

    def _left_lambda(self, site: int) -> np.ndarray:
        return self.lambdas[site - 1] if site > 0 else _ones_bond()

    def _right_lambda(self, site: int) -> np.ndarray:
        return self.lambdas[site] if site < self.n_sites - 1 else _ones_bond()

    # -- gates ------------------------------------------------------------

    def apply_single_site_gate(self, site: int, u: np.ndarray) -> None:
        """Contract a diagonal 2x2 unitary into the site tensor; bonds are untouched.

        A gate that is not diagonal would change parities and is rejected
        with ``ValueError``.
        """
        self._check_site(site)
        u = np.asarray(u, dtype=complex)
        _check_gate(u, 2)
        self.gammas[site] = np.einsum("kl,lab->kab", u, self.gammas[site])

    def apply_two_site_gate(
        self,
        left_site: int,
        u: np.ndarray,
        *,
        threshold: float = TRUNCATION_THRESHOLD,
        max_bond: int = MAX_BOND_DIMENSION,
    ) -> None:
        """Contract a 4x4 unitary into sites (left_site, left_site + 1).

        The neighborhood lambda_L Gamma lambda_M Gamma lambda_R is contracted
        with the gate, split by one SVD per parity block, truncated to
        singular values above ``threshold`` relative to the largest,
        renormalized, and the outer lambdas divided out again.

        Raises
        ------
        ValueError
            If the gate is not unitary or has an entry that mixes parity.
        TruncationError
            If no singular value survives the threshold.
        BondOverflowError
            If more than ``max_bond`` singular values survive.
        """
        if not 0 <= left_site < self.n_sites - 1:
            raise ValueError(f"left_site must lie in [0, {self.n_sites - 1}), got {left_site}")
        u = np.asarray(u, dtype=complex)
        _check_gate(u, 4)

        lam_l = self._left_lambda(left_site)
        lam_m = self.lambdas[left_site]
        lam_r = self._right_lambda(left_site + 1)
        chi_l, chi_m, chi_r = lam_l.size, lam_m.size, lam_r.size
        left = self.gammas[left_site] * (lam_l[:, None] * lam_m[None, :])[None, :, :]
        right = self.gammas[left_site + 1] * lam_r[None, None, :]
        # rows (j, a), columns (k, c): the product np.tensordot forms, without
        # its per-call Python overhead
        theta = left.reshape(-1, chi_m) @ right.transpose(1, 0, 2).reshape(chi_m, -1)
        theta = u @ theta.reshape(2, chi_l, 2, chi_r).transpose(0, 2, 1, 3).reshape(4, -1)
        m = (
            theta.reshape(2, 2, chi_l, chi_r)
            .transpose(0, 2, 1, 3)
            .reshape(2 * chi_l, 2 * chi_r)
        )

        counts = self.even_counts
        # Row (j, a) of m has left-half parity p(a) + j: the even rows are
        # j = 0 with a even and j = 1 with a odd, so in a-order they are the
        # two ends of m; the odd rows are the contiguous middle.  Likewise
        # for the columns (k, c).  m vanishes between the two blocks.
        e_l = counts[left_site - 1] if left_site > 0 else 1
        e_r = counts[left_site + 1]
        rows = np.concatenate((m[:e_l], m[chi_l + e_l :]))
        even = np.concatenate((rows[:, :e_r], rows[:, chi_r + e_r :]), axis=1)
        odd = m[e_l : chi_l + e_l, e_r : chi_r + e_r]
        u_even, s_even, v_even = np.linalg.svd(even, full_matrices=False)
        u_odd, s_odd, v_odd = np.linalg.svd(odd, full_matrices=False)
        cut = threshold * max(s_even[0], s_odd[0])
        n_even = int(np.count_nonzero(s_even > cut))
        n_odd = int(np.count_nonzero(s_odd > cut))
        rank = n_even + n_odd
        if rank == 0:
            raise TruncationError(
                f"no singular value above threshold {threshold:g} on bond {left_site}"
            )
        if rank > max_bond:
            raise BondOverflowError(f"bond {left_site} would grow to {rank} (cap {max_bond})")
        sigma = np.concatenate((s_even[:n_even], s_odd[:n_odd]))
        left_vecs = np.zeros((2 * chi_l, rank), dtype=complex)
        left_vecs[:e_l, :n_even] = u_even[:e_l, :n_even]
        left_vecs[chi_l + e_l :, :n_even] = u_even[e_l:, :n_even]
        left_vecs[e_l : chi_l + e_l, n_even:] = u_odd[:, :n_odd]
        right_vecs = np.zeros((rank, 2 * chi_r), dtype=complex)
        right_vecs[:n_even, :e_r] = v_even[:n_even, :e_r]
        right_vecs[:n_even, chi_r + e_r :] = v_even[:n_even, e_r:]
        right_vecs[n_even:, e_r : chi_r + e_r] = v_odd[:n_odd]
        counts[left_site] = n_even

        self.lambdas[left_site] = sigma / np.sqrt(np.sum(sigma**2))
        self.gammas[left_site] = left_vecs.reshape(2, chi_l, rank) / lam_l[None, :, None]
        self.gammas[left_site + 1] = (
            right_vecs.reshape(rank, 2, chi_r).transpose(1, 0, 2) / lam_r[None, None, :]
        )

    # -- diagnostics --------------------------------------------------------

    def _transfer(self, weights: np.ndarray) -> float:
        """Contract <psi| (x)_sites diag(weights) |psi> through the chain."""
        acc = np.ones((1, 1), dtype=complex)
        for site in range(self.n_sites):
            a = self.gammas[site] * self._right_lambda(site)[None, None, :]
            half = np.tensordot(weights[:, None, None] * a, acc, axes=([1], [0]))
            acc = np.tensordot(half, a.conj(), axes=([0, 2], [0, 1]))
        return float(acc[0, 0].real)

    def norm(self) -> float:
        """<psi|psi>^(1/2) by a full transfer contraction (no canonicity assumed)."""
        return float(np.sqrt(max(self._transfer(np.ones(2)), 0.0)))

    def parity_expectation(self) -> float:
        """<psi| (-1)^(total occupation) |psi>; +-1 for parity eigenstates."""
        return float(self._transfer(np.array([1.0, -1.0])))

    def canonical_residuals(self) -> dict[str, float]:
        """Max deviations of the canonical-form invariants.

        ``left``/``right``: orthonormality of the Schmidt vectors accumulated
        from either end, per site; ``bond``: |sum(lambda^2) - 1| per bond.

        On a truncated state ``left`` and ``right`` do not measure damage.
        The update stores Gamma divided by the Schmidt values of an outer
        bond, so the weight a truncation discards is magnified on vectors
        with lambda near the threshold.  The open-chain ground states at
        mu = 1, 3, 2 (w = |D| = 1, N = 16..40) read up to 0.04 (``left``) and
        0.34 (``right``), each time on a vector with lambda below 3e-11;
        restricted to lambda > 1e-6 both deviations stay below 1e-10.
        """
        left = right = 0.0
        for site in range(self.n_sites):
            g = self.gammas[site]
            x = g * self._left_lambda(site)[None, :, None]
            gram = np.einsum("kac,kad->cd", x.conj(), x)
            left = max(left, np.abs(gram - np.eye(g.shape[2])).max(initial=0.0))
            y = g * self._right_lambda(site)[None, None, :]
            gram = np.einsum("kac,kbc->ab", y, y.conj())
            right = max(right, np.abs(gram - np.eye(g.shape[1])).max(initial=0.0))
        bond = max(
            (abs(float(np.sum(lam**2)) - 1.0) for lam in self.lambdas),
            default=0.0,
        )
        return {"left": float(left), "right": float(right), "bond": bond}

    # -- reduced density matrices -----------------------------------------

    def rdm_site(self, site: int) -> DensityBlock:
        """Reduced density matrix of one site."""
        self._check_site(site)
        g = self.gammas[site]
        rho = np.einsum(
            "a,b,kab,lab->kl",
            self._left_lambda(site) ** 2,
            self._right_lambda(site) ** 2,
            g,
            g.conj(),
            optimize=True,
        )
        return DensityBlock(rho)

    def rdm_pair(self, left_site: int) -> DensityBlock:
        """Reduced density matrix of sites (left_site, left_site + 1)."""
        if not 0 <= left_site < self.n_sites - 1:
            raise ValueError(f"left_site must lie in [0, {self.n_sites - 1}), got {left_site}")
        y = np.einsum(
            "a,jab,b,kbc,c->jkac",
            self._left_lambda(left_site),
            self.gammas[left_site],
            self.lambdas[left_site],
            self.gammas[left_site + 1],
            self._right_lambda(left_site + 1),
            optimize=True,
        )
        rho = np.einsum("jkac,lmac->jklm", y, y.conj()).reshape(4, 4)
        return DensityBlock(rho)

    def rdm_ends(self) -> DensityBlock:
        """Reduced density matrix of (site 0, site N-1) via bulk transfer matrices."""
        n = self.n_sites
        if n < 3:
            raise ValueError("end-pair density matrix requires at least 3 sites")
        first = self.gammas[0][:, 0, :] * self.lambdas[0][None, :]
        acc = np.einsum("ka,lb->klab", first, first.conj())
        for site in range(1, n - 1):
            a = self.gammas[site] * self._right_lambda(site)[None, None, :]
            # acc'[k,l] = sum_m a^m.T @ acc[k,l] @ a^m.conj(), batched over (k,l)
            half = np.tensordot(a, acc, axes=([1], [2]))  # (m, c, k, l, b)
            acc = np.tensordot(half, a.conj(), axes=([0, 4], [0, 1])).transpose(
                1, 2, 0, 3
            )
        last = self.gammas[-1][:, :, 0]
        rho = np.einsum(
            "klab,ma,nb->kmln", acc, last, last.conj(), optimize=True
        ).reshape(4, 4)
        return DensityBlock(rho)

    # -- coefficients -------------------------------------------------------

    def fock_coefficients(self) -> np.ndarray:
        """All Fock amplitudes as a (2,)*N array indexed by site occupations.

        Flattening (``reshape(-1)``) yields the state vector with site 0 as
        the most significant bit.  Guarded to N <= FOCK_SITE_LIMIT.
        """
        if self.n_sites > FOCK_SITE_LIMIT:
            raise ValueError(
                f"fock_coefficients materializes 2^N amplitudes; N limited to {FOCK_SITE_LIMIT}"
            )
        coeff = self.gammas[0][:, 0, :]
        for site in range(1, self.n_sites):
            coeff = np.einsum("...a,a,kab->...kb", coeff, self.lambdas[site - 1], self.gammas[site])
        return coeff[..., 0]

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        """JSON dump: per-site Gamma as nested [re, im] arrays, per-bond lambda."""
        payload = {
            "n_sites": self.n_sites,
            "gammas": [np.stack([g.real, g.imag], axis=-1).tolist() for g in self.gammas],
            "lambdas": [lam.tolist() for lam in self.lambdas],
            "degenerate": self.degenerate,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TensorChain":
        payload = json.loads(text)
        gammas = []
        for raw in payload["gammas"]:
            arr = np.asarray(raw, dtype=float)
            gammas.append(arr[..., 0] + 1j * arr[..., 1])
        lambdas = [np.asarray(raw, dtype=float) for raw in payload["lambdas"]]
        return cls(gammas, lambdas, degenerate=bool(payload.get("degenerate", False)))

    # -- helpers ------------------------------------------------------------

    def _check_site(self, site: int) -> None:
        if not 0 <= site < self.n_sites:
            raise ValueError(f"site must lie in [0, {self.n_sites}), got {site}")


def _check_gate(u: np.ndarray, dim: int) -> None:
    """Reject a gate of the wrong shape, one that is not unitary, or one that mixes parity."""
    if u.shape != (dim, dim):
        raise ValueError(f"gate must be {dim}x{dim}, got {u.shape}")
    residual = np.abs(u.conj().T @ u - _IDENTITY[dim]).max(initial=0.0)
    if residual > _UNITARY_TOL:
        raise ValueError(f"gate is not unitary (residual {residual:.3e})")
    if np.count_nonzero(u[_PARITY_MIXING[dim]]):
        raise ValueError("gate mixes parity: it couples even and odd states")


def bond_hamiltonian(
    hopping: float, pairing: complex, mu_left: float, mu_right: float
) -> np.ndarray:
    """Two-site Hamiltonian block in basis |00>, |01>, |10>, |11>.

    Realizes -w (c+_L c_R + c+_R c_L) + D c_L c_R + conj(D) c+_R c+_L
    - mu_L (n_L - 1/2) - mu_R (n_R - 1/2) with the fermionic matrix elements
    of adjacent sites (hopping couples |01>,|10>; pairing couples |00>,|11>
    with a minus sign from operator ordering).
    """
    h = np.zeros((4, 4), dtype=complex)
    h[0, 0] = (mu_left + mu_right) / 2.0
    h[1, 1] = (mu_left - mu_right) / 2.0
    h[2, 2] = (-mu_left + mu_right) / 2.0
    h[3, 3] = -(mu_left + mu_right) / 2.0
    h[1, 2] = h[2, 1] = -hopping
    h[0, 3] = -pairing
    h[3, 0] = -np.conj(pairing)
    return h


def energy_expectation(state: TensorChain, params: KitaevParams) -> float:
    """<H> of the chain Hamiltonian evaluated from pair density matrices.

    Open boundary: sum over the N-1 bonds of Tr(rho_pair h_bond), with each
    site's -mu (n - 1/2) term split half/half between its adjacent bonds and
    in full onto the single adjacent bond at the chain ends.

    Periodic boundary: the state of a translation-invariant Hamiltonian has
    identical pair density matrices on every bond, so <H> equals N times the
    energy of one bulk bond carrying a half mu share from each side.  This
    shortcut needs at least 3 sites and a unique eigenstate; it is refused
    when the state carries the degeneracy flag (a zero mode, or a level of
    equal single-body energies filled only in part).
    """
    n = state.n_sites
    if n != params.n_sites:
        raise ValueError(f"state has {n} sites but params expect {params.n_sites}")
    w = params.hopping
    mu = params.chemical_potential
    pairing = params.pairing
    if params.boundary == "periodic":
        if state.degenerate:
            raise ValueError(
                "periodic energy shortcut refused: the state is flagged degenerate"
            )
        if n < 3:
            raise ValueError("periodic energy shortcut requires at least 3 sites")
        rho = state.rdm_pair(n // 2 - 1).entries
        h = bond_hamiltonian(w, pairing, mu / 2.0, mu / 2.0)
        return float(n * np.trace(rho @ h).real)
    total = 0.0
    for left in range(n - 1):
        mu_left = mu if left == 0 else mu / 2.0
        mu_right = mu if left == n - 2 else mu / 2.0
        h = bond_hamiltonian(w, pairing, mu_left, mu_right)
        total += float(np.trace(state.rdm_pair(left).entries @ h).real)
    return total
