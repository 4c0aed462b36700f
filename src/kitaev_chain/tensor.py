"""Canonical tensor-chain states: gates, truncation, and reduced density matrices.

A state on N sites is stored in right-canonical form: per-site tensors
B^k_{mu nu} = Gamma^k_{mu nu} lambda_nu (k the local occupation, mu/nu the
left/right bond indices, Gamma Vidal's tensor, lambda its right bond's
Schmidt values) and per-internal-bond vectors of positive Schmidt
coefficients lambda with sum(lambda^2) = 1; boundary bonds have dimension 1.
Each B is an isometry from its left bond (sum_k B^k B^k^T = 1), so no entry
exceeds 1, single-site and two-site reduced density matrices are local
contractions, and the end-pair one follows from a sweep through the bulk.

Reads are matrix products of the reshaped tensors as stored, with no
division by a Schmidt value: a one-site block is x x^T with x = lambda_L B as
a (2, chi_L chi_R) matrix, a two-site block the same with the
(4, chi_L chi_R) product lambda_L B B, the norm and parity sweep one batched
product per site, and the end-pair sweep carries a stack of four chi x chi
matrices, one per (ket, bra) occupation of site 0.  A reduced density
matrix has one form: a read-only float64 array.  ``rdm_sites`` and
``rdm_pairs`` return every one-site or adjacent-pair block as one stack,
``rdm_site(i)`` and ``rdm_pair(i)`` are entry i of that stack, and
``rdm_ends`` is the end-pair block.  Every block passes one checker (real,
finite, symmetric, unit trace, positive semidefinite to 1e-10), run as one
vectorised call per stack.

Two-site gates take Hastings' form (M. B. Hastings, J. Math. Phys. 50,
095207 (2009)): the gate acts on Theta = B_L B_R, an SVD of lambda_L Theta
gives the new Schmidt values sigma (those at most ``TRUNCATION_THRESHOLD``
x sigma_max discarded, the kept ones renormalized) and right singular
vectors V, and V becomes B_R and Theta V^T / ||sigma|| becomes B_L.
Truncation is dynamic: nothing above the cut is ever dropped, and exceeding
the bond-dimension safety cap raises instead of silently degrading the state.
The singular vectors keep LAPACK's phases and its order within tied singular
values: the canonical form fixes neither, and no observable depends on them
(only the raw tensors of ``to_json`` do).

Parity (Z2) layout.  Every state here is a parity eigenstate, every gate
conserves parity, and each Schmidt vector has a definite parity of its left
half.  A bond lists the even-parity vectors first, each block with
non-increasing lambda, and ``even_counts`` records how many are even (the last
entry, for the right boundary, is 1 for an even and 0 for an odd state, which
``parity`` reports).  The layout is an invariant, checked where a state or
gate enters: the constructor (and so ``from_json`` and ``copy``) infers the
counts from the exact zeros of B and rejects a state that has none,
``product_state`` writes them from the running parity of its bits, and the
gate methods reject a gate that mixes parity.  A two-site gate then splits
the neighborhood into its two parity blocks, each chi_L x chi_R (half the
dimension on each side, about a quarter of the work of one dense
decomposition), and decomposes both with one batched SVD call on their
stack; the cut stays relative to the bond's largest singular value across
both blocks.

Stacked updates.  The arithmetic of a two-site update runs on a stack of G
states that share one local layout (chi_L, chi_M, chi_R and the even counts
of the two outer bonds): the contractions are stacked matrix products, one
SVD call takes the (2G, chi_L, chi_R) stack of all their parity blocks, and
the states whose kept counts agree are written back together.
``apply_two_site_gates`` is the only way into that kernel: it checks its
gates as one stack, buckets its states by layout and runs the kernel once
per bucket, and the kernel stacks the operands of its states (a lone
state's as views of its arrays).  The method ``apply_two_site_gate`` is
that call on ``[self]`` and raises what it returns, so a state gets the
same bits and the same error text alone or in a batch.  Both gate methods
have one check, ``_gate_errors``: it rejects a gate of the wrong shape, one
that is not real, one that is not orthogonal and one that mixes parity,
vectorised over the stack.

Dtype.  B is real (float64).  Every eigenstate of a Kitaev chain with
real pairing is real, and the fold builds it from real orthogonal two-site
gates, so the SVDs, the reads and the JSON payload are real.  The constructor
and both gate methods reject an input with an imaginary part
(``ValueError``); nothing is cast.  ``to_json`` writes each B under
``tensors`` and each lambda under ``lambdas`` as base64 text of its
little-endian float64 bytes in C order; the shapes follow from the lambda
lengths, so ``from_json`` reads every array back bit for bit.

Sites and bonds are indexed 0-based: bond i sits between sites i and i+1.
The basis order of two-site objects is |00>, |01>, |10>, |11> with the first
slot belonging to the left site; Fock coefficients index site 0 as the most
significant bit.  Contractions treat sites as distinguishable tensor factors;
the fermionic string through the bulk of an end-to-end operator turns into
the state's parity sign (valid because every state handled here is a parity
eigenstate).
"""

from __future__ import annotations

import base64
import functools
import json
import operator
from typing import Sequence

import numpy as np

from .quadratic import KitaevParams

__all__ = [
    "TRUNCATION_THRESHOLD",
    "MAX_BOND_DIMENSION",
    "FOCK_SITE_LIMIT",
    "TruncationError",
    "BondOverflowError",
    "TensorChain",
    "apply_two_site_gates",
    "bond_hamiltonian",
    "energy_expectation",
]

#: Relative truncation threshold of every two-site update.  The fold builds each
#: eigenstate exactly, so the cut only drops Schmidt values that are zero to rounding.
TRUNCATION_THRESHOLD = 1e-12

#: Default safety cap on bond dimensions; overflow raises BondOverflowError.
MAX_BOND_DIMENSION = 256

#: Largest chain for which all 2^N Fock coefficients are materialized.
FOCK_SITE_LIMIT = 14

#: Residual above which a gate matrix is rejected as non-orthogonal.
_ORTHOGONAL_TOL = 1e-10

_IDENTITY = {2: np.eye(2), 4: np.eye(4)}

#: Entries of a 2x2 gate (basis |0>, |1>) and of a 4x4 gate (basis |00>, |01>,
#: |10>, |11>) that couple even to odd states, as indices into the flattened gate.
_EVEN = {2: np.array([True, False]), 4: np.array([True, False, False, True])}
_PARITY_MIXING = {
    dim: np.flatnonzero(even[:, None] != even[None, :]) for dim, even in _EVEN.items()
}


class TruncationError(RuntimeError):
    """Raised when a bond update leaves no singular value above threshold."""


class BondOverflowError(RuntimeError):
    """Raised when an operation would exceed the bond-dimension safety cap."""


def _checked_blocks(blocks: np.ndarray, where: str = "") -> np.ndarray:
    """Validate a stack of density blocks at once; returns it as read-only float64.

    Every reduced density matrix of this module passes here: a stack of 2x2
    (one site, basis |0>, |1>) or 4x4 blocks (two sites, basis |00>, |01>,
    |10>, |11>, first slot the left or first site).  Each check is one
    vectorised call over the stack: real, finite, symmetric, unit trace, and
    no eigenvalue below -1e-10.  A violation means the producing contraction
    is broken and is raised as ``ValueError`` instead of propagated.  A
    failing block is named as ``where`` and its index in the stack ("bond 3",
    "site 0"); with ``where`` empty it is not named.
    """
    if not np.isrealobj(blocks):
        raise ValueError("density block must be real")
    rho = np.array(blocks, dtype=float)
    if rho.ndim != 3 or rho.shape[1:] not in ((2, 2), (4, 4)):
        raise ValueError(f"density block must be 2x2 or 4x4, got {rho.shape[1:]}")

    def at(k: int) -> str:
        return f" of {where} {k}" if where else ""

    finite = np.isfinite(rho).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"density block{at(int(np.argmin(finite)))} has a non-finite entry")
    rho_t = rho.transpose(0, 2, 1)
    herm = np.abs(rho - rho_t).max(axis=(1, 2))
    trace = np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0)
    lowest = np.linalg.eigvalsh((rho + rho_t) / 2.0)[:, 0]
    bad = (herm > 1e-10) | (trace > 1e-10) | (lowest < -1e-10)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(
            f"invalid density block{at(k)}: Hermiticity residual "
            f"{herm[k]:.3e}, trace deviation {trace[k]:.3e}, lowest eigenvalue {lowest[k]:.3e}"
        )
    rho.setflags(write=False)
    return rho


def _ones_bond() -> np.ndarray:
    return np.ones(1)


def _even_counts(gammas: Sequence[np.ndarray]) -> list[int]:
    """For the bond right of each site, the number of even-parity Schmidt vectors listed first.

    Reads the parity of each right Schmidt vector of a site off the exact
    zeros of its tensor, given the left bond's layout: a vector is even when
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
    """Mutable right-canonical tensor-chain state.

    ``gammas`` holds the site tensors B = Gamma lambda_R, under their old name.
    Gate methods mutate the state in place and keep the canonical invariants;
    use :meth:`copy` for snapshots.  The ``degenerate`` attribute is metadata
    attached by state builders when the targeted eigenstate is not unique (a
    zero mode, or a level of equal single-body energies filled only in part);
    the state is still well defined, and it travels through :meth:`copy` and
    the JSON payload.

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
        for kind, arrays in (("site tensor", gammas), ("bond vector", lambdas)):
            for i, x in enumerate(arrays):
                if not np.isrealobj(x):
                    raise ValueError(f"{kind} {i} must be real")
        gammas = [np.array(g, dtype=float) for g in gammas]
        lambdas = [np.array(l, dtype=float) for l in lambdas]
        n = len(gammas)
        if n < 1:
            raise ValueError("a tensor chain needs at least one site")
        if len(lambdas) != n - 1:
            raise ValueError(f"expected {n - 1} internal bonds, got {len(lambdas)}")
        for i, g in enumerate(gammas):
            if g.ndim != 3 or g.shape[0] != 2:
                raise ValueError(f"site tensor {i} must have shape (2, chi_L, chi_R)")
            if not np.isfinite(g).all():
                raise ValueError(f"site tensor {i} has a non-finite entry")
        if gammas[0].shape[1] != 1 or gammas[-1].shape[2] != 1:
            raise ValueError("boundary bonds must have dimension 1")
        for i, lam in enumerate(lambdas):
            if lam.ndim != 1 or lam.size == 0:
                raise ValueError(f"bond vector {i} must be a nonempty 1-D array")
            if not (lam > 0.0).all():
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
        """Bond-dimension-1 basis state |b_0 b_1 ... b_{N-1}>.

        The bits are validated; the tensors and their layout are written
        directly, without the constructor's checks: bond i holds one vector,
        even when sites 0..i hold an even number of particles.
        """
        bits = list(bits)
        if not bits or any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be a nonempty sequence of 0/1")
        state = cls.__new__(cls)
        state.gammas, state.even_counts = [], []
        filled = 0
        for b in bits:
            g = np.zeros((2, 1, 1))
            g[int(b), 0, 0] = 1.0  # a bool index would act as a mask
            state.gammas.append(g)
            filled += int(b)
            state.even_counts.append(1 - filled % 2)
        state.lambdas = [_ones_bond() for _ in bits[:-1]]
        state.degenerate = False
        return state

    def copy(self) -> "TensorChain":
        return TensorChain(self.gammas, self.lambdas, degenerate=self.degenerate)

    @property
    def n_sites(self) -> int:
        return len(self.gammas)

    @property
    def bond_dimensions(self) -> tuple[int, ...]:
        """Dimensions of the N-1 internal bonds."""
        return tuple(lam.size for lam in self.lambdas)

    @property
    def parity(self) -> str:
        """``"even"`` or ``"odd"``: the state's parity sector, read off its layout."""
        return "even" if self.even_counts[-1] else "odd"

    def _left_lambda(self, site: int) -> np.ndarray:
        return self.lambdas[site - 1] if site > 0 else _ones_bond()

    # -- gates ------------------------------------------------------------

    def apply_single_site_gate(self, site: int, u: np.ndarray) -> None:
        """Contract a real diagonal 2x2 gate, diag(+-1, +-1), into the site tensor B.

        Bonds are untouched.  A gate that is not diagonal would change
        parities, and one that is not real orthogonal is no such gate; both
        are rejected with ``ValueError``.
        """
        self._check_site(site)
        u = np.asarray(u)
        (error,) = _gate_errors(u[None], 2)
        if error is not None:
            raise error
        self.gammas[site] = np.diagonal(u)[:, None, None] * self.gammas[site]

    def apply_two_site_gate(
        self,
        left_site: int,
        u: np.ndarray,
        *,
        max_bond: int = MAX_BOND_DIMENSION,
    ) -> None:
        """Contract a real orthogonal 4x4 gate into sites (left_site, left_site + 1).

        The gate acts on Theta = B_L B_R.  The two parity blocks of
        lambda_L Theta, each chi_L x chi_R, are stacked and split by one
        batched SVD call (``np.linalg.svd`` looked up at call time), and
        truncated to singular values above ``TRUNCATION_THRESHOLD`` times the
        largest of both.  The kept values list the even block's before the
        odd block's.  The kept right singular vectors V become B_R, and
        Theta V^T / ||sigma|| becomes B_L.

        This is one call of :func:`apply_two_site_gates` on ``[self]``, which
        raises what that call returns: the checks, the kernel and the texts
        are those of the stacked path, and the SVD operand is the
        (2, chi_L, chi_R) stack of this state's blocks.

        Raises
        ------
        ValueError
            If ``left_site`` is out of range, or the gate is not a real
            orthogonal 4x4 matrix or has an entry that mixes parity.
        TruncationError
            If the two-site block vanishes, which only a state that is not
            canonical can cause.
        BondOverflowError
            If more than ``max_bond`` singular values survive.
        """
        (error,) = apply_two_site_gates([self], left_site, np.asarray(u)[None], max_bond=max_bond)
        if error is not None:
            raise error

    def _parity_edges(self, left_site: int) -> tuple[int, int]:
        """Even Schmidt vectors on the bonds left of ``left_site`` and right of ``left_site + 1``."""
        counts = self.even_counts
        return (counts[left_site - 1] if left_site > 0 else 1), counts[left_site + 1]

    # -- diagnostics --------------------------------------------------------

    def _transfer(self, weights: np.ndarray) -> float:
        """Contract <psi| (x)_sites diag(weights) |psi> through the chain."""
        acc = np.ones((1, 1))
        for b in self.gammas:
            # acc' = sum_k w_k b[k].T @ acc @ b[k], batched over k
            acc = np.tensordot(weights, b.transpose(0, 2, 1) @ acc @ b, axes=1)
        return float(acc[0, 0])

    def norm(self) -> float:
        """<psi|psi>^(1/2) by a full transfer contraction (no canonicity assumed)."""
        return float(np.sqrt(max(self._transfer(np.ones(2)), 0.0)))

    def parity_expectation(self) -> float:
        """<psi| (-1)^(total occupation) |psi>; +-1 for parity eigenstates."""
        return float(self._transfer(np.array([1.0, -1.0])))

    def canonical_residuals(self) -> dict[str, float]:
        """Max deviations of the canonical-form invariants.

        ``right``: |sum_k B^k B^k^T - 1| per site; ``left``: the same for
        the Gram matrix of lambda_L B over its rows divided by
        lambda_R (x) lambda_R, the orthonormality of the left Schmidt
        vectors; ``bond``: |sum(lambda^2) - 1| per bond.

        On a truncated state ``left`` and ``right`` do not measure damage.
        A truncation keeps Schmidt vectors with lambda down to the
        threshold and leaves those barely determined.  The open-chain
        ground states at mu = 1, 3, 2 (w = |D| = 1, N = 16, 32, 40) read up
        to 0.070 (``left``) and 0.174 (``right``), each time on a vector
        with lambda below 5e-12.  Restricted to lambda > 1e-6, ``right``
        stays below 1e-12 and ``left`` below 5e-10, rounding that the
        division by lambda_R grows.  A damaged state does
        show: one B scaled by 1.1 reads 1.1^2 - 1 = 0.21 on both sides.
        """
        left = right = 0.0
        bonds = [_ones_bond(), *self.lambdas, _ones_bond()]
        for site, b in enumerate(self.gammas):
            _, chi_l, chi_r = b.shape
            lam_r = bonds[site + 1]
            # left Gram: rows (k, a) against right bond; right Gram: left bond against (k, c)
            x = (b * bonds[site][None, :, None]).reshape(2 * chi_l, chi_r)
            gram = x.T @ x / np.outer(lam_r, lam_r)
            left = max(left, np.abs(gram - np.eye(chi_r)).max(initial=0.0))
            y = b.transpose(1, 0, 2).reshape(chi_l, 2 * chi_r)
            right = max(right, np.abs(y @ y.T - np.eye(chi_l)).max(initial=0.0))
        bond = max(
            (abs(float(np.sum(lam**2)) - 1.0) for lam in self.lambdas),
            default=0.0,
        )
        return {"left": float(left), "right": float(right), "bond": bond}

    # -- reduced density matrices -----------------------------------------

    def rdm_site(self, site: int) -> np.ndarray:
        """Reduced density matrix of one site, a read-only float64 (2, 2) array.

        It is entry ``site`` of :meth:`rdm_sites`.  As an entry of the stack
        a call costs O(N), and a broken block at any site of the chain raises
        ``ValueError`` naming that site.
        """
        self._check_site(site)
        return self.rdm_sites()[site]

    def rdm_pair(self, left_site: int) -> np.ndarray:
        """Reduced density matrix of sites (left_site, left_site + 1), read-only float64 (4, 4).

        It is entry ``left_site`` of :meth:`rdm_pairs`.  As an entry of the
        stack a call costs O(N), and a broken block on any bond of the chain
        raises ``ValueError`` naming that bond.
        """
        self._check_bond(left_site)
        return self.rdm_pairs()[left_site]

    def rdm_sites(self) -> np.ndarray:
        """All N one-site density matrices as a read-only (N, 2, 2) float64 stack, checked at once.

        Block i is x x^T with x = lambda_L B of site i as a (2, chi_L chi_R)
        matrix; a failing block raises ``ValueError`` naming its site.
        """
        blocks = []
        for site, b in enumerate(self.gammas):
            x = (b * self._left_lambda(site)[:, None]).reshape(2, -1)
            blocks.append(x @ x.T)
        return _checked_blocks(np.reshape(blocks, (-1, 2, 2)), "site")

    def rdm_pairs(self) -> np.ndarray:
        """All N-1 pair density matrices as a read-only (N-1, 4, 4) float64 stack, checked at once.

        Block i, the pair (i, i+1), is y y^T with y = lambda_L B_i B_{i+1} as
        a (4, chi_L chi_R) matrix; a failing block raises ``ValueError``
        naming its bond.  Empty for a one-site chain.
        """
        blocks = []
        for left in range(self.n_sites - 1):
            x = self.gammas[left] * self._left_lambda(left)[:, None]
            # y[j, k] = x[j] @ right[k]: rows (j, k), columns (a, c)
            y = (x[:, None] @ self.gammas[left + 1]).reshape(4, -1)
            blocks.append(y @ y.T)
        return _checked_blocks(np.reshape(blocks, (-1, 4, 4)), "bond")

    def rdm_ends(self) -> np.ndarray:
        """Reduced density matrix of (site 0, site N-1) via bulk transfer matrices.

        A read-only float64 (4, 4) array, checked like every other block.
        """
        n = self.n_sites
        if n < 3:
            raise ValueError("end-pair density matrix requires at least 3 sites")
        first = self.gammas[0][:, 0, :]
        chi = first.shape[1]
        # acc[(k, l)] = outer(first[k], first[l]): site 0 kept open on both sides
        acc = (first[:, None, :, None] * first[None, :, None, :]).reshape(4, chi, chi)
        for b in self.gammas[1:-1]:
            # acc'[(k, l)] = sum_m b[m].T @ acc[(k, l)] @ b[m], batched over (k, l)
            acc = b[0].T @ acc @ b[0] + b[1].T @ acc @ b[1]
        last = self.gammas[-1][:, :, 0]
        # (last @ acc @ last.T)[(k, l), m, n] is rho[(k, m), (l, n)]
        rho = (last @ acc @ last.T).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
        return _checked_blocks(rho[None])[0]

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
        for b in self.gammas[1:]:
            coeff = np.einsum("...a,kab->...kb", coeff, b)
        return coeff[..., 0]

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        """JSON dump: per-site B under ``tensors`` and per-bond lambda under ``lambdas``.

        Each array is the base64 text of its little-endian float64 bytes in C
        order; its shape follows from the lambda lengths and the boundary
        bonds of dimension 1.
        """
        payload = {
            "n_sites": self.n_sites,
            "tensors": [_encode(b) for b in self.gammas],
            "lambdas": [_encode(lam) for lam in self.lambdas],
            "degenerate": self.degenerate,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TensorChain":
        """Load a chain written by :meth:`to_json`, bit for bit; B comes back float64.

        Raises
        ------
        ValueError
            If the text is not JSON; is not an object with ``n_sites``,
            ``tensors``, ``lambdas`` and a boolean ``degenerate``; has a
            ``tensors`` count that differs from ``n_sites`` or from the bonds
            plus one; holds an entry that is not base64 text or whose bytes do
            not fill its shape; or holds a state the constructor rejects.
            The earlier payloads, nested lists of numbers or a Gamma format
            under ``gammas``, are rejected.
        """
        payload = json.loads(text)
        try:
            n_sites, raw_tensors, raw_lambdas = (
                payload["n_sites"], payload["tensors"], payload["lambdas"]
            )
            degenerate = payload["degenerate"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed tensor-chain payload: {exc!r}") from exc
        if not isinstance(degenerate, bool):
            raise ValueError(f"degenerate must be true or false, got {degenerate!r}")
        if not (isinstance(raw_tensors, list) and isinstance(raw_lambdas, list)):
            raise ValueError("tensors and lambdas must be lists")
        if not (type(n_sites) is int and len(raw_tensors) == n_sites):
            raise ValueError(f"n_sites is {n_sites!r} but there are {len(raw_tensors)} tensors")
        if n_sites != len(raw_lambdas) + 1:
            raise ValueError(f"{n_sites} tensors do not fit {len(raw_lambdas)} bonds")
        lambdas = [_decode(raw, f"bond vector {i}") for i, raw in enumerate(raw_lambdas)]
        dims = [1, *(lam.size for lam in lambdas), 1]
        gammas = [
            _decode(raw, f"site tensor {i}", (2, dims[i], dims[i + 1]))
            for i, raw in enumerate(raw_tensors)
        ]
        return cls(gammas, lambdas, degenerate=degenerate)

    # -- helpers ------------------------------------------------------------

    def _check_site(self, site: int) -> None:
        if not 0 <= site < self.n_sites:
            raise ValueError(f"site must lie in [0, {self.n_sites}), got {site}")

    def _check_bond(self, left_site: int) -> None:
        if not 0 <= left_site < self.n_sites - 1:
            raise ValueError(f"left_site must lie in [0, {self.n_sites - 1}), got {left_site}")


def _encode(array: np.ndarray) -> str:
    """Base64 text of the little-endian float64 bytes of ``array`` in C order."""
    return base64.b64encode(array.astype("<f8", copy=False).tobytes()).decode("ascii")


def _decode(raw: object, what: str, shape: tuple[int, ...] = (-1,)) -> np.ndarray:
    """The array that :func:`_encode` wrote as ``raw``, in ``shape``."""
    if not isinstance(raw, str):
        raise ValueError(f"{what} must be base64 text, got {type(raw).__name__}")
    try:
        return np.frombuffer(base64.b64decode(raw, validate=True), dtype="<f8").reshape(shape)
    except ValueError as exc:  # bad base64, a partial float64, or the wrong count for shape
        raise ValueError(f"{what} is not base64 of float64 values in shape {shape}: {exc}") from exc


def _gate_errors(u: np.ndarray, dim: int) -> list[ValueError | None]:
    """Per gate of a (G, dim, dim) stack, None or the ``ValueError`` that rejects it.

    The one gate check of both gate methods.  A stack whose gates are not
    dim x dim, or that is not real, is rejected as a whole: that
    ``ValueError`` is raised.  The other two checks are vectorised over the
    stack: a gate is rejected when it is not orthogonal to
    ``_ORTHOGONAL_TOL`` (a NaN residual counts as not orthogonal), else when
    an entry couples even and odd states.
    Only a stack with a rejected gate is gone through gate by gate.
    """
    if u.shape[1:] != (dim, dim):
        raise ValueError(f"gate must be {dim}x{dim}, got {u.shape[1:]}")
    if u.dtype.kind == "c":  # np.isrealobj, without its Python-level call
        raise ValueError("gate must be real")
    deviation = np.abs(u.transpose(0, 2, 1) @ u - _IDENTITY[dim])
    mixing = u.reshape(len(u), dim * dim).take(_PARITY_MIXING[dim], axis=1)
    errors: list[ValueError | None] = [None] * len(u)
    if np.count_nonzero(~(deviation <= _ORTHOGONAL_TOL)) or np.count_nonzero(mixing):
        residuals = deviation.max(axis=(1, 2)).tolist()
        for k, (residual, entries) in enumerate(zip(residuals, mixing)):
            if not residual <= _ORTHOGONAL_TOL:
                errors[k] = ValueError(f"gate is not orthogonal (residual {residual:.3e})")
            elif np.count_nonzero(entries):
                errors[k] = ValueError("gate mixes parity: it couples even and odd states")
    return errors


def _two_site_updates(
    states: Sequence[TensorChain], bond: int, u: np.ndarray, max_bond: int
) -> list[Exception | None]:
    """The two-site update on ``bond`` of G states that share one local layout, as stacks.

    The operands are read from ``states``: the (G, 2, chi_L, chi_M) and
    (G, 2, chi_M, chi_R) stacks of their site tensors at sites (bond,
    bond + 1) and the (G, chi_L) stack of the Schmidt values left of them;
    ``u`` holds the (G, 4, 4) checked gates.  A lone state's operands are
    views of its arrays, because ``np.stack`` copies.  Every step is the
    arithmetic of one state, batched over the leading axis: the contractions
    are stacked matrix products, and one SVD call (``np.linalg.svd`` looked
    up at call time) decomposes the (2G, chi_L, chi_R) stack of all parity
    blocks.  The states whose kept counts (n_even, n_odd) agree are written
    back together.

    Returns per state None, or the ``TruncationError`` or
    ``BondOverflowError`` that leaves it unchanged.
    """
    if len(states) == 1:
        (state,) = states
        left, right = state.gammas[bond][None], state.gammas[bond + 1][None]
        lam_l = state._left_lambda(bond)[None]
    else:
        left = np.stack([state.gammas[bond] for state in states])
        right = np.stack([state.gammas[bond + 1] for state in states])
        lam_l = np.stack([state._left_lambda(bond) for state in states])
    e_l, e_r = states[0]._parity_edges(bond)
    g, _, chi_l, chi_m = left.shape
    chi_r = right.shape[3]
    # rows (j, a), columns (k, c): the product np.tensordot forms, without
    # its per-call Python overhead
    theta = left.reshape(g, -1, chi_m) @ right.transpose(0, 2, 1, 3).reshape(g, chi_m, -1)
    theta = u @ theta.reshape(g, 2, chi_l, 2, chi_r).transpose(0, 1, 3, 2, 4).reshape(g, 4, -1)
    theta = (
        theta.reshape(g, 2, 2, chi_l, chi_r)
        .transpose(0, 1, 3, 2, 4)
        .reshape(g, 2 * chi_l, 2 * chi_r)
    )
    # Row (j, a) of Theta has left-half parity p(a) + j: the even rows are
    # j = 0 with a even and j = 1 with a odd, so in a-order they are the
    # two ends of Theta; the odd rows are the contiguous middle.  Likewise
    # for the columns (k, c).  Theta vanishes between the two blocks, and
    # each block is chi_L x chi_R.
    blocks = np.empty((g, 2, chi_l, chi_r))
    even, odd = blocks[:, 0], blocks[:, 1]
    even[:, :e_l, :e_r] = theta[:, :e_l, :e_r]
    even[:, :e_l, e_r:] = theta[:, :e_l, chi_r + e_r :]
    even[:, e_l:, :e_r] = theta[:, chi_l + e_l :, :e_r]
    even[:, e_l:, e_r:] = theta[:, chi_l + e_l :, chi_r + e_r :]
    odd[...] = theta[:, e_l : chi_l + e_l, e_r : chi_r + e_r]
    # the singular values of lambda_L Theta are the new bond's Schmidt values;
    # row a of the even block has lambda_L[a], the odd block's rows start at e_l
    row_lambdas = np.concatenate((lam_l, lam_l[:, e_l:], lam_l[:, :e_l]), axis=1)
    blocks *= row_lambdas.reshape(g, 2, chi_l, 1)
    _, s, v = np.linalg.svd(blocks.reshape(2 * g, chi_l, chi_r), full_matrices=False)
    s, v = s.reshape(g, 2, -1), v.reshape(g, 2, -1, chi_r)
    # the cut is relative to the largest singular value of both blocks
    cut = TRUNCATION_THRESHOLD * np.maximum(s[:, :1, :1], s[:, 1:, :1])

    errors: list[Exception | None] = [None] * g
    kept: dict[tuple[int, int], list[int]] = {}
    for k, (n_even, n_odd) in enumerate(np.add.reduce(s > cut, axis=2).tolist()):
        rank = n_even + n_odd
        if rank == 0:
            errors[k] = TruncationError(
                f"no singular value above threshold {TRUNCATION_THRESHOLD:g} on bond {bond}"
            )
        elif rank > max_bond:
            errors[k] = BondOverflowError(f"bond {bond} would grow to {rank} (cap {max_bond})")
        else:
            kept.setdefault((n_even, n_odd), []).append(k)
    for (n_even, n_odd), members in kept.items():
        at = slice(None) if len(members) == g else members
        rank = n_even + n_odd
        sigma = np.concatenate((s[at, 0, :n_even], s[at, 1, :n_odd]), axis=1)
        right_vecs = np.zeros((len(members), rank, 2 * chi_r))
        right_vecs[:, :n_even, :e_r] = v[at, 0, :n_even, :e_r]
        right_vecs[:, :n_even, chi_r + e_r :] = v[at, 0, :n_even, e_r:]
        right_vecs[:, n_even:, e_r : chi_r + e_r] = v[at, 1, :n_odd]
        norms = np.sqrt(np.add.reduce(sigma * sigma, axis=1)).tolist()
        products = theta[at] @ right_vecs.transpose(0, 2, 1)
        new_right = right_vecs.reshape(-1, rank, 2, chi_r).transpose(0, 2, 1, 3)
        for j, (k, norm) in enumerate(zip(members, norms)):
            state = states[k]
            state.lambdas[bond] = sigma[j] / norm
            state.gammas[bond] = (products[j] / norm).reshape(2, chi_l, rank)
            state.gammas[bond + 1] = new_right[j]
            state.even_counts[bond] = n_even
    return errors


def apply_two_site_gates(
    states: Sequence[TensorChain],
    left_site: int,
    gates: np.ndarray,
    *,
    max_bond: int = MAX_BOND_DIMENSION,
) -> list[Exception | None]:
    """Contract ``gates[k]`` into sites (left_site, left_site + 1) of ``states[k]``, for every k.

    The only way into the stacked two-site kernel:
    :meth:`TensorChain.apply_two_site_gate` is this call on one state.  The
    gates are checked as one stack by ``_gate_errors``.  The states are
    bucketed by their local layout (chi_L, chi_M, chi_R and the even counts
    of the two outer bonds) and each bucket takes one call of the kernel:
    one SVD call on the (2G, chi_L, chi_R) stack of its G states' parity
    blocks.  Each state gets the bits it gets alone.

    Returns, per state, None or the exception that leaves it unchanged (an
    out-of-range bond, a rejected gate, a truncation or an overflow); the
    others go on.

    Raises
    ------
    ValueError
        If ``gates`` is not one gate per state, or not a real stack of 4x4
        matrices.
    """
    gates = np.asarray(gates)
    if gates.shape[:1] != (len(states),):
        raise ValueError(f"expected {len(states)} gates of 4x4, got shape {gates.shape}")
    errors: list[Exception | None] = _gate_errors(gates, 4)
    buckets: dict[tuple, list[int]] = {}
    for k, state in enumerate(states):
        try:
            state._check_bond(left_site)
        except ValueError as exc:
            errors[k] = exc
            continue
        if errors[k] is None:
            layout = (
                state.gammas[left_site].shape,
                state.gammas[left_site + 1].shape,
                state._parity_edges(left_site),
            )
            buckets.setdefault(layout, []).append(k)
    for members in buckets.values():
        if len(members) == len(states):  # one bucket holds the whole call
            return _two_site_updates(states, left_site, gates, max_bond)
        failed = _two_site_updates([states[k] for k in members], left_site, gates[members], max_bond)
        for k, error in zip(members, failed):
            errors[k] = error
    return errors


def bond_hamiltonian(
    hopping: float | np.ndarray, pairing: float | np.ndarray,
    mu_left: float | np.ndarray, mu_right: float | np.ndarray,
) -> np.ndarray:
    """Real two-site Hamiltonian block in basis |00>, |01>, |10>, |11>.

    Realizes -w (c+_L c_R + c+_R c_L) + D (c_L c_R + c+_R c+_L)
    - mu_L (n_L - 1/2) - mu_R (n_R - 1/2) with the fermionic matrix elements
    of adjacent sites (hopping couples |01>,|10>; pairing couples |00>,|11>
    with a minus sign from operator ordering).

    Scalar arguments give one (4, 4) block; arrays of shape (G,) give the
    (G, 4, 4) stack of blocks, entry g the block of the values at g.
    """
    hopping, pairing, mu_left, mu_right = np.broadcast_arrays(hopping, pairing, mu_left, mu_right)
    h = np.zeros((*hopping.shape, 4, 4))
    h[..., 0, 0] = (mu_left + mu_right) / 2.0
    h[..., 1, 1] = (mu_left - mu_right) / 2.0
    h[..., 2, 2] = (-mu_left + mu_right) / 2.0
    h[..., 3, 3] = -(mu_left + mu_right) / 2.0
    h[..., 1, 2] = h[..., 2, 1] = -hopping
    h[..., 0, 3] = h[..., 3, 0] = -pairing
    return h


def energy_expectation(state: TensorChain, params: KitaevParams) -> float:
    """<H> of the chain Hamiltonian as a sum of bond terms Tr(rho h_bond).

    Every bond is read at once: the (B, 4, 4) stack of its density blocks
    times the stack of its ``bond_hamiltonian`` blocks, one trace per bond,
    and the traces added in bond order.

    Open boundary: the N-1 bonds read from ``rdm_pairs``, with each site's
    -mu (n - 1/2) term split half/half between its adjacent bonds and in
    full onto the single adjacent bond at the chain ends.

    Periodic boundary: all N bonds, each carrying a half mu share from each
    side.  The N-1 adjacent bonds read from ``rdm_pairs``, and the wrap
    bond (N-1, 0), last in the stack, from ``rdm_ends``, where the
    fermionic string through the bulk turns into the state's parity: its
    hopping and pairing enter with the opposite sign of an adjacent bond's
    in an even state, with the same sign in an odd one.  This needs at
    least 3 sites.  The sum does not assume translation invariance, so it
    holds for every eigenstate, including one of a level filled only in
    part.
    """
    n = state.n_sites
    if n != params.n_sites:
        raise ValueError(f"state has {n} sites but params expect {params.n_sites}")
    periodic = params.boundary == "periodic"
    if periodic and n < 3:
        raise ValueError("periodic energy requires at least 3 sites")
    rho = state.rdm_pairs()
    sign = np.ones(n - 1 + periodic)  # of each bond's hopping and pairing
    mu_left = np.full(n - 1 + periodic, params.chemical_potential / 2.0)
    mu_right = mu_left.copy()
    if periodic:
        rho = np.concatenate((rho, state.rdm_ends()[None]))
        sign[-1] = -1.0 if state.parity == "even" else 1.0
    else:
        mu_left[:1] = mu_right[-1:] = params.chemical_potential
    h = bond_hamiltonian(sign * params.hopping, sign * params.pairing_magnitude, mu_left, mu_right)
    # one add at a time, as a loop over the bonds would: np.sum pairs the terms up
    return functools.reduce(operator.add, np.trace(rho @ h, axis1=1, axis2=2).tolist(), 0.0)
