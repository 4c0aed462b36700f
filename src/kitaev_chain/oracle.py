"""Dense exact-diagonalization reference implementation.

Deliberately simple and slow: every operator is a dense 2^N x 2^N matrix in
the Fock basis, built directly from fermionic matrix elements (including
string signs), so it serves as the ground truth for the sign conventions of
every other module.

Basis convention: basis index bit b_j is the occupation of site j, with site 0
as the *most significant* bit.  Annihilation operators carry the fermionic
string over all lower-numbered sites, i.e. ``c_j = Z^(j) (x) a (x) 1^(N-1-j)``
with Z = diag(1, -1).

Functions take primitive arguments (not parameter objects): the oracle also
covers degenerate corners, such as single-site chains, that the library
types reject.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "MAX_SITES",
    "annihilation_operators",
    "dense_hamiltonian",
    "dense_parity",
    "dense_majorana",
    "majorana_hamiltonian",
    "dense_edge_operator",
    "partial_trace_ends",
    "ed_spectrum",
    "ed_ground_state",
    "ed_expectation",
]

#: Largest chain the dense oracle accepts (2^10 x 2^10 matrices).
MAX_SITES = 10

_A = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # local annihilation
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)  # local string factor
_I = np.eye(2, dtype=complex)


def _check_size(n_sites: int) -> None:
    if not 1 <= n_sites <= MAX_SITES:
        raise ValueError(f"dense oracle supports 1 <= n_sites <= {MAX_SITES}, got {n_sites}")


@lru_cache(maxsize=None)
def annihilation_operators(n_sites: int) -> tuple[np.ndarray, ...]:
    """Dense annihilation operators c_0 .. c_{N-1}; treat the result as read-only."""
    _check_size(n_sites)
    ops = []
    for j in range(n_sites):
        factors = [_Z] * j + [_A] + [_I] * (n_sites - 1 - j)
        op = factors[0]
        for f in factors[1:]:
            op = np.kron(op, f)
        op.setflags(write=False)
        ops.append(op)
    return tuple(ops)


def _entries(n_sites: int, *products) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero entries of a sum of ladder-operator products, as flat indices and values.

    Each product lists (site, create) factors left to right, c+_site when
    ``create`` and c_site otherwise; the rightmost factor acts first.  A
    factor keeps the basis states whose bit at ``site`` it can flip, flips
    it, and takes the Jordan-Wigner sign: -1 per occupied site left of
    ``site``.  Entries the products share are summed.
    """
    dim = 2**n_sites
    basis = np.arange(dim)
    odd = np.zeros(dim, dtype=int)  # parity of each basis state's occupation
    for b in range(n_sites):
        odd ^= (basis >> b) & 1
    flat, values = [], []
    for product in products:
        states, columns, amps = basis, basis, np.ones(dim)
        for site, create in reversed(product):
            bit = 1 << (n_sites - 1 - site)
            keep = ((states & bit) == 0) == create
            states, columns, amps = states[keep], columns[keep], amps[keep]
            # states >> (N - site) holds the bits of sites 0 .. site-1
            amps = np.where(odd[states >> (n_sites - site)] == 1, -amps, amps)
            states = states ^ bit
        flat.append(states * dim + columns)
        values.append(amps)
    flat, where = np.unique(np.concatenate(flat), return_inverse=True)
    return flat, np.bincount(where, weights=np.concatenate(values))


def dense_hamiltonian(
    n_sites: int,
    hopping: float,
    chemical_potential: float,
    pairing_magnitude: float,
    pairing_phase: float = 0.0,
    boundary: str = "open",
) -> np.ndarray:
    """Dense Fock-basis Hamiltonian of the Kitaev chain, complex 2^N x 2^N.

    H = sum_j [ -w (c+_j c_{j+1} + c+_{j+1} c_j) - mu (n_j - 1/2)
                + D c_j c_{j+1} + conj(D) c+_{j+1} c+_j ]

    with D = |D| e^{i phi}; the bond sum runs over j = 0..N-2 for open
    boundaries and wraps (c_N = c_0, both wrap terms taken literally) for
    periodic ones.  Each term is written onto its matrix elements from the
    occupation bits of the basis states and the Jordan-Wigner string signs,
    with no matrix product: the mu terms site by site, then each bond's
    hopping and pairing.
    """
    _check_size(n_sites)
    if boundary not in ("open", "periodic"):
        raise ValueError(f"boundary must be 'open' or 'periodic', got {boundary!r}")
    dim = 2**n_sites
    delta = pairing_magnitude * np.exp(1j * pairing_phase)
    h = np.zeros((dim, dim), dtype=complex)
    entries = h.reshape(-1)  # a view: row-major flat indices
    basis = np.arange(dim)
    for j in range(n_sites):
        occupied = (basis >> (n_sites - 1 - j)) & 1
        entries[basis * (dim + 1)] -= chemical_potential * (occupied - 0.5)
    n_bonds = n_sites if boundary == "periodic" else n_sites - 1
    for j in range(n_bonds):
        k = (j + 1) % n_sites
        for coefficient, products in (
            (-hopping, (((j, True), (k, False)), ((k, True), (j, False)))),
            (delta, (((j, False), (k, False)),)),
            (np.conj(delta), (((k, True), (j, True)),)),
        ):
            flat, values = _entries(n_sites, *products)
            entries[flat] += coefficient * values
    return h


def dense_parity(n_sites: int) -> np.ndarray:
    """Dense parity operator exp(i pi sum_j n_j) = diag((-1)^(number of fermions))."""
    _check_size(n_sites)
    signs = np.ones(1)
    for _ in range(n_sites):
        signs = np.concatenate([signs, -signs])
    return np.diag(signs.astype(complex))


def dense_majorana(n_sites: int, mode: int, pairing_phase: float = 0.0) -> np.ndarray:
    """Dense Majorana operator for 0-based mode index (two modes per site).

    Even modes realize e^{i phi/2} c_j + e^{-i phi/2} c+_j and odd modes
    -i e^{i phi/2} c_j + i e^{-i phi/2} c+_j, for site j = mode // 2.
    """
    _check_size(n_sites)
    if not 0 <= mode < 2 * n_sites:
        raise ValueError(f"mode must lie in [0, {2 * n_sites}), got {mode}")
    c = annihilation_operators(n_sites)[mode // 2]
    phase = np.exp(1j * pairing_phase / 2.0)
    if mode % 2 == 0:
        return phase * c + np.conj(phase) * c.conj().T
    return -1j * phase * c + 1j * np.conj(phase) * c.conj().T


def majorana_hamiltonian(a: np.ndarray, pairing_phase: float = 0.0) -> np.ndarray:
    """Dense realization of H = (i/4) sum_{kl} A_{kl} gamma_k gamma_l."""
    a = np.asarray(a, dtype=float)
    n_sites = a.shape[0] // 2
    _check_size(n_sites)
    gammas = [dense_majorana(n_sites, k, pairing_phase) for k in range(2 * n_sites)]
    dim = 2**n_sites
    h = np.zeros((dim, dim), dtype=complex)
    for k in range(2 * n_sites):
        for l in range(2 * n_sites):
            if a[k, l] != 0.0:
                h += 0.25j * a[k, l] * (gammas[k] @ gammas[l])
    return h


def dense_edge_operator(n_sites: int, kind: str, pairing_phase: float = 0.0) -> np.ndarray:
    """Dense end-to-end operators: QL = i g_1 g_{2N-2}, QR = i g_{2N-1} g_0, Q = QL + QR.

    (0-based Majorana mode labels; Q equals the end-to-end hopping
    2 (c_0 c+_{N-1} + c_{N-1} c+_0) as an operator identity.)
    """
    _check_size(n_sites)
    if kind == "QL":
        return 1j * (
            dense_majorana(n_sites, 1, pairing_phase)
            @ dense_majorana(n_sites, 2 * n_sites - 2, pairing_phase)
        )
    if kind == "QR":
        return 1j * (
            dense_majorana(n_sites, 2 * n_sites - 1, pairing_phase)
            @ dense_majorana(n_sites, 0, pairing_phase)
        )
    if kind == "Q":
        return dense_edge_operator(n_sites, "QL", pairing_phase) + dense_edge_operator(
            n_sites, "QR", pairing_phase
        )
    raise ValueError(f"kind must be one of 'Q', 'QL', 'QR', got {kind!r}")


def partial_trace_ends(vec: np.ndarray, n_sites: int) -> np.ndarray:
    """Partial trace of |v><v| over the bulk, keeping (site 0, site N-1).

    Returns a 4x4 matrix in basis order |00>, |01>, |10>, |11> with the first
    slot for site 0.
    """
    if n_sites < 3:
        raise ValueError("end-pair partial trace requires n_sites >= 3")
    v = np.asarray(vec, dtype=complex).reshape(2, 2 ** (n_sites - 2), 2)
    rho = np.einsum("amb,cmd->abcd", v, v.conj())
    return rho.reshape(4, 4)


def ed_spectrum(h: np.ndarray) -> np.ndarray:
    """All eigenvalues of a Hermitian operator, ascending."""
    return np.linalg.eigvalsh(h)


def ed_ground_state(h: np.ndarray) -> tuple[float, np.ndarray]:
    """Lowest eigenpair with a deterministic phase convention.

    The returned vector's first significant amplitude is real positive.
    """
    vals, vecs = np.linalg.eigh(h)
    vec = vecs[:, 0]
    anchor = np.argmax(np.abs(vec) > 1e-8 * np.abs(vec).max())
    phase = vec[anchor] / abs(vec[anchor])
    return float(vals[0]), vec * np.conj(phase)


def ed_expectation(op: np.ndarray, vec: np.ndarray) -> complex:
    """Expectation value <v| op |v>."""
    op = np.asarray(op)
    vec = np.asarray(vec)
    if op.shape != (vec.size, vec.size):
        raise ValueError(f"operator shape {op.shape} does not match vector size {vec.size}")
    return complex(vec.conj() @ op @ vec)
