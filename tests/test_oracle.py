"""Internal-consistency tests for the dense exact-diagonalization oracle.

The oracle is the reference implementation every other module is checked
against, so it is validated here purely from operator algebra (canonical
anticommutation relations, Hermiticity, operator identities) without
reference to any higher-level code.
"""

import numpy as np
import pytest

from kitaev_chain import oracle


def _anticomm(a, b):
    return a @ b + b @ a


def kronecker_hamiltonian(n_sites, hopping, mu, pairing, pairing_phase=0.0, boundary="open"):
    """The chain Hamiltonian from products of the Kronecker-built annihilation operators.

    The referee of ``oracle.dense_hamiltonian``, which writes the same terms
    from occupation bits and string signs: each term here is a sum of dense
    matrix products, added in the same order (mu site by site, then each
    bond's hopping and pairing), so the two agree exactly.
    """
    c = oracle.annihilation_operators(n_sites)
    dim = 2**n_sites
    delta = pairing * np.exp(1j * pairing_phase)
    h = np.zeros((dim, dim), dtype=complex)
    for j in range(n_sites):
        h -= mu * (c[j].conj().T @ c[j] - 0.5 * np.eye(dim))
    n_bonds = n_sites if boundary == "periodic" else n_sites - 1
    for j in range(n_bonds):
        k = (j + 1) % n_sites
        h -= hopping * (c[j].conj().T @ c[k] + c[k].conj().T @ c[j])
        h += delta * (c[j] @ c[k]) + np.conj(delta) * (c[k].conj().T @ c[j].conj().T)
    return h


class TestAnnihilationOperators:
    def test_canonical_anticommutation_relations(self):
        n = 4
        cs = oracle.annihilation_operators(n)
        dim = 2**n
        for j in range(n):
            for k in range(n):
                want = np.eye(dim) if j == k else np.zeros((dim, dim))
                np.testing.assert_allclose(_anticomm(cs[j], cs[k].conj().T), want, atol=1e-14)
                np.testing.assert_allclose(_anticomm(cs[j], cs[k]), 0.0, atol=1e-14)

    def test_site_zero_is_most_significant_bit(self):
        # c_0 |100> = |000> with amplitude +1 (no string to the left).
        cs = oracle.annihilation_operators(3)
        vec = np.zeros(8, dtype=complex)
        vec[0b100] = 1.0
        out = cs[0] @ vec
        np.testing.assert_allclose(out[0b000], 1.0)
        np.testing.assert_allclose(np.delete(out, 0b000), 0.0)

    def test_string_sign(self):
        # c_1 |110> = -|100>: one occupied site to the left flips the sign.
        cs = oracle.annihilation_operators(3)
        vec = np.zeros(8, dtype=complex)
        vec[0b110] = 1.0
        out = cs[1] @ vec
        np.testing.assert_allclose(out[0b100], -1.0)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            oracle.annihilation_operators(oracle.MAX_SITES + 1)
        with pytest.raises(ValueError):
            oracle.annihilation_operators(0)


class TestDenseHamiltonian:
    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("phi", [0.0, 0.7, -np.pi / 2])
    @pytest.mark.parametrize("n_sites", [1, 2, 3, 4, 5, 6])
    def test_matches_the_kronecker_products_exactly(self, n_sites, phi, boundary):
        rng = np.random.default_rng(n_sites)
        hopping, mu, pairing = rng.normal(size=3)
        args = (n_sites, hopping, mu, abs(pairing), phi, boundary)
        h = oracle.dense_hamiltonian(*args)
        assert h.dtype == np.complex128
        np.testing.assert_array_equal(h, kronecker_hamiltonian(*args))

    def test_single_site_is_diagonal_in_occupation(self):
        # H = -mu (n - 1/2) on one site: +mu/2 on |0>, -mu/2 on |1>.
        h = oracle.dense_hamiltonian(1, hopping=0.0, chemical_potential=0.8, pairing_magnitude=0.0)
        np.testing.assert_allclose(h, np.diag([0.4, -0.4]), atol=1e-15)

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("phi", [0.0, 0.7])
    def test_hermitian(self, boundary, phi):
        h = oracle.dense_hamiltonian(4, 1.0, 0.6, 0.9, pairing_phase=phi, boundary=boundary)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-14)

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    def test_commutes_with_parity(self, boundary):
        h = oracle.dense_hamiltonian(4, 1.0, 0.6, 0.9, pairing_phase=0.3, boundary=boundary)
        p = oracle.dense_parity(4)
        np.testing.assert_allclose(h @ p - p @ h, 0.0, atol=1e-13)

    def test_two_site_matrix_elements(self):
        # With w = 0, mu = 0, D = |D| e^{i phi}: H = D c_0 c_1 + conj(D) c+_1 c+_0,
        # which couples |00> and |11> only:  H |00> = conj(D) c+_1 c+_0 |00>.
        # c+_0 |00> = |10>, c+_1 |10> = -|11>  =>  <11| H |00> = -conj(D).
        d = 0.9 * np.exp(0.7j)
        h = oracle.dense_hamiltonian(2, 0.0, 0.0, 0.9, pairing_phase=0.7)
        want = np.zeros((4, 4), dtype=complex)
        want[0b11, 0b00] = -np.conj(d)
        want[0b00, 0b11] = -d
        np.testing.assert_allclose(h, want, atol=1e-15)

    def test_hopping_matrix_element(self):
        # H = -w (c+_0 c_1 + c+_1 c_0) maps |01> -> -w |10>.
        h = oracle.dense_hamiltonian(2, 1.3, 0.0, 0.0)
        np.testing.assert_allclose(h[0b10, 0b01], -1.3)
        np.testing.assert_allclose(h[0b01, 0b10], -1.3)


class TestMajoranas:
    @pytest.mark.parametrize("phi", [0.0, 0.7])
    def test_clifford_algebra(self, phi):
        n = 3
        gammas = [oracle.dense_majorana(n, k, phi) for k in range(2 * n)]
        dim = 2**n
        for k in range(2 * n):
            np.testing.assert_allclose(gammas[k], gammas[k].conj().T, atol=1e-14)
            for l in range(2 * n):
                want = 2.0 * np.eye(dim) if k == l else np.zeros((dim, dim))
                np.testing.assert_allclose(_anticomm(gammas[k], gammas[l]), want, atol=1e-14)

    def test_mode_index_guard(self):
        with pytest.raises(ValueError):
            oracle.dense_majorana(3, 6)


class TestEdgeOperators:
    def test_left_plus_right_is_total(self):
        n = 5
        ql = oracle.dense_edge_operator(n, "QL")
        qr = oracle.dense_edge_operator(n, "QR")
        q = oracle.dense_edge_operator(n, "Q")
        np.testing.assert_allclose(ql + qr, q, atol=1e-14)

    @pytest.mark.parametrize("phi", [0.0, 0.7])
    def test_total_equals_end_to_end_hopping(self, phi):
        # Q = 2 (c_0 c+_{N-1} + c_{N-1} c+_0) as an operator identity, any phi.
        n = 4
        cs = oracle.annihilation_operators(n)
        want = 2.0 * (cs[0] @ cs[-1].conj().T + cs[-1] @ cs[0].conj().T)
        got = oracle.dense_edge_operator(n, "Q", pairing_phase=phi)
        np.testing.assert_allclose(got, want, atol=1e-13)

    def test_hermitian(self):
        for kind in ("QL", "QR", "Q"):
            op = oracle.dense_edge_operator(4, kind, pairing_phase=0.3)
            np.testing.assert_allclose(op, op.conj().T, atol=1e-14)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            oracle.dense_edge_operator(4, "QM")


class TestPartialTraceEnds:
    def test_product_state(self):
        # |psi> = |1>_0 x |0>_1 x |+>_2 with |+> = (|0> + |1>)/sqrt(2):
        # the (site 0, site 2) marginal is |1><1| x |+><+|.
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        vec = np.kron(np.kron([0.0, 1.0], [1.0, 0.0]), plus).astype(complex)
        rho = oracle.partial_trace_ends(vec, 3)
        pair = np.kron(np.outer([0, 1], [0, 1]), np.outer(plus, plus))
        np.testing.assert_allclose(rho, pair, atol=1e-14)

    def test_density_matrix_properties(self):
        rng = np.random.default_rng(3)
        vec = rng.normal(size=2**5) + 1j * rng.normal(size=2**5)
        vec /= np.linalg.norm(vec)
        rho = oracle.partial_trace_ends(vec, 5)
        np.testing.assert_allclose(np.trace(rho), 1.0, atol=1e-13)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-13)
        assert np.linalg.eigvalsh(rho).min() > -1e-13

    def test_requires_three_sites(self):
        with pytest.raises(ValueError):
            oracle.partial_trace_ends(np.ones(4) / 2.0, 2)


class TestEigensolvers:
    def test_spectrum_of_known_matrix(self):
        h = np.array([[1.0, 2.0], [2.0, 1.0]])
        np.testing.assert_allclose(oracle.ed_spectrum(h), [-1.0, 3.0], atol=1e-14)

    def test_ground_state_phase_convention(self):
        h = oracle.dense_hamiltonian(3, 1.0, 0.5, 0.8, pairing_phase=0.7)
        e0, vec = oracle.ed_ground_state(h)
        np.testing.assert_allclose(h @ vec, e0 * vec, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(vec), 1.0, atol=1e-13)
        anchor = vec[np.argmax(np.abs(vec) > 1e-8 * np.abs(vec).max())]
        assert abs(anchor.imag) < 1e-13 and anchor.real > 0

    def test_expectation_shape_guard(self):
        with pytest.raises(ValueError):
            oracle.ed_expectation(np.eye(4), np.ones(8))
