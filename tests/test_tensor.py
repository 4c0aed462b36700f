"""Tests for the canonical tensor-chain state container.

Frozen worked examples pin the gate/SVD conventions; the dense oracle
(brute-force Fock vectors and partial traces) provides the independent route
for reduced density matrices, and hypothesis drives random circuits through
the canonical-form invariants.  Every gate is parity conserving: a chain
holds parity eigenstates only and rejects any other gate or state.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kitaev_chain import (
    BondOverflowError,
    DensityBlock,
    KitaevParams,
    TensorChain,
    TruncationError,
    bond_hamiltonian,
    energy_expectation,
    prepare_eigenstate,
    schur_decompose,
    build_coupling_matrix,
)
from kitaev_chain import oracle, z_value
from kitaev_chain.tensor import FOCK_SITE_LIMIT, MAX_BOND_DIMENSION
from parity_gates import random_pair_gate, random_site_phase

RNG_GATE = np.sqrt(0.5) * (
    np.eye(4, dtype=complex) + 1j * np.fliplr(np.eye(4))
)  # (|00> + i|11>)/sqrt(2) when applied to |00>; couples equal-parity pairs

SWAP01 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

#: X on both sites: |00> <-> |11> and |01> <-> |10>; conserves parity.
FLIP_PAIR = np.fliplr(np.eye(4)).astype(complex)


def pair_gate(seed: int) -> np.ndarray:
    return random_pair_gate(np.random.default_rng(seed))


def random_circuit(n_sites: int, seed: int, depth: int = 3) -> TensorChain:
    """Product state pushed through a few layers of random nearest-neighbor gates."""
    state = TensorChain.product_state([0] * n_sites)
    rng = np.random.default_rng(seed)
    for layer in range(depth):
        for left in range(n_sites - 1):
            state.apply_two_site_gate(left, random_pair_gate(rng))
        state.apply_single_site_gate(int(rng.integers(n_sites)), random_site_phase(rng))
    return state


def brickwork(n_sites: int, layers: int, seed: int, max_bond: int) -> TensorChain:
    """Product state pushed through ``layers`` alternating layers of random gates."""
    state = TensorChain.product_state([0] * n_sites)
    rng = np.random.default_rng(seed)
    for layer in range(layers):
        for left in range(layer % 2, n_sites - 1, 2):
            state.apply_two_site_gate(left, random_pair_gate(rng), max_bond=max_bond)
    return state


def dense_vector(state: TensorChain) -> np.ndarray:
    """Flattened Fock amplitudes with site 0 as the most significant bit."""
    return state.fock_coefficients().reshape(-1)


class TestDensityBlock:
    def test_accepts_valid_two_by_two(self):
        block = DensityBlock(np.diag([0.25, 0.75]))
        assert block.dim == 2
        assert block.entries.flags.writeable is False

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            DensityBlock(np.eye(3) / 3.0)

    def test_rejects_non_hermitian(self):
        rho = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(ValueError, match="Hermiticity"):
            DensityBlock(rho)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityBlock(np.diag([0.7, 0.7]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityBlock(np.diag([1.5, -0.5]))


class TestConstruction:
    def test_product_state_layout(self):
        state = TensorChain.product_state([0, 1, 0])
        assert state.n_sites == 3
        assert state.bond_dimensions == (1, 1)
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(state.rdm_site(1).entries, np.diag([0.0, 1.0]), atol=1e-12)

    def test_product_state_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            TensorChain.product_state([0, 2])
        with pytest.raises(ValueError):
            TensorChain.product_state([])

    def test_rejects_mismatched_bonds(self):
        good = TensorChain.product_state([0, 0])
        with pytest.raises(ValueError):
            TensorChain(good.gammas, [])
        with pytest.raises(ValueError):
            TensorChain(good.gammas, [np.array([0.5, 0.5])])  # not normalized

    def test_rejects_nonpositive_lambda(self):
        gammas = [np.zeros((2, 1, 2)), np.zeros((2, 2, 1))]
        gammas[0][0, 0, 0] = 1.0
        gammas[1][0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            TensorChain(gammas, [np.array([1.0, -0.0])])

    def test_copy_is_independent(self):
        state = TensorChain.product_state([0, 0, 0])
        clone = state.copy()
        clone.apply_two_site_gate(0, FLIP_PAIR)
        np.testing.assert_allclose(state.rdm_site(0).entries, np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(clone.rdm_site(0).entries, np.diag([0.0, 1.0]), atol=1e-12)
        assert state.even_counts == [1, 1, 1] and clone.even_counts == [0, 1, 1]


class TestSingleSiteGate:
    def test_identity_leaves_state(self):
        state = random_circuit(4, seed=7)
        before = dense_vector(state)
        state.apply_single_site_gate(2, np.eye(2))
        np.testing.assert_allclose(dense_vector(state), before, atol=1e-12)

    def test_diagonal_gate_is_global_phase_on_filled_site(self):
        theta = 0.731
        state = TensorChain.product_state([1])
        state.apply_single_site_gate(0, np.diag([np.exp(1j * theta / 2), np.exp(-1j * theta / 2)]))
        amps = dense_vector(state)
        assert amps[1] == pytest.approx(np.exp(-1j * theta / 2), abs=1e-12)
        np.testing.assert_allclose(
            state.rdm_site(0).entries, np.diag([0.0, 1.0]), atol=1e-12
        )

    def test_rejects_non_diagonal_gate(self):
        state = random_circuit(4, seed=19)
        before = dense_vector(state)
        tilt = np.array([[np.cos(1e-3), -np.sin(1e-3)], [np.sin(1e-3), np.cos(1e-3)]])
        for u in (SWAP01, tilt):
            with pytest.raises(ValueError, match="mixes parity"):
                state.apply_single_site_gate(1, u)
        np.testing.assert_array_equal(dense_vector(state), before)

    def test_rejects_non_unitary(self):
        state = TensorChain.product_state([0, 0])
        with pytest.raises(ValueError, match="unitary"):
            state.apply_single_site_gate(0, np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_rejects_bad_site(self):
        state = TensorChain.product_state([0, 0])
        with pytest.raises(ValueError):
            state.apply_single_site_gate(2, np.eye(2))

    def test_touches_only_one_tensor(self):
        state = random_circuit(4, seed=3)
        frozen = [g.copy() for g in state.gammas]
        lambdas = [l.copy() for l in state.lambdas]
        state.apply_single_site_gate(1, random_site_phase(np.random.default_rng(11)))
        for site in (0, 2, 3):
            np.testing.assert_array_equal(state.gammas[site], frozen[site])
        for bond in range(3):
            np.testing.assert_array_equal(state.lambdas[bond], lambdas[bond])


class TestTwoSiteGate:
    def test_identity_leaves_state(self):
        state = random_circuit(4, seed=5)
        before = dense_vector(state)
        state.apply_two_site_gate(1, np.eye(4))
        np.testing.assert_allclose(dense_vector(state), before, atol=1e-12)

    def test_worked_entangling_example(self):
        state = TensorChain.product_state([0, 0, 0, 0])
        state.apply_two_site_gate(0, RNG_GATE)
        np.testing.assert_allclose(
            state.lambdas[0], np.array([1.0, 1.0]) / np.sqrt(2.0), atol=1e-12
        )
        amps = state.fock_coefficients()
        assert amps[0, 0, 0, 0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
        assert amps[1, 1, 0, 0] == pytest.approx(1j / np.sqrt(2.0), abs=1e-12)
        assert np.abs(amps).sum() == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_gate_then_inverse_restores(self):
        state = random_circuit(5, seed=9)
        before = dense_vector(state)
        u = pair_gate(21)
        state.apply_two_site_gate(2, u)
        state.apply_two_site_gate(2, u.conj().T)
        np.testing.assert_allclose(dense_vector(state), before, atol=1e-10)
        assert state.norm() == pytest.approx(1.0, abs=1e-10)

    def test_rejects_non_unitary(self):
        state = TensorChain.product_state([0, 0])
        with pytest.raises(ValueError, match="unitary"):
            state.apply_two_site_gate(0, np.diag([1.0, 1.0, 1.0, 0.5]))

    def test_rejects_bad_bond(self):
        state = TensorChain.product_state([0, 0])
        with pytest.raises(ValueError):
            state.apply_two_site_gate(1, np.eye(4))

    def test_truncation_error_when_nothing_survives(self):
        state = TensorChain.product_state([0, 0])
        with pytest.raises(TruncationError):
            state.apply_two_site_gate(0, RNG_GATE, threshold=2.0)

    def test_bond_overflow_error(self):
        state = TensorChain.product_state([0, 0])
        with pytest.raises(BondOverflowError):
            state.apply_two_site_gate(0, RNG_GATE, max_bond=1)

    def test_touches_only_local_tensors(self):
        state = random_circuit(5, seed=13)
        frozen = [g.copy() for g in state.gammas]
        lambdas = [l.copy() for l in state.lambdas]
        state.apply_two_site_gate(2, pair_gate(17))
        for site in (0, 1, 4):
            np.testing.assert_array_equal(state.gammas[site], frozen[site])
        for bond in (0, 1, 3):
            np.testing.assert_array_equal(state.lambdas[bond], lambdas[bond])

    def test_update_is_deterministic(self):
        runs = []
        for _ in range(2):
            state = random_circuit(4, seed=23)
            runs.append(state)
        for a, b in zip(runs[0].lambdas, runs[1].lambdas):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(runs[0].gammas, runs[1].gammas):
            np.testing.assert_array_equal(a, b)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_canonical_invariants_after_random_circuit(self, seed):
        state = random_circuit(4, seed=seed)
        residuals = state.canonical_residuals()
        assert residuals["left"] < 1e-10
        assert residuals["right"] < 1e-10
        assert residuals["bond"] < 1e-10
        assert state.norm() == pytest.approx(1.0, abs=1e-10)
        for lam in state.lambdas:
            assert (lam > 0.0).all()


def left_vector_parities(state: TensorChain, bond: int) -> np.ndarray:
    """+1/-1 per left Schmidt vector on ``bond``, read off its Fock amplitudes.

    Fails if a vector has weight in both parity sectors.
    """
    vecs = state.gammas[0][:, 0, :]
    for site in range(1, bond + 1):
        g = state.gammas[site]
        vecs = np.einsum("xa,a,kab->xkb", vecs, state.lambdas[site - 1], g).reshape(-1, g.shape[2])
    signs = np.array([(-1) ** bin(x).count("1") for x in range(vecs.shape[0])])
    even = np.linalg.norm(vecs[signs > 0], axis=0)
    odd = np.linalg.norm(vecs[signs < 0], axis=0)
    assert (np.minimum(even, odd) < 1e-12 * np.maximum(even, odd)).all()
    return np.where(even > odd, 1, -1)


def recorded_svd_shapes(monkeypatch) -> tuple[list, list]:
    """Record each SVD operand's shape and each two-site gate's (chi_L, chi_R)."""
    shapes, blocks = [], []
    svd = np.linalg.svd
    gate = TensorChain.apply_two_site_gate

    def recording_svd(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    def recording_gate(self, left_site, u, **kwargs):
        blocks.append((self._left_lambda(left_site).size, self._right_lambda(left_site + 1).size))
        return gate(self, left_site, u, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(TensorChain, "apply_two_site_gate", recording_gate)
    return shapes, blocks


class TestParityLayout:
    GAPPED = KitaevParams(8, 1.0, 1.0, 1.0)

    def test_product_state_counts(self):
        assert TensorChain.product_state([0, 1, 1, 0]).even_counts == [1, 0, 1, 1]
        assert TensorChain.product_state([1]).even_counts == [0]

    def test_constructor_rejects_states_outside_layout(self):
        state = TensorChain.product_state([0, 0])
        state.apply_two_site_gate(0, RNG_GATE)
        assert state.even_counts == [1, 1]
        with pytest.raises(ValueError, match="odd vector before an even one"):
            TensorChain([state.gammas[0][:, :, ::-1], state.gammas[1][:, ::-1, :]], state.lambdas)
        plus = np.full((2, 1, 1), np.sqrt(0.5), dtype=complex)  # (|0> + |1>)/sqrt(2)
        with pytest.raises(ValueError, match="no definite parity"):
            TensorChain([plus, state.gammas[1][:, :1, :]], [np.ones(1)])
        with pytest.raises(ValueError, match="no definite parity"):
            TensorChain([state.gammas[0][:, :, :1], plus], [np.ones(1)])

    def test_from_json_rejects_states_outside_layout(self):
        state = TensorChain.product_state([0, 0, 0])
        state.apply_two_site_gate(0, RNG_GATE)
        payload = json.loads(state.to_json())
        # list bond 0's odd Schmidt vector first, as a dense update could
        payload["gammas"][0] = [[row[::-1] for row in g] for g in payload["gammas"][0]]
        payload["gammas"][1] = [g[::-1] for g in payload["gammas"][1]]
        payload["lambdas"][0] = payload["lambdas"][0][::-1]
        with pytest.raises(ValueError, match="odd vector before an even one"):
            TensorChain.from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "occupation",
        [None, [1, 0, 0, 0, 0, 0, 0, 1], [0, 1, 0, 0, 0, 0, 0, 0]],
        ids=["ground", "excited-even", "excited-odd"],
    )
    def test_eigenstates_list_even_vectors_first(self, occupation):
        state, _, _ = prepare_eigenstate(self.GAPPED, occupation)
        counts = state.even_counts
        assert counts is not None
        for bond, lam in enumerate(state.lambdas):
            even = counts[bond]
            np.testing.assert_array_equal(
                left_vector_parities(state, bond), [1] * even + [-1] * (lam.size - even)
            )
            assert (np.diff(lam[:even]) <= 0).all() and (np.diff(lam[even:]) <= 0).all()
        assert counts[-1] == (1 if state.parity_expectation() > 0 else 0)

    def test_layout_survives_copy_and_json(self):
        state, _, _ = prepare_eigenstate(self.GAPPED, [0, 1, 0, 0, 0, 0, 0, 0])
        assert state.copy().even_counts == state.even_counts
        assert TensorChain.from_json(state.to_json()).even_counts == state.even_counts

    @pytest.mark.parametrize("n_sites", [8, 10])
    @pytest.mark.parametrize("mu", [1.0, 2.0])
    def test_lambdas_match_dense_schmidt_values(self, n_sites, mu):
        state, _, plan = prepare_eigenstate(KitaevParams(n_sites, 1.0, mu, 1.0))
        assert not plan.degenerate and state.even_counts is not None
        _, ground = oracle.ed_ground_state(oracle.dense_hamiltonian(n_sites, 1.0, mu, 1.0))
        for bond, lam in enumerate(state.lambdas):
            dense = np.linalg.svd(ground.reshape(2 ** (bond + 1), -1), compute_uv=False)
            dense = dense[dense > 1e-12 * dense[0]]
            ours = np.sort(lam)[::-1]
            size = max(dense.size, ours.size)
            np.testing.assert_allclose(
                np.pad(ours, (0, size - ours.size)),
                np.pad(dense, (0, size - dense.size)),
                rtol=0.0,
                atol=1e-10,
            )

    @pytest.mark.parametrize("mu", [1.0, 2.0], ids=["gapped", "critical"])
    def test_each_svd_is_one_parity_block(self, monkeypatch, mu):
        shapes, blocks = recorded_svd_shapes(monkeypatch)
        prepare_eigenstate(KitaevParams(12, 1.0, mu, 1.0))
        assert blocks
        assert shapes == [block for block in blocks for _ in range(2)]

    def test_rejects_parity_mixing_gate(self):
        state, _, _ = prepare_eigenstate(self.GAPPED)
        before = dense_vector(state)
        counts = list(state.even_counts)
        mixing = pair_gate(7)
        mixing[:, [1, 3]] = mixing[:, [3, 1]]  # still unitary; |01> -> even states
        for u in (mixing, np.kron(SWAP01, np.eye(2))):
            with pytest.raises(ValueError, match="mixes parity"):
                state.apply_two_site_gate(0, u)
        np.testing.assert_array_equal(dense_vector(state), before)
        assert state.even_counts == counts

    def test_single_site_gates(self):
        state, _, _ = prepare_eigenstate(self.GAPPED)
        counts = list(state.even_counts)
        state.apply_single_site_gate(3, np.diag([1j, -1.0]))
        assert state.even_counts == counts
        with pytest.raises(ValueError, match="mixes parity"):
            state.apply_single_site_gate(3, SWAP01)
        assert state.even_counts == counts


class TestReducedDensityMatrices:
    def test_site_vacuum(self):
        state = TensorChain.product_state([0, 0, 0])
        np.testing.assert_allclose(state.rdm_site(0).entries, np.diag([1.0, 0.0]), atol=1e-12)

    def test_site_worked_example_is_maximally_mixed(self):
        state = TensorChain.product_state([0, 0, 0])
        state.apply_two_site_gate(0, RNG_GATE)
        np.testing.assert_allclose(
            state.rdm_site(0).entries, np.diag([0.5, 0.5]), atol=1e-12
        )

    def test_pair_vacuum(self):
        state = TensorChain.product_state([0, 0, 0])
        rho = state.rdm_pair(0).entries
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho, expected, atol=1e-12)

    def test_pair_worked_example(self):
        state = TensorChain.product_state([0, 0, 0])
        state.apply_two_site_gate(0, RNG_GATE)
        vec = np.zeros(4, dtype=complex)
        vec[0b00] = 1.0 / np.sqrt(2.0)
        vec[0b11] = 1j / np.sqrt(2.0)
        np.testing.assert_allclose(state.rdm_pair(0).entries, np.outer(vec, vec.conj()), atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_pair_partial_traces_match_sites(self, seed):
        state = random_circuit(4, seed=seed)
        for left in range(3):
            rho = state.rdm_pair(left).entries.reshape(2, 2, 2, 2)
            np.testing.assert_allclose(
                np.einsum("jklk->jl", rho), state.rdm_site(left).entries, atol=1e-10
            )
            np.testing.assert_allclose(
                np.einsum("kjkl->jl", rho), state.rdm_site(left + 1).entries, atol=1e-10
            )

    def test_ends_vacuum(self):
        state = TensorChain.product_state([0, 0, 0, 0])
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(state.rdm_ends().entries, expected, atol=1e-12)

    def test_ends_requires_three_sites(self):
        state = TensorChain.product_state([0, 0])
        with pytest.raises(ValueError):
            state.rdm_ends()

    def test_ends_read_bonds_above_default_cap(self):
        n_sites = 18
        state = brickwork(n_sites, layers=9, seed=5, max_bond=2 * MAX_BOND_DIMENSION)
        assert max(state.bond_dimensions) > MAX_BOND_DIMENSION
        rho = state.rdm_ends().entries.reshape(2, 2, 2, 2)
        np.testing.assert_allclose(
            np.einsum("jklk->jl", rho), state.rdm_site(0).entries, atol=1e-10
        )
        np.testing.assert_allclose(
            np.einsum("kjkl->jl", rho), state.rdm_site(n_sites - 1).entries, atol=1e-10
        )
        assert 0.0 <= z_value(state, "even") <= 2.0

    @settings(max_examples=20, deadline=None)
    @given(
        n_sites=st.integers(min_value=3, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_ends_matches_dense_partial_trace(self, n_sites, seed):
        state = random_circuit(n_sites, seed=seed)
        rho = state.rdm_ends().entries
        expected = oracle.partial_trace_ends(dense_vector(state), n_sites)
        np.testing.assert_allclose(rho, expected, atol=1e-10)

    def test_ends_three_sites_equals_traced_middle(self):
        state = random_circuit(3, seed=31)
        vec = dense_vector(state).reshape(2, 2, 2)
        rho_full = np.einsum("jmk,lmn->jkln", vec, vec.conj()).reshape(4, 4)
        np.testing.assert_allclose(state.rdm_ends().entries, rho_full, atol=1e-10)


class TestFockCoefficients:
    def test_vacuum_one_hot(self):
        state = TensorChain.product_state([0, 0, 0])
        amps = state.fock_coefficients()
        assert amps[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(amps).sum() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_norm_one(self, seed):
        state = random_circuit(5, seed=seed)
        amps = dense_vector(state)
        assert np.vdot(amps, amps).real == pytest.approx(1.0, abs=1e-10)

    def test_site_limit_guard(self):
        state = TensorChain.product_state([0] * (FOCK_SITE_LIMIT + 1))
        with pytest.raises(ValueError, match="amplitudes"):
            state.fock_coefficients()


class TestParityExpectation:
    def test_product_states(self):
        assert TensorChain.product_state([0, 1, 1]).parity_expectation() == pytest.approx(1.0)
        assert TensorChain.product_state([0, 1, 0]).parity_expectation() == pytest.approx(-1.0)

    @settings(max_examples=15, deadline=None)
    @given(
        theta=st.floats(min_value=-3.0, max_value=3.0),
        phi=st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_parity_preserving_gates_keep_parity(self, theta, phi):
        state = TensorChain.product_state([1, 0, 0])
        before = state.parity_expectation()
        pair = np.cos(theta / 2) * np.eye(4, dtype=complex) + 1j * np.sin(
            theta / 2
        ) * np.fliplr(np.eye(4))
        state.apply_two_site_gate(1, pair)
        state.apply_single_site_gate(0, np.diag([np.exp(1j * phi / 2), np.exp(-1j * phi / 2)]))
        assert state.parity_expectation() == pytest.approx(before, abs=1e-10)


class TestSerialization:
    def test_round_trip(self):
        state = random_circuit(4, seed=41)
        state.degenerate = True
        text = state.to_json()
        loaded = TensorChain.from_json(text)
        assert loaded.degenerate is True
        np.testing.assert_allclose(dense_vector(loaded), dense_vector(state), atol=1e-12)
        for a, b in zip(loaded.lambdas, state.lambdas):
            np.testing.assert_allclose(a, b, atol=1e-15)

    def test_payload_shape_and_determinism(self):
        state = random_circuit(3, seed=43)
        text = state.to_json()
        assert text == state.to_json()
        payload = json.loads(text)
        assert payload["n_sites"] == 3
        assert len(payload["gammas"]) == 3
        assert len(payload["lambdas"]) == 2


class TestBondHamiltonian:
    def test_frozen_entries(self):
        h = bond_hamiltonian(1.0, 1.0 + 0.0j, 2.0, 2.0)
        expected = np.array(
            [
                [2.0, 0.0, 0.0, -1.0],
                [0.0, 0.0, -1.0, 0.0],
                [0.0, -1.0, 0.0, 0.0],
                [-1.0, 0.0, 0.0, -2.0],
            ],
            dtype=complex,
        )
        np.testing.assert_allclose(h, expected, atol=1e-15)

    def test_hermitian_for_complex_pairing(self):
        h = bond_hamiltonian(0.7, 0.3 + 0.4j, 0.1, -0.2)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-15)


class TestEnergyExpectation:
    def test_diagonal_hamiltonian_on_vacuum(self):
        state = TensorChain.product_state([0, 0, 0, 0])
        params = KitaevParams(4, 0.0, 2.0, 0.0)
        assert energy_expectation(state, params) == pytest.approx(4.0, abs=1e-12)

    def test_open_ground_state_energy(self):
        params = KitaevParams(8, 1.0, 0.5, 1.0)
        state, schur, _ = prepare_eigenstate(params)
        expected = -0.5 * float(np.sum(schur.epsilons))
        assert energy_expectation(state, params) == pytest.approx(expected, abs=1e-8)

    def test_periodic_shortcut_matches_spectrum_sum(self):
        for mu in (0.5, 1.5, 3.0):
            params = KitaevParams(10, 1.0, mu, 1.0, boundary="periodic")
            state, schur, _ = prepare_eigenstate(params)
            expected = -0.5 * float(np.sum(schur.epsilons))
            assert energy_expectation(state, params) == pytest.approx(expected, abs=1e-8)

    def test_periodic_refuses_degenerate_state(self):
        params = KitaevParams(4, 1.0, 0.5, 1.0, boundary="periodic")
        state = TensorChain.product_state([0, 0, 0, 0])
        state.degenerate = True
        with pytest.raises(ValueError, match="degenerate"):
            energy_expectation(state, params)

    def test_site_count_mismatch(self):
        state = TensorChain.product_state([0, 0, 0])
        with pytest.raises(ValueError):
            energy_expectation(state, KitaevParams(4, 1.0, 0.0, 1.0))
