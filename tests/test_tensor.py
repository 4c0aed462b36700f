"""Tests for the canonical tensor-chain state container.

Frozen worked examples pin the gate/SVD conventions; the dense oracle
(brute-force Fock vectors and partial traces) provides the independent route
for reduced density matrices, and hypothesis drives random circuits through
the canonical-form invariants.  Every gate is real and parity conserving: a
chain holds real parity eigenstates only and rejects any other gate or state.
"""

import base64
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kitaev_chain import (
    BondOverflowError,
    KitaevParams,
    TensorChain,
    TruncationError,
    bond_hamiltonian,
    eigenenergy,
    energy_expectation,
    prepare_eigenstate,
    schur_decompose,
    build_coupling_matrix,
)
from kitaev_chain import oracle, z_value
from kitaev_chain.tensor import (
    FOCK_SITE_LIMIT,
    MAX_BOND_DIMENSION,
    _checked_blocks,
    _even_counts,
    apply_two_site_gates,
)
from parity_gates import random_pair_gate, random_site_sign

#: A quarter turn within {|00>, |11>} and within {|01>, |10>}; conserves parity.
TURN_PAIR = np.fliplr(np.diag([-1.0, -1.0, 1.0, 1.0]))

RNG_GATE = np.sqrt(0.5) * (
    np.eye(4) + TURN_PAIR
)  # (|00> + |11>)/sqrt(2) when applied to |00>; couples equal-parity pairs

SWAP01 = np.array([[0.0, 1.0], [1.0, 0.0]])

#: X on both sites: |00> <-> |11> and |01> <-> |10>; conserves parity.
FLIP_PAIR = np.fliplr(np.eye(4))

#: The identity with one NaN entry: its orthogonality residual is NaN.
NAN_GATE = np.eye(4)
NAN_GATE[0, 0] = np.nan


def pair_gate(seed: int) -> np.ndarray:
    return random_pair_gate(np.random.default_rng(seed))


def random_circuit(n_sites: int, seed: int, depth: int = 3) -> TensorChain:
    """Product state pushed through a few layers of random nearest-neighbor gates."""
    state = TensorChain.product_state([0] * n_sites)
    rng = np.random.default_rng(seed)
    for layer in range(depth):
        for left in range(n_sites - 1):
            state.apply_two_site_gate(left, random_pair_gate(rng))
        state.apply_single_site_gate(int(rng.integers(n_sites)), random_site_sign(rng))
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


def dense_block(state: TensorChain, sites: tuple[int, ...]) -> np.ndarray:
    """Partial trace of the Fock amplitudes onto ``sites``, the first one most significant."""
    amps = np.moveaxis(state.fock_coefficients(), sites, range(len(sites)))
    kept = amps.reshape(2 ** len(sites), -1)
    return kept @ kept.conj().T


#: Brickwork circuits (n_sites, layers, seed) whose bonds grow beyond 2.
BRICKWORK = [(6, 5, 11), (8, 6, 12), (10, 7, 13)]


def scaled_chain(state: TensorChain, site: int, factor: float) -> TensorChain:
    """``state`` with one site tensor multiplied by ``factor`` (norm scaled by it)."""
    gammas = [g * factor if k == site else g for k, g in enumerate(state.gammas)]
    return TensorChain(gammas, state.lambdas)


def one_block(rho) -> np.ndarray:
    """``rho`` checked as a stack of one block."""
    return _checked_blocks(np.asarray(rho)[None])


class TestCheckedBlocks:
    def test_accepts_valid_two_by_two(self):
        block = one_block(np.diag([0.25, 0.75]))
        assert block.shape == (1, 2, 2)
        assert block.flags.writeable is False

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            one_block(np.eye(3) / 3.0)

    def test_rejects_non_hermitian(self):
        rho = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(ValueError, match="Hermiticity"):
            one_block(rho)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            one_block(np.diag([0.7, 0.7]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            one_block(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_entries(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            one_block(np.full((2, 2), value))
        rho = np.diag([0.25, 0.25, 0.25, 0.25])
        rho[0, 3] = rho[3, 0] = value
        with pytest.raises(ValueError, match="non-finite"):
            one_block(rho)

    def test_entries_are_real_and_complex_input_is_rejected(self):
        assert one_block(np.diag([0.25, 0.75])).dtype == np.float64
        with pytest.raises(ValueError, match="must be real"):
            one_block(np.diag([0.25, 0.75]).astype(np.complex128))


class TestConstruction:
    def test_product_state_layout(self):
        state = TensorChain.product_state([0, 1, 0])
        assert state.n_sites == 3
        assert state.bond_dimensions == (1, 1)
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(state.rdm_site(1), np.diag([0.0, 1.0]), atol=1e-12)

    def test_product_state_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            TensorChain.product_state([0, 2])
        with pytest.raises(ValueError):
            TensorChain.product_state([])

    @pytest.mark.parametrize(
        "bits,expected",
        [([True, True], (1, 1)), ([True, False], (1, 0)), ([1.0, 0.0], (1, 0))],
        ids=["bools-11", "bools-10", "floats-10"],
    )
    def test_product_state_reads_bools_and_floats_as_bits(self, bits, expected):
        state = TensorChain.product_state(bits)
        np.testing.assert_array_equal(state.rdm_sites()[:, 1, 1], expected)
        assert state.parity_expectation() == (-1) ** sum(expected)

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
        np.testing.assert_allclose(state.rdm_site(0), np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(clone.rdm_site(0), np.diag([0.0, 1.0]), atol=1e-12)
        assert state.even_counts == [1, 1, 1] and clone.even_counts == [0, 1, 1]


class TestSingleSiteGate:
    def test_identity_leaves_state(self):
        state = random_circuit(4, seed=7)
        before = dense_vector(state)
        state.apply_single_site_gate(2, np.eye(2))
        np.testing.assert_allclose(dense_vector(state), before, atol=1e-12)

    def test_diagonal_gate_is_global_phase_on_filled_site(self):
        state = TensorChain.product_state([1])
        state.apply_single_site_gate(0, np.diag([1.0, -1.0]))
        amps = dense_vector(state)
        assert amps[1] == -1.0
        np.testing.assert_allclose(
            state.rdm_site(0), np.diag([0.0, 1.0]), atol=1e-12
        )

    def test_rejects_non_diagonal_gate(self):
        state = random_circuit(4, seed=19)
        before = dense_vector(state)
        tilt = np.array([[np.cos(1e-3), -np.sin(1e-3)], [np.sin(1e-3), np.cos(1e-3)]])
        for u in (SWAP01, tilt):
            with pytest.raises(ValueError, match="mixes parity"):
                state.apply_single_site_gate(1, u)
        np.testing.assert_array_equal(dense_vector(state), before)

    @pytest.mark.parametrize(
        "u, text",
        [
            (np.array([[1.0, 0.0], [0.0, 2.0]]), "gate is not orthogonal (residual 3.000e+00)"),
            (np.eye(3), "gate must be 2x2, got (3, 3)"),
            (np.diag([np.nan, 1.0]), "gate is not orthogonal (residual nan)"),
        ],
        ids=["not-orthogonal", "wrong-shape", "non-finite"],
    )
    def test_rejects_non_unitary(self, u, text):
        state = TensorChain.product_state([0, 0])
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            state.apply_single_site_gate(0, u)

    def test_rejects_bad_site(self):
        state = TensorChain.product_state([0, 0])
        with pytest.raises(ValueError):
            state.apply_single_site_gate(2, np.eye(2))

    def test_touches_only_one_tensor(self):
        state = random_circuit(4, seed=3)
        frozen = [g.copy() for g in state.gammas]
        lambdas = [l.copy() for l in state.lambdas]
        state.apply_single_site_gate(1, random_site_sign(np.random.default_rng(11)))
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
        assert amps[1, 1, 0, 0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
        assert np.abs(amps).sum() == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_gate_then_inverse_restores(self):
        state = random_circuit(5, seed=9)
        before = dense_vector(state)
        u = pair_gate(21)
        state.apply_two_site_gate(2, u)
        state.apply_two_site_gate(2, u.T)
        np.testing.assert_allclose(dense_vector(state), before, atol=1e-10)
        assert state.norm() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "u, text",
        [
            (np.diag([1.0, 1.0, 1.0, 0.5]), "gate is not orthogonal (residual 7.500e-01)"),
            (np.eye(3), "gate must be 4x4, got (3, 3)"),
            (NAN_GATE, "gate is not orthogonal (residual nan)"),
        ],
        ids=["not-orthogonal", "wrong-shape", "non-finite"],
    )
    def test_rejects_non_unitary(self, u, text):
        state = TensorChain.product_state([0, 0])
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            state.apply_two_site_gate(0, u)

    def test_rejects_bad_bond(self):
        state = TensorChain.product_state([0, 0])
        with pytest.raises(ValueError):
            state.apply_two_site_gate(1, np.eye(4))

    def test_truncation_error_when_nothing_survives(self):
        # The layout check accepts this state, but it is not canonical: its
        # two-site block B_0 B_1 vanishes, so no singular value is left.
        left = np.zeros((2, 1, 2))
        left[0] = [[1.0, 1.0]]
        right = np.zeros((2, 2, 1))
        right[0] = [[1.0], [-1.0]]
        state = TensorChain([left, right], [np.array([0.6, 0.8])])
        with pytest.raises(TruncationError, match="threshold 1e-12 on bond 0"):
            state.apply_two_site_gate(0, np.eye(4))

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

    @pytest.mark.parametrize("n_sites", [16, 32, 40])
    @pytest.mark.parametrize("mu", [1.0, 3.0, 2.0], ids=["topo", "trivial", "critical"])
    def test_ladder_entries_are_bounded_by_one(self, mu, n_sites):
        # each stored B is an isometry from its left bond, so no entry exceeds 1
        state, _, _ = prepare_eigenstate(KitaevParams(n_sites, 1.0, mu, 1.0))
        assert max(np.abs(b).max() for b in state.gammas) <= 1.0 + 1e-12

    def test_canonical_residuals_report_a_scaled_site_tensor(self):
        state = brickwork(8, layers=6, seed=12, max_bond=MAX_BOND_DIMENSION)
        assert max(state.canonical_residuals().values()) < 1e-10
        damaged = scaled_chain(state, 3, 1.1).canonical_residuals()
        assert damaged["left"] == pytest.approx(1.1**2 - 1.0, abs=1e-10)
        assert damaged["right"] == pytest.approx(1.1**2 - 1.0, abs=1e-10)
        assert damaged["bond"] < 1e-10


def single_outcome(state: TensorChain, left_site: int, u: np.ndarray, **kwargs):
    """``state`` after ``apply_two_site_gate`` on a copy, or the text of what it raised."""
    state = state.copy()
    try:
        state.apply_two_site_gate(left_site, u, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return state


def assert_same_state(a: TensorChain, b: TensorChain) -> None:
    assert a.to_json() == b.to_json()
    assert a.even_counts == b.even_counts


class TestStackedGates:
    """``apply_two_site_gates`` buckets states by local layout and updates each
    bucket with one kernel call; every state must come out as the single-state
    method leaves it, bit for bit, and a failing state alone must fail."""

    @staticmethod
    def states() -> list[TensorChain]:
        """Chains of 4 to 10 sites, several sharing one layout at bond 1."""
        return [
            random_circuit(6, seed=31),
            random_circuit(6, seed=32),
            brickwork(8, layers=6, seed=33, max_bond=MAX_BOND_DIMENSION),
            TensorChain.product_state([0, 1, 1, 0]),
            TensorChain.product_state([1, 0, 0, 0]),
            brickwork(10, layers=7, seed=34, max_bond=MAX_BOND_DIMENSION),
            random_circuit(6, seed=31),  # a duplicate of the first
        ]

    def check_against_single(self, states, left_site, gates, **kwargs) -> list:
        expected = [single_outcome(s, left_site, u, **kwargs) for s, u in zip(states, gates)]
        errors = apply_two_site_gates(states, left_site, gates, **kwargs)
        for state, error, outcome in zip(states, errors, expected):
            if isinstance(outcome, TensorChain):
                assert error is None
                assert_same_state(state, outcome)
            else:
                assert (type(error), str(error)) == outcome
        return errors

    @pytest.mark.parametrize("left_site", [0, 1, 2])
    def test_each_state_is_updated_as_alone(self, left_site, monkeypatch):
        rng = np.random.default_rng(left_site)
        states = self.states()
        gates = np.stack([random_pair_gate(rng) for _ in states])
        expected = [single_outcome(s, left_site, u) for s, u in zip(states, gates)]
        shapes, _ = recorded_svd_shapes(monkeypatch)
        assert apply_two_site_gates(states, left_site, gates) == [None] * len(states)
        for state, outcome in zip(states, expected):
            assert_same_state(state, outcome)
        # one SVD call per bucket, on the parity blocks of all its states
        assert sum(shape[0] for shape in shapes) == 2 * len(states)
        assert len(shapes) < len(states)

    def test_overflowing_states_fail_alone(self):
        states = self.states()
        before = [s.copy() for s in states]
        gates = np.stack([RNG_GATE] * len(states))
        errors = self.check_against_single(states, 2, gates, max_bond=4)
        failed = [k for k, error in enumerate(errors) if error is not None]
        assert failed and len(failed) < len(states)
        for k in failed:
            assert isinstance(errors[k], BondOverflowError)
            assert_same_state(states[k], before[k])

    def test_a_bond_beyond_a_short_chain_fails_that_chain_alone(self):
        states = self.states()
        gates = np.stack([pair_gate(k) for k in range(len(states))])
        errors = self.check_against_single(states, 4, gates)
        assert [type(error) for error in errors] == [
            type(None), type(None), type(None), ValueError, ValueError, type(None), type(None)
        ]

    def test_one_rejected_gate_in_the_stack(self):
        states = self.states()
        gates = np.stack([pair_gate(k) for k in range(len(states))])
        gates[1] = np.diag([1.0, 1.0, 1.0, 0.5])
        mixing = pair_gate(7)
        mixing[:, [1, 3]] = mixing[:, [3, 1]]  # still orthogonal; |01> -> even states
        gates[4] = mixing
        errors = self.check_against_single(states, 1, gates)
        assert [k for k, error in enumerate(errors) if error is not None] == [1, 4]
        assert str(errors[1]) == "gate is not orthogonal (residual 7.500e-01)"
        assert str(errors[4]) == "gate mixes parity: it couples even and odd states"

    def test_a_non_finite_gate_fails_alone(self):
        states = self.states()
        before = [s.copy() for s in states]
        gates = np.stack([pair_gate(k) for k in range(len(states))])
        gates[2] = NAN_GATE
        errors = self.check_against_single(states, 1, gates)
        assert [k for k, error in enumerate(errors) if error is not None] == [2]
        assert str(errors[2]) == "gate is not orthogonal (residual nan)"
        assert_same_state(states[2], before[2])

    def test_rejects_a_stack_of_the_wrong_shape_or_dtype(self):
        states = self.states()[:2]
        with pytest.raises(ValueError, match="expected 2 gates of 4x4"):
            apply_two_site_gates(states, 0, np.stack([np.eye(4)] * 3))
        with pytest.raises(ValueError, match="gate must be real"):
            apply_two_site_gates(states, 0, np.stack([np.eye(4, dtype=complex)] * 2))


def left_vector_parities(state: TensorChain, bond: int) -> np.ndarray:
    """+1/-1 per left Schmidt vector on ``bond``, read off its Fock amplitudes.

    Fails if a vector has weight in both parity sectors.
    """
    vecs = state.gammas[0][:, 0, :]  # each left vector times its Schmidt value
    for b in state.gammas[1 : bond + 1]:
        vecs = np.einsum("xa,kab->xkb", vecs, b).reshape(-1, b.shape[2])
    signs = np.array([(-1) ** bin(x).count("1") for x in range(vecs.shape[0])])
    even = np.linalg.norm(vecs[signs > 0], axis=0)
    odd = np.linalg.norm(vecs[signs < 0], axis=0)
    assert (np.minimum(even, odd) < 1e-12 * np.maximum(even, odd)).all()
    return np.where(even > odd, 1, -1)


def recorded_svd_shapes(monkeypatch) -> tuple[list, list]:
    """Record each gate SVD operand's shape and each two-site gate's (chi_L, chi_R)."""
    shapes, blocks = [], []
    svd = np.linalg.svd
    gate = TensorChain.apply_two_site_gate

    def recording_svd(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    def recording_gate(self, left_site, u, **kwargs):
        blocks.append((self.gammas[left_site].shape[1], self.gammas[left_site + 1].shape[2]))
        return gate(self, left_site, u, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(TensorChain, "apply_two_site_gate", recording_gate)
    return shapes, blocks


class TestParityLayout:
    GAPPED = KitaevParams(8, 1.0, 1.0, 1.0)

    def test_product_state_counts(self):
        assert TensorChain.product_state([0, 1, 1, 0]).even_counts == [1, 0, 1, 1]
        assert TensorChain.product_state([1]).even_counts == [0]

    def test_product_state_writes_the_layout_the_constructor_infers(self):
        for n_sites in range(1, 7):
            for code in range(2**n_sites):
                bits = [(code >> k) & 1 for k in range(n_sites)]
                state = TensorChain.product_state(bits)
                assert state.even_counts == _even_counts(state.gammas)

    def test_constructor_rejects_states_outside_layout(self):
        state = TensorChain.product_state([0, 0])
        state.apply_two_site_gate(0, RNG_GATE)
        assert state.even_counts == [1, 1]
        with pytest.raises(ValueError, match="odd vector before an even one"):
            TensorChain([state.gammas[0][:, :, ::-1], state.gammas[1][:, ::-1, :]], state.lambdas)
        plus = np.full((2, 1, 1), np.sqrt(0.5))  # (|0> + |1>)/sqrt(2)
        with pytest.raises(ValueError, match="no definite parity"):
            TensorChain([plus, state.gammas[1][:, :1, :]], [np.ones(1)])
        with pytest.raises(ValueError, match="no definite parity"):
            TensorChain([state.gammas[0][:, :, :1], plus], [np.ones(1)])

    def test_from_json_rejects_states_outside_layout(self):
        state = TensorChain.product_state([0, 0, 0])
        state.apply_two_site_gate(0, RNG_GATE)
        payload = json.loads(state.to_json())
        # list bond 0's odd Schmidt vector first, as a dense update could
        payload["tensors"][0] = encoded(state.gammas[0][:, :, ::-1])
        payload["tensors"][1] = encoded(state.gammas[1][:, ::-1, :])
        payload["lambdas"][0] = encoded(state.lambdas[0][::-1])
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
        """Each gate makes one SVD call, on the stack of its two parity blocks,
        each chi_L x chi_R."""
        shapes, blocks = recorded_svd_shapes(monkeypatch)
        prepare_eigenstate(KitaevParams(12, 1.0, mu, 1.0))
        assert blocks
        assert shapes == [(2, *block) for block in blocks]

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
        state.apply_single_site_gate(3, np.diag([-1.0, 1.0]))
        assert state.even_counts == counts
        with pytest.raises(ValueError, match="mixes parity"):
            state.apply_single_site_gate(3, SWAP01)
        assert state.even_counts == counts


class TestReducedDensityMatrices:
    def test_site_vacuum(self):
        state = TensorChain.product_state([0, 0, 0])
        np.testing.assert_allclose(state.rdm_site(0), np.diag([1.0, 0.0]), atol=1e-12)

    def test_site_worked_example_is_maximally_mixed(self):
        state = TensorChain.product_state([0, 0, 0])
        state.apply_two_site_gate(0, RNG_GATE)
        np.testing.assert_allclose(
            state.rdm_site(0), np.diag([0.5, 0.5]), atol=1e-12
        )

    def test_pair_vacuum(self):
        state = TensorChain.product_state([0, 0, 0])
        rho = state.rdm_pair(0)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho, expected, atol=1e-12)

    def test_pair_worked_example(self):
        state = TensorChain.product_state([0, 0, 0])
        state.apply_two_site_gate(0, RNG_GATE)
        vec = np.zeros(4)
        vec[0b00] = vec[0b11] = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(state.rdm_pair(0), np.outer(vec, vec), atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_pair_partial_traces_match_sites(self, seed):
        state = random_circuit(4, seed=seed)
        for left in range(3):
            rho = state.rdm_pair(left).reshape(2, 2, 2, 2)
            np.testing.assert_allclose(
                np.einsum("jklk->jl", rho), state.rdm_site(left), atol=1e-10
            )
            np.testing.assert_allclose(
                np.einsum("kjkl->jl", rho), state.rdm_site(left + 1), atol=1e-10
            )

    @pytest.mark.parametrize("n_sites,layers,seed", BRICKWORK)
    def test_site_and_pair_match_dense_partial_traces(self, n_sites, layers, seed):
        state = brickwork(n_sites, layers, seed, max_bond=MAX_BOND_DIMENSION)
        state.apply_single_site_gate(1, random_site_sign(np.random.default_rng(seed)))
        assert max(state.bond_dimensions) > 2
        for site in range(n_sites):
            np.testing.assert_allclose(
                state.rdm_site(site), dense_block(state, (site,)), atol=1e-12
            )
        for left in range(n_sites - 1):
            np.testing.assert_allclose(
                state.rdm_pair(left), dense_block(state, (left, left + 1)), atol=1e-12
            )

    @pytest.mark.parametrize("n_sites,layers,seed", BRICKWORK)
    def test_batched_reads_equal_single_reads_bit_for_bit(self, n_sites, layers, seed):
        state = brickwork(n_sites, layers, seed, max_bond=MAX_BOND_DIMENSION)
        sites, pairs = state.rdm_sites(), state.rdm_pairs()
        assert sites.shape == (n_sites, 2, 2) and pairs.shape == (n_sites - 1, 4, 4)
        reads = (sites, pairs, state.rdm_site(0), state.rdm_pair(0), state.rdm_ends())
        assert all(rho.dtype == np.float64 and rho.flags.writeable is False for rho in reads)
        for site in range(n_sites):
            np.testing.assert_array_equal(sites[site], state.rdm_site(site))
        for left in range(n_sites - 1):
            np.testing.assert_array_equal(pairs[left], state.rdm_pair(left))
        assert TensorChain.product_state([1]).rdm_pairs().shape == (0, 4, 4)

    def test_batched_reads_name_a_corrupted_block(self):
        # B of site 3 scaled by 1.1: every block that reads it has trace 1.21
        state = scaled_chain(random_circuit(5, seed=47), 3, 1.1)
        with pytest.raises(ValueError, match="block of site 3: .*trace deviation 2.100e-01"):
            state.rdm_sites()
        with pytest.raises(ValueError, match="block of bond 2: .*trace deviation 2.100e-01"):
            state.rdm_pairs()
        broken = random_circuit(5, seed=47)
        broken.gammas[4] = np.full_like(broken.gammas[4], np.nan)
        with pytest.raises(ValueError, match="density block of bond 3 has a non-finite entry"):
            broken.rdm_pairs()
        with pytest.raises(ValueError, match="density block of site 4 has a non-finite entry"):
            broken.rdm_sites()
        # a one-block read is an entry of the checked stack: it names the broken block
        with pytest.raises(ValueError, match="block of site 3: .*trace deviation 2.100e-01"):
            state.rdm_site(0)
        with pytest.raises(ValueError, match="block of bond 2: .*trace deviation 2.100e-01"):
            state.rdm_pair(0)

    def test_ends_vacuum(self):
        state = TensorChain.product_state([0, 0, 0, 0])
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(state.rdm_ends(), expected, atol=1e-12)

    def test_ends_requires_three_sites(self):
        state = TensorChain.product_state([0, 0])
        with pytest.raises(ValueError):
            state.rdm_ends()

    def test_ends_read_bonds_above_default_cap(self):
        n_sites = 18
        state = brickwork(n_sites, layers=9, seed=5, max_bond=2 * MAX_BOND_DIMENSION)
        assert max(state.bond_dimensions) > MAX_BOND_DIMENSION
        rho = state.rdm_ends().reshape(2, 2, 2, 2)
        np.testing.assert_allclose(
            np.einsum("jklk->jl", rho), state.rdm_site(0), atol=1e-10
        )
        np.testing.assert_allclose(
            np.einsum("kjkl->jl", rho), state.rdm_site(n_sites - 1), atol=1e-10
        )
        assert 0.0 <= z_value(state, "even") <= 2.0

    @settings(max_examples=20, deadline=None)
    @given(
        n_sites=st.integers(min_value=3, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_ends_matches_dense_partial_trace(self, n_sites, seed):
        state = random_circuit(n_sites, seed=seed)
        rho = state.rdm_ends()
        expected = oracle.partial_trace_ends(dense_vector(state), n_sites)
        np.testing.assert_allclose(rho, expected, atol=1e-10)

    def test_ends_match_a_tensordot_sweep(self):
        # the tensordot sweep the batched products replaced, as the reference
        # beyond the dense oracle's reach (critical N = 32, chi up to 65)
        state, _, _ = prepare_eigenstate(KitaevParams(32, 1.0, 2.0, 1.0))
        first = state.gammas[0][:, 0, :]
        acc = np.einsum("ka,lb->klab", first, first)
        for b in state.gammas[1:-1]:
            half = np.tensordot(b, acc, axes=([1], [2]))  # (m, c, k, l, b)
            acc = np.tensordot(half, b, axes=([0, 4], [0, 1])).transpose(1, 2, 0, 3)
        last = state.gammas[-1][:, :, 0]
        expected = np.einsum("klab,ma,nb->kmln", acc, last, last).reshape(4, 4)
        np.testing.assert_allclose(state.rdm_ends(), expected, atol=1e-14, rtol=0)

    def test_ends_three_sites_equals_traced_middle(self):
        state = random_circuit(3, seed=31)
        vec = dense_vector(state).reshape(2, 2, 2)
        rho_full = np.einsum("jmk,lmn->jkln", vec, vec.conj()).reshape(4, 4)
        np.testing.assert_allclose(state.rdm_ends(), rho_full, atol=1e-10)


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

    @pytest.mark.parametrize("bits,sector", [([0], "even"), ([1], "odd"), ([0, 1, 1], "even"),
                                             ([1, 0, 0, 0], "odd")])
    def test_parity_property_reads_the_layout(self, bits, sector):
        state = TensorChain.product_state(bits)
        assert state.parity == sector
        rng = np.random.default_rng(len(bits))
        for left in range(len(bits) - 1):
            state.apply_two_site_gate(left, random_pair_gate(rng))
        assert state.parity == sector
        assert TensorChain.from_json(state.to_json()).parity == sector
        assert state.parity_expectation() == pytest.approx(
            1.0 if sector == "even" else -1.0, abs=1e-12
        )

    @settings(max_examples=15, deadline=None)
    @given(
        theta=st.floats(min_value=-3.0, max_value=3.0),
        signs=st.tuples(st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0])),
    )
    def test_parity_preserving_gates_keep_parity(self, theta, signs):
        state = TensorChain.product_state([1, 0, 0])
        before = state.parity_expectation()
        pair = np.cos(theta / 2) * np.eye(4) + np.sin(theta / 2) * TURN_PAIR
        state.apply_two_site_gate(1, pair)
        state.apply_single_site_gate(0, np.diag(signs))
        assert state.parity_expectation() == pytest.approx(before, abs=1e-10)


class TestUnnormalisedChain:
    @pytest.mark.parametrize("n_sites,layers,seed", BRICKWORK)
    def test_norm_and_parity_read_the_scale(self, n_sites, layers, seed):
        state = brickwork(n_sites, layers, seed, max_bond=MAX_BOND_DIMENSION)
        scaled = scaled_chain(state, n_sites // 2, 1.1)
        amps = dense_vector(scaled)
        signs = np.array([(-1) ** bin(x).count("1") for x in range(amps.size)])
        assert scaled.norm() == pytest.approx(np.linalg.norm(amps), abs=1e-12)
        assert scaled.norm() == pytest.approx(1.1, abs=1e-12)
        parity = float(np.sum(signs * np.abs(amps) ** 2))
        assert scaled.parity_expectation() == pytest.approx(parity, abs=1e-12)
        assert abs(scaled.parity_expectation()) == pytest.approx(1.1**2, abs=1e-12)


def encoded(values) -> str:
    """Base64 of the little-endian float64 bytes of ``values``, as ``to_json`` writes an array."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def payload_with(site0=None, **fields) -> str:
    """JSON of the product state |01> with site tensor 0 (encoded) or whole fields replaced."""
    payload = json.loads(TensorChain.product_state([0, 1]).to_json())
    if site0 is not None:
        payload["tensors"][0] = encoded(site0)
    payload.update(fields)
    return json.dumps(payload)


#: The nested-list payload of |01> written before the binary format.
NESTED_LIST_PAYLOAD = json.dumps(
    {
        "n_sites": 2,
        "tensors": [[[[1.0]], [[0.0]]], [[[0.0]], [[1.0]]]],
        "lambdas": [[1.0]],
        "degenerate": False,
    }
)

#: Observables points (mu, w) at |D| = 1, N = 32: topological, trivial, critical.
OBSERVABLES_POINTS = [(1.0, 1.0), (3.0, 1.0), (2.0, 1.0)]


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

    @pytest.mark.parametrize("mu,w", OBSERVABLES_POINTS, ids=["topo", "trivial", "critical"])
    def test_round_trip_is_bit_exact(self, mu, w):
        state, _, _ = prepare_eigenstate(KitaevParams(32, w, mu, 1.0))
        loaded = TensorChain.from_json(state.to_json())
        assert loaded.degenerate == state.degenerate
        assert loaded.even_counts == state.even_counts
        assert len(loaded.gammas) == len(state.gammas)
        assert all(np.array_equal(a, b) for a, b in zip(loaded.gammas, state.gammas))
        assert all(np.array_equal(a, b) for a, b in zip(loaded.lambdas, state.lambdas))

    @pytest.mark.parametrize(
        "text",
        [
            "{}",
            "[]",
            '"chain"',
            "null",
            "not json",
            '{"lambdas": []}',
            '{"tensors": []}',
            TensorChain.product_state([0, 1]).to_json().replace('"tensors"', '"gammas"'),
            NESTED_LIST_PAYLOAD,
            payload_with(tensors=5),
            payload_with(lambdas=encoded([1.0])),
            payload_with(site0=[1.0, 0.0, 0.0]),
            payload_with(site0=[1.0]),
            payload_with(tensors=[base64.b64encode(bytes(15)).decode(), encoded([0.0, 1.0])]),
            payload_with(lambdas=[base64.b64encode(bytes(12)).decode()]),
            payload_with(tensors=["not base64!", encoded([0.0, 1.0])]),
            payload_with(lambdas=["AAAAAAAA8D"]),
            payload_with(tensors=[{}, encoded([0.0, 1.0])]),
            payload_with(lambdas=[1.0]),
            payload_with(site0=[float("nan"), 0.0]),
            payload_with(lambdas=[encoded([float("nan")])]),
            payload_with(lambdas=[encoded([])]),
            payload_with(n_sites=0, tensors=[], lambdas=[]),
            payload_with(tensors=[], lambdas=[]),
            payload_with(lambdas=[]),
            payload_with(lambdas=[encoded([1.0]), encoded([1.0])]),
            payload_with(n_sites=7),
            payload_with(n_sites=2.0),
            payload_with(n_sites=None),
            payload_with(degenerate="no"),
            payload_with(degenerate=1),
            json.dumps(
                {k: v for k, v in json.loads(payload_with()).items() if k != "degenerate"}
            ),
        ],
        ids=[
            "empty-object",
            "list",
            "string",
            "null",
            "not-json",
            "no-tensors",
            "no-lambdas",
            "gamma-format",
            "nested-list-format",
            "tensors-not-a-list",
            "lambdas-not-a-list",
            "byte-count-above-shape",
            "byte-count-below-shape",
            "partial-float-tensor",
            "partial-float-lambda",
            "bad-base64-tensor",
            "bad-base64-lambda",
            "tensor-an-object",
            "lambda-a-number",
            "nan-entry",
            "nan-lambda",
            "empty-lambda",
            "no-sites",
            "no-tensors-for-the-sites",
            "tensors-exceed-bonds",
            "bonds-exceed-tensors",
            "n-sites-mismatch",
            "n-sites-a-float",
            "n-sites-null",
            "degenerate-a-string",
            "degenerate-a-number",
            "no-degenerate",
        ],
    )
    def test_from_json_rejects_malformed_payloads(self, text):
        with pytest.raises(ValueError):
            TensorChain.from_json(text)

    def test_errors_name_the_fault(self):
        with pytest.raises(ValueError, match="site tensor 0 is not base64 .*Only base64 data"):
            TensorChain.from_json(payload_with(tensors=["not base64!", encoded([0.0, 1.0])]))
        with pytest.raises(ValueError, match=r"site tensor 0 .* shape \(2, 1, 1\): .*size 3"):
            TensorChain.from_json(payload_with(site0=[1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="bond vector 0 .*multiple of element size"):
            TensorChain.from_json(payload_with(lambdas=[base64.b64encode(bytes(12)).decode()]))
        with pytest.raises(ValueError, match="2 tensors do not fit 0 bonds"):
            TensorChain.from_json(payload_with(lambdas=[]))
        with pytest.raises(ValueError, match="n_sites is 7 but there are 2 tensors"):
            TensorChain.from_json(payload_with(n_sites=7))
        with pytest.raises(ValueError, match="degenerate must be true or false, got 'no'"):
            TensorChain.from_json(payload_with(degenerate="no"))
        with pytest.raises(ValueError, match="bond vector 0 must be base64 text, got list"):
            TensorChain.from_json(NESTED_LIST_PAYLOAD)

    def test_payload_shape_and_determinism(self):
        state = random_circuit(3, seed=43)
        text = state.to_json()
        assert text == state.to_json()
        payload = json.loads(text)
        assert sorted(payload) == ["degenerate", "lambdas", "n_sites", "tensors"]
        assert payload["n_sites"] == 3
        assert payload["degenerate"] is False
        assert len(payload["tensors"]) == 3
        assert len(payload["lambdas"]) == 2
        pairs = [*zip(state.gammas, payload["tensors"]), *zip(state.lambdas, payload["lambdas"])]
        for array, raw in pairs:
            data = base64.b64decode(raw, validate=True)
            assert len(data) == 8 * array.size
            np.testing.assert_array_equal(
                np.frombuffer(data, dtype="<f8").reshape(array.shape), array
            )

    def test_rejects_the_nested_list_format(self):
        state = random_circuit(3, seed=43)
        payload = json.loads(state.to_json())
        payload["tensors"] = [b.tolist() for b in state.gammas]
        payload["lambdas"] = [lam.tolist() for lam in state.lambdas]
        with pytest.raises(ValueError, match="base64"):
            TensorChain.from_json(json.dumps(payload))


class TestRealTensors:
    """Eigenstates are built from real gates and keep real tensors; nothing else is accepted."""

    PARAMS = KitaevParams(12, 1.0, 1.7, 0.8)

    def test_eigenstates_are_real(self):
        state, _, _ = prepare_eigenstate(self.PARAMS, [0, 1] + [0] * 10)
        assert all(g.dtype == np.float64 for g in state.gammas)
        assert TensorChain.product_state([0, 1]).gammas[0].dtype == np.float64

    def test_json_round_trip_keeps_the_arrays(self):
        state, _, _ = prepare_eigenstate(self.PARAMS)
        loaded = TensorChain.from_json(state.to_json())
        assert all(g.dtype == np.float64 for g in loaded.gammas)
        for a, b in zip(loaded.gammas, state.gammas):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(loaded.lambdas, state.lambdas):
            np.testing.assert_array_equal(a, b)

    def test_rejects_imaginary_gamma_or_lambda(self):
        state = TensorChain.product_state([1, 0, 0])
        gammas = list(state.gammas)
        gammas[1] = gammas[1].astype(np.complex128)
        with pytest.raises(ValueError, match="site tensor 1 must be real"):
            TensorChain(gammas, state.lambdas)
        lambdas = [lam.astype(np.complex128) for lam in state.lambdas]
        with pytest.raises(ValueError, match="bond vector 0 must be real"):
            TensorChain(state.gammas, lambdas)

    def test_rejects_imaginary_gates(self):
        state = TensorChain.product_state([1, 0, 0])
        before = [g.copy() for g in state.gammas]
        with pytest.raises(ValueError, match="real"):
            state.apply_single_site_gate(0, np.diag([1.0, 1j]))
        with pytest.raises(ValueError, match="real"):
            state.apply_two_site_gate(1, RNG_GATE.astype(np.complex128))
        for a, b in zip(state.gammas, before):
            assert a.dtype == np.float64
            np.testing.assert_array_equal(a, b)

    def test_copy_is_independent_and_keeps_the_dtype(self):
        state, _, _ = prepare_eigenstate(KitaevParams(6, 1.0, 1.7, 0.8))
        clone = state.copy()
        assert all(g.dtype == np.float64 for g in clone.gammas)
        for a, b in zip(clone.gammas + clone.lambdas, state.gammas + state.lambdas):
            assert not np.shares_memory(a, b)
        before = dense_vector(state)
        clone.gammas[2] *= 2.0
        clone.lambdas[2][0] = 0.5
        np.testing.assert_array_equal(dense_vector(state), before)


class TestBondHamiltonian:
    @pytest.mark.parametrize("stacked", [False, True], ids=["scalars", "stack"])
    def test_frozen_entries(self, stacked):
        args = (1.0, 1.0, 2.0, 2.0)
        h = bond_hamiltonian(*args)
        if stacked:
            # a (G,) stack of each argument; entry g is the scalar call's block, bit for bit
            values = np.random.default_rng(5).normal(size=(4, 6))
            values[:, 2] = args
            stack = bond_hamiltonian(*values)
            assert stack.shape == (6, 4, 4)
            for g in range(6):
                assert stack[g].tobytes() == bond_hamiltonian(*values[:, g].tolist()).tobytes()
            h = stack[2]
        expected = np.array(
            [
                [2.0, 0.0, 0.0, -1.0],
                [0.0, 0.0, -1.0, 0.0],
                [0.0, -1.0, 0.0, 0.0],
                [-1.0, 0.0, 0.0, -2.0],
            ],
        )
        assert h.dtype == np.float64
        np.testing.assert_array_equal(h, expected)


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

    def test_periodic_bond_sum_matches_spectrum_sum(self):
        for mu in (0.5, 1.5, 3.0):
            params = KitaevParams(10, 1.0, mu, 1.0, boundary="periodic")
            state, schur, _ = prepare_eigenstate(params)
            expected = -0.5 * float(np.sum(schur.epsilons))
            assert energy_expectation(state, params) == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("n_sites", [5, 6])
    def test_periodic_energy_in_both_parity_sectors(self, n_sites):
        # the wrap bond's hopping and pairing change sign with the state's parity:
        # the ground state (k = -1) and every single excitation, which flips the
        # parity and, for a mode of a +-k pair, fills a level only in part
        params = KitaevParams(n_sites, 0.8, 0.7, 1.1, boundary="periodic")
        sectors = set()
        for k in range(-1, n_sites):
            occupation = [int(j == k) for j in range(n_sites)]
            state, schur, _ = prepare_eigenstate(params, occupation)
            sectors.add(state.even_counts[-1])
            expected = eigenenergy(schur.epsilons, occupation)
            assert energy_expectation(state, params) == pytest.approx(expected, abs=1e-12)
        assert sectors == {0, 1}

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    def test_equals_a_per_bond_sum_bit_for_bit(self, boundary):
        # the stacked read adds the bonds one at a time in bond order, the wrap bond
        # last, as this loop does; ground state and single excitations, both parities
        params = KitaevParams(12, 0.8, 0.7, 1.1, boundary=boundary)
        n, w, mu, pairing = 12, 0.8, 0.7, 1.1
        open_ends = boundary == "open"
        parities = set()
        for k in range(-1, n):
            state, _, _ = prepare_eigenstate(params, [int(j == k) for j in range(n)])
            parities.add(state.parity)
            total = 0.0
            for left, rho in enumerate(state.rdm_pairs()):
                mu_left = mu if left == 0 and open_ends else mu / 2.0
                mu_right = mu if left == n - 2 and open_ends else mu / 2.0
                total += float(np.trace(rho @ bond_hamiltonian(w, pairing, mu_left, mu_right)))
            if not open_ends:
                sign = 1.0 if state.parity == "even" else -1.0
                h = bond_hamiltonian(-sign * w, -sign * pairing, mu / 2.0, mu / 2.0)
                total += float(np.trace(state.rdm_ends() @ h))
            assert energy_expectation(state, params) == total
        assert parities == {"even", "odd"}

    def test_periodic_energy_ignores_the_degeneracy_flag(self):
        # the vacuum: only the on-site terms count, -mu (0 - 1/2) on each of 4 sites
        params = KitaevParams(4, 1.0, 0.5, 1.0, boundary="periodic")
        state = TensorChain.product_state([0, 0, 0, 0])
        state.degenerate = True
        assert energy_expectation(state, params) == pytest.approx(1.0, abs=1e-12)

    def test_periodic_needs_three_sites(self):
        params = KitaevParams(2, 1.0, 0.5, 1.0, boundary="periodic")
        with pytest.raises(ValueError, match="3 sites"):
            energy_expectation(TensorChain.product_state([0, 0]), params)

    def test_site_count_mismatch(self):
        state = TensorChain.product_state([0, 0, 0])
        with pytest.raises(ValueError):
            energy_expectation(state, KitaevParams(4, 1.0, 0.0, 1.0))
