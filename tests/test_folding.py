"""Tests for the rotation-plan folding and eigenstate reconstruction.

Small matrices with hand-checkable folds pin the angle/sign conventions; the
dense oracle provides eigenvector overlaps for reconstructed states, and
hypothesis drives the fold/replay round trip over random orthogonal matrices.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kitaev_chain import (
    FoldingPlan,
    KitaevParams,
    MajoranaSchur,
    Rotation,
    build_coupling_matrix,
    compute_folding_plan,
    eigenenergy,
    energy_expectation,
    gate_matrix_even,
    gate_matrix_odd,
    prepare_eigenstate,
    reconstruct_eigenstate,
    reduce_modes,
    reference_state,
    replay_plan,
    schur_decompose,
)
from kitaev_chain import oracle


def manual_schur(w_matrix: np.ndarray, epsilons) -> MajoranaSchur:
    return MajoranaSchur(
        w_matrix=np.asarray(w_matrix, dtype=float),
        epsilons=np.asarray(epsilons, dtype=float),
        zero_tol=1e-12,
    )


def random_orthogonal(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diagonal(r))


def dense_vector(state) -> np.ndarray:
    return state.fock_coefficients().reshape(-1)


def eigenspace_weight(params: KitaevParams, vec: np.ndarray, energy: float) -> float:
    """Norm of the projection of ``vec`` onto the eigenspace at ``energy``."""
    h = oracle.dense_hamiltonian(
        params.n_sites,
        params.hopping,
        params.chemical_potential,
        params.pairing_magnitude,
        params.pairing_phase,
        boundary=params.boundary,
    )
    values, vectors = np.linalg.eigh(h)
    members = np.abs(values - energy) < 1e-8 * max(1.0, abs(energy))
    assert members.any(), "no dense eigenvalue at the predicted energy"
    overlaps = vectors[:, members].conj().T @ vec
    return float(np.sqrt(np.sum(np.abs(overlaps) ** 2)))


class TestComputeFoldingPlan:
    def test_identity_folds_to_nothing(self):
        plan = compute_folding_plan(manual_schur(np.eye(4), [2.0, 1.0]))
        assert plan.n_sites == 2
        assert len(plan.rotations) == 6  # 3 + 2 + 1 column visits
        assert all(rot.angle == 0.0 for rot in plan.rotations)
        assert plan.particle_hole is False
        assert plan.replay_residual == 0.0

    def test_two_by_two_quarter_turn(self):
        w = np.array([[0.0, 1.0], [-1.0, 0.0]])
        plan = compute_folding_plan(manual_schur(w, [0.7]))
        assert plan.rotations == (Rotation(0, 1, np.pi / 2),)
        assert plan.particle_hole is False
        np.testing.assert_allclose(replay_plan(w, plan), np.eye(2), atol=1e-15)

    def test_two_by_two_reflection_sets_particle_hole(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        plan = compute_folding_plan(manual_schur(w, [0.7]))
        assert plan.particle_hole is True
        np.testing.assert_allclose(replay_plan(w, plan), np.diag([1.0, -1.0]), atol=1e-15)

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError, match="orthogonal"):
            compute_folding_plan(manual_schur(1.1 * np.eye(4), [1.0, 0.5]))

    def test_plan_is_immutable(self):
        plan = compute_folding_plan(manual_schur(np.eye(2), [1.0]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.particle_hole = True

    def test_replay_rejects_wrong_shape(self):
        plan = compute_folding_plan(manual_schur(np.eye(2), [1.0]))
        with pytest.raises(ValueError):
            replay_plan(np.eye(4), plan)

    @settings(max_examples=40, deadline=None)
    @given(
        n_sites=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31),
        reflect=st.booleans(),
    )
    def test_fold_replay_round_trip(self, n_sites, seed, reflect):
        w = random_orthogonal(2 * n_sites, seed)
        if reflect:
            w[0, :] = -w[0, :]
        plan = compute_folding_plan(manual_schur(w, np.linspace(2.0, 1.0, n_sites)))
        assert all(-np.pi < rot.angle <= np.pi for rot in plan.rotations)
        target = np.eye(2 * n_sites)
        if plan.particle_hole:
            target[-1, -1] = -1.0
        np.testing.assert_allclose(replay_plan(w, plan), target, atol=1e-9)
        assert plan.replay_residual < 1e-9
        # The terminal sign is the determinant the row rotations cannot absorb.
        assert plan.particle_hole == (np.linalg.det(w) < 0.0)


def complex_structure(occupation) -> np.ndarray:
    """Multiplication by i on the modes a_k = W[2k] + i s_k W[2k+1], row-wise."""
    dim = 2 * len(occupation)
    j = np.zeros((dim, dim))
    for k, bit in enumerate(occupation):
        sign = 1 - 2 * bit
        j[2 * k, 2 * k + 1] = -sign
        j[2 * k + 1, 2 * k] = sign
    return j


# The benchmark ladder: gapped topological, gapped trivial and critical, |D| = 1.
LADDER = [(n, mu) for mu in (1.0, 3.0, 2.0) for n in (16, 32, 40)]

REDUCTION_POINTS = [
    (6, 1.0, 0.5, 1.0, "open"),
    (9, 0.8, 1.7, 1.0, "open"),
    (12, 1.0, 2.0, 1.0, "open"),
    (6, 0.0, 2.0, 0.0, "open"),  # atomic limit: QR pivots that are exactly zero
    (8, 1.0, 1.0, 1.0, "periodic"),
    (10, 2.0, 4.0, 1.0, "periodic"),  # a zero mode at momentum pi
    (11, 1.0, 3.0, 1.0, "periodic"),
]


class TestReduceModes:
    @pytest.mark.parametrize("n_sites,hopping,mu,pairing,boundary", REDUCTION_POINTS)
    def test_reduced_plan_builds_the_same_state(self, n_sites, hopping, mu, pairing, boundary):
        params = KitaevParams(n_sites, hopping, mu, pairing, boundary=boundary)
        schur = schur_decompose(build_coupling_matrix(params))
        full = compute_folding_plan(schur)
        rng = np.random.default_rng(n_sites)
        for occupation in [[0] * n_sites] + [list(rng.integers(0, 2, n_sites)) for _ in range(7)]:
            reduced = compute_folding_plan(schur, occupation)
            assert reduced.occupation == tuple(occupation)
            assert reduced.particle_hole == full.particle_hole
            expected = dense_vector(reconstruct_eigenstate(full, occupation))
            built = dense_vector(reconstruct_eigenstate(reduced, occupation))
            assert abs(np.vdot(expected, built)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_sites,hopping,mu,pairing,boundary", REDUCTION_POINTS)
    def test_recombination_commutes_with_reference_structure(
        self, n_sites, hopping, mu, pairing, boundary
    ):
        params = KitaevParams(n_sites, hopping, mu, pairing, boundary=boundary)
        w = schur_decompose(build_coupling_matrix(params)).w_matrix
        occupation = list(np.random.default_rng(n_sites).integers(0, 2, n_sites))
        reduced = reduce_modes(w, occupation)
        dim = 2 * n_sites
        np.testing.assert_allclose(reduced @ reduced.T, np.eye(dim), atol=1e-13)
        mixing = reduced @ w.T
        j = complex_structure(occupation)
        np.testing.assert_allclose(mixing @ j, j @ mixing, atol=1e-13)
        # Mode k has no weight beyond Majorana N + k.
        for k in range(n_sites):
            assert not reduced[2 * k : 2 * k + 2, n_sites + k + 1 :].any()

    @pytest.mark.parametrize("n_sites,mu", LADDER)
    def test_ladder_fold_needs_about_half_the_rotations(self, n_sites, mu):
        schur = schur_decompose(build_coupling_matrix(KitaevParams(n_sites, 1.0, mu, 1.0)))
        plan = compute_folding_plan(schur, [0] * n_sites)
        nonzero = sum(rotation.angle != 0.0 for rotation in plan.rotations)
        assert nonzero <= 0.55 * (2 * n_sites**2 - n_sites)

    def test_reduced_plan_refuses_another_occupation(self):
        schur = schur_decompose(build_coupling_matrix(KitaevParams(6, 1.0, 0.5, 1.0)))
        plan = compute_folding_plan(schur, [0, 1, 0, 0, 0, 0])
        with pytest.raises(ValueError, match="reduced for occupation"):
            reconstruct_eigenstate(plan, [0] * 6)
        _, _, ground_plan = prepare_eigenstate(KitaevParams(6, 1.0, 0.5, 1.0))
        with pytest.raises(ValueError, match="reduced for occupation"):
            reconstruct_eigenstate(ground_plan, [1, 0, 0, 0, 0, 0])


class TestGateMatrices:
    def test_even_theta_zero(self):
        np.testing.assert_allclose(gate_matrix_even(0.0), np.eye(2), atol=1e-15)

    def test_even_full_turn_is_minus_identity(self):
        np.testing.assert_allclose(gate_matrix_even(2.0 * np.pi), -np.eye(2), atol=1e-12)

    def test_even_quarter_turn(self):
        expected = np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)])
        np.testing.assert_allclose(gate_matrix_even(np.pi / 2), expected, atol=1e-15)

    def test_odd_theta_zero(self):
        np.testing.assert_allclose(gate_matrix_odd(0.0), np.eye(4), atol=1e-15)

    def test_odd_half_turn_is_antidiagonal(self):
        np.testing.assert_allclose(
            gate_matrix_odd(np.pi), 1j * np.fliplr(np.eye(4)), atol=1e-12
        )

    def test_odd_mixes_equal_parity_only(self):
        u = gate_matrix_odd(0.7)
        # |00>,|11> (even) and |01>,|10> (odd) blocks; the cross entries vanish.
        for even_index in (0, 3):
            for odd_index in (1, 2):
                assert u[even_index, odd_index] == 0.0
                assert u[odd_index, even_index] == 0.0

    @settings(max_examples=30, deadline=None)
    @given(theta=st.floats(min_value=-10.0, max_value=10.0))
    def test_gates_are_unitary(self, theta):
        for u in (gate_matrix_even(theta), gate_matrix_odd(theta)):
            np.testing.assert_allclose(
                u.conj().T @ u, np.eye(u.shape[0]), atol=1e-12
            )


class TestReferenceState:
    def test_plain_occupation(self):
        state = reference_state(3, (0, 0, 0), False)
        assert state.bond_dimensions == (1, 1)
        amps = state.fock_coefficients()
        assert amps[0, 0, 0] == pytest.approx(1.0)

    def test_particle_hole_flips_last_site(self):
        state = reference_state(3, (0, 0, 0), True)
        amps = state.fock_coefficients()
        assert amps[0, 0, 1] == pytest.approx(1.0)

    def test_particle_hole_empties_filled_last_site(self):
        state = reference_state(2, (1, 1), True)
        amps = state.fock_coefficients()
        assert amps[1, 0] == pytest.approx(1.0)

    def test_rejects_bad_occupation(self):
        with pytest.raises(ValueError):
            reference_state(3, (0, 1), False)


class TestReconstruction:
    def test_zero_angle_plan_returns_reference(self):
        plan = compute_folding_plan(manual_schur(np.eye(4), [1.0, 0.5]))
        state = reconstruct_eigenstate(plan, (0, 0))
        amps = state.fock_coefficients()
        assert amps[0, 0] == pytest.approx(1.0)
        assert state.bond_dimensions == (1,)

    def test_ground_energy_matches_spectrum(self):
        params = KitaevParams(6, 1.0, 0.3, 1.0)
        state, schur, _ = prepare_eigenstate(params)
        expected = eigenenergy(schur.epsilons, [0] * 6)
        assert energy_expectation(state, params) == pytest.approx(expected, abs=1e-8)

    def test_single_excitation_energy(self):
        params = KitaevParams(6, 1.0, 0.3, 1.0)
        occupation = [1, 0, 0, 0, 0, 0]  # the largest single-body energy
        state, schur, _ = prepare_eigenstate(params, occupation)
        expected = eigenenergy(schur.epsilons, occupation)
        assert expected == pytest.approx(
            eigenenergy(schur.epsilons, [0] * 6) + schur.epsilons[0], abs=1e-12
        )
        assert energy_expectation(state, params) == pytest.approx(expected, abs=1e-8)

    def test_occupation_length_must_match_plan(self):
        plan = compute_folding_plan(manual_schur(np.eye(6), [1.0, 0.8, 0.5]))
        with pytest.raises(ValueError):
            reconstruct_eigenstate(plan, (0, 0))

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -1e-12, 1.0])
    @pytest.mark.parametrize("build", ["prepare", "reconstruct"])
    def test_rejects_bad_threshold(self, build, threshold):
        params = KitaevParams(4, 1.0, 0.5, 1.0)
        with pytest.raises(ValueError, match="threshold"):
            if build == "prepare":
                prepare_eigenstate(params, threshold=threshold)
            else:
                schur = schur_decompose(build_coupling_matrix(params))
                reconstruct_eigenstate(compute_folding_plan(schur), [0] * 4, threshold=threshold)

    def test_rejects_nonzero_pairing_phase(self):
        params = KitaevParams(4, 1.0, 0.5, 1.0, pairing_phase=0.3)
        with pytest.raises(ValueError, match="pairing_phase"):
            prepare_eigenstate(params)

    def test_degenerate_point_is_flagged(self):
        params = KitaevParams(4, 1.0, 0.0, 1.0)
        state, schur, plan = prepare_eigenstate(params)
        assert schur.is_degenerate
        assert plan.degenerate
        assert state.degenerate

    def test_sweet_spot_ground_space_membership(self):
        # Two sites, equal hopping and pairing, zero field: the ground level
        # is twofold degenerate and the reconstructed state must lie in it.
        params = KitaevParams(2, 1.0, 0.0, 1.0)
        state, schur, _ = prepare_eigenstate(params)
        energy = eigenenergy(schur.epsilons, [0, 0])
        weight = eigenspace_weight(params, dense_vector(state), energy)
        assert weight >= 1.0 - 1e-10

    @pytest.mark.parametrize(
        "n_sites,hopping,mu,pairing",
        [
            (2, 1.0, 0.0, 1.0),
            (4, 1.3, 0.8, 0.7),
            (5, 0.9, 1.2, 1.0),
            (6, 1.0, 0.3, 1.0),
            (8, 1.0, 0.5, 1.0),
        ],
    )
    def test_ground_state_overlap_with_dense_oracle(self, n_sites, hopping, mu, pairing):
        params = KitaevParams(n_sites, hopping, mu, pairing)
        state, schur, _ = prepare_eigenstate(params)
        energy = eigenenergy(schur.epsilons, [0] * n_sites)
        weight = eigenspace_weight(params, dense_vector(state), energy)
        assert weight >= 1.0 - 1e-9

    @pytest.mark.parametrize("mode", [0, 2, 5])
    def test_excited_state_overlap_with_dense_oracle(self, mode):
        params = KitaevParams(6, 1.0, 0.3, 1.0)
        occupation = [0] * 6
        occupation[mode] = 1
        state, schur, _ = prepare_eigenstate(params, occupation)
        energy = eigenenergy(schur.epsilons, occupation)
        weight = eigenspace_weight(params, dense_vector(state), energy)
        assert weight >= 1.0 - 1e-9

    @settings(max_examples=20, deadline=None)
    @given(
        mu=st.floats(min_value=-2.5, max_value=2.5),
        hopping=st.floats(min_value=0.4, max_value=1.6),
        bits=st.integers(min_value=0, max_value=15),
    )
    def test_parity_and_norm_are_preserved(self, mu, hopping, bits):
        params = KitaevParams(4, hopping, mu, 1.0)
        occupation = [(bits >> k) & 1 for k in range(4)]
        state, _, plan = prepare_eigenstate(params, occupation)
        reference = reference_state(4, occupation, plan.particle_hole)
        assert state.norm() == pytest.approx(1.0, abs=1e-10)
        assert state.parity_expectation() == pytest.approx(
            reference.parity_expectation(), abs=1e-8
        )
