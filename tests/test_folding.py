"""Tests for the rotation-plan folding and eigenstate reconstruction.

Small matrices with hand-checkable folds pin the angle/sign conventions; the
dense oracle provides eigenvector overlaps for reconstructed states, the
plan-free covariance route checks chains beyond its reach, and hypothesis
drives the fold/replay round trip over random orthogonal matrices.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covariance_route import covariance_matrix, covariance_z
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
    parity,
    prepare_eigenstate,
    reconstruct_eigenstate,
    reduce_modes,
    reference_state,
    schur_decompose,
    z_value,
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


def replayed(matrix: np.ndarray, plan: FoldingPlan) -> np.ndarray:
    """``matrix`` times the plan's rotations, each as an explicit Givens matrix."""
    result = np.array(matrix, dtype=float)
    for rotation in plan.rotations:
        givens = np.eye(result.shape[0])
        lo, hi = rotation.column - 1, rotation.column
        c, s = np.cos(rotation.angle), np.sin(rotation.angle)
        givens[[lo, hi, lo, hi], [lo, hi, hi, lo]] = c, c, -s, s
        result = result @ givens
    return result


@functools.lru_cache(maxsize=2)
def dense_eigensystem(params: KitaevParams) -> tuple[np.ndarray, np.ndarray]:
    h = oracle.dense_hamiltonian(
        params.n_sites,
        params.hopping,
        params.chemical_potential,
        params.pairing_magnitude,
        params.pairing_phase,
        boundary=params.boundary,
    )
    return np.linalg.eigh(h)


def eigenspace_weight(params: KitaevParams, vec: np.ndarray, energy: float) -> float:
    """Norm of the projection of ``vec`` onto the eigenspace at ``energy``."""
    values, vectors = dense_eigensystem(params)
    members = np.abs(values - energy) < 1e-8 * max(1.0, abs(energy))
    assert members.any(), "no dense eigenvalue at the predicted energy"
    overlaps = vectors[:, members].conj().T @ vec
    return float(np.sqrt(np.sum(np.abs(overlaps) ** 2)))


class TestComputeFoldingPlan:
    def test_identity_folds_to_single_site_quarter_turns(self):
        # reduce_modes does not keep the identity: it rephases each site's mode to
        # the block [[0, 1], [-1, 0]], which folds to one single-site quarter turn.
        reduced = reduce_modes(np.eye(4), [0, 0])
        np.testing.assert_array_equal(reduced, np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]]))
        plan = compute_folding_plan(manual_schur(np.eye(4), [2.0, 1.0]), [0, 0])
        assert plan.n_sites == 2
        assert plan.occupation == (0, 0)
        assert plan.rotations == (Rotation(0, 1, np.pi / 2), Rotation(2, 3, np.pi / 2))
        assert plan.particle_hole is False
        assert plan.replay_residual < 1e-15

    def test_two_by_two_quarter_turn(self):
        w = np.array([[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_array_equal(reduce_modes(w, [0]), w)
        plan = compute_folding_plan(manual_schur(w, [0.7]), [0])
        assert plan.rotations == (Rotation(0, 1, np.pi / 2),)
        assert plan.particle_hole is False
        np.testing.assert_allclose(replayed(w, plan), np.eye(2), atol=1e-15)

    def test_two_by_two_reflection_sets_particle_hole(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(reduce_modes(w, [0]), w)
        plan = compute_folding_plan(manual_schur(w, [0.7]), [0])
        assert plan.particle_hole is True
        np.testing.assert_allclose(replayed(w, plan), np.diag([1.0, -1.0]), atol=1e-15)

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError, match="orthogonal"):
            compute_folding_plan(manual_schur(1.1 * np.eye(4), [1.0, 0.5]), [0, 0])

    def test_plan_is_immutable(self):
        plan = compute_folding_plan(manual_schur(np.eye(2), [1.0]), [0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.particle_hole = True

    @settings(max_examples=40, deadline=None)
    @given(
        n_sites=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31),
        reflect=st.booleans(),
        bits=st.integers(min_value=0, max_value=31),
    )
    def test_fold_replay_round_trip(self, n_sites, seed, reflect, bits):
        w = random_orthogonal(2 * n_sites, seed)
        if reflect:
            w[0, :] = -w[0, :]
        occupation = [(bits >> k) & 1 for k in range(n_sites)]
        plan = compute_folding_plan(manual_schur(w, np.linspace(2.0, 1.0, n_sites)), occupation)
        assert all(-np.pi < rot.angle <= np.pi and rot.angle != 0.0 for rot in plan.rotations)
        target = np.eye(2 * n_sites)
        if plan.particle_hole:
            target[-1, -1] = -1.0
        np.testing.assert_allclose(replayed(reduce_modes(w, occupation), plan), target, atol=1e-9)
        assert plan.replay_residual < 1e-9
        # The terminal sign is the determinant the row rotations cannot absorb;
        # the mode recombination is unitary, so it keeps the determinant.
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
        """The eigenstate of each occupation: in the dense eigenspace at N <= 10, and
        with the plan-free covariance's fillings and Z beyond the dense oracle."""
        params = KitaevParams(n_sites, hopping, mu, pairing, boundary=boundary)
        schur = schur_decompose(build_coupling_matrix(params))
        rng = np.random.default_rng(n_sites)
        for occupation in [[0] * n_sites] + [list(rng.integers(0, 2, n_sites)) for _ in range(7)]:
            plan = compute_folding_plan(schur, occupation)
            assert plan.occupation == tuple(occupation)
            state = reconstruct_eigenstate(plan)
            sector = parity(occupation, plan.particle_hole)
            expected_parity = 1.0 if sector == "even" else -1.0
            assert state.parity_expectation() == pytest.approx(expected_parity, abs=1e-10)
            if n_sites <= oracle.MAX_SITES:
                energy = eigenenergy(schur.epsilons, occupation)
                weight = eigenspace_weight(params, dense_vector(state), energy)
                assert weight == pytest.approx(1.0, abs=1e-10)
                continue
            c = covariance_matrix(params, occupation)
            filling = [state.rdm_site(j).entries[1, 1].real for j in range(n_sites)]
            expected = [(1.0 + c[2 * j, 2 * j + 1]) / 2.0 for j in range(n_sites)]
            np.testing.assert_allclose(filling, expected, atol=1e-10)
            z = covariance_z(params, occupation)
            assert z_value(state, sector) == pytest.approx(z, abs=1e-10)

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
        assert all(rotation.angle != 0.0 for rotation in plan.rotations)
        assert len(plan.rotations) <= 0.55 * (2 * n_sites**2 - n_sites)


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
        plan = FoldingPlan(2, (), particle_hole=False, replay_residual=0.0, degenerate=False,
                           occupation=(1, 0))
        state = reconstruct_eigenstate(plan)
        amps = state.fock_coefficients()
        assert amps[1, 0] == pytest.approx(1.0)
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
        with pytest.raises(ValueError, match="length 3"):
            compute_folding_plan(manual_schur(np.eye(6), [1.0, 0.8, 0.5]), (0, 0))

    def test_split_level_state_is_flagged_and_refused(self):
        # Periodic N = 8: modes 1 and 2 share epsilon = 2.80 (momenta +-k); filling one
        # of them picks an eigenstate that is not translation invariant.
        params = KitaevParams(8, 1.0, 1.0, 1.0, boundary="periodic")
        occupation = [0, 1, 0, 0, 0, 0, 0, 0]
        state, schur, plan = prepare_eigenstate(params, occupation)
        assert not schur.is_degenerate
        assert abs(schur.epsilons[1] - schur.epsilons[2]) < schur.zero_tol
        assert plan.degenerate and state.degenerate
        with pytest.raises(ValueError, match="degenerate"):
            energy_expectation(state, params)
        weight = eigenspace_weight(params, dense_vector(state), eigenenergy(schur.epsilons, occupation))
        assert weight == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("occupation", [[0] * 8, [1] + [0] * 7, [0, 1, 1, 0, 0, 0, 0, 0]])
    def test_unsplit_periodic_level_energy(self, occupation):
        # Mode 0 (epsilon = 3) is a level of its own; modes 1 and 2 fill a level together.
        params = KitaevParams(8, 1.0, 1.0, 1.0, boundary="periodic")
        state, schur, plan = prepare_eigenstate(params, occupation)
        assert not plan.degenerate
        expected = eigenenergy(schur.epsilons, occupation)
        assert energy_expectation(state, params) == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -1e-12, 1.0])
    @pytest.mark.parametrize("build", ["prepare", "reconstruct"])
    def test_rejects_bad_threshold(self, build, threshold):
        params = KitaevParams(4, 1.0, 0.5, 1.0)
        with pytest.raises(ValueError, match="threshold"):
            if build == "prepare":
                prepare_eigenstate(params, threshold=threshold)
            else:
                schur = schur_decompose(build_coupling_matrix(params))
                reconstruct_eigenstate(compute_folding_plan(schur, [0] * 4), threshold=threshold)

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
