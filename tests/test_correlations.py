"""Tests for edge operators, parity, the Z measure, and particle numbers.

The frozen 4x4 edge matrices are re-derived against the dense oracle on
parity-definite states; Z goes through three independent routes (tensor
contraction, dense exact diagonalization, one-body covariance) that must
agree; saturation sweeps pin the published table values and the stop-rule
semantics.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covariance_route import covariance_matrix, covariance_z
from kitaev_chain import (
    DEFAULT_SCHEDULE,
    KitaevParams,
    TensorChain,
    edge_operator_matrix,
    gate_matrix_even,
    gate_matrix_odd,
    mean_particle_number,
    parity,
    prepare_eigenstate,
    z_analytic,
    z_saturated,
    z_value,
)
from kitaev_chain import oracle

Q_EVEN = np.array(
    [
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 2.0, 0.0],
        [0.0, 2.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ]
)


def dense_vector(state: TensorChain) -> np.ndarray:
    return state.fock_coefficients().reshape(-1)


def parity_definite_state(n_sites: int, bits, seed: int) -> TensorChain:
    """Random state of definite parity: parity-preserving gates on a basis state."""
    state = TensorChain.product_state(bits)
    rng = np.random.default_rng(seed)
    for _ in range(2):
        for left in range(n_sites - 1):
            state.apply_two_site_gate(left, gate_matrix_odd(rng.uniform(-np.pi, np.pi)))
        state.apply_single_site_gate(
            int(rng.integers(n_sites)), gate_matrix_even(rng.uniform(-np.pi, np.pi))
        )
    return state


def mirrored(state: TensorChain) -> TensorChain:
    """The spatial reflection of a state (site j -> site N-1-j)."""
    gammas = [g.transpose(0, 2, 1) for g in reversed(state.gammas)]
    lambdas = [lam.copy() for lam in reversed(state.lambdas)]
    return TensorChain(gammas, lambdas, degenerate=state.degenerate)


class TestEdgeOperatorMatrix:
    def test_hopping_even_sector(self):
        np.testing.assert_allclose(edge_operator_matrix("Q", "even"), Q_EVEN, atol=1e-15)

    def test_hopping_odd_sector(self):
        np.testing.assert_allclose(edge_operator_matrix("Q", "odd"), -Q_EVEN, atol=1e-15)

    @pytest.mark.parametrize("sector", ["even", "odd"])
    def test_left_plus_right_is_hopping(self, sector):
        total = edge_operator_matrix("QL", sector) + edge_operator_matrix("QR", sector)
        np.testing.assert_allclose(total, edge_operator_matrix("Q", sector), atol=1e-15)

    @pytest.mark.parametrize("kind", ["Q", "QL", "QR"])
    @pytest.mark.parametrize("sector", ["even", "odd"])
    def test_hermitian(self, kind, sector):
        m = edge_operator_matrix(kind, sector)
        np.testing.assert_allclose(m, m.conj().T, atol=1e-15)

    def test_rejects_unknown_kind_or_parity(self):
        with pytest.raises(ValueError):
            edge_operator_matrix("QQ", "even")
        with pytest.raises(ValueError):
            edge_operator_matrix("Q", "mixed")

    @pytest.mark.parametrize("start", [(0, 0, 0, 0), (1, 0, 0, 0)])
    @pytest.mark.parametrize("kind", ["Q", "QL", "QR"])
    def test_matrices_reproduce_dense_expectations(self, start, kind):
        # On parity-definite states the reduced end-pair operator is unique;
        # agreement over random such states re-derives the frozen constants.
        for seed in range(4):
            state = parity_definite_state(4, start, seed=seed)
            sector = "even" if state.parity_expectation() > 0 else "odd"
            vec = dense_vector(state)
            dense = oracle.ed_expectation(oracle.dense_edge_operator(4, kind), vec)
            reduced = np.trace(
                state.rdm_ends().entries @ edge_operator_matrix(kind, sector)
            )
            assert complex(reduced) == pytest.approx(complex(dense), abs=1e-10)


class TestParity:
    def test_vacuum_is_even(self):
        assert parity([0, 0, 0], False) == "even"

    def test_particle_hole_base_is_odd(self):
        assert parity([0, 0, 0], True) == "odd"

    def test_two_excitations_even(self):
        assert parity((1, 1, 0), False) == "even"

    def test_one_excitation_with_flip_is_even(self):
        assert parity((1, 0, 0), True) == "even"

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            parity((0, 2, 0), False)

    @settings(max_examples=20, deadline=None)
    @given(
        bits=st.integers(min_value=0, max_value=31),
        mu=st.floats(min_value=-1.8, max_value=1.8),
    )
    def test_matches_reconstructed_state_parity(self, bits, mu):
        occupation = [(bits >> k) & 1 for k in range(5)]
        params = KitaevParams(5, 1.0, mu, 1.0)
        state, _, plan = prepare_eigenstate(params, occupation)
        expected = 1.0 if parity(occupation, plan.particle_hole) == "even" else -1.0
        assert state.parity_expectation() == pytest.approx(expected, abs=1e-8)


class TestZValue:
    def test_vacuum_vanishes(self):
        state = TensorChain.product_state([0, 0, 0, 0])
        assert z_value(state, "even") == pytest.approx(0.0, abs=1e-12)

    def test_matches_dense_route_on_same_state(self):
        # The reference point with exactly decoupled end modes: Z is 1.
        params = KitaevParams(6, 1.0, 0.0, 1.0)
        state, _, plan = prepare_eigenstate(params)
        sector = parity([0] * 6, plan.particle_hole)
        vec = dense_vector(state)
        dense = abs(oracle.ed_expectation(oracle.dense_edge_operator(6, "Q"), vec).real)
        assert z_value(state, sector) == pytest.approx(dense, abs=1e-9)
        assert z_value(state, sector) == pytest.approx(1.0, abs=1e-9)

    def test_matches_dense_ground_state_route(self):
        params = KitaevParams(6, 1.0, 0.8, 1.0)
        state, _, plan = prepare_eigenstate(params)
        sector = parity([0] * 6, plan.particle_hole)
        h = oracle.dense_hamiltonian(6, 1.0, 0.8, 1.0)
        _, ground = oracle.ed_ground_state(h)
        dense = abs(oracle.ed_expectation(oracle.dense_edge_operator(6, "Q"), ground).real)
        assert z_value(state, sector) == pytest.approx(dense, abs=1e-9)

    @pytest.mark.parametrize(
        "n_sites,mu,hopping",
        [(6, 0.8, 1.0), (8, 1.0, 1.0), (8, 2.0, 1.0), (7, 0.4, 0.9)],
    )
    def test_matches_covariance_route(self, n_sites, mu, hopping):
        params = KitaevParams(n_sites, hopping, mu, 1.0)
        state, _, plan = prepare_eigenstate(params)
        sector = parity([0] * n_sites, plan.particle_hole)
        assert z_value(state, sector) == pytest.approx(covariance_z(params), abs=1e-9)

    def test_mirror_symmetry(self):
        params = KitaevParams(5, 1.1, 0.7, 1.0)
        state, _, plan = prepare_eigenstate(params)
        sector = parity([0] * 5, plan.particle_hole)
        assert z_value(mirrored(state), sector) == pytest.approx(
            z_value(state, sector), abs=1e-10
        )

    def test_wide_chain_reference_value(self):
        params = KitaevParams(64, 1.0, 0.0, 1.0)
        state, _, plan = prepare_eigenstate(params)
        sector = parity([0] * 64, plan.particle_hole)
        assert z_value(state, sector) == pytest.approx(1.0, abs=5e-3)


def dense_covariance(state: TensorChain) -> np.ndarray:
    """<i gamma_k gamma_l> of a state, from the dense oracle's Majorana operators."""
    vec = dense_vector(state)
    modes = np.column_stack(
        [oracle.dense_majorana(state.n_sites, k) @ vec for k in range(2 * state.n_sites)]
    )
    return (1j * modes.conj().T @ modes).real


class TestCovarianceRoute:
    @pytest.mark.parametrize(
        "params,occupation",
        [
            # Split levels at a zero-mode point: the eigenstate mixes momenta +-k,
            # so its covariance has even-even and odd-odd entries.
            (KitaevParams(10, 2.0, 4.0, 1.0, boundary="periodic"), [1, 0, 0, 1, 0, 1, 0, 0, 0, 0]),
            (KitaevParams(10, 2.0, 4.0, 1.0, boundary="periodic"), [0, 1, 0, 0, 0, 0, 0, 0, 0, 0]),
            (KitaevParams(10, 2.0, 4.0, 1.0, boundary="periodic"), [0, 0, 0, 0, 0, 0, 0, 1, 0, 1]),
            (KitaevParams(8, 1.0, 0.8, 1.0), [0, 1, 0, 1, 0, 0, 1, 0]),
        ],
    )
    def test_full_covariance_matches_dense_majoranas(self, params, occupation):
        state, _, _ = prepare_eigenstate(params, occupation)
        np.testing.assert_allclose(
            covariance_matrix(params, occupation), dense_covariance(state), atol=1e-12
        )


class TestZSaturated:
    @pytest.mark.parametrize(
        "mu,hopping,table_value",
        [(1.0, 1.0, 0.750), (2.0, 1.5, 0.533), (3.0, 2.0, 0.388)],
    )
    def test_table_values(self, mu, hopping, table_value):
        params = KitaevParams(8, hopping, mu, 1.0)
        result = z_saturated(params)
        assert result.converged
        assert result.z == pytest.approx(table_value, abs=1e-3)
        assert result.z == pytest.approx(z_analytic(params), abs=1e-3)

    def test_result_fields_are_consistent(self):
        result = z_saturated(KitaevParams(8, 1.0, 1.0, 1.0))
        assert result.z == result.history[-1][1]
        assert result.n_used == result.history[-1][0]
        assert [n for n, _ in result.history] == sorted(n for n, _ in result.history)

    def test_early_stop_leaves_schedule_unused(self):
        result = z_saturated(KitaevParams(8, 1.0, 1.0, 1.0), schedule=(8, 16, 24, 32, 40))
        assert result.converged
        assert result.n_used == 24

    def test_subtolerance_step_at_final_entry_is_not_convergence(self):
        # Same point converges at N=24 given headroom; with the schedule cut
        # exactly there the plateau cannot be confirmed and the sweep reports
        # exhaustion instead.
        result = z_saturated(KitaevParams(8, 1.0, 1.0, 1.0), schedule=(8, 16, 24))
        assert not result.converged
        assert result.n_used == 24
        assert len(result.history) == 3

    def test_huge_tolerance_stops_at_second_entry(self):
        result = z_saturated(KitaevParams(8, 1.0, 1.0, 1.0), tol=10.0)
        assert result.converged
        assert result.n_used == DEFAULT_SCHEDULE[1]

    def test_degenerate_point_is_flagged_and_converges(self):
        result = z_saturated(KitaevParams(8, 1.0, 0.0, 1.0))
        assert result.degenerate
        assert result.converged
        assert result.z == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_inputs(self):
        params = KitaevParams(8, 1.0, 1.0, 1.0)
        for tol in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tol"):
                z_saturated(params, tol=tol)
        with pytest.raises(ValueError):
            z_saturated(params, schedule=(8, 8))
        with pytest.raises(ValueError):
            z_saturated(params, schedule=(2, 8))
        with pytest.raises(ValueError):
            z_saturated(dataclasses.replace(params, boundary="periodic"))

    def test_sign_symmetries(self):
        base = z_saturated(KitaevParams(8, 1.0, 1.5, 1.0))
        flipped_mu = z_saturated(KitaevParams(8, 1.0, -1.5, 1.0))
        flipped_w = z_saturated(KitaevParams(8, -1.0, 1.5, 1.0))
        assert flipped_mu.z == pytest.approx(base.z, abs=1e-3)
        assert flipped_w.z == pytest.approx(base.z, abs=1e-3)

    def test_excited_state_shares_saturated_value(self):
        params = KitaevParams(8, 1.0, 1.0, 1.0)
        ground = z_saturated(params)
        n = ground.n_used
        point = dataclasses.replace(params, n_sites=n)
        occupation = [0] * n
        occupation[-1] = 1  # lowest single-body excitation
        state, _, plan = prepare_eigenstate(point, occupation)
        sector = parity(occupation, plan.particle_hole)
        assert z_value(state, sector) == pytest.approx(ground.z, abs=1e-3)


class TestZAnalytic:
    def test_reference_points(self):
        assert z_analytic(KitaevParams(8, 1.0, 0.0, 1.0)) == pytest.approx(1.0)
        assert z_analytic(KitaevParams(8, 0.5, 0.0, 1.0)) == pytest.approx(8.0 / 9.0)

    def test_trivial_phase_clamps_to_zero(self):
        assert z_analytic(KitaevParams(8, 1.0, 3.0, 1.0)) == 0.0

    def test_zero_hopping_limit(self):
        assert z_analytic(KitaevParams(8, 0.0, 1.0, 1.0)) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(
        mu=st.floats(min_value=-4.0, max_value=4.0),
        hopping=st.floats(min_value=0.1, max_value=3.0),
        pairing=st.floats(min_value=0.1, max_value=3.0),
    )
    def test_range_and_sign_symmetry(self, mu, hopping, pairing):
        value = z_analytic(KitaevParams(8, hopping, mu, pairing))
        assert 0.0 <= value <= 1.0 + 1e-12
        assert value == z_analytic(KitaevParams(8, hopping, -mu, pairing))
        assert value == z_analytic(KitaevParams(8, -hopping, mu, pairing))


class TestMeanParticleNumber:
    def test_vacuum(self):
        assert mean_particle_number(TensorChain.product_state([0, 0, 0])) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_atomic_limit_fills_or_empties(self):
        filled, _, _ = prepare_eigenstate(KitaevParams(6, 0.0, 2.0, 0.0))
        empty, _, _ = prepare_eigenstate(KitaevParams(6, 0.0, -2.0, 0.0))
        assert mean_particle_number(filled) == pytest.approx(6.0, abs=1e-10)
        assert mean_particle_number(empty) == pytest.approx(0.0, abs=1e-10)

    def test_monotone_in_chemical_potential(self):
        values = []
        for mu in (-3.0, -1.5, -0.5, 0.5, 1.5, 3.0):
            params = KitaevParams(10, 1.0, mu, 1.0, boundary="periodic")
            state, _, _ = prepare_eigenstate(params)
            values.append(mean_particle_number(state))
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 10.0 for v in values)
