"""Tests for parity, the Z measure, and particle numbers.

Z of random parity-definite states is checked against the dense oracle's
edge operator, which re-derives the frozen 4x4 matrix; Z goes through three
independent routes (tensor
contraction, dense exact diagonalization, one-body covariance) that must
agree; saturation sweeps pin the published table values and the stop-rule
semantics.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covariance_route import covariance_matrix, covariance_z
from kitaev_chain import (
    DEFAULT_SCHEDULE,
    KitaevParams,
    TensorChain,
    build_coupling_matrix,
    mean_particle_number,
    parity,
    prepare_eigenstate,
    schur_decompose,
    z_analytic,
    z_saturated,
    z_value,
)
from kitaev_chain import oracle
from majorana_coupling import full_coupling
from parity_gates import random_pair_gate, random_site_sign

def dense_vector(state: TensorChain) -> np.ndarray:
    return state.fock_coefficients().reshape(-1)


def parity_definite_state(n_sites: int, bits, seed: int) -> TensorChain:
    """Random state of definite parity: parity-preserving gates on a basis state."""
    state = TensorChain.product_state(bits)
    rng = np.random.default_rng(seed)
    for _ in range(2):
        for left in range(n_sites - 1):
            state.apply_two_site_gate(left, random_pair_gate(rng))
        state.apply_single_site_gate(int(rng.integers(n_sites)), random_site_sign(rng))
    return state


def mirrored(state: TensorChain) -> TensorChain:
    """The spatial reflection of a state (site j -> site N-1-j).

    Reversing the chain of B's and transposing each gives the reflected
    amplitudes in left-canonical form; each tensor is brought back to
    right-canonical form with its bonds' Schmidt values, lambda_L B / lambda_R.
    """
    bonds = [np.ones(1), *state.lambdas, np.ones(1)]
    tensors = [
        (b * bonds[site][:, None] / bonds[site + 1]).transpose(0, 2, 1)
        for site, b in enumerate(state.gammas)
    ]
    lambdas = [lam.copy() for lam in reversed(state.lambdas)]
    return TensorChain(tensors[::-1], lambdas, degenerate=state.degenerate)


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

    def test_rejects_fractions_instead_of_truncating_them(self):
        with pytest.raises(ValueError, match="0 or 1"):
            parity([0.5, 1], False)

    def test_accepts_bools_and_integral_floats(self):
        assert parity([True, True], False) == "even"
        assert parity([1.0, 0.0], False) == "odd"

    @settings(max_examples=20, deadline=None)
    @given(
        bits=st.integers(min_value=0, max_value=31),
        mu=st.floats(min_value=-1.8, max_value=1.8),
    )
    def test_matches_reconstructed_state_parity(self, bits, mu):
        occupation = [(bits >> k) & 1 for k in range(5)]
        params = KitaevParams(5, 1.0, mu, 1.0)
        state, _, plan = prepare_eigenstate(params, occupation)
        assert parity(occupation, plan.particle_hole) == state.parity
        expected = 1.0 if state.parity == "even" else -1.0
        assert state.parity_expectation() == pytest.approx(expected, abs=1e-8)


class TestZValue:
    def test_vacuum_vanishes(self):
        state = TensorChain.product_state([0, 0, 0, 0])
        assert z_value(state, "even") == pytest.approx(0.0, abs=1e-12)

    def test_rejects_unknown_parity(self):
        with pytest.raises(ValueError, match="parity"):
            z_value(TensorChain.product_state([0, 0, 0]), "mixed")

    def test_sector_sets_only_the_sign_it_drops(self):
        state = parity_definite_state(5, (1, 0, 0, 0, 0), seed=3)
        assert state.parity == "odd"
        assert z_value(state, "even") == z_value(state, "odd") > 0.0

    @pytest.mark.parametrize("start", [(0, 0, 0, 0), (1, 0, 0, 0)])
    def test_matches_dense_edge_operator(self, start):
        # On parity-definite states the reduced end-pair operator is unique;
        # agreement over random such states of both sectors re-derives the frozen Q.
        for seed in range(4):
            state = parity_definite_state(4, start, seed=seed)
            assert state.parity == ("even" if state.parity_expectation() > 0 else "odd")
            dense = oracle.ed_expectation(oracle.dense_edge_operator(4, "Q"), dense_vector(state))
            assert abs(dense.imag) < 1e-12
            assert z_value(state, state.parity) == pytest.approx(abs(dense.real), abs=1e-10)

    def test_matches_dense_route_on_same_state(self):
        # The reference point with exactly decoupled end modes: Z is 1.
        params = KitaevParams(6, 1.0, 0.0, 1.0)
        state, _, _ = prepare_eigenstate(params)
        vec = dense_vector(state)
        dense = abs(oracle.ed_expectation(oracle.dense_edge_operator(6, "Q"), vec).real)
        assert z_value(state, state.parity) == pytest.approx(dense, abs=1e-9)
        assert z_value(state, state.parity) == pytest.approx(1.0, abs=1e-9)

    def test_matches_dense_ground_state_route(self):
        params = KitaevParams(6, 1.0, 0.8, 1.0)
        state, _, _ = prepare_eigenstate(params)
        h = oracle.dense_hamiltonian(6, 1.0, 0.8, 1.0)
        _, ground = oracle.ed_ground_state(h)
        dense = abs(oracle.ed_expectation(oracle.dense_edge_operator(6, "Q"), ground).real)
        assert z_value(state, state.parity) == pytest.approx(dense, abs=1e-9)

    @pytest.mark.parametrize(
        "n_sites,mu,hopping",
        [(6, 0.8, 1.0), (8, 1.0, 1.0), (8, 2.0, 1.0), (7, 0.4, 0.9)],
    )
    def test_matches_covariance_route(self, n_sites, mu, hopping):
        params = KitaevParams(n_sites, hopping, mu, 1.0)
        state, _, _ = prepare_eigenstate(params)
        assert z_value(state, state.parity) == pytest.approx(covariance_z(params), abs=1e-9)

    def test_mirror_symmetry(self):
        params = KitaevParams(5, 1.1, 0.7, 1.0)
        state, _, _ = prepare_eigenstate(params)
        assert z_value(mirrored(state), state.parity) == pytest.approx(
            z_value(state, state.parity), abs=1e-10
        )

    def test_wide_chain_reference_value(self):
        params = KitaevParams(64, 1.0, 0.0, 1.0)
        state, _, _ = prepare_eigenstate(params)
        assert z_value(state, state.parity) == pytest.approx(1.0, abs=5e-3)


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

    @pytest.mark.parametrize(
        "params",
        [
            # Topological points need an edge splitting far above rounding: at
            # mu = 0.7 it is 4e-17 at N = 40, and the ground level is not unique.
            KitaevParams(12, 1.0, 0.7, 1.0),
            *(KitaevParams(n, 1.0, mu, 1.0) for n in (12, 40, 96) for mu in (1.8, 3.0)),
            KitaevParams(10, 0.8, 2.5, 0.6, boundary="periodic"),
        ],
        ids=lambda p: f"{p.boundary}-N{p.n_sites}-mu{p.chemical_potential}",
    )
    def test_ground_covariance_matches_hermitian_eigenbasis(self, params):
        # The covariance route reads W from schur_decompose; pin it to a LAPACK
        # route that shares nothing with it: i A = V diag(lam) V^H, and the
        # ground state fills every negative level, C = Re(i V sign(lam) V^H).
        coupling = build_coupling_matrix(params)
        schur = schur_decompose(coupling)
        assert not schur.is_degenerate
        lam, v = np.linalg.eigh(1j * full_coupling(coupling))
        reference = (1j * (v * np.sign(lam)) @ v.conj().T).real
        np.testing.assert_allclose(covariance_matrix(params), reference, rtol=0.0, atol=1e-12)
        # the eigenvalues of i A are +-eps_k
        magnitudes = np.sort(np.abs(lam))[::-1]
        np.testing.assert_allclose(magnitudes[0::2], schur.epsilons, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(magnitudes[1::2], schur.epsilons, rtol=0.0, atol=1e-12)


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

    def test_rejects_fractional_schedule_instead_of_truncating_it(self):
        params = KitaevParams(8, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="whole chain lengths"):
            z_saturated(params, schedule=[8.5, 16.9, 24.2])
        result = z_saturated(params, schedule=[8, 16.0], tol=10.0)
        assert [n for n, _ in result.history] == [8, 16]
        assert type(result.n_used) is int

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
        state, _, _ = prepare_eigenstate(point, occupation)
        assert z_value(state, state.parity) == pytest.approx(ground.z, abs=1e-3)


class TestZAnalytic:
    def test_reference_points(self):
        assert z_analytic(KitaevParams(8, 1.0, 0.0, 1.0)) == pytest.approx(1.0)
        assert z_analytic(KitaevParams(8, 0.5, 0.0, 1.0)) == pytest.approx(8.0 / 9.0)

    def test_trivial_phase_clamps_to_zero(self):
        assert z_analytic(KitaevParams(8, 1.0, 3.0, 1.0)) == 0.0

    def test_zero_hopping_limit(self):
        assert z_analytic(KitaevParams(8, 0.0, 1.0, 1.0)) == 0.0

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_depends_on_coupling_ratios_only(self, scale):
        for hopping, mu, pairing in [(1.0, 0.0, 1.0), (0.5, 0.7, 1.0), (-1.5, -2.0, 0.3)]:
            scaled = KitaevParams(8, scale * hopping, scale * mu, scale * pairing)
            assert z_analytic(scaled) == pytest.approx(
                z_analytic(KitaevParams(8, hopping, mu, pairing)), rel=1e-15
            )

    @pytest.mark.parametrize(
        "params",
        [
            KitaevParams(8, 1e-200, 0.0, 1e-200),  # (|D| + |w|)^2 underflows
            KitaevParams(8, 1e-300, 1.0, 1.0),     # (mu / 2w)^2 overflows
            KitaevParams(8, 1.0, 3.0, 0.0),        # trivial phase without pairing
        ],
        ids=["tiny", "lopsided", "no-pairing"],
    )
    def test_extreme_couplings_give_a_finite_value(self, params):
        value = z_analytic(params)
        assert 0.0 <= value <= 1.0
        assert math.copysign(1.0, value) == 1.0  # never -0.0

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
