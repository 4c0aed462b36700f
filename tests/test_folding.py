"""Tests for the rotation-plan folding and eigenstate reconstruction.

Small matrices with hand-checkable folds pin the angle/sign conventions; the
dense oracle provides eigenvector overlaps for reconstructed states, the
plan-free covariance route checks chains beyond its reach, and hypothesis
drives the fold/replay round trip over random orthogonal blocks and the built
states over random chains.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from covariance_route import covariance_matrix, covariance_z
from folding_reference import reference_fold
from kitaev_chain import (
    FoldingPlan,
    KitaevParams,
    MajoranaSchur,
    BondOverflowError,
    Rotation,
    build_coupling_matrix,
    TensorChain,
    bond_gate,
    build_eigenstates,
    compute_folding_plan,
    eigenenergy,
    energy_expectation,
    parity,
    prepare_eigenstate,
    reconstruct_eigenstate,
    reduce_modes,
    schur_decompose,
    z_value,
)
from kitaev_chain import oracle
from kitaev_chain.folding import _fold_plans


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diagonal(r))


def chiral(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """The 2N x 2N matrix with ``even`` on (even rows, even Majoranas), ``odd`` on the odd ones."""
    n_sites = even.shape[0]
    w = np.zeros((2 * n_sites, 2 * n_sites))
    w[0::2, 0::2] = even
    w[1::2, 1::2] = odd
    return w


def dense_vector(state) -> np.ndarray:
    return state.fock_coefficients().reshape(-1)


def givens(n_sites: int, column: int, angle: float) -> np.ndarray:
    result = np.eye(n_sites)
    lo, hi = column - 1, column
    c, s = np.cos(angle), np.sin(angle)
    result[[lo, hi, lo, hi], [lo, hi, hi, lo]] = c, c, -s, s
    return result


def replayed(even: np.ndarray, odd: np.ndarray, plan: FoldingPlan) -> tuple[np.ndarray, ...]:
    """Each block times its rotations as explicit Givens matrices."""
    for rotation in plan.rotations:
        even = even @ givens(plan.n_sites, rotation.column, rotation.even_angle)
        odd = odd @ givens(plan.n_sites, rotation.column, rotation.odd_angle)
    return even, odd


def is_identity_step(rotation: Rotation) -> bool:
    return max(abs(np.sin(rotation.even_angle / 2)), abs(np.sin(rotation.odd_angle / 2))) < 2.0**-53


@functools.lru_cache(maxsize=2)
def dense_eigensystem(params: KitaevParams) -> tuple[np.ndarray, np.ndarray]:
    h = oracle.dense_hamiltonian(
        params.n_sites,
        params.hopping,
        params.chemical_potential,
        params.pairing_magnitude,
        boundary=params.boundary,
    )
    # real pairing makes H real; a real eigh of the same matrix is several times faster
    assert not h.imag.any()
    return np.linalg.eigh(h.real)


def eigenspace_weight(params: KitaevParams, vec: np.ndarray, energy: float) -> float:
    """Norm of the projection of ``vec`` onto the eigenspace at ``energy``."""
    values, vectors = dense_eigensystem(params)
    members = np.abs(values - energy) < 1e-8 * max(1.0, abs(energy))
    assert members.any(), "no dense eigenvalue at the predicted energy"
    overlaps = vectors[:, members].conj().T @ vec
    return float(np.sqrt(np.sum(np.abs(overlaps) ** 2)))


class TestComputeFoldingPlan:
    def test_identity_builds_the_reference_state(self):
        # The identity is chiral and already reduced; QR keeps each mode up to a sign
        # (its entry at Majorana N + k is zero, so no sign is preferred).
        even, odd = reduce_modes(np.eye(2), np.eye(2), [0, 0])
        np.testing.assert_array_equal(np.abs(even), np.eye(2))
        np.testing.assert_array_equal(even, odd)
        plan = compute_folding_plan(MajoranaSchur(np.eye(2), np.eye(2), [2.0, 1.0]), [0, 0])
        assert plan.n_sites == 2
        assert plan.occupation == plan.reference == (0, 0)
        assert plan.rotations == ()  # a sign is a reference bit, not a rotation by pi
        assert plan.particle_hole is False
        assert plan.replay_residual < 1e-15
        amps = reconstruct_eigenstate(plan).fock_coefficients()
        assert abs(amps[0, 0]) == pytest.approx(1.0, abs=1e-15)

    def test_two_site_even_rotation_is_one_step(self):
        angle = np.pi / 3
        even = givens(2, 1, angle).T
        np.testing.assert_allclose(reduce_modes(even, np.eye(2), [0, 0]), (even, np.eye(2)),
                                   atol=1e-15)
        plan = compute_folding_plan(MajoranaSchur(even, np.eye(2), [0.7, 0.2]), [0, 0])
        assert len(plan.rotations) == 1
        (row, column, even_angle, odd_angle), = plan.rotations
        assert (row, column, odd_angle) == (0, 1, 0.0)
        assert even_angle == pytest.approx(angle, abs=1e-15)
        assert plan.particle_hole is False
        np.testing.assert_allclose(replayed(even, np.eye(2), plan), (np.eye(2),) * 2, atol=1e-15)

    def test_two_by_two_reflection_sets_particle_hole(self):
        even, odd = np.eye(1), -np.eye(1)
        # The mode's last entry (Majorana 1) is made non-negative: the row flips sign.
        np.testing.assert_array_equal(reduce_modes(even, odd, [0]), (-even, -odd))
        plan = compute_folding_plan(MajoranaSchur(even, odd, [0.7]), [0])
        assert plan.rotations == ()
        assert plan.reference == (1,)
        assert plan.particle_hole is True
        np.testing.assert_array_equal(replayed(-even, -odd, plan), (-even, -odd))

    def test_plan_is_immutable(self):
        plan = compute_folding_plan(MajoranaSchur(np.eye(1), np.eye(1), [1.0]), [0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.reference = (1,)

    @settings(max_examples=40, deadline=None)
    @given(
        n_sites=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31),
        reflect=st.booleans(),
        bits=st.integers(min_value=0, max_value=31),
    )
    def test_fold_replay_round_trip(self, n_sites, seed, reflect, bits):
        rng = np.random.default_rng(seed)
        even, odd = random_orthogonal(n_sites, rng), random_orthogonal(n_sites, rng)
        if reflect:
            even[0, :] = -even[0, :]
        occupation = [(bits >> k) & 1 for k in range(n_sites)]
        schur = MajoranaSchur(even, odd, np.linspace(2.0, 1.0, n_sites))
        plan = compute_folding_plan(schur, occupation)
        for rot in plan.rotations:
            assert -np.pi / 2 < rot.even_angle <= np.pi / 2
            assert -np.pi / 2 < rot.odd_angle <= np.pi / 2
            assert not is_identity_step(rot)
        folded = replayed(*reduce_modes(even, odd, occupation), plan)
        signs = [np.sign(np.diagonal(block)) for block in folded]
        for block, sign in zip(folded, signs):
            np.testing.assert_allclose(block, np.diag(sign), atol=1e-9)
        flipped = signs[0] != signs[1]
        assert plan.reference == tuple(int(n != f) for n, f in zip(occupation, flipped))
        assert plan.particle_hole == bool(np.count_nonzero(flipped) % 2)
        assert plan.replay_residual < 1e-9
        # The product of the folded signs is the determinant the rotations cannot
        # absorb; the mode recombination is unitary, so it keeps the determinant.
        assert plan.particle_hole == (np.linalg.det(even) * np.linalg.det(odd) < 0.0)


def fold_bits(rotations) -> list[tuple]:
    """Each rotation with its angles as exact hex text, so -0.0 and 0.0 differ."""
    return [(r.row, r.column, r.even_angle.hex(), r.odd_angle.hex()) for r in rotations]


class TestLockstepFold:
    """``compute_folding_plan`` folds both blocks as one stack and starts each row
    at its last nonzero column; the triangular loop of ``folding_reference`` is
    the referee, and the plans must agree bit for bit."""

    @staticmethod
    def assert_same_fold(schur: MajoranaSchur, occupation) -> None:
        plan = compute_folding_plan(schur, occupation)
        rotations, reference, residual = reference_fold(schur, occupation)
        assert fold_bits(plan.rotations) == fold_bits(rotations)
        assert plan.reference == reference
        assert plan.replay_residual.hex() == residual.hex()

    @example(n_sites=24, hopping=1.0, mu=2.0, pairing=1.0, periodic=False, bits=0)
    @example(n_sites=10, hopping=1.0, mu=0.0, pairing=1.0, periodic=True, bits=0)
    @settings(max_examples=60, deadline=None)
    @given(
        n_sites=st.integers(min_value=2, max_value=24),
        hopping=st.floats(min_value=-2.0, max_value=2.0),
        mu=st.floats(min_value=-4.0, max_value=4.0),
        pairing=st.floats(min_value=0.0, max_value=2.0),
        periodic=st.booleans(),
        bits=st.integers(min_value=0, max_value=2**24 - 1),
    )
    def test_chain_plans_match_the_triangular_loop(
        self, n_sites, hopping, mu, pairing, periodic, bits
    ):
        boundary = "periodic" if periodic else "open"
        params = KitaevParams(n_sites, hopping, mu, pairing, boundary=boundary)
        schur = schur_decompose(build_coupling_matrix(params))
        self.assert_same_fold(schur, [(bits >> k) & 1 for k in range(n_sites)])

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("n_sites", [2, 3, 6, 10, 17, 24])
    def test_atomic_limit_plans_match_the_triangular_loop(self, n_sites, boundary):
        schur = schur_decompose(
            build_coupling_matrix(KitaevParams(n_sites, 0.0, 2.0, 0.0, boundary=boundary))
        )
        rng = np.random.default_rng(n_sites)
        for occupation in ([0] * n_sites, list(rng.integers(0, 2, n_sites))):
            self.assert_same_fold(schur, occupation)

    @settings(max_examples=30, deadline=None)
    @given(
        n_sites=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
        bits=st.integers(min_value=0, max_value=255),
    )
    def test_random_orthogonal_plans_match_the_triangular_loop(self, n_sites, seed, bits):
        rng = np.random.default_rng(seed)
        even, odd = random_orthogonal(n_sites, rng), random_orthogonal(n_sites, rng)
        schur = MajoranaSchur(even, odd, np.linspace(2.0, 1.0, n_sites))
        self.assert_same_fold(schur, [(bits >> k) & 1 for k in range(n_sites)])


def random_chain(data, max_sites: int) -> tuple[MajoranaSchur, list[int]]:
    """A hypothesis-drawn chain, open or periodic, and a random occupation of it."""
    n_sites = data.draw(st.integers(min_value=2, max_value=max_sites))
    periodic = data.draw(st.booleans()) and n_sites >= 3
    params = KitaevParams(
        n_sites,
        data.draw(st.floats(min_value=-2.0, max_value=2.0)),
        data.draw(st.floats(min_value=-4.0, max_value=4.0)),
        data.draw(st.floats(min_value=0.0, max_value=2.0)),
        boundary="periodic" if periodic else "open",
    )
    bits = data.draw(st.integers(min_value=0, max_value=2**n_sites - 1))
    return schur_decompose(build_coupling_matrix(params)), [(bits >> k) & 1 for k in range(n_sites)]


def plan_bits(plan: FoldingPlan) -> tuple:
    """Everything a plan holds, angles and residual as exact hex text."""
    return (
        fold_bits(plan.rotations), plan.reference, plan.replay_residual.hex(),
        plan.degenerate, plan.occupation, plan.n_sites,
    )


class TestStackedFold:
    """The members of a batch are folded as one (N, P, 2, N) stack; each member's
    plan must be the one-member plan and the triangular loop's, bit for bit."""

    @staticmethod
    def assert_batch_matches(chains) -> None:
        plans = _fold_plans([schur for schur, _ in chains], [occ for _, occ in chains])
        for (schur, occupation), plan in zip(chains, plans):
            alone = compute_folding_plan(schur, occupation)
            assert plan_bits(plan) == plan_bits(alone)
            rotations, reference, residual = reference_fold(schur, occupation)
            assert fold_bits(plan.rotations) == fold_bits(rotations)
            assert (plan.reference, plan.replay_residual.hex()) == (reference, residual.hex())

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), size=st.integers(min_value=1, max_value=8))
    def test_mixed_batches_match_the_single_plans(self, data, size):
        chains = [random_chain(data, 14) for _ in range(size)]
        duplicates = data.draw(st.lists(st.integers(0, size - 1), max_size=3))
        self.assert_batch_matches(chains + [chains[k] for k in duplicates])

    @pytest.mark.parametrize("n_sites", [2, 6, 10, 13])
    def test_atomic_limit_in_a_batch(self, n_sites):
        rng = np.random.default_rng(n_sites)
        chains = []
        for boundary in ("open", "periodic"):
            if boundary == "periodic" and n_sites < 3:
                continue
            for hopping, pairing in ((0.0, 0.0), (1.0, 1.0)):
                params = KitaevParams(n_sites, hopping, 2.0, pairing, boundary=boundary)
                schur = schur_decompose(build_coupling_matrix(params))
                chains += [(schur, [0] * n_sites), (schur, list(rng.integers(0, 2, n_sites)))]
        self.assert_batch_matches(chains)

    def test_invalid_occupation_fails_its_member_alone(self):
        schur = schur_decompose(build_coupling_matrix(KitaevParams(4, 1.0, 1.0, 1.0)))
        plans = _fold_plans([schur, schur, schur], [[0] * 4, [0, 0, 2, 0], [0, 0, 0]])
        assert plan_bits(plans[0]) == plan_bits(compute_folding_plan(schur, [0] * 4))
        for plan, occupation in zip(plans[1:], ([0, 0, 2, 0], [0, 0, 0])):
            with pytest.raises(ValueError) as alone:
                compute_folding_plan(schur, occupation)
            assert type(plan) is ValueError and str(plan) == str(alone.value)


def surface_schurs() -> list[MajoranaSchur]:
    """The 289 points of the default particles / energy-accuracy surface."""
    axis = [0.5 * k for k in range(-8, 9)]
    return [
        schur_decompose(build_coupling_matrix(KitaevParams(10, w, mu, 1.0, boundary="periodic")))
        for w in axis
        for mu in axis
    ]


def built_alone(schur: MajoranaSchur, occupation, **kwargs):
    """(state, plan) built one point at a time, or the type and text of what it raised."""
    try:
        plan = compute_folding_plan(schur, occupation)
        return reconstruct_eigenstate(plan, **kwargs), plan
    except Exception as exc:
        return type(exc), str(exc)


def assert_built_alike(built, alone) -> None:
    if isinstance(alone[0], TensorChain):
        (state, plan), (state_alone, plan_alone) = built, alone
        assert plan_bits(plan) == plan_bits(plan_alone)
        assert state.to_json() == state_alone.to_json()
        assert state.even_counts == state_alone.even_counts
        assert state.degenerate == state_alone.degenerate == plan.degenerate
    else:
        assert (type(built), str(built)) == alone


class TestBuildEigenstates:
    """A batch is built in lockstep; each member must come out as it is built alone."""

    @pytest.mark.parametrize("permuted", [False, True], ids=["in-order", "permuted"])
    def test_default_surface_matches_the_states_built_alone(self, permuted):
        schurs = surface_schurs()
        order = np.random.default_rng(3).permutation(len(schurs)) if permuted else range(len(schurs))
        schurs = [schurs[k] for k in order]
        built = build_eigenstates(schurs)
        assert len(built) == len(schurs)
        for schur, result in zip(schurs, built):
            assert_built_alike(result, built_alone(schur, [0] * schur.n_sites))

    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), size=st.integers(min_value=1, max_value=10))
    def test_random_batches_match_the_states_built_alone(self, data, size):
        chains = [random_chain(data, 12) for _ in range(size)]
        chains += [chains[k] for k in data.draw(st.lists(st.integers(0, size - 1), max_size=2))]
        built = build_eigenstates([schur for schur, _ in chains], [occ for _, occ in chains])
        for (schur, occupation), result in zip(chains, built):
            assert_built_alike(result, built_alone(schur, occupation))

    def test_overflowing_members_fail_alone(self):
        """With a low cap some members overflow: they carry the single path's error
        text, and the others stay bit-identical to their states built alone."""
        schurs = surface_schurs()[::7]
        built = build_eigenstates(schurs, max_bond=16)
        alone = [built_alone(schur, [0] * 10, max_bond=16) for schur in schurs]
        failed = [k for k, result in enumerate(alone) if result[0] is BondOverflowError]
        assert 0 < len(failed) < len(schurs)
        for result, expected in zip(built, alone):
            assert_built_alike(result, expected)

    def test_invalid_occupation_fails_its_member_alone(self):
        schurs = surface_schurs()[100:103]
        built = build_eigenstates(schurs, [[0] * 10, [0] * 9, [1] + [0] * 9])
        assert isinstance(built[1], ValueError) and "length 10" in str(built[1])
        assert_built_alike(built[0], built_alone(schurs[0], [0] * 10))
        assert_built_alike(built[2], built_alone(schurs[2], [1] + [0] * 9))

    def test_empty_batch(self):
        assert build_eigenstates([]) == []


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
            sector = state.parity
            assert parity(occupation, plan.particle_hole) == sector
            expected_parity = 1.0 if sector == "even" else -1.0
            assert state.parity_expectation() == pytest.approx(expected_parity, abs=1e-10)
            if n_sites <= oracle.MAX_SITES:
                energy = eigenenergy(schur.epsilons, occupation)
                weight = eigenspace_weight(params, dense_vector(state), energy)
                assert weight == pytest.approx(1.0, abs=1e-10)
                continue
            c = covariance_matrix(params, occupation)
            filling = [state.rdm_site(j)[1, 1] for j in range(n_sites)]
            expected = [(1.0 + c[2 * j, 2 * j + 1]) / 2.0 for j in range(n_sites)]
            np.testing.assert_allclose(filling, expected, atol=1e-10)
            z = covariance_z(params, occupation)
            assert z_value(state, sector) == pytest.approx(z, abs=1e-10)

    @pytest.mark.parametrize("n_sites,hopping,mu,pairing,boundary", REDUCTION_POINTS)
    def test_recombination_commutes_with_reference_structure(
        self, n_sites, hopping, mu, pairing, boundary
    ):
        params = KitaevParams(n_sites, hopping, mu, pairing, boundary=boundary)
        schur = schur_decompose(build_coupling_matrix(params))
        occupation = list(np.random.default_rng(n_sites).integers(0, 2, n_sites))
        reduced = chiral(*reduce_modes(schur.even, schur.odd, occupation))
        dim = 2 * n_sites
        np.testing.assert_allclose(reduced @ reduced.T, np.eye(dim), atol=1e-13)
        mixing = reduced @ chiral(schur.even, schur.odd).T
        j = complex_structure(occupation)
        np.testing.assert_allclose(mixing @ j, j @ mixing, atol=1e-13)
        # Mode k has no weight beyond Majorana N + k.
        for k in range(n_sites):
            assert not reduced[2 * k : 2 * k + 2, n_sites + k + 1 :].any()

    @pytest.mark.parametrize("n_sites,mu", LADDER)
    def test_ladder_fold_needs_about_half_the_rotations(self, n_sites, mu):
        schur = schur_decompose(build_coupling_matrix(KitaevParams(n_sites, 1.0, mu, 1.0)))
        plan = compute_folding_plan(schur, [0] * n_sites)
        assert not any(is_identity_step(rotation) for rotation in plan.rotations)
        assert len(plan.rotations) <= 0.55 * (2 * n_sites**2 - n_sites)

    @pytest.mark.parametrize(
        "n_sites,mu,occupation",
        [(n, mu, None) for n, mu in LADDER] + [(16, 1.0, [1] + [0] * 15)],
    )
    def test_fold_needs_a_quarter_n_squared_steps(self, n_sites, mu, occupation):
        """Steps beyond Majorana N + row and steps that are the identity to double
        precision are left out, and every rotation keeps the sign of the entry it
        folds onto."""
        schur = schur_decompose(build_coupling_matrix(KitaevParams(n_sites, 1.0, mu, 1.0)))
        plan = compute_folding_plan(schur, occupation or [0] * n_sites)
        assert len(plan.rotations) == n_sites**2 // 4
        for rotation in plan.rotations:
            assert abs(rotation.even_angle) <= np.pi / 2
            assert abs(rotation.odd_angle) <= np.pi / 2
        assert plan.replay_residual < 1e-13

    @pytest.mark.parametrize("n_sites,gates", [(6, 3), (10, 12)])
    def test_atomic_limit_folds_without_half_turns(self, n_sites, gates):
        """w = |D| = 0: a product state, whose signs become reference bits instead of
        rotations by pi; the steps left are quarter turns that undo the order in which
        the mode recombination, whose QR meets exactly zero pivots, lists the site modes."""
        params = KitaevParams(n_sites, 0.0, 2.0, 0.0)
        state, _, plan = prepare_eigenstate(params)
        assert len(plan.rotations) == gates
        for rotation in plan.rotations:
            assert abs(rotation.even_angle) <= np.pi / 2
            assert abs(rotation.odd_angle) <= np.pi / 2
        assert state.bond_dimensions == (1,) * (n_sites - 1)
        assert state.parity == parity(plan.occupation, plan.particle_hole)


class TestChiralFold:
    # Periodic chains on which N times one bond's energy misses the eigenenergy by
    # 1.6e-12 to 5.5e-11: that product multiplies the built state's rounding error
    # by N, while the sum over all N bonds is second order in it.
    @example(n_sites=9, hopping=0.984375, mu=0.15625, pairing=1.25, periodic=True, bits=4)
    @example(n_sites=8, hopping=0.5, mu=1e-5, pairing=1.0, periodic=True, bits=64)
    @example(n_sites=8, hopping=0.71875, mu=2.5, pairing=1.25, periodic=True, bits=1)
    @settings(max_examples=30, deadline=None)
    @given(
        n_sites=st.integers(min_value=2, max_value=oracle.MAX_SITES),
        hopping=st.floats(min_value=0.3, max_value=1.5),
        mu=st.floats(min_value=-3.0, max_value=3.0),
        pairing=st.floats(min_value=0.3, max_value=1.5),
        periodic=st.booleans(),
        bits=st.integers(min_value=0, max_value=2**oracle.MAX_SITES - 1),
    )
    def test_built_state_is_the_dense_eigenvector(
        self, n_sites, hopping, mu, pairing, periodic, bits
    ):
        boundary = "periodic" if periodic and n_sites >= 3 else "open"
        params = KitaevParams(n_sites, hopping, mu, pairing, boundary=boundary)
        schur = schur_decompose(build_coupling_matrix(params))
        occupation = [(bits >> k) & 1 for k in range(n_sites)]
        for k in range(1, n_sites):  # fill each level of equal energies as a whole
            if abs(schur.epsilons[k] - schur.epsilons[k - 1]) < schur.zero_tol:
                occupation[k] = occupation[k - 1]
        plan = compute_folding_plan(schur, occupation)
        values, vectors = dense_eigensystem(params)
        energy = eigenenergy(schur.epsilons, occupation)
        distance = np.abs(values - energy)
        assume(not plan.degenerate and np.sort(distance)[1] > 1e-6)
        state = reconstruct_eigenstate(plan)
        overlap = abs(vectors[:, np.argmin(distance)].conj() @ dense_vector(state))
        assert overlap == pytest.approx(1.0, abs=1e-12)
        assert parity(occupation, plan.particle_hole) == state.parity
        expected_parity = 1.0 if state.parity == "even" else -1.0
        assert state.parity_expectation() == pytest.approx(expected_parity, abs=1e-12)
        assert energy_expectation(state, params) == pytest.approx(energy, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        n_sites=st.integers(min_value=2, max_value=12),
        hopping=st.floats(min_value=-2.0, max_value=2.0),
        mu=st.floats(min_value=-4.0, max_value=4.0),
        pairing=st.floats(min_value=0.0, max_value=2.0),
        periodic=st.booleans(),
        bits=st.integers(min_value=0, max_value=2**12 - 1),
    )
    def test_sector_of_plan_and_state_agree(self, n_sites, hopping, mu, pairing, periodic, bits):
        """Every angle keeps its entry's sign, and the sector from the plan's flag, the
        one the state reports and the sign of its measured parity are one sector."""
        boundary = "periodic" if periodic and n_sites >= 3 else "open"
        params = KitaevParams(n_sites, hopping, mu, pairing, boundary=boundary)
        occupation = [(bits >> k) & 1 for k in range(n_sites)]
        state, _, plan = prepare_eigenstate(params, occupation)
        for rotation in plan.rotations:
            assert -np.pi / 2 < rotation.even_angle <= np.pi / 2
            assert -np.pi / 2 < rotation.odd_angle <= np.pi / 2
        assert parity(occupation, plan.particle_hole) == state.parity
        assert state.parity_expectation() == pytest.approx(
            1.0 if state.parity == "even" else -1.0, abs=1e-10
        )

    @pytest.mark.parametrize("n_sites", [16, 32, 40])
    def test_critical_transient_stays_at_the_target_bond(self, n_sites, monkeypatch):
        """On the critical ladder points the replay never holds a larger bond than the
        state it builds (measured 35, 65 and 81 at N = 16, 32 and 40)."""
        apply = TensorChain.apply_two_site_gate
        peak = 0

        def recording(state, left_site, *args, **kwargs):
            nonlocal peak
            apply(state, left_site, *args, **kwargs)
            peak = max(peak, state.lambdas[left_site].size)

        monkeypatch.setattr(TensorChain, "apply_two_site_gate", recording)
        state, _, _ = prepare_eigenstate(KitaevParams(n_sites, 1.0, 2.0, 1.0))
        assert peak == max(state.bond_dimensions)


class TestBondGate:
    def test_zero_angles_are_identity(self):
        np.testing.assert_array_equal(bond_gate(0.0, 0.0), np.eye(4))

    def test_full_turn_is_minus_identity(self):
        np.testing.assert_allclose(bond_gate(2.0 * np.pi, 0.0), -np.eye(4), atol=1e-15)
        np.testing.assert_allclose(bond_gate(0.0, 2.0 * np.pi), -np.eye(4), atol=1e-15)

    def test_half_turns_are_majorana_pairs(self):
        # gamma_0 gamma_2 = J (x) X and gamma_1 gamma_3 = -X (x) J on two sites
        j = np.array([[0.0, -1.0], [1.0, 0.0]])
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(bond_gate(np.pi, 0.0), -np.kron(j, x), atol=1e-15)
        np.testing.assert_allclose(bond_gate(0.0, np.pi), np.kron(x, j), atol=1e-15)

    @pytest.mark.parametrize("even_angle,odd_angle", [(0.3, -1.1), (np.pi, 0.5), (-2.0, 2.9)])
    def test_matches_dense_majorana_products(self, even_angle, odd_angle):
        """The gate is exp(-a/2 g0 g2) exp(-b/2 g1 g3) on the oracle's two-site Majoranas;
        (g_lo g_hi)^2 = -1 makes each exponential cos(t/2) I - sin(t/2) g_lo g_hi."""
        g = [oracle.dense_majorana(2, mode) for mode in range(4)]
        expected = np.eye(4)
        for (lo, hi), angle in (((0, 2), even_angle), ((1, 3), odd_angle)):
            factor = np.cos(angle / 2) * np.eye(4) - np.sin(angle / 2) * g[lo] @ g[hi]
            expected = expected @ factor
        np.testing.assert_allclose(bond_gate(even_angle, odd_angle), expected, atol=1e-15)

    def test_angle_arrays_give_the_scalar_gates_bit_for_bit(self):
        rng = np.random.default_rng(5)
        quarter = np.pi / 2
        even = [0.0, -0.0, quarter, -quarter, 0.0, quarter, *rng.uniform(-quarter, quarter, 20)]
        odd = [quarter, -quarter, 0.0, -0.0, -quarter, quarter, *rng.uniform(-quarter, quarter, 20)]
        gates = bond_gate(np.array(even), np.array(odd))
        assert gates.shape == (len(even), 4, 4)
        for gate, even_angle, odd_angle in zip(gates, even, odd):
            assert gate.tobytes() == bond_gate(even_angle, odd_angle).tobytes()
        assert bond_gate(np.zeros(0), np.zeros(0)).shape == (0, 4, 4)

    def test_mixes_equal_parity_only(self):
        u = bond_gate(0.7, -0.4)
        # |00>,|11> (even) and |01>,|10> (odd) blocks; the cross entries vanish.
        for even_index in (0, 3):
            for odd_index in (1, 2):
                assert u[even_index, odd_index] == 0.0
                assert u[odd_index, even_index] == 0.0

    @settings(max_examples=30, deadline=None)
    @given(
        even_angle=st.floats(min_value=-10.0, max_value=10.0),
        odd_angle=st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_gate_is_real_orthogonal_and_factors_commute(self, even_angle, odd_angle):
        u = bond_gate(even_angle, odd_angle)
        assert u.dtype == np.float64
        np.testing.assert_allclose(u.T @ u, np.eye(4), atol=1e-14)
        np.testing.assert_allclose(
            bond_gate(even_angle, 0.0) @ bond_gate(0.0, odd_angle),
            bond_gate(0.0, odd_angle) @ bond_gate(even_angle, 0.0),
            atol=1e-15,
        )


class TestReconstruction:
    def test_zero_angle_plan_returns_reference(self):
        plan = FoldingPlan(2, (), reference=(1, 0), replay_residual=0.0, degenerate=False,
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
            compute_folding_plan(MajoranaSchur(np.eye(3), np.eye(3), [1.0, 0.8, 0.5]), (0, 0))

    def test_fractional_occupation_is_rejected_not_truncated(self):
        with pytest.raises(ValueError, match="0 or 1"):
            prepare_eigenstate(KitaevParams(4, 1.0, 1.0, 1.0), [0.9, 0, 0, 1.5])

    def test_split_level_state_is_flagged_and_has_its_level_energy(self):
        # Periodic N = 8: modes 1 and 2 share epsilon = 2.80 (momenta +-k); filling one
        # of them picks an eigenstate that is not translation invariant.  The energy
        # sums every bond, so it does not need translation invariance.
        params = KitaevParams(8, 1.0, 1.0, 1.0, boundary="periodic")
        occupation = [0, 1, 0, 0, 0, 0, 0, 0]
        state, schur, plan = prepare_eigenstate(params, occupation)
        assert not schur.is_degenerate
        assert abs(schur.epsilons[1] - schur.epsilons[2]) < schur.zero_tol
        assert plan.degenerate and state.degenerate
        energy = eigenenergy(schur.epsilons, occupation)
        assert energy_expectation(state, params) == pytest.approx(energy, abs=1e-12)
        weight = eigenspace_weight(params, dense_vector(state), energy)
        assert weight == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("occupation", [[0] * 8, [1] + [0] * 7, [0, 1, 1, 0, 0, 0, 0, 0]])
    def test_unsplit_periodic_level_energy(self, occupation):
        # Mode 0 (epsilon = 3) is a level of its own; modes 1 and 2 fill a level together.
        params = KitaevParams(8, 1.0, 1.0, 1.0, boundary="periodic")
        state, schur, plan = prepare_eigenstate(params, occupation)
        assert not plan.degenerate
        expected = eigenenergy(schur.epsilons, occupation)
        assert energy_expectation(state, params) == pytest.approx(expected, abs=1e-8)

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
        reference = TensorChain.product_state(plan.reference)
        assert state.norm() == pytest.approx(1.0, abs=1e-10)
        assert state.parity_expectation() == pytest.approx(
            reference.parity_expectation(), abs=1e-8
        )
