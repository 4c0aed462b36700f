"""Tests for the Majorana coupling block and its canonical decomposition.

Frozen small cases pin the entry conventions of the even-odd block B; the
dense oracle provides an independent route to the same physics (Fock-space
Hamiltonian built straight from creation/annihilation operators, against the
full coupling A assembled from B in the test), and hypothesis drives the
decomposition over random blocks B.
"""

import dataclasses
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kitaev_chain import (
    KitaevParams,
    MajoranaSchur,
    analytic_periodic_energies,
    as_occupation,
    build_coupling_matrix,
    eigenenergy,
    schur_decompose,
)
from kitaev_chain import oracle, prepare_eigenstate, quadratic
from majorana_coupling import full_coupling


class TestKitaevParams:
    def test_rejects_short_chain(self):
        with pytest.raises(ValueError):
            KitaevParams(1, 1.0, 0.0, 1.0)

    def test_rejects_negative_pairing_magnitude(self):
        with pytest.raises(ValueError):
            KitaevParams(4, 1.0, 0.0, -1.0)

    @pytest.mark.parametrize("field", ["hopping", "chemical_potential", "pairing_magnitude"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, field, value):
        fields = dict(n_sites=4, hopping=1.0, chemical_potential=0.0, pairing_magnitude=1.0)
        fields[field] = value
        with pytest.raises(ValueError, match=field):
            KitaevParams(**fields)

    def test_couplings_at_the_overflow_bound(self):
        # N (|mu| + 2|w| + 2|D|) bounds every energy: at float max it is accepted,
        # one ulp of mu beyond it overflows and is refused.
        at_bound = sys.float_info.max / 2
        KitaevParams(2, 0.0, at_bound, 0.0)
        with pytest.raises(ValueError, match="couplings overflow"):
            KitaevParams(2, 0.0, math.nextafter(at_bound, math.inf), 0.0)

    def test_rejects_unknown_boundary(self):
        with pytest.raises(ValueError):
            KitaevParams(4, 1.0, 0.0, 1.0, boundary="twisted")

    def test_integral_float_chain_length_is_stored_as_int(self):
        params = KitaevParams(8.0, 1.0, 1.0, 1.0)
        assert params.n_sites == 8 and type(params.n_sites) is int
        state, _, _ = prepare_eigenstate(params)
        assert state.n_sites == 8

    def test_rejects_fractional_chain_length(self):
        with pytest.raises(ValueError, match="n_sites"):
            KitaevParams(8.5, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_chain_length(self, value):
        # int() raises OverflowError on an infinity; the check reports ValueError for all
        with pytest.raises(ValueError, match="n_sites"):
            KitaevParams(value, 1.0, 1.0, 1.0)


class TestOccupationValidation:
    def test_passthrough(self):
        np.testing.assert_array_equal(as_occupation([1, 0, 1], 3), [1, 0, 1])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            as_occupation([0, 1], 3)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            as_occupation([0, 2, 0], 3)

    def test_rejects_fractions_instead_of_truncating_them(self):
        with pytest.raises(ValueError, match="0 or 1"):
            as_occupation([0.5, 1.9], 2)

    def test_accepts_bools_and_integral_floats(self):
        for bits in ([True, False], [1.0, 0.0]):
            occ = as_occupation(bits, 2)
            assert occ.dtype.kind == "i"
            np.testing.assert_array_equal(occ, [1, 0])


class TestCouplingBlock:
    def test_entries_are_read_only(self):
        b = build_coupling_matrix(KitaevParams(2, 1.0, 0.5, 0.25))
        with pytest.raises(ValueError):
            b[0, 1] = 7.0

    def test_open_chain_entries(self):
        b = build_coupling_matrix(KitaevParams(2, 1.0, 0.5, 0.25))
        want = np.array(
            [
                [-0.5, 0.25 - 1.0],      # on-site -mu; bond (0, 1): |D| - w
                [-(0.25 + 1.0), -0.5],   # bond (0, 1): -(|D| + w); on-site -mu
            ]
        )
        np.testing.assert_array_equal(b, want)

    def test_periodic_two_sites_accumulates(self):
        # The two bonds of the N = 2 ring connect the same pair of sites:
        # their pairing contributions cancel and the hoppings add up.
        b = build_coupling_matrix(KitaevParams(2, 1.0, 0.0, 0.7, boundary="periodic"))
        np.testing.assert_allclose(b, [[0.0, -2.0], [-2.0, 0.0]], atol=1e-15)

    def test_periodic_wrap_corners(self):
        # The bond (2, 0) of the N = 3 ring fills the two corners the open chain leaves empty.
        b = build_coupling_matrix(KitaevParams(3, 1.0, 0.5, 0.25, boundary="periodic"))
        want = np.array(
            [
                [-0.5, -0.75, -1.25],
                [-1.25, -0.5, -0.75],
                [-0.75, -1.25, -0.5],
            ]
        )
        np.testing.assert_array_equal(b, want)
        corners = np.eye(3, k=2) + np.eye(3, k=-2)
        open_b = build_coupling_matrix(KitaevParams(3, 1.0, 0.5, 0.25))
        np.testing.assert_array_equal(open_b, np.where(corners, 0.0, want))

    @pytest.mark.parametrize(
        "boundary, n", [("open", 3), ("periodic", 3), ("periodic", 2)],
        ids=["open", "periodic", "periodic-N2"],
    )
    @pytest.mark.parametrize("phi", [0.0, 0.7])
    def test_matches_fock_space_hamiltonian(self, boundary, n, phi):
        # Route 1: B assembled bond by bond, interleaved into A and promoted to
        # a dense operator with the Majoranas of the gauge c -> e^{i phi/2} c.
        # Route 2: the Hamiltonian with pairing |D| e^{i phi} written directly with c, c+.
        # A has no phase, so their agreement shows that the phase is a gauge.
        p = KitaevParams(n, 1.0, 0.6, 0.9, boundary=boundary)
        a = full_coupling(build_coupling_matrix(p))
        via_majoranas = oracle.majorana_hamiltonian(a, pairing_phase=phi)
        direct = oracle.dense_hamiltonian(n, 1.0, 0.6, 0.9, pairing_phase=phi, boundary=boundary)
        np.testing.assert_allclose(via_majoranas, direct, atol=1e-12)


def _random_block(n_sites, seed):
    """A random even-odd coupling block B.

    Its entries are Gaussian; about one draw in three zeroes a random set of
    its rows, so exact zero modes occur."""
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(n_sites, n_sites))
    if rng.random() < 1 / 3:
        b[rng.random(n_sites) < 0.5] = 0.0
    return b


class TestMajoranaSchur:
    def test_rejects_blocks_that_do_not_match_the_energies(self):
        with pytest.raises(ValueError, match="3 x 3"):
            MajoranaSchur(np.eye(4), np.eye(4), np.array([1.0, 0.5, 0.2]))
        with pytest.raises(ValueError, match="odd block"):
            MajoranaSchur(np.eye(2), np.eye(3), [1.0, 0.5])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_energies(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MajoranaSchur(np.eye(2), np.eye(2), [1.0, bad])

    @pytest.mark.parametrize("bad", [1.1, float("nan")])
    def test_rejects_non_orthogonal_block(self, bad):
        with pytest.raises(ValueError, match="even block must be orthogonal"):
            MajoranaSchur(bad * np.eye(2), np.eye(2), [1.0, 0.5])

    def test_fields_are_read_only(self):
        res = MajoranaSchur(np.eye(2), np.eye(2), [1.0, 0.5])
        for array in (res.even, res.odd, res.epsilons):
            with pytest.raises(ValueError):
                array[0, ...] = 7.0
        assert res.n_sites == 2

    def test_zero_tol_follows_the_energies(self):
        assert [f.name for f in dataclasses.fields(MajoranaSchur)] == ["even", "odd", "epsilons"]
        # no floor: below an energy scale of 1 the threshold still follows the energies
        res = MajoranaSchur(np.eye(2), np.eye(2), [0.5, 0.0])
        assert res.zero_tol == 0.5 * quadratic.ZERO_MODE_RTOL
        # relative to the largest energy: 2e-12 is a zero mode next to 3, not next to 0.5
        res = MajoranaSchur(np.eye(2), np.eye(2), [3.0, 2e-12])
        assert res.zero_tol == 3.0 * quadratic.ZERO_MODE_RTOL
        assert res.n_zero_modes == 1

    @pytest.mark.parametrize(
        "w,mu,delta,boundary,zero_modes",
        [
            (1.0, 0.7, 1.0, "open", 0),
            (1.0, 0.0, 1.0, "open", 1),
            (1.0, 2.0, 1.0, "periodic", 1),
            (0.0, 1.0, 0.0, "open", 0),
            (0.0, 0.0, 0.0, "open", 8),
        ],
        ids=["gapped", "sweet-spot", "periodic-zero-mode", "atomic", "all-zero"],
    )
    def test_zero_modes_do_not_depend_on_the_coupling_scale(
        self, w, mu, delta, boundary, zero_modes
    ):
        for scale in (1.0, 1e-200, 1e150):
            params = KitaevParams(8, scale * w, scale * mu, scale * delta, boundary)
            assert schur_decompose(build_coupling_matrix(params)).n_zero_modes == zero_modes


class TestSchurDecompose:
    def test_single_block(self):
        b = np.array([[-2.0]])
        res = schur_decompose(b)
        np.testing.assert_allclose(res.epsilons, [2.0], atol=1e-14)
        # W = [[even, 0], [0, odd]] maps A to [[0, eps], [-eps, 0]]
        np.testing.assert_allclose(res.even @ b @ res.odd.T, [[2.0]], atol=1e-14)

    def test_sweet_spot_zero_mode(self):
        # w = |D|, mu = 0 decouples one Majorana at each end of the open chain.
        res = schur_decompose(build_coupling_matrix(KitaevParams(5, 1.0, 0.0, 1.0)))
        np.testing.assert_allclose(res.epsilons, [2.0, 2.0, 2.0, 2.0, 0.0], atol=1e-12)
        assert res.is_degenerate
        assert res.n_zero_modes == 1

    def test_gapped_chain_not_degenerate(self):
        res = schur_decompose(build_coupling_matrix(KitaevParams(5, 1.0, 0.7, 1.0)))
        assert not res.is_degenerate
        assert res.n_zero_modes == 0

    @pytest.mark.parametrize(
        "b",
        [
            np.ones(4),
            np.ones((2, 3)),
            np.array([[1.0, np.nan], [0.0, 1.0]]),
            np.diag([1.0, np.inf]),
        ],
        ids=["1-D", "2x3", "nan", "inf"],
    )
    def test_rejects_malformed_block(self, b):
        with pytest.raises(ValueError, match="square matrix with finite entries"):
            schur_decompose(b)

    def test_deterministic(self):
        b = build_coupling_matrix(KitaevParams(6, 1.0, 0.4, 0.8))
        r1 = schur_decompose(b)
        r2 = schur_decompose(b)
        np.testing.assert_array_equal(r1.even, r2.even)
        np.testing.assert_array_equal(r1.odd, r2.odd)
        np.testing.assert_array_equal(r1.epsilons, r2.epsilons)

    def test_factor_that_misses_the_canonical_form_is_a_numerical_failure(self, monkeypatch):
        b = build_coupling_matrix(KitaevParams(3, 1.0, 0.5, 0.8))
        svd = quadratic._svd

        def inflated(b):
            u, eps, vt = svd(b)
            return u, 1.1 * eps, vt

        monkeypatch.setattr(quadratic, "_svd", inflated)
        # the residual is judged on the couplings' own scale, however small
        for scale in (1.0, 1e-12):
            with pytest.raises(RuntimeError, match="block residual"):
                schur_decompose(scale * b)

    def test_couplings_near_the_subnormal_range_are_decomposed_at_scale(self):
        b = build_coupling_matrix(KitaevParams(5, 1.0, 0.7, 1.0))
        b = np.ldexp(b, -math.frexp(np.abs(b).max())[1])  # largest entry in [1/2, 1)
        unit = schur_decompose(b)
        tiny = schur_decompose(np.ldexp(b, -1000))  # exact: the entries stay normal doubles
        np.testing.assert_array_equal(tiny.even, unit.even)
        np.testing.assert_array_equal(tiny.odd, unit.odd)
        np.testing.assert_array_equal(tiny.epsilons, np.ldexp(unit.epsilons, -1000))
        # subnormal couplings: the residual of a decomposition at their own scale
        # would round to whole subnormal steps, above 1e-9 of them
        params = KitaevParams(2, 5e-324, 5e-324, 0.0, boundary="periodic")
        assert schur_decompose(build_coupling_matrix(params)).epsilons.max() > 0.0

    def test_non_orthogonal_factor_is_a_numerical_failure(self, monkeypatch):
        # B = 0 is factored exactly by any U and V; a non-orthogonal U must not pass.
        monkeypatch.setattr(quadratic, "_svd", lambda b: (2.0 * np.eye(2), np.zeros(2), np.eye(2)))
        with pytest.raises(RuntimeError, match="even block must be orthogonal"):
            schur_decompose(np.zeros((2, 2)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**6))
    def test_random_antisymmetric_properties(self, n_sites, seed):
        b = _random_block(n_sites, seed)
        scale = max(1.0, np.abs(b).max())
        res = schur_decompose(b)
        # Orthogonality and the canonical block form: in (even, odd) order
        # W A W^T = [[0, E B F^T], [-(E B F^T)^T, 0]] with E B F^T = diag(eps).
        for block in (res.even, res.odd):
            np.testing.assert_allclose(block @ block.T, np.eye(n_sites), atol=1e-10)
        np.testing.assert_allclose(
            res.even @ b @ res.odd.T, np.diag(res.epsilons), atol=1e-9 * scale
        )
        # Ordering and sign conventions.
        assert (res.epsilons >= 0).all()
        assert (np.diff(res.epsilons) <= 1e-12 * scale).all()
        # The singular values of the antisymmetric A come in pairs (eps_k, eps_k).
        np.testing.assert_allclose(
            np.sort(np.linalg.svd(full_coupling(b), compute_uv=False)),
            np.sort(np.repeat(res.epsilons, 2)),
            atol=1e-9 * scale,
        )


class TestSpectrumAgainstDenseDiagonalization:
    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize(
        "n, w, mu, dabs, phi",
        [
            (2, 1.0, 0.0, 1.0, 0.0),
            (3, 1.0, 0.7, 1.0, 0.0),
            (4, 0.8, 1.3, 0.5, 0.7),
            (5, 1.0, 2.4, 0.9, 0.0),
            (6, 0.6, 0.2, 1.1, 0.7),
        ],
    )
    def test_many_body_spectrum(self, boundary, n, w, mu, dabs, phi):
        # The full 2^N-level spectrum from occupation patterns of the diagonal
        # modes must reproduce dense diagonalization exactly, at any pairing
        # phase phi of the dense Hamiltonian: the phase is a gauge.
        p = KitaevParams(n, w, mu, dabs, boundary=boundary)
        eps = schur_decompose(build_coupling_matrix(p)).epsilons
        levels = sorted(
            eigenenergy(eps, occ) for occ in itertools.product((0, 1), repeat=n)
        )
        dense = oracle.ed_spectrum(
            oracle.dense_hamiltonian(n, w, mu, dabs, pairing_phase=phi, boundary=boundary)
        )
        np.testing.assert_allclose(levels, dense, atol=1e-9)


class TestAnalyticPeriodicEnergies:
    def test_rejects_open_boundary(self):
        with pytest.raises(ValueError):
            analytic_periodic_energies(KitaevParams(4, 1.0, 0.0, 1.0))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("w, mu, dabs", [(1.0, 0.5, 1.0), (0.7, 2.2, 0.4), (1.0, 0.0, 0.0)])
    def test_matches_decomposition(self, n, w, mu, dabs):
        p = KitaevParams(n, w, mu, dabs, boundary="periodic")
        closed = analytic_periodic_energies(p)
        assert closed.size == n
        eps = schur_decompose(build_coupling_matrix(p)).epsilons
        np.testing.assert_allclose(np.sort(np.abs(closed)), np.sort(eps), atol=1e-10)

    def test_even_chain_unpaired_momenta(self):
        # N = 4, w = 1, mu = 0.5, |D| = 0: energies are 2w cos(2 pi k / N) - mu
        # resolved as the signed branch plus the two unpaired values +-2w - mu.
        closed = analytic_periodic_energies(KitaevParams(4, 1.0, 0.5, 0.0, boundary="periodic"))
        np.testing.assert_allclose(sorted(closed), sorted([0.5, -0.5, -2.5, 1.5]), atol=1e-14)


class TestEigenenergy:
    def test_ground_energy(self):
        np.testing.assert_allclose(eigenenergy([3.0, 1.0], [0, 0]), -2.0)

    def test_excitations_add_single_body_energies(self):
        np.testing.assert_allclose(
            eigenenergy([3.0, 1.0], [1, 0]) - eigenenergy([3.0, 1.0], [0, 0]), 3.0
        )

    def test_validates_occupation(self):
        with pytest.raises(ValueError):
            eigenenergy([1.0, 2.0], [0, 1, 1])
