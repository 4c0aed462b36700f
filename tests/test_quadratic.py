"""Tests for the Majorana coupling matrix and its canonical decomposition.

Frozen small cases pin the entry conventions; the dense oracle provides an
independent route to the same physics (Fock-space Hamiltonian built straight
from creation/annihilation operators), and hypothesis drives the decomposition
over random chiral (even-odd) antisymmetric matrices.
"""

import dataclasses
import itertools

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
from kitaev_chain.quadratic import CouplingMatrix


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


class TestCouplingMatrix:
    def test_rejects_symmetric_part(self):
        with pytest.raises(ValueError):
            CouplingMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            CouplingMatrix(np.zeros((3, 3)))

    def test_entries_are_read_only(self):
        a = build_coupling_matrix(KitaevParams(2, 1.0, 0.5, 0.25))
        with pytest.raises(ValueError):
            a.entries[0, 1] = 7.0

    def test_open_chain_entries(self):
        a = build_coupling_matrix(KitaevParams(2, 1.0, 0.5, 0.25)).entries
        want = np.zeros((4, 4))
        want[0, 1], want[2, 3] = -0.5, -0.5        # on-site, -mu
        want[0, 3] = 0.25 - 1.0                    # cross bond, |D| - w
        want[1, 2] = 0.25 + 1.0                    # cross bond, |D| + w
        want -= want.T
        np.testing.assert_allclose(a, want, atol=1e-15)

    def test_periodic_two_sites_accumulates(self):
        # The two bonds of the N = 2 ring connect the same pair of sites:
        # their pairing contributions cancel and the hoppings add up.
        a = build_coupling_matrix(KitaevParams(2, 1.0, 0.0, 0.7, boundary="periodic")).entries
        want = np.zeros((4, 4))
        want[0, 3] = -2.0
        want[1, 2] = 2.0
        want -= want.T
        np.testing.assert_allclose(a, want, atol=1e-15)

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("phi", [0.0, 0.7])
    def test_matches_fock_space_hamiltonian(self, boundary, phi):
        # Route 1: A assembled bond by bond, promoted to a dense operator with
        # the Majoranas of the gauge c -> e^{i phi/2} c.
        # Route 2: the Hamiltonian with pairing |D| e^{i phi} written directly with c, c+.
        # A has no phase, so their agreement shows that the phase is a gauge.
        p = KitaevParams(3, 1.0, 0.6, 0.9, boundary=boundary)
        a = build_coupling_matrix(p)
        via_majoranas = oracle.majorana_hamiltonian(a.entries, pairing_phase=phi)
        direct = oracle.dense_hamiltonian(3, 1.0, 0.6, 0.9, pairing_phase=phi, boundary=boundary)
        np.testing.assert_allclose(via_majoranas, direct, atol=1e-12)


def _random_chiral(n_pairs, seed):
    """A random antisymmetric matrix that couples even modes to odd ones only.

    Its even-odd block B is Gaussian; about one draw in three zeroes a random
    set of B's rows, so exact zero modes occur."""
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(n_pairs, n_pairs))
    if rng.random() < 1 / 3:
        b[rng.random(n_pairs) < 0.5] = 0.0
    m = np.zeros((2 * n_pairs, 2 * n_pairs))
    m[0::2, 1::2] = b
    return m - m.T


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
        assert MajoranaSchur(np.eye(2), np.eye(2), [0.5, 0.0]).zero_tol == quadratic.ZERO_MODE_RTOL
        # relative to the largest energy: 2e-12 is a zero mode next to 3, not next to 0.5
        res = MajoranaSchur(np.eye(2), np.eye(2), [3.0, 2e-12])
        assert res.zero_tol == 3.0 * quadratic.ZERO_MODE_RTOL
        assert res.n_zero_modes == 1


class TestSchurDecompose:
    def test_single_block(self):
        a = np.array([[0.0, -2.0], [2.0, 0.0]])
        res = schur_decompose(a)
        np.testing.assert_allclose(res.epsilons, [2.0], atol=1e-14)
        # W = [[even, 0], [0, odd]] maps A to [[0, eps], [-eps, 0]]
        np.testing.assert_allclose(res.even @ a[0::2, 1::2] @ res.odd.T, [[2.0]], atol=1e-14)

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

    def test_rejects_non_antisymmetric(self):
        with pytest.raises(ValueError):
            schur_decompose(np.eye(4))

    @pytest.mark.parametrize("k, l", [(0, 2), (1, 3)], ids=["even-even", "odd-odd"])
    def test_rejects_even_even_coupling(self, k, l):
        # A Kitaev chain never couples two even or two odd Majoranas; the
        # chiral SVD would silently drop such an entry, so it is refused.
        a = build_coupling_matrix(KitaevParams(3, 1.0, 0.5, 0.8)).entries.copy()
        a[k, l], a[l, k] = 0.3, -0.3
        with pytest.raises(ValueError, match="even Majoranas to odd"):
            schur_decompose(a)

    def test_deterministic(self):
        a = build_coupling_matrix(KitaevParams(6, 1.0, 0.4, 0.8))
        r1 = schur_decompose(a)
        r2 = schur_decompose(a)
        np.testing.assert_array_equal(r1.even, r2.even)
        np.testing.assert_array_equal(r1.odd, r2.odd)
        np.testing.assert_array_equal(r1.epsilons, r2.epsilons)

    def test_factor_that_misses_the_canonical_form_is_a_numerical_failure(self, monkeypatch):
        a = build_coupling_matrix(KitaevParams(3, 1.0, 0.5, 0.8))
        svd = quadratic._svd

        def inflated(b):
            u, eps, vt = svd(b)
            return u, 1.1 * eps, vt

        monkeypatch.setattr(quadratic, "_svd", inflated)
        with pytest.raises(RuntimeError, match="block residual"):
            schur_decompose(a)

    def test_non_orthogonal_factor_is_a_numerical_failure(self, monkeypatch):
        # B = 0 is factored exactly by any U and V; a non-orthogonal U must not pass.
        monkeypatch.setattr(quadratic, "_svd", lambda b: (2.0 * np.eye(2), np.zeros(2), np.eye(2)))
        with pytest.raises(RuntimeError, match="even block must be orthogonal"):
            schur_decompose(np.zeros((4, 4)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**6))
    def test_random_antisymmetric_properties(self, n_pairs, seed):
        a = _random_chiral(n_pairs, seed)
        scale = max(1.0, np.abs(a).max())
        res = schur_decompose(a)
        # Orthogonality and the canonical block form: in (even, odd) order
        # W A W^T = [[0, E B F^T], [-(E B F^T)^T, 0]] with E B F^T = diag(eps).
        for block in (res.even, res.odd):
            np.testing.assert_allclose(block @ block.T, np.eye(n_pairs), atol=1e-10)
        np.testing.assert_allclose(
            res.even @ a[0::2, 1::2] @ res.odd.T, np.diag(res.epsilons), atol=1e-9 * scale
        )
        # Ordering and sign conventions.
        assert (res.epsilons >= 0).all()
        assert (np.diff(res.epsilons) <= 1e-12 * scale).all()
        # The singular values of A come in pairs (eps_k, eps_k).
        np.testing.assert_allclose(
            np.sort(np.linalg.svd(a, compute_uv=False)),
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
