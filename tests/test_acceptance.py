"""Acceptance gate: the ten headline checks at their stated tolerances.

Each test prints one verdict line (``[criterion NN] PASS/FAIL -- ...``); run

    pytest tests/test_acceptance.py -v -s

to see the lines live.
"""

import dataclasses

import numpy as np
import pytest

from kitaev_chain import (
    DEFAULT_SCHEDULE,
    KitaevParams,
    TensorChain,
    analytic_periodic_energies,
    build_coupling_matrix,
    eigenenergy,
    energy_expectation,
    mean_particle_number,
    oracle,
    prepare_eigenstate,
    schur_decompose,
    z_analytic,
    z_saturated,
    z_value,
)
from parity_gates import random_pair_gate

# Frozen three-decimal reference values of the saturated end-to-end
# correlation Z on the integer (mu, 2w) grid at pairing 1.  The printed
# values are truncated -- not rounded -- at the third decimal (2/3 -> 0.666);
# None marks the |mu| = |2w| diagonal, where Z does not saturate.
_ROWS = {
    4: (None, 0.000, 0.000, 0.000, 0.000, 0.000, 0.000, 0.000, None),
    3: (0.388, None, 0.000, 0.000, 0.000, 0.000, 0.000, None, 0.388),
    2: (0.666, 0.533, None, 0.000, 0.000, 0.000, None, 0.533, 0.666),
    1: (0.833, 0.853, 0.750, None, 0.000, None, 0.750, 0.853, 0.833),
    0: (0.888, 0.960, 1.000, 0.888, None, 0.888, 1.000, 0.960, 0.888),
}
REFERENCE_Z = {
    (float(sign * mu), float(two_w - 4)): value
    for mu, row in _ROWS.items()
    for sign in ((1, -1) if mu else (1,))
    for two_w, value in enumerate(row)
    if value is not None
}
assert len(REFERENCE_Z) == 64


def truncate_3dp(x: float) -> int:
    """Value in thousandths as printed by truncation at the third decimal."""
    return int(np.floor(x * 1000.0 + 1e-9))


def open_chain(n: int, w: float, mu: float, delta: float = 1.0) -> KitaevParams:
    return KitaevParams(n, w, mu, delta)


def verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    tail = f": {detail}" if detail else ""
    print(f"\n[criterion {num:02d}] {state} -- {label}{tail}")


def test_criterion_01_reference_table_reproduction():
    worst = 0.0
    slowest_n = 0
    for (mu, two_w), printed in sorted(REFERENCE_Z.items()):
        result = z_saturated(open_chain(8, two_w / 2.0, mu))
        assert result.converged, f"no saturation at mu={mu}, 2w={two_w}"
        assert result.n_used <= 96
        diff = abs(result.z - printed)
        worst = max(worst, diff)
        slowest_n = max(slowest_n, result.n_used)
        assert diff <= 0.005, f"mu={mu}, 2w={two_w}: {result.z:.6f} vs {printed}"
    verdict(
        1,
        "64-point reference-table reproduction",
        True,
        f"worst |dz| = {worst:.2e}, largest chain used N = {slowest_n}",
    )


def test_criterion_02_analytic_formula_matches_table():
    for (mu, two_w), printed in sorted(REFERENCE_Z.items()):
        value = z_analytic(open_chain(8, two_w / 2.0, mu))
        assert truncate_3dp(value) == round(printed * 1000), (
            f"mu={mu}, 2w={two_w}: analytic {value:.6f} truncates to "
            f"{truncate_3dp(value)} != printed {printed}"
        )
    verdict(2, "closed-form Z equals all 64 printed 3-decimal values", True)


# Twenty deterministic points with | |mu| - |2w| | >= 0.5; the four
# fractional ones sit exactly at margin 0.5.
_MARGIN_POINTS = [
    (0.0, 2.0), (0.0, -2.0), (1.0, 2.0), (-1.0, 2.0),
    (1.0, 3.0), (-1.0, -3.0), (0.0, 1.0), (0.0, -1.0),
    (2.0, 4.0), (-2.0, -4.0), (2.0, -3.0), (3.0, 4.0),
    (-3.0, 4.0), (4.0, 1.0), (-4.0, -2.0), (3.0, 1.0),
    (1.5, 2.0), (2.5, 2.0), (3.0, 3.5), (0.5, 1.0),
]


def test_criterion_03_numeric_matches_analytic():
    assert len(_MARGIN_POINTS) == 20
    worst = 0.0
    for mu, two_w in _MARGIN_POINTS:
        assert abs(abs(mu) - abs(two_w)) >= 0.5 - 1e-12
        params = open_chain(8, two_w / 2.0, mu)
        result = z_saturated(params)
        diff = abs(result.z - z_analytic(params))
        worst = max(worst, diff)
        assert diff < 1e-2, f"mu={mu}, 2w={two_w}: |dz| = {diff:.2e}"
    verdict(3, "saturated Z vs closed form at 20 gapped points", True,
            f"worst |dz| = {worst:.2e}")


_DENSE_POINTS = [
    (3, 0.9, 1.2, 1.0),
    (4, 1.3, 0.8, 0.7),
    (4, 1.0, 0.0, 1.0),  # degenerate: spectrum check only
    (5, 1.0, 0.3, 1.0),
    (6, 1.0, 0.8, 1.0),
    (7, 0.7, 1.9, 1.2),
    (8, 1.0, 0.5, 1.0),
]


def test_criterion_04_dense_reference_equivalence():
    residuals = {"spectrum": 0.0, "overlap": 0.0, "rdm": 0.0, "z": 0.0}
    for n, w, mu, delta in _DENSE_POINTS:
        params = KitaevParams(n, w, mu, delta)
        schur = schur_decompose(build_coupling_matrix(params))
        h = oracle.dense_hamiltonian(n, w, mu, delta)

        rebuilt = np.sort(
            [
                eigenenergy(schur.epsilons, [(k >> j) & 1 for j in range(n)])
                for k in range(2**n)
            ]
        )
        spectrum_residual = float(np.abs(rebuilt - oracle.ed_spectrum(h)).max())
        residuals["spectrum"] = max(residuals["spectrum"], spectrum_residual)
        assert spectrum_residual < 1e-9

        state, _, plan = prepare_eigenstate(params)
        vec = state.fock_coefficients().reshape(-1)

        rho_residual = float(
            np.abs(state.rdm_ends() - oracle.partial_trace_ends(vec, n)).max()
        )
        residuals["rdm"] = max(residuals["rdm"], rho_residual)
        assert rho_residual < 1e-10

        if plan.degenerate:
            continue
        _, ground = oracle.ed_ground_state(h)
        overlap = abs(np.vdot(ground, vec))
        residuals["overlap"] = max(residuals["overlap"], 1.0 - overlap)
        assert overlap >= 1.0 - 1e-9

        dense_q = oracle.dense_edge_operator(n, "Q")
        z_residual = abs(
            z_value(state, state.parity) - abs(oracle.ed_expectation(dense_q, ground).real)
        )
        residuals["z"] = max(residuals["z"], z_residual)
        assert z_residual < 1e-9
    verdict(
        4,
        "dense-reference equivalence at N <= 8",
        True,
        "max residuals: spectrum {spectrum:.1e}, overlap {overlap:.1e}, "
        "end-pair rdm {rdm:.1e}, Z {z:.1e}".format(**residuals),
    )


def test_criterion_05_periodic_spectrum_closed_form():
    grid = [round(-4.0 + 0.5 * k, 2) for k in range(17)]
    worst = 0.0
    for mu in grid:
        for w in grid:
            params = KitaevParams(10, w, mu, 1.0, boundary="periodic")
            eps = schur_decompose(build_coupling_matrix(params)).epsilons
            closed = np.sort(np.abs(analytic_periodic_energies(params)))[::-1]
            worst = max(worst, float(np.abs(eps - closed).max()))
    assert worst < 1e-10
    verdict(5, "periodic spectrum vs closed form on the 17x17 grid", True,
            f"max deviation = {worst:.2e}")


def test_criterion_06_tensor_energy_accuracy():
    checked = 0
    skipped = 0
    worst = 0.0
    for n in (8, 16, 32):
        for mu, w in ((0.5, 1.0), (1.5, 1.0), (2.5, 1.0), (1.5, 0.5), (3.5, 0.5), (2.0, 0.75)):
            params = KitaevParams(n, w, mu, 1.0)
            state, schur, plan = prepare_eigenstate(params)
            if plan.degenerate:
                skipped += 1
                continue
            diff = abs(energy_expectation(state, params) - (-0.5 * schur.epsilons.sum()))
            worst = max(worst, diff)
            checked += 1
            assert diff < 1e-8, f"open N={n}, mu={mu}, w={w}: |dE| = {diff:.2e}"
    # product-state corner: no hopping, no pairing -> exact arithmetic
    params = KitaevParams(8, 0.0, 2.0, 0.0)
    state, schur, _ = prepare_eigenstate(params)
    assert abs(energy_expectation(state, params) - (-0.5 * schur.epsilons.sum())) < 1e-12
    for mu, w in ((0.5, 1.0), (1.5, 1.0), (3.0, 1.0), (0.5, 0.5), (3.0, 0.5)):
        params = KitaevParams(10, w, mu, 1.0, boundary="periodic")
        state, schur, plan = prepare_eigenstate(params)
        if plan.degenerate:
            skipped += 1
            continue
        diff = abs(energy_expectation(state, params) - (-0.5 * schur.epsilons.sum()))
        worst = max(worst, diff)
        checked += 1
        assert diff < 1e-8, f"periodic mu={mu}, w={w}: |dE| = {diff:.2e}"
    assert checked >= 15
    verdict(6, "tensor-route energy vs spectrum shortcut", True,
            f"{checked} points, worst |dE| = {worst:.2e} ({skipped} degenerate skipped)")


def test_criterion_07_critical_diagonal_history():
    """The mu = 2w = 2 cell: Z must fall slowly and never saturate at 1e-3.

    The whole default schedule runs on the tensor route: each ground state is
    built from the chiral fold of its mode-reduced Schur factor, whose replay
    peaks at a bond of 145 at N = 96 (the built state's own largest bond),
    within the default cap of 256; an overflow fails the test.
    """
    params = open_chain(8, 1.0, 2.0)
    result = z_saturated(params, tol=1e-3)
    values = [z for _, z in result.history]
    ok = (not result.converged) and all(np.diff(values) < 0.0)
    verdict(7, "critical-diagonal Z history", ok,
            f"history = {np.round(values, 6)}")
    assert ok


def _saturate_excited_z(params: KitaevParams, tol: float = 1e-3) -> tuple[float, bool]:
    """Saturation protocol with the smallest-energy mode occupied.

    Same stepping and boundary semantics as the ground-state routine: a
    sub-tolerance step is convergence only before the final schedule entry.
    """
    previous = None
    value = None
    for n in DEFAULT_SCHEDULE:
        fixed = dataclasses.replace(params, n_sites=n)
        occupation = [0] * (n - 1) + [1]
        state, _, _ = prepare_eigenstate(fixed, occupation)
        value = z_value(state, state.parity)
        if previous is not None and abs(value - previous) < tol and n != DEFAULT_SCHEDULE[-1]:
            return value, True
        previous = value
    return value, False


def test_criterion_08_excited_state_z_matches_ground():
    worst = 0.0
    for mu, two_w in ((1.0, 2.0), (0.0, 3.0), (1.0, 3.0), (2.0, 4.0), (2.0, 3.0)):
        params = open_chain(8, two_w / 2.0, mu)
        ground = z_saturated(params)
        assert ground.converged
        excited_z, excited_converged = _saturate_excited_z(params)
        assert excited_converged
        diff = abs(excited_z - ground.z)
        worst = max(worst, diff)
        assert diff < 1e-3, f"mu={mu}, 2w={two_w}: |dZ| = {diff:.2e}"
    verdict(8, "first-excited Z equals ground Z at 5 saturated points", True,
            f"worst |dZ| = {worst:.2e}")


def test_criterion_09_invariants_through_random_circuit():
    n = 8
    state = TensorChain.product_state([0] * n)
    initial_parity = state.parity_expectation()
    rng = np.random.default_rng(7)
    worst = {"canonical": 0.0, "norm": 0.0, "rdm": 0.0, "parity": 0.0}
    for _ in range(200):
        site = int(rng.integers(0, n - 1))
        state.apply_two_site_gate(site, random_pair_gate(rng))

        residuals = state.canonical_residuals()
        worst["canonical"] = max(worst["canonical"], *residuals.values())
        worst["norm"] = max(worst["norm"], abs(state.norm() - 1.0))
        blocks = [state.rdm_site(k) for k in range(n)]
        blocks += [state.rdm_pair(k) for k in range(n - 1)]
        blocks.append(state.rdm_ends())
        for rho in blocks:
            eigvals = np.linalg.eigvalsh(rho)
            worst["rdm"] = max(
                worst["rdm"],
                float(np.abs(rho - rho.conj().T).max()),
                abs(float(np.trace(rho).real) - 1.0),
                max(0.0, -float(eigvals.min())),
            )
        worst["parity"] = max(
            worst["parity"], abs(state.parity_expectation() - initial_parity)
        )
    ok = (
        max(worst["canonical"], worst["norm"], worst["rdm"]) <= 1e-10
        and worst["parity"] <= 1e-12
    )
    verdict(
        9,
        "canonical/norm/density/parity invariants over a 200-gate circuit",
        ok,
        "worst: canonical {canonical:.1e}, norm {norm:.1e}, rdm {rdm:.1e}, "
        "parity {parity:.1e}".format(**worst),
    )
    assert ok


def test_criterion_10_particle_number_surface():
    grid = [round(-4.0 + 0.5 * k, 2) for k in range(17)]
    cells = {}
    for w in grid:
        for mu in grid:
            params = KitaevParams(10, w, mu, 1.0, boundary="periodic")
            state, _, plan = prepare_eigenstate(params)
            cells[(mu, w)] = (
                mean_particle_number(state),
                state.parity,
                plan.degenerate,
            )

    # (a) <N> non-decreasing in mu at every fixed w (nondegenerate cells)
    for w in grid:
        column = [cells[(mu, w)][0] for mu in grid if not cells[(mu, w)][2]]
        assert all(a <= b + 1e-9 for a, b in zip(column, column[1:])), f"w={w}"

    # (b) trivial-phase cells of the mu = -+4 edges saturate the 0..N scale
    # to within 0.05 of empty/full
    edge_checks = 0
    for mu, target in ((-4.0, 0.0), (4.0, 10.0)):
        for w in grid:
            if cells[(mu, w)][2] or abs(2 * w) > abs(mu) - 0.5:
                continue
            assert abs(cells[(mu, w)][0] - target) <= 0.05 * 10
            edge_checks += 1
    assert edge_checks == 14

    # (c) ground-state parity flips across |mu| = 2|w|
    flips = 0
    for w in (0.5, 1.0, 1.5, -0.5, -1.0, -1.5):
        inside = cells[(0.0, w)]
        outside = cells[(4.0, w)]
        assert not inside[2] and not outside[2]
        assert inside[1] != outside[1], f"w={w}: no parity flip"
        flips += 1
    verdict(
        10,
        "particle-number surface: monotone in mu, saturated edges, parity flip",
        True,
        f"289 cells, {edge_checks} edge cells within 0.05 of the scale ends, "
        f"{flips} parity flips",
    )
