"""Random parity-conserving gates for tests that drive a tensor chain.

A tensor chain holds parity eigenstates only, so the gates it accepts are
the parity-conserving ones: a two-site unitary that acts within
{|00>, |11>} and within {|01>, |10>}, and a diagonal single-site phase.
"""

import numpy as np

__all__ = ["random_pair_gate", "random_site_phase"]


def random_pair_gate(rng: np.random.Generator) -> np.ndarray:
    """4x4 unitary made of a random 2x2 unitary on each parity pair."""
    gate = np.zeros((4, 4), dtype=complex)
    for pair in ((0, 3), (1, 2)):
        block = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        gate[np.ix_(pair, pair)] = block
    return gate


def random_site_phase(rng: np.random.Generator) -> np.ndarray:
    """2x2 diagonal unitary with independent random phases."""
    return np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, size=2)))
