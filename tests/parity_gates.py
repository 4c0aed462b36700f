"""Random parity-conserving real gates for tests that drive a tensor chain.

A tensor chain holds real parity eigenstates only, so the gates it accepts
are the real parity-conserving ones: a two-site orthogonal gate that acts
within {|00>, |11>} and within {|01>, |10>}, and a diagonal single-site sign.
"""

import numpy as np

__all__ = ["random_pair_gate", "random_site_sign"]


def random_pair_gate(rng: np.random.Generator) -> np.ndarray:
    """4x4 orthogonal gate made of a random 2x2 orthogonal block on each parity pair."""
    gate = np.zeros((4, 4))
    for pair in ((0, 3), (1, 2)):
        q, r = np.linalg.qr(rng.normal(size=(2, 2)))
        gate[np.ix_(pair, pair)] = q * np.sign(np.diagonal(r))
    return gate


def random_site_sign(rng: np.random.Generator) -> np.ndarray:
    """2x2 diagonal gate diag(+-1, +-1) with independent random signs."""
    return np.diag(rng.choice([-1.0, 1.0], size=2))
