"""The full 2N x 2N Majorana coupling matrix, for tests that need it.

The library holds the chain's coupling as its N x N even-odd block B only.
Tests that compare against a route defined on the whole antisymmetric A
(the oracle's ``majorana_hamiltonian``, a Hermitian eigenbasis of i A)
assemble it here: A[2i, 2j+1] = B[i, j] and A[2j+1, 2i] = -B[i, j].
"""

import numpy as np

__all__ = ["full_coupling"]


def full_coupling(b: np.ndarray) -> np.ndarray:
    """Interleave B into the antisymmetric A = [[0, B], [-B^T, 0]] in site order."""
    n = b.shape[0]
    a = np.zeros((2 * n, 2 * n))
    a[0::2, 1::2] = b
    a[1::2, 0::2] = -b.T
    return a
