"""Independent Z route through the one-body (Majorana covariance) picture.

Test helper, deliberately outside the library: the library evaluates Z from
the many-body tensor state built by replaying a folding plan, while this
route never leaves the one-body picture and never folds.  An eigenstate with
mode occupations n_k has <i g'_{2k} g'_{2k+1}> = 2 n_k - 1 for its diagonal
Majorana modes g' = W g, so its covariance in the bare modes is
C = W^T (+)_k (2 n_k - 1) [[0, 1], [-1, 0]] W, straight from the Schur
factor.  Z is then read directly from two end-to-end entries.  Any sign or
ordering mistake in either route breaks the agreement tests.
"""

import numpy as np

from kitaev_chain import KitaevParams, build_coupling_matrix, schur_decompose

__all__ = ["covariance_matrix", "covariance_z"]


def covariance_matrix(params: KitaevParams, occupation=None) -> np.ndarray:
    """C_{kl} = <i gamma_k gamma_l> (k != l) of the eigenstate with ``occupation``."""
    n = params.n_sites
    w = schur_decompose(build_coupling_matrix(params)).w_matrix
    bits = [0] * n if occupation is None else [int(b) for b in occupation]
    diagonal = np.zeros((2 * n, 2 * n))
    for k, bit in enumerate(bits):
        diagonal[2 * k, 2 * k + 1] = 2 * bit - 1
        diagonal[2 * k + 1, 2 * k] = 1 - 2 * bit
    return w.T @ diagonal @ w


def covariance_z(params: KitaevParams, occupation=None) -> float:
    """|<QL> + <QR>| from the covariance entries of the two chain ends."""
    n = params.n_sites
    c = covariance_matrix(params, occupation)
    return abs(c[1, 2 * n - 2] - c[0, 2 * n - 1])
