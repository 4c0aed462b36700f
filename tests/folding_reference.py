"""The triangular fold loop, kept as a referee for ``compute_folding_plan``.

Test helper, deliberately plain: it visits every (row, column) step of the
triangle, row = 0..N-2 and column = N-1 down to row+1, one block at a time,
with numpy's atan2, sin and cos on scalars and a copy of each column pair.
The library folds both blocks in lockstep and starts each row at its last
nonzero column; ``reference_fold`` is the form it must match bit for bit.
"""

import numpy as np

from kitaev_chain import MajoranaSchur, Rotation, as_occupation, reduce_modes

__all__ = ["reference_fold"]

_IDENTITY_SIN = 2.0**-53


def _rotation_angle(entry_high: float, entry_low: float) -> float:
    """Angle of the rotation that moves the high-column entry onto the low one, in (-pi/2, pi/2]."""
    theta = float(np.arctan2(entry_high, entry_low))
    if theta > np.pi / 2:
        return theta - np.pi
    return theta + np.pi if theta <= -np.pi / 2 else theta


def _rotate_columns(block: np.ndarray, column: int, angle: float) -> None:
    """Rotate columns (column-1, column) of ``block`` in place."""
    c, s = np.cos(angle), np.sin(angle)
    low_col = block[:, column - 1].copy()
    high_col = block[:, column].copy()
    block[:, column - 1] = c * low_col + s * high_col
    block[:, column] = -s * low_col + c * high_col


def reference_fold(schur: MajoranaSchur, occupation) -> tuple:
    """Rotations, reference bits and residual of one fold."""
    n_sites = schur.n_sites
    occupation = as_occupation(occupation, n_sites)
    even, odd = reduce_modes(schur.even, schur.odd, occupation)
    rotations = []
    for row in range(n_sites - 1):
        for column in range(n_sites - 1, row, -1):
            even_angle = _rotation_angle(even[row, column], even[row, column - 1])
            odd_angle = _rotation_angle(odd[row, column], odd[row, column - 1])
            if max(abs(np.sin(even_angle / 2.0)), abs(np.sin(odd_angle / 2.0))) >= _IDENTITY_SIN:
                rotations.append(Rotation(row, column, even_angle, odd_angle))
                _rotate_columns(even, column, even_angle)
                _rotate_columns(odd, column, odd_angle)
    even_signs, odd_signs = (np.where(np.diagonal(b) < 0.0, -1.0, 1.0) for b in (even, odd))
    residual = max(
        float(np.abs(block - np.diag(signs)).max(initial=0.0))
        for block, signs in ((even, even_signs), (odd, odd_signs))
    )
    reference = tuple((occupation ^ (even_signs != odd_signs)).tolist())
    return tuple(rotations), reference, residual
