"""Kitaev-chain eigenstates from Majorana-coupling Schur decomposition.

The pipeline: build the chain's Majorana coupling as its N x N even-odd block
(``quadratic``), reduce it to canonical 2x2 blocks and fold the
orthogonal factor into an ordered sequence of paired two-mode rotations
(``folding``), replay them as real parity-conserving two-site gates on a
canonical tensor chain (``tensor``), and evaluate end-to-end correlations and
the Z measure (``correlations``).  A dense exact-diagonalization ``oracle``
validates everything at small sizes, and ``cli`` exposes table/figure-data
commands.
"""

from .correlations import (
    DEFAULT_SATURATION_TOL,
    DEFAULT_SCHEDULE,
    ZResult,
    mean_particle_number,
    parity,
    z_analytic,
    z_saturated,
    z_value,
)
from .folding import (
    FoldingPlan,
    Rotation,
    bond_gate,
    build_eigenstates,
    compute_folding_plan,
    prepare_eigenstate,
    reconstruct_eigenstate,
    reduce_modes,
)
from .quadratic import (
    KitaevParams,
    MajoranaSchur,
    analytic_periodic_energies,
    as_occupation,
    build_coupling_matrix,
    eigenenergy,
    schur_decompose,
)
from .tensor import (
    MAX_BOND_DIMENSION,
    TRUNCATION_THRESHOLD,
    BondOverflowError,
    TensorChain,
    TruncationError,
    bond_hamiltonian,
    energy_expectation,
)

__all__ = [
    "BondOverflowError",
    "DEFAULT_SATURATION_TOL",
    "DEFAULT_SCHEDULE",
    "FoldingPlan",
    "KitaevParams",
    "MAX_BOND_DIMENSION",
    "MajoranaSchur",
    "Rotation",
    "TRUNCATION_THRESHOLD",
    "TensorChain",
    "TruncationError",
    "ZResult",
    "analytic_periodic_energies",
    "as_occupation",
    "bond_gate",
    "bond_hamiltonian",
    "build_coupling_matrix",
    "build_eigenstates",
    "compute_folding_plan",
    "eigenenergy",
    "energy_expectation",
    "mean_particle_number",
    "parity",
    "prepare_eigenstate",
    "reconstruct_eigenstate",
    "reduce_modes",
    "schur_decompose",
    "z_analytic",
    "z_saturated",
    "z_value",
]

__version__ = "0.1.0"
