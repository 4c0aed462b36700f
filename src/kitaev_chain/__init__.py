"""Kitaev-chain eigenstates from Majorana-coupling Schur decomposition.

The pipeline: build the real antisymmetric Majorana coupling matrix of the
chain (``quadratic``), reduce it to canonical 2x2 blocks and fold the
orthogonal factor into an ordered sequence of two-mode rotations
(``folding``), replay the rotations as parity-conserving Fock gates on a
canonical tensor chain (``tensor``), and evaluate end-to-end correlations and
the Z measure (``correlations``).  A dense exact-diagonalization ``oracle``
validates everything at small sizes, and ``cli`` exposes table/figure-data
commands.
"""

from .correlations import (
    DEFAULT_SATURATION_TOL,
    DEFAULT_SCHEDULE,
    ZResult,
    edge_operator_matrix,
    mean_particle_number,
    parity,
    z_analytic,
    z_saturated,
    z_value,
)
from .folding import (
    FoldingPlan,
    Rotation,
    compute_folding_plan,
    gate_matrix_even,
    gate_matrix_odd,
    prepare_eigenstate,
    reconstruct_eigenstate,
    reduce_modes,
    reference_state,
)
from .quadratic import (
    CouplingMatrix,
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
    DensityBlock,
    TensorChain,
    TruncationError,
    bond_hamiltonian,
    energy_expectation,
)

__all__ = [
    "BondOverflowError",
    "CouplingMatrix",
    "DEFAULT_SATURATION_TOL",
    "DEFAULT_SCHEDULE",
    "DensityBlock",
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
    "bond_hamiltonian",
    "build_coupling_matrix",
    "compute_folding_plan",
    "edge_operator_matrix",
    "eigenenergy",
    "energy_expectation",
    "gate_matrix_even",
    "gate_matrix_odd",
    "mean_particle_number",
    "parity",
    "prepare_eigenstate",
    "reconstruct_eigenstate",
    "reduce_modes",
    "reference_state",
    "schur_decompose",
    "z_analytic",
    "z_saturated",
    "z_value",
]

__version__ = "0.1.0"
