"""Algebraic solution of the relativistic Coulomb bound-state problem.

The bound spectrum and radial wavefunctions of a single electron in a
Coulomb field are generated by su(1,1) ladder operators acting on a
weighted polynomial family, entirely in exact arithmetic over Q(s) and its
quadratic tower; floating point appears only in final embeddings and in
the independent numeric checks.
"""

from .params import (
    Channel,
    DomainError,
    PhysicalParams,
    SpectralPoint,
    channel_grid,
    make_channel,
    make_params,
    mu_from_energy,
    nonrelativistic_limit_table,
    spectral_point,
)
from .qsfield import QsPolynomial, Quadratic, sturm_positive_roots
from .algebra import (
    FamilyFunction,
    ScaledFamilyFunction,
    apply,
    apply_casimir,
    inner_product,
    universal_images,
)
from .ladder import (
    LadderState,
    RepresentationBoundaryError,
    build_state,
    ground_state,
    ladder_coefficient,
    lower_state,
    raise_state,
)
from .wavefunctions import (
    LaguerreReport,
    RadialPair,
    assemble,
    count_f_nodes,
    laguerre_cross_check,
    laguerre_poly,
    normalize,
    sample,
)
from .verify import (
    BracketingError,
    OracleResult,
    ResidualReport,
    first_order_residual,
    oracle_sweep,
    orthonormality_matrix,
    second_order_residual,
    shooting_oracle,
    shooting_oracle_batch,
    verification_report,
)
from .jloperator import (
    DiagonalityRecord,
    JLMatrix,
    diagonality_scan,
    jl_fg_matrix,
    spectroscopic_label,
)

__version__ = "0.1.0"

__all__ = [
    "Channel", "DomainError", "PhysicalParams", "SpectralPoint",
    "channel_grid", "make_channel", "make_params", "mu_from_energy",
    "nonrelativistic_limit_table", "spectral_point",
    "QsPolynomial", "Quadratic", "sturm_positive_roots",
    "FamilyFunction", "ScaledFamilyFunction", "apply", "apply_casimir",
    "inner_product", "universal_images",
    "LadderState", "RepresentationBoundaryError", "build_state",
    "ground_state", "ladder_coefficient", "lower_state", "raise_state",
    "LaguerreReport", "RadialPair", "assemble", "count_f_nodes",
    "laguerre_cross_check", "laguerre_poly", "normalize", "sample",
    "BracketingError", "OracleResult", "ResidualReport",
    "first_order_residual", "oracle_sweep", "orthonormality_matrix",
    "second_order_residual", "shooting_oracle", "shooting_oracle_batch",
    "verification_report",
    "DiagonalityRecord", "JLMatrix", "diagonality_scan", "jl_fg_matrix",
    "spectroscopic_label",
    "__version__",
]
