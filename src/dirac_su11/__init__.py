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
from .ladder import LadderState, build_state, ground_state, raise_state
from .wavefunctions import (
    LaguerreReport,
    RadialPair,
    assemble,
    count_f_nodes,
    laguerre_cross_check,
    normalize,
    sample,
)
from . import verify
from .verify import (
    ResidualReport,
    first_order_residual,
    orthonormality_matrix,
    second_order_residual,
    verification_report,
)
from .jloperator import DiagonalityRecord, diagonality_scan, spectroscopic_label

__version__ = "0.1.0"


def __getattr__(name):
    # the oracle's names (BracketingError, shooting_oracle, ...) resolve
    # through verify, which imports the oracle and numpy on first use
    if name not in verify._ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(verify, name)


__all__ = [
    "Channel", "DomainError", "PhysicalParams", "SpectralPoint",
    "channel_grid", "make_channel", "make_params",
    "nonrelativistic_limit_table", "spectral_point",
    "QsPolynomial", "Quadratic", "sturm_positive_roots",
    "FamilyFunction", "ScaledFamilyFunction", "apply", "apply_casimir",
    "inner_product", "universal_images",
    "LadderState", "build_state", "ground_state", "raise_state",
    "LaguerreReport", "RadialPair", "assemble", "count_f_nodes",
    "laguerre_cross_check", "normalize", "sample",
    "BracketingError", "OracleResult", "ResidualReport",
    "first_order_residual", "oracle_sweep", "orthonormality_matrix",
    "second_order_residual", "shooting_oracle", "shooting_oracle_batch",
    "verification_report",
    "DiagonalityRecord", "diagonality_scan", "spectroscopic_label",
    "__version__",
]
