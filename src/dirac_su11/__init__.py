"""Algebraic solution of the relativistic Coulomb bound-state problem.

The bound spectrum and radial wavefunctions of a single electron in a
Coulomb field are generated by su(1,1) ladder operators acting on a
weighted polynomial family, entirely in exact arithmetic over Q(s) and its
quadratic tower; floating point appears only in final embeddings and in
the independent numeric checks.
"""

from importlib import import_module

__version__ = "0.1.0"

# every exported name, keyed by the module that defines it; the module is
# imported when the name is first read (PEP 562), so a bare import loads no
# submodule, and only an oracle name loads the oracle and numpy
_EXPORTS = {
    "params": ("Channel", "DomainError", "PhysicalParams", "SpectralPoint",
               "make_channel", "make_params", "nonrelativistic_limit_table",
               "spectral_point"),
    "qsfield": ("QsPolynomial", "Quadratic", "sturm_positive_roots"),
    "algebra": ("FamilyFunction", "ScaledFamilyFunction", "apply", "apply_casimir",
                "inner_product", "universal_images"),
    "ladder": ("LadderState", "build_state", "ground_state", "raise_state"),
    "wavefunctions": ("LaguerreReport", "RadialPair", "assemble", "count_f_nodes",
                      "laguerre_cross_check", "normalize", "sample"),
    "verify": ("ResidualReport", "first_order_residual", "orthonormality_matrix",
               "second_order_residual", "verification_report"),
    "oracle": ("BracketingError", "ORACLE_N_CAP", "ORACLE_REL_TOL", "OracleResult",
               "oracle_binding_residual", "oracle_sweep", "shooting_oracle",
               "shooting_oracle_batch"),
    "jloperator": ("DiagonalityRecord", "diagonality_scan", "spectroscopic_label"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return __all__
