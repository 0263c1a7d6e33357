"""Spectral solver for polynomial ODEs on a box domain.

The flow map is represented by a finite Koopman matrix: project the
generator onto an orthonormal multivariate Legendre basis, diagonalize
it once per decoupled block, then evaluate observables at any time
analytically from the eigenvalues.  The basis is its graded set of
multi-indices; the Legendre three-term recurrence supplies the operators
and point values, and the monomial expansion (`monomial_matrix`,
`basis_as_polynomial`) serves only as the reference the tests check
against.  See :mod:`legkoop.koopman` for the pipeline entry points and
:mod:`legkoop.cli` for the command-line interface.
"""

from .basis import (
    BasisSet,
    basis_as_polynomial,
    build_basis,
    evaluate_basis,
    legendre_coefficients,
    monomial_matrix,
    normalize_legendre,
)
from .dynamics import (
    ObservableSet,
    SystemSpec,
    VectorField,
    duffing_vector_field,
    parse_system_config,
    rescale_to_unit_box,
)
from .errors import NearDefectiveError, NonFiniteError, SchemaError, ValidationError
from .koopman import (
    KoopmanModel,
    ModelDiagnostics,
    Trajectory,
    assemble_koopman,
    build_model,
    eigendecompose,
    initial_eigenfunctions,
    observable_matrix,
    propagate,
    propagate_observables,
    skewness_diagnostic,
    total_derivative,
)
from .polyalg import (
    Monomial,
    Polynomial,
    affine_substitute,
    box_inner_product,
    canonicalize,
    evaluate,
    partial_derivative,
    poly_add,
    poly_mul,
    poly_scale,
)
from .refinteg import (
    ReferenceTrajectory,
    gauss_legendre_inner_product,
    gauss_legendre_nodes,
    rk4_integrate,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # polynomials
    "Monomial",
    "Polynomial",
    "canonicalize",
    "poly_add",
    "poly_scale",
    "poly_mul",
    "partial_derivative",
    "box_inner_product",
    "affine_substitute",
    "evaluate",
    # basis
    "BasisSet",
    "build_basis",
    "evaluate_basis",
    "legendre_coefficients",
    "normalize_legendre",
    "monomial_matrix",
    "basis_as_polynomial",
    # systems
    "VectorField",
    "ObservableSet",
    "SystemSpec",
    "duffing_vector_field",
    "rescale_to_unit_box",
    "parse_system_config",
    # Koopman pipeline
    "KoopmanModel",
    "ModelDiagnostics",
    "Trajectory",
    "total_derivative",
    "assemble_koopman",
    "observable_matrix",
    "eigendecompose",
    "build_model",
    "initial_eigenfunctions",
    "propagate",
    "propagate_observables",
    "skewness_diagnostic",
    # reference integration
    "ReferenceTrajectory",
    "rk4_integrate",
    "gauss_legendre_nodes",
    "gauss_legendre_inner_product",
    # errors
    "SchemaError",
    "ValidationError",
    "NearDefectiveError",
    "NonFiniteError",
]
