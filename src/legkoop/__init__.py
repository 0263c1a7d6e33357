"""Spectral solver for polynomial ODEs on a box domain.

The flow map is represented by a finite Koopman matrix: project the
generator onto an orthonormal multivariate Legendre basis, diagonalize
it once per decoupled block, then evaluate observables at any time
analytically from the eigenvalues.  The basis is its graded set of
multi-indices and the domain box; the Legendre three-term recurrence
supplies the operators and point values, and the change of variables onto
the unit box happens in those operators, so the field, the observables
and the initial state stay in the config's coordinates.  See
:mod:`legkoop.koopman` for the pipeline entry points, :mod:`legkoop.cli`
for the command-line interface, and
:mod:`legkoop.invariants` for the monomial and quadrature references the
tests and `legkoop validate` check the solver against.  Of
:mod:`legkoop.polyalg`, the root exports what a field or observable is
written in (`Polynomial`, `Monomial`, `canonicalize`, `evaluate`); the
references' algebra (`poly_mul`, `box_inner_product`) stays there.
"""

from .basis import BasisSet, build_basis, evaluate_basis
from .dynamics import (
    ObservableSet,
    SystemSpec,
    VectorField,
    duffing_vector_field,
    parse_system_config,
)
from .errors import NearDefectiveError, NonFiniteError, SchemaError, ValidationError
from .koopman import (
    EigenBlock,
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
)
from .polyalg import Monomial, Polynomial, canonicalize, evaluate
from .refinteg import rk4_integrate

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # polynomials
    "Monomial",
    "Polynomial",
    "canonicalize",
    "evaluate",
    # basis
    "BasisSet",
    "build_basis",
    "evaluate_basis",
    # systems
    "VectorField",
    "ObservableSet",
    "SystemSpec",
    "duffing_vector_field",
    "parse_system_config",
    # Koopman pipeline
    "EigenBlock",
    "KoopmanModel",
    "ModelDiagnostics",
    "Trajectory",
    "assemble_koopman",
    "observable_matrix",
    "eigendecompose",
    "build_model",
    "initial_eigenfunctions",
    "propagate",
    "propagate_observables",
    "skewness_diagnostic",
    # reference integration
    "rk4_integrate",
    # errors
    "SchemaError",
    "ValidationError",
    "NearDefectiveError",
    "NonFiniteError",
]
