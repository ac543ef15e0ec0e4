"""Pseudospectral interpolation and collocation on generalized Lagrange bases.

The basis functions here replace the monomial factors of the classical
Lagrange cardinal polynomials with per-index mapping functions, which buys
interpolants that are rational, exponential, or trigonometric in ``x``
while keeping the nodal-value coefficients of plain Lagrange
interpolation.  On top of the basis sit derivative operational matrices
(exact first order, recurrence-built higher orders), 1D/tensor-grid
collocation solvers for differential equations described in a small
expression language, and a contour-integral cross-check of interpolant
and error.
"""

from .basis import (
    DlfBasis,
    FAMILY_KINDS,
    NodeSet,
    PsiFamily,
    basis_from_spec,
    dlf_eval,
    dlf_limit,
    generate_nodes,
    lagrange_matrix,
    lagrange_values,
    make_psi_family,
    validate_basis,
    weight_eval,
)
from .contour import (
    AnalyticFn,
    Contour,
    classical_contour_error,
    classical_contour_interpolant,
    contour_error,
    contour_interpolant,
    contour_reconstruction_gap,
    trapezoid_contour_quad,
)
from .diffmat import (
    DiffMatrix,
    d1_matrix,
    dm_matrix,
    dm_oracle_fd,
    dm_power_classical,
)
from .errors import (
    AssemblyError,
    ContourError,
    DegenerateDerivativeError,
    DerivativeOrderError,
    DlfError,
    DomainError,
    ExprError,
    FdStepError,
    InvalidParameterError,
    NewtonError,
    SeparationError,
    SingularSystemError,
    UnsupportedKindError,
)
from .exprlang import diff_expr, eval_expr, format_expr, parse_expr
from .interp import (
    TensorInterpolant,
    eval_interpolant,
    interpolate_1d,
    interpolate_nd,
    load_interpolant,
    save_interpolant,
)
from .solver import (
    CollocationProblem,
    CollocationSystem,
    SolveOptions,
    SolveResult,
    assemble_collocation_nd,
    solve_config,
    solve_system,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticFn",
    "AssemblyError",
    "CollocationProblem",
    "CollocationSystem",
    "Contour",
    "ContourError",
    "DegenerateDerivativeError",
    "DerivativeOrderError",
    "DiffMatrix",
    "DlfBasis",
    "DlfError",
    "DomainError",
    "ExprError",
    "FAMILY_KINDS",
    "FdStepError",
    "InvalidParameterError",
    "NewtonError",
    "NodeSet",
    "PsiFamily",
    "SeparationError",
    "SingularSystemError",
    "SolveOptions",
    "SolveResult",
    "TensorInterpolant",
    "UnsupportedKindError",
    "assemble_collocation_nd",
    "basis_from_spec",
    "classical_contour_error",
    "classical_contour_interpolant",
    "contour_error",
    "contour_interpolant",
    "contour_reconstruction_gap",
    "d1_matrix",
    "diff_expr",
    "dlf_eval",
    "dlf_limit",
    "dm_matrix",
    "dm_oracle_fd",
    "dm_power_classical",
    "eval_expr",
    "eval_interpolant",
    "format_expr",
    "generate_nodes",
    "interpolate_1d",
    "interpolate_nd",
    "lagrange_matrix",
    "lagrange_values",
    "load_interpolant",
    "make_psi_family",
    "parse_expr",
    "save_interpolant",
    "solve_config",
    "solve_system",
    "trapezoid_contour_quad",
    "validate_basis",
    "weight_eval",
]
