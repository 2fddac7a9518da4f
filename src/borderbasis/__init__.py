"""Border bases of zero-dimensional polynomial ideals.

Computes a quotient basis connected to 1 and monic rewriting rules covering
its border, certified by the commutation of the induced multiplication
matrices.  Includes choice functions generalizing monomial orders, the
commutation syzygies, and numerical root extraction by eigenvectors.

The package exports the pipeline the CLI and the README use, the types it
returns and the errors it raises; helpers live in the submodules.
"""

from .border import (
    BorderBasis,
    DegenerateInputError,
    InconsistentSystemError,
    NotZeroDimensionalError,
    compute_border_basis,
)
from .choice import ChoiceFunction, parse_choice
from .fields import Field, FieldError, parse_field
from .poly import (
    ParseError,
    Polynomial,
    format_poly,
    format_system,
    parse_polynomial,
    parse_system,
)
from .quotient import (
    MultiplicationSystem,
    NotABorderBasisError,
    build_mult_system,
    check_commutation,
    normal_form,
)
from .solve import RootSet, SolveError, eigen_roots
from .syzygy import SyzygyRelation, generate_syzygies, reduce_syzygy
from .systems import gen_katsura

__all__ = [
    "BorderBasis",
    "ChoiceFunction",
    "DegenerateInputError",
    "Field",
    "FieldError",
    "InconsistentSystemError",
    "MultiplicationSystem",
    "NotABorderBasisError",
    "NotZeroDimensionalError",
    "ParseError",
    "Polynomial",
    "RootSet",
    "SolveError",
    "SyzygyRelation",
    "build_mult_system",
    "check_commutation",
    "compute_border_basis",
    "eigen_roots",
    "format_poly",
    "format_system",
    "gen_katsura",
    "generate_syzygies",
    "normal_form",
    "parse_choice",
    "parse_field",
    "parse_polynomial",
    "parse_system",
    "reduce_syzygy",
]
