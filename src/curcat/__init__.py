"""curcat: exact diagrammatic algebra for oriented and unoriented strand
categories, with Lie structure, current-algebra actions on top, matrix
incarnations, and an equivariant vector-space backend.

Everything is exact (rationals, delta polynomials, cyclotomic numbers); there
is no floating point anywhere in the package.
"""

from curcat.cli import main
from curcat.currents import (
    canonical_module,
    check_current_compatibility,
    current_morphism_space,
    dual_current,
    evaluation_module,
    incarnation_preimage_space,
    induced_module,
    make_extension,
    right_inverse_check,
    solution_to_morphism,
    tensor_current,
    trivial_current,
    truncated_module,
)
from curcat.diagrams import (
    DiagMorphism,
    DiagramTypeError,
    Matching,
    ParseError,
    Word,
    antisymmetrizer,
    cap,
    compose,
    crossing,
    cup,
    identity,
    parse_expr,
    render,
    tensor,
    word,
)
from curcat.equivariant import sl2_z2_truncated_setup
from curcat.exact import (
    AffineSolutionSpace,
    CycloNumber,
    DeltaPoly,
    ExactMatrix,
    Rational,
    UnsupportedRingError,
    kernel_basis,
    rref,
    solve_affine,
    solve_each,
    specialize_delta,
)
from curcat.incarnate import (
    IncarnationConfig,
    incarnate,
    kernel_of_incarnation,
    so_object_image_check,
)
from curcat.lie import (
    check_lie_axioms,
    check_module,
    gl_object,
    unoriented_so_object,
)
from curcat.manifest import run_reproductions

__all__ = [
    "AffineSolutionSpace",
    "CycloNumber",
    "DeltaPoly",
    "DiagMorphism",
    "DiagramTypeError",
    "ExactMatrix",
    "IncarnationConfig",
    "Matching",
    "ParseError",
    "Rational",
    "UnsupportedRingError",
    "Word",
    "antisymmetrizer",
    "canonical_module",
    "cap",
    "check_current_compatibility",
    "check_lie_axioms",
    "check_module",
    "compose",
    "crossing",
    "cup",
    "current_morphism_space",
    "dual_current",
    "evaluation_module",
    "gl_object",
    "identity",
    "incarnate",
    "incarnation_preimage_space",
    "induced_module",
    "kernel_basis",
    "kernel_of_incarnation",
    "main",
    "make_extension",
    "parse_expr",
    "render",
    "right_inverse_check",
    "rref",
    "run_reproductions",
    "sl2_z2_truncated_setup",
    "so_object_image_check",
    "solution_to_morphism",
    "solve_affine",
    "solve_each",
    "specialize_delta",
    "tensor",
    "tensor_current",
    "trivial_current",
    "truncated_module",
    "unoriented_so_object",
    "word",
]

__version__ = "0.1.0"
