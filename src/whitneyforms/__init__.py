"""Whitney forms on the standard simplex, in exact rational arithmetic.

The package constructs the Whitney form of any simplicial cochain,
integrates affine-coefficient forms over oriented faces in closed form,
and machine-checks that prescribing constant face pullbacks together with
face integrals determines exactly that form and no other.
"""

from .characterize import (
    Inconsistent,
    NonUnique,
    ProofTrace,
    Stage1Kill,
    Stage2Kill,
    TraceIncomplete,
    UnknownLayout,
    kernel_is_trivial,
    lambda_e_dimension,
    proof_trace,
    solve_characterization,
)
from .derham import derham, integrate_over_face, simplex_integral
from .forms import (
    AffineForm,
    DegreeOverflow,
    DimensionMismatch,
    evaluate,
    form_from_json,
    form_to_json,
    is_constant,
    pullback,
    wedge,
)
from .linalg import format_rational, parse_rational
from .render import render_affine, render_cochain, render_form
from .simplicial import (
    AffineFunction,
    BadDegree,
    Cochain,
    DegreeMismatch,
    Face,
    barycentric_functions,
    canonicalize,
    cochain_eval,
    cochain_from_json,
    cochain_to_json,
    enumerate_faces,
    face_parametrization,
    permutation_sign,
    random_cochain,
    vertex_point,
)
from .verify import run_verification, verify_cell
from .whitney import barycentric_differential, whitney, whitney_basis_form

__version__ = "0.1.0"

__all__ = [
    "AffineForm",
    "AffineFunction",
    "BadDegree",
    "Cochain",
    "DegreeMismatch",
    "DegreeOverflow",
    "DimensionMismatch",
    "Face",
    "Inconsistent",
    "NonUnique",
    "ProofTrace",
    "Stage1Kill",
    "Stage2Kill",
    "TraceIncomplete",
    "UnknownLayout",
    "barycentric_differential",
    "barycentric_functions",
    "canonicalize",
    "cochain_eval",
    "cochain_from_json",
    "cochain_to_json",
    "derham",
    "enumerate_faces",
    "evaluate",
    "face_parametrization",
    "form_from_json",
    "form_to_json",
    "format_rational",
    "integrate_over_face",
    "is_constant",
    "kernel_is_trivial",
    "lambda_e_dimension",
    "parse_rational",
    "permutation_sign",
    "proof_trace",
    "pullback",
    "random_cochain",
    "render_affine",
    "render_cochain",
    "render_form",
    "run_verification",
    "simplex_integral",
    "solve_characterization",
    "verify_cell",
    "vertex_point",
    "wedge",
    "whitney",
    "whitney_basis_form",
]
