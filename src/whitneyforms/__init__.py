"""Whitney forms on the standard simplex, in exact rational arithmetic.

The package constructs the Whitney form of any simplicial cochain,
integrates affine-coefficient forms over oriented faces in closed form,
and machine-checks that prescribing constant face pullbacks together with
face integrals determines exactly that form and no other.

The package's ``whitney`` and ``derham`` are the functions, which shadow the
submodules of the same name: ``import whitneyforms.whitney as m`` binds the
function too, so patching ``m`` patches nothing the code reads. The module
is ``sys.modules["whitneyforms.whitney"]`` (likewise for ``derham``).

The text formats, JSON, the "p/q" scalar, plain text and LaTeX, are
:mod:`whitneyforms.render`'s. Their names resolve off the package on first
read, which imports render then, so a process that reads or prints no form
or cochain never compiles it.
"""

from .characterize import (
    CertificateError,
    ProofTrace,
    Stage1Kill,
    Stage2Kill,
    kernel_is_trivial,
    lambda_e_dimension,
    proof_trace,
    solve_characterization,
)
from .derham import derham, integrate_over_face, pullback
from .forms import AffineForm, UnknownLayout, is_constant
from .simplicial import (
    AffineFunction,
    BadDegree,
    Cochain,
    DegreeMismatch,
    Face,
    canonicalize,
    enumerate_faces,
    permutation_sign,
    random_cochain,
)
from .verify import run_verification, verify_cell
from .whitney import whitney, whitney_basis_form

__version__ = "0.1.0"

__all__ = [
    "AffineForm",
    "AffineFunction",
    "BadDegree",
    "CertificateError",
    "Cochain",
    "DegreeMismatch",
    "Face",
    "ProofTrace",
    "Stage1Kill",
    "Stage2Kill",
    "UnknownLayout",
    "canonicalize",
    "cochain_from_json",
    "cochain_to_json",
    "derham",
    "enumerate_faces",
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
    "solve_characterization",
    "verify_cell",
    "whitney",
    "whitney_basis_form",
]


# the names of :mod:`whitneyforms.render`, every external text format
_RENDER = {
    "cochain_from_json", "cochain_to_json", "form_from_json", "form_to_json",
    "format_rational", "parse_rational", "render_affine", "render_cochain", "render_form",
}


def __getattr__(name: str):
    """The names of render, whose module is imported on first use (PEP 562).

    No other name resolves here: once a submodule is imported, the package
    holds it under its own name, so a lazy ``whitney`` or ``derham`` would
    come back as the module, not the function.
    """
    if name in _RENDER:
        from . import render

        return getattr(render, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
