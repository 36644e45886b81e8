"""Face-wise integration of affine-coefficient forms.

Integrating a k-form over an oriented k-face reduces, after pulling back
to the standard k-simplex, to two closed-form moments:

    integral of 1    over the standard k-simplex = 1/k!
    integral of t^s  over the standard k-simplex = 1/(k+1)!

so no numerical quadrature is needed and every value is an exact rational.
``integrate_over_face`` does exactly that for one face of any orientation.

``derham`` takes every face integral at once with no pullback: the moments
above, applied to the closed-form minors of each face, make it one sparse
integer matrix D*(k+1)! per (n, k) (:mod:`whitneyforms.operators`). Its
columns at the nonzero entries of the form's ``vec`` are summed in Python
ints, over q * (k+1)!, with no Fraction made. The per-face route stays as
the independent check of that matrix.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .forms import AffineForm, DimensionMismatch, pullback
from .operators import column_sum, derham_columns
from .simplicial import AffineFunction, Cochain, DegreeMismatch, Face

__all__ = [
    "simplex_integral",
    "integrate_over_face",
    "derham",
]


def simplex_integral(f: AffineFunction) -> Fraction:
    """Exact integral of an affine function over the standard simplex.

    In dimension 0 the simplex is a point and the integral is evaluation.
    """
    if f.n == 0:
        return f.constant
    return Fraction(f.constant, math.factorial(f.n)) + Fraction(
        sum(f.gradient, Fraction(0)), math.factorial(f.n + 1)
    )


def integrate_over_face(form: AffineForm, face: Face) -> Fraction:
    """Integral of a k-form over an oriented k-face, exactly.

    The pullback to the face's parameter simplex is a top-degree form there,
    a single affine coefficient times dt^1^...^dt^k; its simplex integral,
    times the face's orientation sign, is the answer. A 0-form is simply
    evaluated at the vertex.
    """
    if face.n != form.n:
        raise DimensionMismatch("face and form live in different dimensions")
    if face.degree != form.k:
        raise DegreeMismatch(
            f"cannot integrate a degree-{form.k} form over a {face.degree}-face"
        )
    pulled = pullback(form, face)
    top = tuple(range(1, face.degree + 1))
    coeff = pulled.coeffs.get(top, AffineFunction.zero(face.degree))
    return face.sign * simplex_integral(coeff)


def derham(form: AffineForm) -> Cochain:
    """All face integrals of the form, as a cochain on the canonical faces."""
    n, k = form.n, form.k
    integrals = column_sum(derham_columns(n, k), form.vec, Cochain.size(n, k))
    return Cochain.from_vector(n, k, integrals, form.q * math.factorial(k + 1))
