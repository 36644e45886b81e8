"""Face-wise integration of affine-coefficient forms.

Integrating a k-form over an oriented k-face reduces, after pulling back
to the standard k-simplex, to two closed-form moments:

    integral of 1    over the standard k-simplex = 1/k!
    integral of t^s  over the standard k-simplex = 1/(k+1)!

so no numerical quadrature is needed and every value is an exact rational.
``integrate_over_face`` does exactly that for one face of any orientation.

``derham`` collects the integrals over all canonical k-faces into a cochain
without any pullback: the moments above, applied to the closed-form minors
of each face, make the whole map one sparse integer matrix D*(k+1)! per
(n, k) (see :mod:`whitneyforms.operators`). ``derham`` multiplies the form's
integer vector ``vec`` by it in Python ints, and that vector over
q * (k+1)! is the cochain, with no Fraction made. The per-face route stays
as the independent check of that matrix.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .forms import AffineForm, DimensionMismatch, pullback
from .operators import derham_rows
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
    n, k, vec = form.n, form.k, form.vec
    integrals = [sum([vec[pos] * value for pos, value in row]) for row in derham_rows(n, k)]
    return Cochain.from_vector(n, k, integrals, form.q * math.factorial(k + 1))
