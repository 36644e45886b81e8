"""Face-wise integration and pullback of affine-coefficient forms.

Pulling a form back to a face G, in the face's own vertex order, is the
sparse integer operator T_G of :mod:`whitneyforms.operators`, applied to
the form's integer vector over the same q. Integrating a k-form over an
oriented k-face then reduces to two closed-form moments of the standard
k-simplex:

    integral of 1    over the standard k-simplex = 1/k!
    integral of t^s  over the standard k-simplex = 1/(k+1)!

so no numerical quadrature is needed and every value is an exact rational.
That makes (k+1)! times the integral over a canonical face a row of the
cached ``operators.derham_rows``, which ``integrate_over_face`` applies to
the form's ``vec`` with the face's orientation sign, building no pullback.

``derham`` takes every face integral at once: those rows, for every
canonical face, are one sparse integer matrix D~ = D*(k+1)! per (n, k),
applied by rows (``operators.derham_plan``). With the trace
beta_I = (k+1) b_I + sum_{j in I} a_{I,j} of each block, the face [0] + I
integrates to beta_I and a face F = (v_0 < ... < v_k) with v_0 >= 1 to
sum_r (-1)^r (beta_{F - v_r} + a_{F - v_r, v_r}), over q * (k+1)!, in
Python ints with no Fraction made; derham made those ints itself, so they
reach the gcd unchecked.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .forms import AffineForm
from .operators import derham_plan, derham_rows, pullback_rows
from .simplicial import Cochain, DegreeMismatch, Face, _face_positions, canonicalize

__all__ = [
    "pullback",
    "integrate_over_face",
    "derham",
]


def pullback(form: AffineForm, face: Face) -> AffineForm:
    """Pull the form back to the face along its vertex order: T_G applied to vec.

    The result lives on the standard t-simplex in the t coordinates of the
    face (t the face degree), so a non-canonical vertex order reparametrises
    it. The face's orientation sign is deliberately not applied here;
    integration applies it.
    """
    if face.n != form.n:
        raise DegreeMismatch("face and form live in different dimensions")
    t = face.degree
    if t < form.k:
        raise DegreeMismatch(f"cannot pull a degree-{form.k} form back to a {t}-face")
    rows = pullback_rows(form.n, form.k, face.vertices)
    vec = [sum(value * form.vec[pos] for pos, value in row) for row in rows]
    return AffineForm.from_vector(t, form.k, vec, form.q)


def integrate_over_face(form: AffineForm, face: Face) -> Fraction:
    """Integral of a k-form over an oriented k-face, exactly.

    The canonical face's row of D*(k+1)!, times the orientation sign of
    the face against it, applied to ``vec`` over (k+1)! q. A 0-form is
    simply evaluated at the vertex.
    """
    if face.n != form.n:
        raise DegreeMismatch("face and form live in different dimensions")
    n, k = form.n, form.k
    if face.degree != k:
        raise DegreeMismatch(f"cannot integrate a degree-{k} form over a {face.degree}-face")
    canon = canonicalize(face)
    row = derham_rows(n, k)[_face_positions(n, k)[canon.vertices]]
    total = sum(value * form.vec[pos] for pos, value in row)
    return Fraction(canon.sign * total, math.factorial(k + 1) * form.q)


def derham(form: AffineForm) -> Cochain:
    """All face integrals of the form, as a cochain on the canonical faces."""
    n, k = form.n, form.k
    blocks, faces = derham_plan(n, k)
    vec, w = form.vec, k + 1
    integrals = []
    for b, gradient in blocks:
        t = w * vec[b]
        for p in gradient:
            t += vec[p]
        integrals.append(t)
    beta = integrals[:]
    for plus, minus in faces:
        t = 0
        for i, p in plus:
            t += beta[i] + vec[p]
        for i, p in minus:
            t -= beta[i] + vec[p]
        integrals.append(t)
    return Cochain._reduced(n, k, integrals, form.q * math.factorial(w))
