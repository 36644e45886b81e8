"""Construction of Whitney forms on the standard simplex.

The basis form attached to the oriented face [v_0, ..., v_k] is

    k! * sum_j (-1)^j  nu_{v_j}  d nu_{v_0} ^ ... ^ (omit d nu_{v_j}) ^ ... ^ d nu_{v_k}

with nu the barycentric coordinates. The k! normalization makes the form
integrate to exactly 1 over its own face and 0 over every other k-face, so
the construction is a right inverse to face-wise integration. Reversing
the face orientation negates the form; the sign carried by a Face is folded
in here.

The basis forms have integer coefficients and are the columns of the
operator W, which :mod:`whitneyforms.operators` writes down in closed form
(no wedge products are taken at run time). ``whitney`` of a cochain is a
sum of scaled columns, done in integers: the coefficients are scaled by the
lcm q of their denominators, the columns are summed in Python ints, and
the integer vector and q become the AffineForm as they are, with no
Fraction made.
"""

from __future__ import annotations

import math

from .forms import AffineForm, ConstantForm
from .operators import unknown_layout, whitney_columns
from .simplicial import BadDegree, Cochain, Face, canonicalize

__all__ = [
    "barycentric_differential",
    "whitney_basis_form",
    "whitney",
]


def barycentric_differential(n: int, label: int) -> ConstantForm:
    """d nu_label as a constant 1-form: -sum_i dx^i for label 0, else dx^label."""
    if not 0 <= label <= n:
        raise ValueError(f"vertex label {label} outside 0..{n}")
    if label == 0:
        return ConstantForm(n, 1, {(i,): -1 for i in range(1, n + 1)})
    return ConstantForm.basis(n, (label,))


def whitney_basis_form(face: Face) -> AffineForm:
    """The Whitney form of one oriented face: its column of W, times its sign."""
    canon = canonicalize(face)
    vec = [0] * unknown_layout(face.n, face.degree).size
    for pos, value in whitney_columns(face.n, face.degree)[canon.vertices]:
        vec[pos] = canon.sign * value
    return AffineForm.from_vector(face.n, face.degree, vec)


def whitney(c: Cochain) -> AffineForm:
    """Extend linearly: the Whitney form of a k-cochain.

    The cochain is scaled to integers by the lcm q of its denominators, its
    integer coefficients times the integer columns of W are summed in
    Python ints, and the form is that sum over q.
    """
    if not 0 <= c.k <= c.n:
        raise BadDegree(f"k={c.k} outside 0..{c.n}")
    columns = whitney_columns(c.n, c.k)
    q = math.lcm(*(coeff.denominator for coeff in c.terms.values()))
    vec = [0] * unknown_layout(c.n, c.k).size
    for vertices, coeff in c.terms.items():
        scaled = coeff.numerator * (q // coeff.denominator)
        for pos, value in columns[vertices]:
            vec[pos] += scaled * value
    return AffineForm.from_vector(c.n, c.k, vec, q)
