"""Construction of Whitney forms on the standard simplex.

The basis form attached to the oriented face [v_0, ..., v_k] is

    k! * sum_j (-1)^j  nu_{v_j}  d nu_{v_0} ^ ... ^ (omit d nu_{v_j}) ^ ... ^ d nu_{v_k}

with nu the barycentric coordinates. The k! normalization makes the form
integrate to exactly 1 over its own face and 0 over every other k-face, so
the construction is a right inverse to face-wise integration. Reversing
the face orientation negates the form; the sign carried by a Face is folded
in here. The basis forms have integer coefficients and are the columns of
the operator W, so ``whitney`` of a cochain is a sum of scaled columns.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, reduce

from .forms import AffineForm, ConstantForm, scale_by_affine, wedge
from .operators import unknown_layout, whitney_columns
from .simplicial import BadDegree, Cochain, Face, barycentric_functions

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


@cache
def _basis_form_canonical(n: int, vertices: tuple[int, ...]) -> AffineForm:
    k = len(vertices) - 1
    nu = barycentric_functions(n)
    diffs = [barycentric_differential(n, v) for v in vertices]
    total = AffineForm.zero(n, k)
    for j, v in enumerate(vertices):
        rest = diffs[:j] + diffs[j + 1 :]
        if rest:
            product = reduce(wedge, rest[1:], rest[0])
        else:
            product = ConstantForm(n, 0, {(): 1})
        sign = -1 if j % 2 else 1
        total = total + sign * scale_by_affine(nu[v], product)
    return math.factorial(k) * total


def whitney_basis_form(face: Face) -> AffineForm:
    """The Whitney form of one oriented face."""
    return face.sign * _basis_form_canonical(face.n, face.vertices)


def whitney(c: Cochain) -> AffineForm:
    """Extend linearly: the Whitney form of a k-cochain.

    The coefficient vector is the sum of the cochain's coefficients times
    the integer columns of W, one column per face.
    """
    if not 0 <= c.k <= c.n:
        raise BadDegree(f"k={c.k} outside 0..{c.n}")
    layout = unknown_layout(c.n, c.k)
    columns = whitney_columns(c.n, c.k)
    vec = [Fraction(0)] * layout.size
    for vertices, coeff in c.terms.items():
        for pos, value in columns[vertices]:
            vec[pos] += coeff * value
    return layout.form_from_vector(vec)
