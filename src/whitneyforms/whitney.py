"""Construction of Whitney forms on the standard simplex.

The basis form attached to the oriented face [v_0, ..., v_k] is

    k! * sum_j (-1)^j  nu_{v_j}  d nu_{v_0} ^ ... ^ (omit d nu_{v_j}) ^ ... ^ d nu_{v_k}

with nu the barycentric coordinates. The k! normalization makes the form
integrate to exactly 1 over its own face and 0 over every other k-face, so
the construction is a right inverse to face-wise integration. Reversing
the face orientation negates the form; the sign carried by a Face is folded
in here.

The basis forms have integer coefficients, each nonzero one +-k!, and over
k! they are the columns of the operator W/k!, entries +-1. By rows W/k! has
a closed form, with no wedge product: W c lies in P1^- Lambda^k, so each
b_T copies the value of the face [0] + T, and each coboundary
(delta c)([0] + G), a signed sum of k+2 entries of vec, is written as +-t
to the k+1 gradient entries a_{G - g_j, g_j}
(:func:`~whitneyforms.operators.whitney_plan`; the columns of W/k! are
read off these rows and certified). ``whitney`` of a cochain vec / q is
k! (W/k!).vec / q applied by those rows
(:func:`~whitneyforms.operators.factorial_image`): C(n,k) copies plus
C(n,k+1)(k+2) reads, in Python ints, with k! carried in the scale, no entry
multiplied and no Fraction made. One loop per degree, compiled once with a
body that names each of a group's faces and positions, writes them all.
"""

from __future__ import annotations

from .forms import AffineForm
from .operators import factorial_image, whitney_plan
from .simplicial import Cochain, Face

__all__ = [
    "whitney_basis_form",
    "whitney",
]


def whitney_basis_form(face: Face) -> AffineForm:
    """The Whitney form of one oriented face: k! times its column of W/k!, times its sign."""
    return whitney(Cochain.basis(face))


def whitney(c: Cochain) -> AffineForm:
    """Extend linearly: the Whitney form of a k-cochain.

    The cochain's integer entries are copied and summed along the rows of
    W/k!, in Python ints, and k! goes into the scale.
    The pair is canonical with no gcd, as the rows T_F[b'] are a left
    inverse of W/k! (``factorial_image``).
    """
    return factorial_image(whitney_plan(c.n, c.k), c)
