"""Construction of Whitney forms on the standard simplex.

The basis form attached to the oriented face [v_0, ..., v_k] is

    k! * sum_j (-1)^j  nu_{v_j}  d nu_{v_0} ^ ... ^ (omit d nu_{v_j}) ^ ... ^ d nu_{v_k}

with nu the barycentric coordinates. The k! normalization makes the form
integrate to exactly 1 over its own face and 0 over every other k-face, so
the construction is a right inverse to face-wise integration. Reversing
the face orientation negates the form; the sign carried by a Face is folded
in here.

The basis forms have integer coefficients, each nonzero one +-k!, and over
k! they are the columns of the operator W/k!, entries +-1, which
:mod:`whitneyforms.operators` writes down in closed form, with no wedge
product, and stores as the sorted positions of each sign. ``whitney`` of a
cochain vec / q is k! (W/k!).vec / q: each nonzero entry of vec is added at
its column's +1 positions and subtracted at its -1 positions, in Python
ints (:func:`~whitneyforms.operators.factorial_image`), with k! carried in
the scale, no entry multiplied and no Fraction made.
"""

from __future__ import annotations

from .forms import AffineForm
from .operators import factorial_image, whitney_columns
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

    The cochain's nonzero integer entries are added and subtracted at the
    signed positions of their columns of W/k!, in Python ints, and k! goes
    into the scale. The pair is canonical with
    no gcd, as the rows T_F[b'] are a left inverse of W/k! (``factorial_image``).
    """
    return factorial_image(whitney_columns(c.n, c.k), c)
