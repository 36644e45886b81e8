"""The sparse integer operators that act on forms as coefficient vectors.

An affine-coefficient k-form on the standard n-simplex is a vector of
rationals in the coordinates of :class:`UnknownLayout` (defined next to
:class:`~whitneyforms.forms.AffineForm` and re-exported here): per
multi-index I, the constant term b_I and then the gradient entries
a_{I,1}, ..., a_{I,n}. Every map the package needs between such vectors
and cochains is linear, and each has small integer entries, so it is built
once per (n, k) as sparse rows of ``(position, int)`` pairs:

* W, the Whitney map: per canonical k-face, in face order, the vector of
  its basis form (entries +-k!);
* D*(k+1)!, the de Rham map scaled to integers: one row per face;
* C, the constancy block: k rows per face.

Each map is a :func:`column_sum` over its input's nonzero entries, so a
sparse input costs its nonzeros; ``derham`` uses :func:`derham_columns`.

An AffineForm is stored as that vector already scaled to integers, vec / q,
and a Cochain likewise as one integer per face in ``UnknownLayout.faces``
order, so the operators map integer vectors to integer vectors: W takes
``cochain.vec`` to ``form.vec`` over the same q, and D*(k+1)! takes
``form.vec`` to ``cochain.vec`` over q * (k+1)!. No Fraction is made on
either way.

D and C come from one closed form. Parametrize the canonical face
F = (v_0 < ... < v_k) by x(t) = p_{v_0} + sum_s t^s (p_{v_s} - p_{v_0}). The
pullback of dx^I is the minor of the direction matrix on the rows I. A row
outside F vanishes, so only the multi-indices I_r = F \\ {v_r} can have a
nonzero minor, and only those inside {1..n} exist: when v_0 = 0 that leaves
r = 0 alone. The minor of I_r is (-1)^r: the identity for r = 0, and for
r >= 1 the row v_0 is all -1, whose entry in column r is the only one there.
The standard k-simplex has moments 1/k! (of 1) and 1/(k+1)! (of each t^s),
and x^j(t) is the barycentric coordinate of vertex j on F (zero unless j is
a vertex of F), so

    integral over F of x^j dx^{I_r} = (-1)^r [j in F] / (k+1)!
    integral over F of     dx^{I_r} = (-1)^r / k!

and D*(k+1)! puts (-1)^r (k+1) on b_{I_r} and (-1)^r on a_{I_r,j} for each
vertex j >= 1 of F. The t^s-derivative of the pulled-back coefficient is
sum_r (-1)^r (a_{I_r,v_s} - a_{I_r,v_0}), with a_{I,0} taken as zero, so C
has entries in {-1, 0, 1}. Distinct r give distinct blocks I_r, so no two
terms of a row ever share a position.

W has a closed form too. The basis form of F is

    k! sum_j (-1)^j nu_{v_j} d nu_{v_0} ^ ... (omit j) ... ^ d nu_{v_k},

with nu_i = x^i, d nu_i = dx^i for i >= 1, and nu_0 = 1 - sum_i x^i,
d nu_0 = -sum_i dx^i. When v_0 != 0 every factor is a dx and F \\ {v_j} is
already increasing, so term j is (-1)^j k! x^{v_j} dx^{F \\ {v_j}}: the
column puts (-1)^j k! on a_{F \\ v_j, v_j}. When v_0 = 0, let T = F \\ {0}.
Term 0 is k! nu_0 dx^T: +k! on b_T and -k! on a_{T,i} for every i = 1..n.
Term j >= 1 is (-1)^j k! x^{v_j} d nu_0 ^ dx^J with J = F \\ {0, v_j}, and

    d nu_0 ^ dx^J = -sum_{i not in J} (-1)^{#{r in J : r < i}} dx^{sorted(J + i)},

so it adds -(-1)^{j + #{r in J : r < i}} k! to a_{sorted(J + i), v_j}. For
i = v_j the count is j - 1, the index is T and the amount is +k!, which
cancels term 0's entry on a_{T,v_j}. No other two terms meet: the slot v_j
names j, and then the index names i. So the column is +k! on b_T, -k! on
a_{T,i} and the term-j amounts for each i outside F; every entry of W is
+-k!, and W is built without a single wedge product.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Iterable, Sequence

from .forms import MultiIndex, UnknownLayout, unknown_layout
from .simplicial import permutation_sign

__all__ = [
    "SparseRow",
    "UnknownLayout",
    "unknown_layout",
    "face_minors",
    "whitney_columns",
    "derham_rows",
    "derham_columns",
    "transpose",
    "column_sum",
    "constancy_rows",
    "constant_term_row",
]

SparseRow = tuple[tuple[int, int], ...]
"""Nonzero entries of one row (or column) as (position, value), by position."""


def face_minors(vertices: tuple[int, ...]) -> tuple[tuple[MultiIndex, int], ...]:
    """(I_r, (-1)^r) for each multi-index with a nonzero minor on a canonical face."""
    return tuple(
        (vertices[:r] + vertices[r + 1 :], -1 if r % 2 else 1)
        for r in range(len(vertices))
        if r == 0 or vertices[0] != 0
    )


@cache
def whitney_columns(n: int, k: int) -> tuple[SparseRow, ...]:
    """W: column i is the coefficient vector of layout.faces[i]'s Whitney basis form."""
    layout = unknown_layout(n, k)
    f = math.factorial(k)
    columns: list[SparseRow] = []
    for face in layout.faces:
        column: list[tuple[int, int]] = []
        if face[0]:
            for j, v in enumerate(face):
                column.append((layout.position(face[:j] + face[j + 1 :], v), -f if j % 2 else f))
        else:
            # the a_{T,v_j} entries cancel, so only i outside F remain
            span = face[1:]
            outside = [i for i in range(1, n + 1) if i not in span]
            column.append((layout.position(span), f))
            column += [(layout.position(span, i), -f) for i in outside]
            for j, v in enumerate(span, 1):
                rest = span[: j - 1] + span[j:]
                for i in outside:
                    below = sum(r < i for r in rest)
                    pos = layout.position(tuple(sorted((*rest, i))), v)
                    column.append((pos, f if (j + below) % 2 else -f))
        columns.append(tuple(sorted(column)))
    return tuple(columns)


@cache
def derham_rows(n: int, k: int) -> tuple[SparseRow, ...]:
    """D*(k+1)!: row i integrates over layout.faces[i], times (k+1)!."""
    layout = unknown_layout(n, k)
    rows: list[SparseRow] = []
    for face in layout.faces:
        row: list[tuple[int, int]] = []
        for idx, sign in face_minors(face):
            row.append((layout.position(idx), sign * (k + 1)))
            row.extend((layout.position(idx, j), sign) for j in face if j)
        rows.append(tuple(sorted(row)))
    return tuple(rows)


@cache
def derham_columns(n: int, k: int) -> tuple[SparseRow, ...]:
    """D*(k+1)! by columns: column p lists (face index, value) for unknown p."""
    return transpose(derham_rows(n, k), unknown_layout(n, k).size)


def transpose(rows: Iterable[Iterable[tuple[int, int]]], size: int) -> tuple[SparseRow, ...]:
    """The size columns of sparse rows, each listing (row index, value) by row."""
    columns: list[list[tuple[int, int]]] = [[] for _ in range(size)]
    for r, row in enumerate(rows):
        for pos, value in row:
            columns[pos].append((r, value))
    return tuple(map(tuple, columns))


def column_sum(columns: Sequence[SparseRow], values: Sequence[int], size: int) -> list[int]:
    """sum_i values[i] * columns[i] as a dense int list; a zero value reads no column."""
    out = [0] * size
    for i, value in enumerate(values):
        if value:
            for pos, entry in columns[i]:
                out[pos] += value * entry
    return out


@cache
def constancy_rows(n: int, k: int) -> tuple[tuple[SparseRow, ...], ...]:
    """C: for layout.faces[i], the t^1..t^k derivatives of the pulled-back coefficient."""
    layout = unknown_layout(n, k)
    out: list[tuple[SparseRow, ...]] = []
    for face in layout.faces:
        minors = face_minors(face)
        rows: list[SparseRow] = []
        for v in face[1:]:
            row = [(layout.position(idx, v), sign) for idx, sign in minors]
            if face[0]:
                row += [(layout.position(idx, face[0]), -sign) for idx, sign in minors]
            rows.append(tuple(sorted(row)))
        out.append(tuple(rows))
    return tuple(out)


def constant_term_row(n: int, k: int, m: int, span: MultiIndex) -> SparseRow:
    """Constant term of the coefficient pulled back to the face (m, *span).

    That constant term is the coefficient's value at vertex m >= 1. Ordering
    the face as G = sorted((m,) + span) multiplies every minor by
    sigma = permutation_sign((m,) + span), so the row puts sigma (-1)^r on
    both b_I and a_{I,m} for each I = G \\ {g_r}.
    """
    layout = unknown_layout(n, k)
    face = (m, *span)
    sigma = permutation_sign(face)
    row: list[tuple[int, int]] = []
    for idx, sign in face_minors(tuple(sorted(face))):
        row += [(layout.position(idx), sigma * sign), (layout.position(idx, m), sigma * sign)]
    return tuple(sorted(row))
