"""The sparse integer operators that act on forms as coefficient vectors.

An affine-coefficient k-form on the standard n-simplex is a vector of
rationals in the coordinates of :class:`UnknownLayout` (defined next to
:class:`~whitneyforms.forms.AffineForm` and re-exported here): per
multi-index I, the constant term b_I and then the gradient entries
a_{I,1}, ..., a_{I,n}. Every map the package needs between such vectors
and cochains is linear, and each has small integer entries, so it is built
once per (n, k):

* W/k!, the Whitney map over k!: per canonical k-face, in face order, the
  vector of its basis form divided by k!, whose entries are all +-1, as a
  :data:`SignedColumn`, the sorted positions of its +1 and of its -1 entries;
* D*(k+1)!, the de Rham map scaled to integers: one row per face;
* C, the constancy block: k rows per face.

D and C, sparse rows of ``(position, int)`` pairs, are slices of one more
map, T_G, the pullback to a face; only ``derham.pullback`` builds it per
call.

Both maps go by rows. ``derham`` applies D*(k+1)! through the traces of
the form's blocks (:func:`derham_plan`), multiplying each block's b_I once
by k+1. :func:`factorial_image`, which applies W/k! and the solve's S/k!,
only adds and subtracts: each of the cached :func:`image_plan` of the
operator's columns names its distinct rows once, up to sign.

An AffineForm is stored as that vector already scaled to integers, vec / q,
and a Cochain likewise as one integer per face in ``UnknownLayout.faces``
order, so the operators map integer vectors to integer vectors: W/k! takes
``cochain.vec`` to ``form.vec`` with k! in the scale
(:func:`factorial_image`, which the solve's S/k! shares), and D*(k+1)!
takes ``form.vec`` to ``cochain.vec`` over q * (k+1)!. No Fraction is made
on either way.

T_G is the pullback to a face G = (g_0, ..., g_t), t >= k, taken along its
own vertex order: x(s) = p_{g_0} + sum_r s^r (p_{g_r} - p_{g_0}), with p_0
the origin and p_i = e_i. A coefficient b_I + sum_j a_{I,j} x^j becomes

    (b_I + a_{I,g_0}) + sum_{r=1..t} s^r (a_{I,g_r} - a_{I,g_0}),    a_{I,0} = 0,

and dx^I becomes sum_J M_{I,J} ds^J, with M_{I,J} the minor on the rows I
of the sub-face (g_0, g_J) = (g_0, g_{j_1}, ..., g_{j_k}). On a face
V = (v_0, ..., v_k) a row outside V vanishes, so only the multi-indices
I = V \\ {v_r} can have a nonzero minor, and only those inside {1..n} exist:
a rest that contains 0 names none. With its rows in the order of the rest,
the minor is 1 for r = 0 (the identity), and (-1)^r for r >= 1, where the
row v_0 is all -1 and holds the only entry of column r; sorting the rows
multiplies it by the sign of sorting the rest (:func:`face_minors`).
Distinct r give distinct blocks I, so no two terms of a row share a
position, and T_G maps the (n, k) layout to the (t, k) layout by

    b'_J     = sum sigma (b_I + a_{I,g_0}),
    a'_{J,r} = sum sigma (a_{I,g_r} - a_{I,g_0}),

summed over the minors (I, sigma) of (g_0, g_J) (:func:`pullback_rows`).
``derham.pullback`` applies it to ``form.vec``. The other face rows are
slices of T_F for a k-face F, whose one target multi-index J = (1..k)
leaves the k+1 rows b', a'_1, ..., a'_k:

* C is the gradient rows a'_1, ..., a'_k: the pullback is constant exactly
  when they vanish, and their entries lie in {-1, 0, 1};
* D~ = D*(k+1)! is (k+1) T_F[b'] + sum_s T_F[a'_s] (:func:`integral_row`),
  because the standard k-simplex has moments 1/k! (of 1) and 1/(k+1)! (of
  each s^r): it puts sigma (k+1) on b_I and sigma on a_{I,j} for each vertex
  j >= 1 of F;
* D~ by rows reads each block I through its trace
  beta_I = (k+1) b_I + sum_{j in I} a_{I,j}. On a face [0] + I only I has
  a minor, g_0 = 0, and the row is beta_I. On F = (v_0 < ... < v_k) with
  v_0 >= 1 every rest is increasing, sigma = (-1)^r, and with I = F \\ {v_r}
  (k+1)(b_I + a_{I,v_0}) + sum_{s>=1} (a_{I,v_s} - a_{I,v_0}) is
  beta_I + a_{I,v_r}. So :func:`derham_plan` applies D~ with
  C(n,k) k + 2(k+1) C(n,k+1) additions and C(n,k) multiplications by k+1,
  385 and 35 at (7, 3), where its columns hold 840 entries, each a
  multiply-add; it is built in closed form and certified, once, to rebuild
  :func:`derham_rows`;
* r(m, L) = T_{(m, *L)}[b'], the value at vertex m of the coefficient
  pulled back to (m, *L), is sigma on b_I and a_{I,m}. It is no slice, but
  with G = sorted((m,) + L) the stage-2 row of :mod:`whitneyforms.characterize`
  is sigma (k+1) r(m, L) = D~_G - sum_s C_{G,s} + (k+1) C_{G,G.index(m)}.

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
+-k!. :func:`whitney_columns` stores W/k! as signed columns, so that k!
rides in the form's scale and a sum multiplies no entry, and it is built
without a single wedge product.

By rows, W/k! is the affine part of P1^- Lambda^k = P0 Lambda^k + kappa
P0 Lambda^{k+1}, kappa the Koszul operator. Row b_T is the single +1 of the
column [0] + T, so b_T copies c([0] + T). Row a_{T,i} vanishes for i in T.
For i outside T, with G = sorted(T + i) and i = g_j, it is (-1)^j times the
coboundary (delta c)([0] + G) = sum_r (-1)^r c(([0] + G) minus its r-th
vertex): the column of G puts (-1)^j there, the column of [0] + T puts -1
and the term-j amounts put the rest, one entry on each of the k+2 faces of
[0] + G. So the C(n,k)(n-k) gradient rows hold only C(n,k+1) distinct
values, and :func:`whitney_plan`, read off the columns by
:func:`image_plan`, applies W/k! as C(n,k) copies plus C(n,k+1) sums of
k+2 entries, each written to k+1 positions, where the columns hold
C(n,k) + C(n,k)(n-k)(k+2) entries: 210 reads against 735 at (7, 3).
"""

from __future__ import annotations

import math
from functools import cache
from typing import Iterable, Iterator, Sequence

from .forms import AffineForm, MultiIndex, UnknownLayout, unknown_layout
from .simplicial import Cochain, permutation_sign

__all__ = [
    "SparseRow",
    "SignedColumn",
    "UnknownLayout",
    "unknown_layout",
    "face_minors",
    "pullback_rows",
    "integral_row",
    "whitney_columns",
    "derham_rows",
    "derham_columns",
    "DerhamPlan",
    "derham_plan",
    "CertificateError",
    "transpose",
    "signed",
    "ImagePlan",
    "image_plan",
    "whitney_plan",
    "factorial_image",
    "constancy_rows",
]

SparseRow = tuple[tuple[int, int], ...]
"""Nonzero entries of one row (or column) as (position, value), by position."""

SignedColumn = tuple[tuple[int, ...], tuple[int, ...]]
"""A column whose entries are all +-1, as (plus, minus): the sorted positions of each sign."""

DerhamPlan = tuple[
    tuple[tuple[int, tuple[int, ...]], ...],
    tuple[tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]], ...],
]
"""D~ by rows, as (blocks, faces) (:func:`derham_plan`).

Block i is (position of b_I, positions of a_{I,j} for j in I), I the i-th
multi-index. Each face F = (v_0 < ... < v_k) with v_0 >= 1 is (plus, minus),
the pairs (i, position of a_{I,v_r}) for I = F minus v_r, r even or odd.
"""

ImagePlan = tuple[
    tuple[tuple[int, int], ...],
    tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...],
]
"""A +-1 operator by its nonzero rows, as (copies, groups) (:func:`image_plan`).

A copy (face, position) is a row whose one entry is +1. A group
(plus faces, minus faces, plus positions, minus positions) is the rows
equal up to sign: with t the input's sum at the plus faces less its sum
at the minus faces, they are t at the plus positions and -t at the minus
ones.
"""


def face_minors(vertices: tuple[int, ...]) -> tuple[tuple[MultiIndex, int], ...]:
    """(I, minor) for each multi-index with a nonzero minor on the face, vertices in any order.

    Dropping v_r leaves rest, I = sorted(rest) and the minor is (-1)^r times
    the sign of sorting rest; a rest that contains 0 names no multi-index.
    """
    minors: list[tuple[MultiIndex, int]] = []
    for r in range(len(vertices)):
        rest = vertices[:r] + vertices[r + 1 :]
        if 0 not in rest:
            sign = permutation_sign(rest)
            minors.append((tuple(sorted(rest)), -sign if r % 2 else sign))
    return tuple(minors)


def pullback_rows(n: int, k: int, vertices: tuple[int, ...]) -> Iterator[SparseRow]:
    """T_G: row p is entry p of the (t, k) layout vector of the pullback to G = vertices.

    Per target multi-index J, the row of b'_J and then those of a'_{J,1..t}.
    """
    layout = unknown_layout(n, k)
    g0, rest = vertices[0], vertices[1:]
    for span in unknown_layout(len(rest), k).multi_indices:
        sub_face = (g0, *(rest[j - 1] for j in span))
        minors = [(layout.position(idx), sign) for idx, sign in face_minors(sub_face)]
        # a_{I,0} = 0: a slot g = 0 adds no entry
        at_g0 = [(base + g0, sign) for base, sign in minors] if g0 else []
        yield tuple(sorted(minors + at_g0))
        for g in rest:
            row = [(base + g, sign) for base, sign in minors] if g else []
            yield tuple(sorted(row + [(pos, -sign) for pos, sign in at_g0]))


def integral_row(k: int, face_rows: Iterable[SparseRow]) -> SparseRow:
    """(k+1)! times the integral over a k-face F, from T_F: (k+1) T_F[b'] + sum_s T_F[a'_s]."""
    constant, *gradient = face_rows
    terms = [(k + 1, constant)] + [(1, row) for row in gradient]
    return tuple(sorted(_combine(terms).items()))


def _combine(terms: Iterable[tuple[int, SparseRow]]) -> dict[int, int]:
    """The nonzero entries of sum(weight * row)."""
    out: dict[int, int] = {}
    for weight, row in terms:
        for pos, value in row:
            out[pos] = out.get(pos, 0) + weight * value
    return {pos: value for pos, value in out.items() if value}


@cache
def _face_pullbacks(n: int, k: int) -> tuple[tuple[SparseRow, ...], ...]:
    """T_F for each of layout.faces: the k+1 rows b', a'_1, ..., a'_k."""
    return tuple(tuple(pullback_rows(n, k, face)) for face in unknown_layout(n, k).faces)


@cache
def whitney_columns(n: int, k: int) -> tuple[SignedColumn, ...]:
    """W/k!: column i is layout.faces[i]'s Whitney basis form over k!, as signed positions."""
    layout = unknown_layout(n, k)
    columns: list[SignedColumn] = []
    for face in layout.faces:
        column: list[tuple[int, int]] = []
        if face[0]:
            for j, v in enumerate(face):
                column.append((layout.position(face[:j] + face[j + 1 :], v), -1 if j % 2 else 1))
        else:
            # the a_{T,v_j} entries cancel, so only i outside F remain
            span = face[1:]
            outside = [i for i in range(1, n + 1) if i not in span]
            column.append((layout.position(span), 1))
            column += [(layout.position(span, i), -1) for i in outside]
            for j, v in enumerate(span, 1):
                rest = span[: j - 1] + span[j:]
                for i in outside:
                    below = sum(r < i for r in rest)
                    pos = layout.position(tuple(sorted((*rest, i))), v)
                    column.append((pos, 1 if (j + below) % 2 else -1))
        columns.append(signed(column))
    return tuple(columns)


def signed(entries: Iterable[tuple[int, int]]) -> SignedColumn:
    """The (plus, minus) positions of (position, value) entries; ValueError on a value not +-1."""
    plus: list[int] = []
    minus: list[int] = []
    for pos, value in sorted(entries):
        if value not in (1, -1):
            raise ValueError(f"entry {value} at position {pos} is not +-1")
        (plus if value == 1 else minus).append(pos)
    return tuple(plus), tuple(minus)


@cache
def derham_rows(n: int, k: int) -> tuple[SparseRow, ...]:
    """D*(k+1)!: row i integrates over layout.faces[i], times (k+1)!."""
    return tuple(integral_row(k, face_rows) for face_rows in _face_pullbacks(n, k))


class CertificateError(RuntimeError):
    """A certificate did not go through: the schedule, W, a pivot, a plan or a closed form."""


@cache
def derham_plan(n: int, k: int) -> DerhamPlan:
    """D~ by its block traces, built in closed form; CertificateError unless it rebuilds derham_rows."""
    layout = unknown_layout(n, k)
    blocks = tuple(
        (layout.position(idx), tuple(layout.position(idx, j) for j in idx))
        for idx in layout.multi_indices
    )
    block = {idx: i for i, idx in enumerate(layout.multi_indices)}
    traces = [((b, k + 1), *((p, 1) for p in gradient)) for b, gradient in blocks]
    rows = list(traces)
    faces = []
    # the C(n, k) faces [0] + I come first, in the order of their blocks I
    for face in layout.faces[len(blocks) :]:
        rests = [face[:r] + face[r + 1 :] for r in range(len(face))]
        pairs = [(block[rest], layout.position(rest, v)) for rest, v in zip(rests, face)]
        faces.append((tuple(pairs[::2]), tuple(pairs[1::2])))
        terms = [((-1) ** r, traces[i] + ((p, 1),)) for r, (i, p) in enumerate(pairs)]
        rows.append(tuple(sorted(_combine(terms).items())))
    if tuple(rows) != derham_rows(n, k):
        raise CertificateError(f"the block traces at (n={n}, k={k}) do not rebuild D~")
    return blocks, tuple(faces)


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


def image_plan(columns: Sequence[SignedColumn], size: int) -> ImagePlan:
    """The nonzero rows of signed columns as a plan; each group reads its first face with +1."""
    entries = ([(p, 1) for p in plus] + [(p, -1) for p in minus] for plus, minus in columns)
    copies: list[tuple[int, int]] = []
    groups: dict[SparseRow, tuple[list[int], list[int]]] = {}
    for pos, row in enumerate(transpose(entries, size)):
        if len(row) == 1 and row[0][1] == 1:
            copies.append((row[0][0], pos))
        elif row:
            sign = row[0][1]
            key = tuple((face, sign * value) for face, value in row)
            groups.setdefault(key, ([], []))[sign < 0].append(pos)
    return tuple(copies), tuple(
        (
            tuple(face for face, value in key if value > 0),
            tuple(face for face, value in key if value < 0),
            tuple(plus),
            tuple(minus),
        )
        for key, (plus, minus) in groups.items()
    )


@cache
def whitney_plan(n: int, k: int) -> ImagePlan:
    """W/k! by rows: C(n,k) copies b_T <- c([0] + T) and C(n,k+1) groups +-(delta c)([0] + G)."""
    return image_plan(whitney_columns(n, k), unknown_layout(n, k).size)


def factorial_image(plan: ImagePlan, cochain: Cochain) -> AffineForm:
    """k! X.c for the cochain c = vec / q and an X with C.X = 0, D~.X = (k+1) I, such as W/k!.

    X comes as its :func:`image_plan`. With a = gcd(q, k!) and m = k!/a
    this is u / (q/a), u = X.(m vec): each copy is written, and each
    group's one signed sum is written at its plus positions and, negated,
    at its minus ones, so no entry is multiplied, by k! or by +-1. The pair
    is canonical with no gcd, because T_F[b'] is an integer left inverse
    of X: D~_F - sum_s C_{F,s} = (k+1) T_F[b'] (:func:`integral_row`), so
    (k+1) T[b'].X = (D~ - sum_s C_s).X = (k+1) I and m vec = T[b'].u. Any g dividing
    q/a and every entry of u divides m gcd(*vec); g shares no factor with m,
    because gcd(q/a, m) = 1, nor with gcd(*vec), because gcd(q, *vec) = 1.
    """
    n, k, q = cochain.n, cochain.k, cochain.q
    a = math.gcd(q, math.factorial(k))
    m = math.factorial(k) // a
    values = cochain.vec if m == 1 else [m * v for v in cochain.vec]
    copies, groups = plan
    u = [0] * unknown_layout(n, k).size
    for face, pos in copies:
        u[pos] = values[face]
    for plus_faces, minus_faces, plus, minus in groups:
        t = 0
        for face in plus_faces:
            t += values[face]
        for face in minus_faces:
            t -= values[face]
        if t:
            for pos in plus:
                u[pos] = t
            t = -t
            for pos in minus:
                u[pos] = t
    return AffineForm._canonical(n, k, u, q // a)


@cache
def constancy_rows(n: int, k: int) -> tuple[tuple[SparseRow, ...], ...]:
    """C: for layout.faces[i], the s^1..s^k derivatives of the pulled-back coefficient."""
    return tuple(face_rows[1:] for face_rows in _face_pullbacks(n, k))
