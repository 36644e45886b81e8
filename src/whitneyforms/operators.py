"""The sparse integer operators that act on forms as coefficient vectors.

An affine-coefficient k-form on the standard n-simplex is a vector of
rationals in the coordinates of :class:`UnknownLayout` (defined next to
:class:`~whitneyforms.forms.AffineForm` and re-exported here): per
multi-index I, the constant term b_I and then the gradient entries
a_{I,1}, ..., a_{I,n}. Every map the package needs between such vectors
and cochains is linear, and each has small integer entries, so it is built
once per (n, k):

* W/k!, the Whitney map over k!, whose entries are all +-1: per unknown,
  the sparse row of (face index, +-1) entries (:func:`whitney_rows`), so
  that column F is the basis form of the canonical k-face F over k!;
* D*(k+1)!, the de Rham map scaled to integers: one row per face;
* C, the constancy block: k rows per face.

D and C, sparse rows of ``(position, int)`` pairs, are slices of one more
map, T_G, the pullback to a face; only ``derham.pullback`` builds it per
call.

Both maps go by rows, each through a plan built in closed form once per
(n, k). ``derham`` applies D*(k+1)! through the traces of the form's blocks
(:func:`derham_plan`), multiplying each block's b_I once by k+1.
:func:`factorial_image`, which applies W/k! for ``whitney`` and for the
solve, only copies, adds and subtracts (:func:`whitney_plan`).

Neither runs an interpreted inner loop. A plan stores its rows as flat
tuples of integers, and carries one loop per degree k, compiled once, whose
body names every entry of a row: :func:`_derham_kernel` for D~ and
:func:`_whitney_kernel` for W/k!. The source of a loop is built from the
integer k alone, never from an input value; the plans stay the certified
data that the loops read.

An AffineForm is stored as that vector already scaled to integers, vec / q,
and a Cochain likewise as one integer per face in ``UnknownLayout.faces``
order, so the operators map integer vectors to integer vectors: W/k! takes
``cochain.vec`` to ``form.vec`` with k! in the scale
(:func:`factorial_image`, which the solve shares), and D*(k+1)!
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
  :func:`derham_rows`, each row written down in sorted order;
* r(m, L) = T_{(m, *L)}[b'], the value at vertex m of the coefficient
  pulled back to (m, *L), is sigma on b_I and a_{I,m}. It is no slice, but
  with G = sorted((m,) + L) the stage-2 row of :mod:`whitneyforms.characterize`
  is sigma (k+1) r(m, L) = D~_G - sum_s C_{G,s} + (k+1) C_{G,G.index(m)}.

W/k! has a closed form by rows: W c is the affine part of
P1^- Lambda^k = P0 Lambda^k + kappa P0 Lambda^{k+1}, kappa the Koszul
operator (Arnold, Falk and Winther, Acta Numerica 2006, section 3), and

    (W/k!) c = sum_T c([0] + T) dx^T + sum_G (delta c)([0] + G) kappa(dx^G),

over the k-indices T and the (k+1)-subsets G of 1..n, with
kappa(dx^G) = sum_j (-1)^j x^{g_j} dx^{G - g_j} and
(delta c)([0] + G) = sum_r (-1)^r c(([0] + G) minus its r-th vertex). So
row b_T copies c([0] + T), row a_{G - g_j, g_j} is (-1)^j (delta c)([0] + G),
and row a_{T,i} vanishes for i in T. :func:`whitney_plan` writes these rows
down: C(n,k) copies plus C(n,k+1) sums of k+2 entries, each written to k+1
positions, where the matrix holds C(n,k) + C(n,k)(n-k)(k+2) entries: 210
reads against 735 at (7, 3). :func:`whitney_rows` lists the same rows,
entry by entry, so the certificate C.X = 0, D~.X = (k+1) I that
:mod:`whitneyforms.characterize` makes of them covers the very rows that
``whitney`` and the solve run: by the paper's theorem, a form with constant
face pullbacks is determined by its face integrals, so certified rows are
W/k!. No wedge product is taken; ``tests/helpers.py`` keeps the wedge
construction as the oracle.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Callable, Iterable, Iterator

from .forms import AffineForm, MultiIndex, UnknownLayout, unknown_layout
from .simplicial import Cochain, _face_positions, permutation_sign

__all__ = [
    "SparseRow",
    "UnknownLayout",
    "unknown_layout",
    "face_minors",
    "pullback_rows",
    "integral_row",
    "whitney_rows",
    "derham_rows",
    "DerhamPlan",
    "derham_plan",
    "CertificateError",
    "WhitneyPlan",
    "whitney_plan",
    "factorial_image",
    "constancy_rows",
]

SparseRow = tuple[tuple[int, int], ...]
"""Nonzero entries of one sparse row as (position, value), by position."""

DerhamPlan = tuple[Callable, tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]
"""D~ by rows, as (kernel, blocks, faces) (:func:`derham_plan`).

Block i is (position of b_I, positions of a_{I,j} for j in I), I the i-th
multi-index. Each face F = (v_0 < ... < v_k) with v_0 >= 1 is
(i_0, p_0, ..., i_k, p_k): for r = 0..k, the block i_r of I = F minus v_r
and the position p_r of a_{I,v_r}, summed with sign (-1)^r. ``kernel(vec,
blocks, faces)`` returns D~.vec, the traces of the blocks and then the faces
(:func:`_derham_kernel`).
"""

WhitneyPlan = tuple[Callable | None, int, tuple[tuple[int, ...], ...]]
"""W/k! by rows, as (kernel, copies, groups) (:func:`whitney_plan`).

The first ``copies`` faces, [0] + T in the order of their blocks T, are
copied to b_T. Each (k+1)-subset G of 1..n is the group
(f_0, ..., f_{k+1}, p_0, ..., p_k): f_r is the face of [0] + G without its
r-th vertex, read with sign (-1)^r, and p_j the position of a_{G - g_j, g_j},
written with sign (-1)^j. ``kernel(values, u, groups)`` writes them into u
(:func:`_whitney_kernel`); it is None when there is no group, at k = n.
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
def whitney_rows(n: int, k: int) -> tuple[SparseRow, ...]:
    """W/k!: row p lists (face index, +-1) for unknown p, by face, as whitney_plan runs it."""
    _, copies, groups = whitney_plan(n, k)
    rows: list[SparseRow] = [()] * unknown_layout(n, k).size
    for face in range(copies):
        rows[face * (n + 1)] = ((face, 1),)
    for group in groups:
        coboundary = sorted((f, (-1) ** r) for r, f in enumerate(group[: k + 2]))
        for j, pos in enumerate(group[k + 2 :]):
            rows[pos] = tuple((f, (-1) ** j * sign) for f, sign in coboundary)
    return tuple(rows)


@cache
def derham_rows(n: int, k: int) -> tuple[SparseRow, ...]:
    """D*(k+1)!: row i integrates over layout.faces[i], times (k+1)!."""
    return tuple(integral_row(k, face_rows) for face_rows in _face_pullbacks(n, k))


class CertificateError(RuntimeError):
    """A certificate did not go through: the schedule, W, a pivot, a plan or a closed form.

    ``column`` is the face index of the first column where S/k! differs from
    W/k!, when that is the reason, and None otherwise.
    """

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column


@cache
def derham_plan(n: int, k: int) -> DerhamPlan:
    """D~ by its block traces, built in closed form; CertificateError unless it rebuilds derham_rows.

    The certificate writes each row of the plan in sorted order and compares
    it with the pullback-built rows. A face [0] + I is the trace of block I,
    (k+1) on b_I and 1 on a_{I,j} for j in I. A face F = (v_0 < ... < v_k)
    with v_0 >= 1 holds, per r, (k+1)(-1)^r on b_I and (-1)^r on a_{I,v} for
    v in F, I = F minus v_r: its position p_r goes between the block's
    gradient positions as v_r goes between the vertices of I. The k+1 blocks
    are distinct, each one's positions lie in its own block, and F minus v_k
    sorts first, so the blocks go in reverse.
    """
    layout = unknown_layout(n, k)
    blocks = tuple(
        (layout.position(idx), *(layout.position(idx, j) for j in idx))
        for idx in layout.multi_indices
    )
    block = {idx: i for i, idx in enumerate(layout.multi_indices)}
    rows = [((b, k + 1), *((p, 1) for p in gradient)) for b, *gradient in blocks]
    faces = []
    # the C(n, k) faces [0] + I come first, in the order of their blocks I
    for face in layout.faces[len(blocks) :]:
        rests = [face[:r] + face[r + 1 :] for r in range(len(face))]
        pairs = [(block[rest], layout.position(rest, v)) for rest, v in zip(rests, face)]
        faces.append(sum(pairs, ()))
        row: list[tuple[int, int]] = []
        for r in reversed(range(k + 1)):
            (i, p), sign = pairs[r], -1 if r % 2 else 1
            b, *gradient = blocks[i]
            row += [(b, (k + 1) * sign), *((g, sign) for g in (*gradient[:r], p, *gradient[r:]))]
        rows.append(tuple(row))
    if tuple(rows) != derham_rows(n, k):
        raise CertificateError(f"the block traces at (n={n}, k={k}) do not rebuild D~")
    return _derham_kernel(k), blocks, tuple(faces)


def _compiled(source: str) -> Callable:
    """The function ``kernel`` that source defines, compiled in a namespace of its own."""
    namespace: dict = {}
    exec(compile(source, "<whitneyforms.operators kernel>", "exec"), namespace)
    return namespace["kernel"]


def _names(prefix: str, k: int, more: int = 0) -> list[str]:
    """The local names prefix0, ..., prefix{k + more - 1}; ValueError unless k is a degree."""
    if type(k) is not int or k < 0:
        raise ValueError(f"a kernel degree is a nonnegative int, not {k!r}")
    return [f"{prefix}{i}" for i in range(k + more)]


@cache
def _derham_kernel(k: int) -> Callable:
    """D~.vec at degree k over a :data:`DerhamPlan`'s blocks and faces, as two comprehensions.

    For k = 2 it is::

        beta = [3 * v[b] + v[g0] + v[g1] for b, g0, g1, in blocks]
        return beta + [beta[i0] + v[p0] - beta[i1] - v[p1] + beta[i2] + v[p2]
                       for i0, p0, i1, p1, i2, p2, in faces]
    """
    block = ["b", *_names("g", k)]
    trace = " + ".join([f"{k + 1} * v[b]", *(f"v[{g}]" for g in block[1:])])
    face = [x for r in range(k + 1) for x in (f"i{r}", f"p{r}")]
    terms = " ".join(f"{'+-'[r % 2]} beta[i{r}] {'+-'[r % 2]} v[p{r}]" for r in range(k + 1))
    return _compiled(
        "def kernel(v, blocks, faces):\n"
        f"    beta = [{trace} for {', '.join(block)}, in blocks]\n"
        f"    return beta + [{terms[2:]} for {', '.join(face)}, in faces]\n"
    )


@cache
def whitney_plan(n: int, k: int) -> WhitneyPlan:
    """W/k! by rows, in closed form: b_T <- c([0] + T), and a group +-(delta c)([0] + G) per G."""
    layout, index = unknown_layout(n, k), _face_positions(n, k)
    copies = len(layout.multi_indices)
    groups = []
    # the faces after the copies are the (k+1)-subsets G of 1..n
    for g in layout.faces[copies:]:
        face = (0, *g)
        reads = [index[face[:r] + face[r + 1 :]] for r in range(k + 2)]
        writes = [layout.position(g[:j] + g[j + 1 :], v) for j, v in enumerate(g)]
        groups.append((*reads, *writes))
    # at k = n there is no group, and no loop to compile
    return (_whitney_kernel(k) if groups else None), copies, tuple(groups)


@cache
def _whitney_kernel(k: int) -> Callable:
    """The loop that writes every group of a :data:`WhitneyPlan` at degree k.

    For k = 2 it is::

        for f0, f1, f2, f3, p0, p1, p2, in groups:
            t = v[f0] - v[f1] + v[f2] - v[f3]
            if t:
                u[p0] = u[p2] = t
                u[p1] = -t
    """
    faces, positions = _names("f", k, 2), _names("p", k, 1)
    reads = " ".join(f"{'+-'[r % 2]} v[{f}]" for r, f in enumerate(faces))
    writes = [
        f"            {''.join(f'u[{p}] = ' for p in positions[parity::2])}{value}\n"
        for parity, value in ((0, "t"), (1, "-t"))
        if positions[parity:]
    ]
    return _compiled(
        "def kernel(v, u, groups):\n"
        f"    for {', '.join(faces + positions)}, in groups:\n"
        f"        t = {reads[2:]}\n"
        "        if t:\n" + "".join(writes)
    )


def factorial_image(plan: WhitneyPlan, cochain: Cochain) -> AffineForm:
    """k! X.c for the cochain c = vec / q and X = W/k!, given as :func:`whitney_plan`.

    With a = gcd(q, k!) and m = k!/a this is u / (q/a), u = X.(m vec): the
    copies are one slice, and the kernel writes each group's one signed sum
    at its positions, negated at the odd ones, so no entry is multiplied, by
    k! or by +-1. The pair is canonical with no gcd, because T_F[b'] is an
    integer left inverse of X, certified by C.X = 0, D~.X = (k+1) I:
    D~_F - sum_s C_{F,s} = (k+1) T_F[b'] (:func:`integral_row`), so
    (k+1) T[b'].X = (D~ - sum_s C_s).X = (k+1) I and m vec = T[b'].u. Any g dividing
    q/a and every entry of u divides m gcd(*vec); g shares no factor with m,
    because gcd(q/a, m) = 1, nor with gcd(*vec), because gcd(q, *vec) = 1.
    """
    n, k, q = cochain.n, cochain.k, cochain.q
    a = math.gcd(q, math.factorial(k))
    m = math.factorial(k) // a
    values = cochain.vec if m == 1 else [m * v for v in cochain.vec]
    kernel, copies, groups = plan
    u = [0] * unknown_layout(n, k).size
    u[: copies * (n + 1) : n + 1] = values[:copies]
    if groups:
        kernel(values, u, groups)
    return AffineForm._canonical(n, k, u, q // a)


@cache
def constancy_rows(n: int, k: int) -> tuple[tuple[SparseRow, ...], ...]:
    """C: for layout.faces[i], the s^1..s^k derivatives of the pulled-back coefficient."""
    return tuple(face_rows[1:] for face_rows in _face_pullbacks(n, k))
