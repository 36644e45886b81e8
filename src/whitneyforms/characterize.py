"""The face data that pin a form down: the solve, its certificates, the replay.

Among k-forms with affine coefficients on the standard n-simplex, two
conditions on each k-face -- the pullback is constant, and the integral
equals a prescribed value -- determine a unique form. Over the flat vector
of coefficient unknowns they are the sparse integer rows C (constancy) and
D (integrals) of :mod:`whitneyforms.operators`, whose layout also labels
the unknowns ("b_(1,2)", "a_(1,2),3"). This module solves the square system
[C; D], certifies uniqueness by a trivial kernel, and replays, as a JSON
record, the two-stage elimination that proves uniqueness row by row.

The replay and the solve are one schedule, built once per (n, k) from C
and D~ = D*(k+1)! alone: a triangular order of rows in their row space, in
which every row determines one new unknown. Stage 1 takes the constancy
rows and then the integral row of each face through vertex 0. Stage 2
takes, for each multi-index L and vertex m >= 1 outside it, the row

    rho(m, L) = D~_G - sum_{s=1..k} C_{G,s} + (k+1) C_{G,j}

of the face G = sorted((m,) + L), with right-hand side (k+1)! c(G), where
C_{G,s} is the constancy row of vertex G[s] and j = G.index(m), the last
term absent when j = 0. It is sigma (k+1) r(m, L), sigma the sign of
sorting (m,) + L and r(m, L) the paper's row: the value at vertex m of the
coefficient pulled back to the face (m, *L), with coefficient one on
a_{L,m}. Each step is an integer combination of one face's rows, so a
complete schedule proves the kernel trivial.

The solve is linear, so :func:`_solution_rows` forward-substitutes the
schedule once per (n, k), each unknown an integer combination of the face
values, into the cached integer matrix S/k!: every right-hand side scale
(k+1)! is divided by k!, so the entries of S/k! are +-1 like those of
W/k!, and k! goes into the form's scale instead. S/k! is stored as W/k!
is, by rows: per unknown, the sparse row of (face index, value) entries
that the walk gives it. The pivots are +-1 on the constancy rows and
+-(k+1) on the others: a stage-1 integral row's divides (k+1) c(F) once
the face's own gradient unknowns are zero, and a stage-2 row is k+1 times
an integer row. Each division is checked exact there, on the unit
cochains; a step's right-hand side for any integer vector is an integer
combination of theirs, so by induction over the steps it is exact on
every cochain vec / q, and k! (S/k!).vec / q is its forward substitution.
The solve has no rows of its own: S/k! that differs from W/k! in any
column is a CertificateError that names the first such column
(:func:`_first_differing_column`). Once S/k! equals W/k!, its certificate
C.X = 0, D~.X = (k+1) I, which makes the rows T_F[b'] its integer left
inverse, is W/k!'s own: the one product of [D~; C] with W/k!
(:func:`_whitney_certificate`), read rather than made again. The solve
then runs W/k!'s rows: :func:`_solution_plan` is ``whitney_plan``, and
:func:`solve_characterization` is C(n,k) copies plus C(n,k+1)(k+2)
additions, run by one compiled loop per degree, that make no Fraction and
multiply no entry (:func:`~whitneyforms.operators.factorial_image`, which
takes no gcd). S/k!, built from C and D alone, agreeing with W/k! is an
independent check, which ``verify`` makes row by row.
:func:`proof_trace` only formats the same schedule, a step on a face
through vertex 0 in stage 1 and any other in stage 2, as the JSON record
that ``trace`` prints, labels and all, built only when asked for. It is
complete whenever it builds: stage 1 has C(n,k)(k+1) rows and stage 2
C(n,k)(n-k), one per unknown in all.

The schedule is also the certificate of the counts. :func:`kernel_is_trivial`
reads it, and :func:`lambda_e_dimension` adds the exact sparse check
C.(W/k!) = 0, D~.(W/k!) = (k+1) I (W the Whitney operator), which puts
face-many independent forms in ker C. That product is made once per
(n, k), and its D~ rows alone are ``verify``'s round trip on the unit
cochains, derham(whitney(e_F)) = e_F. There is no second, dense path: a
certificate that fails raises :class:`CertificateError`, and the schedule
raises it with one reason for the solve, the replay and the counts alike.
"""

from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple, Sequence

from .forms import AffineForm
from .operators import (
    CertificateError,
    SparseRow,
    _combine,
    constancy_rows,
    derham_rows,
    factorial_image,
    unknown_layout,
    WhitneyPlan,
    whitney_plan,
    whitney_rows,
)
from .simplicial import BadDegree, Cochain, DegreeMismatch, _face_positions

__all__ = [
    "CertificateError",
    "lambda_e_dimension",
    "solve_characterization",
    "kernel_is_trivial",
    "proof_trace",
]


@cache
def lambda_e_dimension(n: int, k: int) -> int:
    """Dimension of the affine-coefficient forms with constant face pullbacks.

    It is the number of k-faces, which makes prescribing one integral per
    face a square problem, once two certificates hold: a complete schedule
    makes [C; D] injective, so dim ker C <= #faces, and C.(W/k!) = 0 with
    D~.(W/k!) = (k+1) I puts face-many independent columns of W in ker C.
    Raises CertificateError, with the reason, when either certificate fails.
    """
    _schedule(n, k)
    if _whitney_certificate(n, k)[1] is not None:
        raise CertificateError(
            f"the Whitney columns at (n={n}, k={k}) fail C.(W/k!) = 0, D~.(W/k!) = (k+1) I"
        )
    return len(unknown_layout(n, k).faces)


def _certified(n: int, k: int, rows: Sequence[SparseRow]) -> tuple[int | None, int | None]:
    """The first i with D~.X_i != (k+1) e_i, and the first with [D~; C].X_i != (k+1) e_i.

    One product of [D~; C] with X, given by rows as W/k! is (one per unknown,
    each listing (face index, value)), a system row at a time: a column
    fails where any row of the product differs from that of (k+1) I, D~'s
    row i being (k+1) e_i and every constancy row zero. None where no column
    fails: the second None is D~.X = (k+1) I, C.X = 0; the first, for
    X = W/k!, is derham(whitney(e_F)) = e_F on every face F.
    """
    integrals = derham_rows(n, k)
    constancy = [row for face_rows in constancy_rows(n, k) for row in face_rows]
    # the columns where the product less (k+1) [I; 0] is nonzero: D~'s rows, then C's
    failing: list[set[int]] = [set(), set()]
    for r, row in enumerate((*integrals, *constancy)):
        image = {r: -(k + 1)} if r < len(integrals) else {}
        for pos, value in row:
            for i, x in rows[pos]:
                image[i] = image.get(i, 0) + value * x
        failing[r >= len(integrals)].update(i for i, v in image.items() if v)
    return min(failing[0], default=None), min(failing[0] | failing[1], default=None)


@cache
def _whitney_certificate(n: int, k: int) -> tuple[int | None, int | None]:
    """:func:`_certified` for X = W/k!, read by the dimension count and by verify's round trip."""
    return _certified(n, k, whitney_rows(n, k))


class _Step(NamedTuple):
    """One row of the elimination: pivot * x[target] + others . x = scale * c(faces[face]).

    ``others`` are the row's remaining entries, all on unknowns that earlier
    steps determined; ``scale`` is 0 for a constancy row and (k+1)! otherwise.
    """

    target: int
    pivot: int
    others: SparseRow
    face: int
    scale: int


@cache
def _schedule(n: int, k: int) -> tuple[_Step, ...]:
    """The two-stage elimination as one triangular list of steps of [C; D~].

    Stage 1 takes, for each face [0] + L, its constancy rows and then its
    integral row, which must determine each a_{L,t} (t in L) and then b_L.
    Stage 2 defines, for each L and vertex m >= 1 outside it, its row as
    rho(m, L) = D~_G - sum_s C_{G,s} + (k+1) C_{G,j} on the face
    G = sorted((m,) + L), j = G.index(m), which must determine a_{L,m}. The
    first two terms are one combination per face G, shared by its k+1 steps
    (one per vertex m of G), and the last term is absent at j = 0. Each
    row is one face's rows or an integer combination of them, so no identity
    is left to check. Raises CertificateError when a row does not isolate
    its unknown among those still alive; a returned schedule is complete.
    """
    layout = unknown_layout(n, k)
    constancy, integrals = constancy_rows(n, k), derham_rows(n, k)
    scale = math.factorial(k + 1)
    rows: list[tuple[SparseRow, int, int, int]] = []
    bases: dict[int, dict[int, int]] = {}
    for i, face in enumerate(layout.faces):
        if face[0] == 0:
            span = face[1:]
            base = layout.position(span)
            rows += [(row, i, 0, base + t) for row, t in zip(constancy[i], span)]
            rows.append((integrals[i], i, scale, base))
        else:
            # D~_G - sum_s C_{G,s}, once per face: its k+1 steps each add (k+1) C_{G,j}
            bases[i] = _combine([(1, integrals[i]), *((-1, row) for row in constancy[i])])
    index = _face_positions(n, k)
    for span in layout.multi_indices:
        # j counts the vertices of L below m, so for m outside L, G is L with m at j
        base, j = layout.position(span), 0
        for m in range(1, n + 1):
            if j < k and span[j] == m:
                j += 1
                continue
            i = index[(*span[:j], m, *span[j:])]
            row = bases[i]
            if j:
                row = _combine([(1, row.items()), (k + 1, constancy[i][j - 1])])
            rows.append((tuple(sorted(row.items())), i, scale, base + m))
    alive = [True] * layout.size
    steps: list[_Step] = []
    for row, i, rhs, target in rows:
        positions = [pos for pos, _ in row]
        if [pos for pos in positions if alive[pos]] != [target]:
            raise CertificateError(
                f"a row on face {list(layout.faces[i])} does not isolate {layout.labels[target]}"
            )
        alive[target] = False
        t = positions.index(target)
        steps.append(_Step(target, row[t][1], row[:t] + row[t + 1 :], i, rhs))
    return tuple(steps)


def _closed_form_check(n: int, k: int, cochain: Cochain, result: AffineForm) -> None:
    """At the extreme degrees an independent closed form must agree.

    Degree 0 is interpolation of the vertex values c(i) by barycentric
    coordinates, written out: sum_i c(i) nu_i with nu_0 = 1 - sum_i x^i and
    nu_i = x^i is the constant c(0) plus the gradient c(i) - c(0). Degree n
    is the volume form scaled by n! times the single prescribed integral.
    Both are written as integer vectors over the cochain's q, ints made
    here and so reduced unchecked, and compared with the result's.
    """
    if 0 < k < n:
        return
    values = cochain.vec
    if k == 0:
        expected = [values[0]] + [v - values[0] for v in values[1:]]
    else:
        expected = [math.factorial(n) * values[0]] + [0] * n
    if result != AffineForm._reduced(n, k, expected, cochain.q):
        raise CertificateError(f"solution at (n={n}, k={k}) disagrees with the closed form")


@cache
def _solution_rows(n: int, k: int) -> tuple[SparseRow, ...]:
    """S/k!: row p lists (face index, value) for unknown p, as the schedule walk solves it.

    Column i solves the unit cochain on faces[i], over k!. Each step's scale
    is divided by k! before its pivot divides; an inexact division raises
    CertificateError, and so do rows equal to W/k! whose certificate fails.
    """
    f = math.factorial(k)
    rows: dict[int, dict[int, int]] = {}
    for target, pivot, others, face, scale in _schedule(n, k):
        unit, rest = divmod(scale, f)
        total = {face: unit} if unit else {}
        for pos, value in others:
            for i, x in rows[pos].items():
                total[i] = total.get(i, 0) - value * x
        if rest or any(t % pivot for t in total.values()):
            raise CertificateError(f"inexact pivot at (n={n}, k={k})")
        rows[target] = {i: t // pivot for i, t in total.items() if t}
    solution = tuple(tuple(sorted(rows[p].items())) for p in range(len(rows)))
    # rows equal to W/k! hold its certificate, already made by the product it read
    if solution == whitney_rows(n, k) and _whitney_certificate(n, k)[1] is not None:
        raise CertificateError(
            f"the solution columns at (n={n}, k={k}) fail C.(S/k!) = 0, D~.(S/k!) = (k+1) I"
        )
    return solution


def _first_differing_column(
    solution: Sequence[SparseRow], whitney: Sequence[SparseRow]
) -> int | None:
    """The first face i where the columns of the rows solution and whitney differ, else None.

    It is the smallest face index among the entries that the unequal rows do
    not share. :func:`_solution_plan` and ``verify``'s characterization check
    both call it, each with the rows it reads, so the two name the same column.
    """
    differing = (set(s) ^ set(w) for s, w in zip(solution, whitney) if s != w)
    return min((i for entries in differing for i, _ in entries), default=None)


@cache
def _solution_plan(n: int, k: int) -> WhitneyPlan:
    """S/k! by rows: W/k!'s plan, once S/k! equals W/k! row by row.

    Raises CertificateError, naming the first column that differs, otherwise.
    """
    column = _first_differing_column(_solution_rows(n, k), whitney_rows(n, k))
    if column is not None:
        face = list(unknown_layout(n, k).faces[column])
        raise CertificateError(
            f"S/k! at (n={n}, k={k}) differs from W/k! in the column of face {face}"
        )
    return whitney_plan(n, k)


def solve_characterization(n: int, k: int, cochain: Cochain) -> AffineForm:
    """The unique affine-coefficient k-form with the prescribed face integrals.

    C(n,k) copies plus C(n,k+1)(k+2) additions: the cochain's entries are
    copied and summed along the rows of S/k! = W/k!, in Python ints, with k!
    in the scale (:func:`~whitneyforms.operators.factorial_image`, as
    ``whitney``).
    Raises CertificateError, the schedule's own, when the schedule does not
    build, and when a pivot is inexact, S/k! differs from W/k!, W/k! fails
    its certificate, or the closed form disagrees.
    """
    if (cochain.n, cochain.k) != (n, k):
        raise DegreeMismatch("cochain does not match the requested degrees")
    result = factorial_image(_solution_plan(n, k), cochain)
    _closed_form_check(n, k, cochain, result)
    return result


def kernel_is_trivial(n: int, k: int) -> bool:
    """True when the kernel of the stacked system is certified trivial.

    That is uniqueness, and the elimination schedule proves it: its rows
    lie in the row space of the system and determine every unknown. False
    when the schedule does not build, so that no certificate is at hand.
    """
    try:
        _schedule(n, k)
    except CertificateError:
        return False
    return True


def proof_trace(n: int, k: int) -> dict:
    """Replay the elimination that forces uniqueness, one unknown per row, as JSON.

    Stage 1 walks the faces through vertex 0: on each, the pulled-back
    coefficient involves only its own block, so each constancy row names a
    gradient unknown and the integral row then the constant one. Stage 2
    walks the pairs (L, m), whose row on the face sorted((m,) + L) is
    sigma (k+1) times the value at vertex m of the coefficient pulled back
    to [m, *L]: restricted to the unknowns still alive, it is a_{L,m} alone.
    The record is {"n", "k", "stage1": [{"face", "killed"}], "stage2":
    [{"L", "m", "killed"}], "complete": true}; only a complete schedule makes
    one. This only formats the schedule that S is built from, so the replay
    and the solve cannot drift apart: both raise its CertificateError.
    """
    if not 1 <= k <= n - 1:
        raise BadDegree(f"the elimination replay needs 1 <= k <= n-1, got n={n}, k={k}")
    layout = unknown_layout(n, k)
    labels = layout.labels
    stage1: dict[int, list[int]] = {}
    stage2 = []
    for step in _schedule(n, k):
        if layout.faces[step.face][0] == 0:
            stage1.setdefault(step.face, []).append(step.target)
        else:
            block, m = divmod(step.target, n + 1)
            span = list(layout.multi_indices[block])
            stage2.append({"L": span, "m": m, "killed": labels[step.target]})
    kills = [
        {"face": list(layout.faces[i]), "killed": [labels[p] for p in sorted(targets)]}
        for i, targets in stage1.items()
    ]
    return {"n": n, "k": k, "stage1": kills, "stage2": stage2, "complete": True}
