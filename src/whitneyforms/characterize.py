"""The face data that pin a form down: the solve, its certificates, the replay.

Among k-forms with affine coefficients on the standard n-simplex, two
conditions on each k-face -- the pullback is constant, and the integral
equals a prescribed value -- determine a unique form. Over the flat vector
of coefficient unknowns they are the sparse integer rows C (constancy) and
D (integrals) of :mod:`whitneyforms.operators`, whose layout also labels
the unknowns ("b_(1,2)", "a_(1,2),3"). This module solves the square system
[C; D], certifies uniqueness by a trivial kernel, and replays the two-stage
elimination that proves uniqueness row by row.

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

The solve is linear, so :func:`_solution_columns` forward-substitutes the
schedule once per (n, k), each unknown an integer combination of the face
values, into the cached integer matrix S/k!: every right-hand side scale
(k+1)! is divided by k!, so the entries of S/k! are +-1 like those of
W/k!, and k! goes into the form's scale instead. S/k! is stored as W/k!
is, as signed columns (:data:`~whitneyforms.operators.SignedColumn`), and
an entry that is not +-1 raises CertificateError. The pivots are +-1 on the
constancy rows and +-(k+1) on the others: a stage-1 integral row's divides
(k+1) c(F) once the face's own gradient unknowns are zero, and a stage-2
row is k+1 times an integer row. Each division is checked exact there, on
the unit cochains; a step's right-hand side for any integer vector is an
integer combination of theirs, so by induction over the steps it is exact
on every cochain vec / q, and k! (S/k!).vec / q is its forward
substitution. S/k! is then checked to satisfy C.X = 0 and D~.X = (k+1) I,
which makes the rows T_F[b'] its integer left inverse, so
:func:`~whitneyforms.operators.factorial_image` takes no gcd. It applies
S/k! by rows, read once per (n, k) off the certified columns by
:func:`~whitneyforms.operators.image_plan`, as ``whitney`` applies W/k!:
S/k! equals W/k!, so :func:`solve_characterization` is C(n,k) copies plus
C(n,k+1)(k+2) additions that make no Fraction and multiply no entry. S/k!,
built from C and D alone, agreeing with W/k! is an independent check,
which ``verify`` makes column by column.
:func:`proof_trace` only formats the same schedule, a step on a face
through vertex 0 in stage 1 and any other in stage 2. It is complete
whenever it builds: stage 1 has C(n,k)(k+1) rows and stage 2 C(n,k)(n-k),
one per unknown in all.

The schedule is also the certificate of the counts. :func:`kernel_is_trivial`
reads it, and :func:`lambda_e_dimension` adds the exact sparse check
C.(W/k!) = 0, D~.(W/k!) = (k+1) I (W the Whitney operator), which puts
face-many independent forms in ker C. There is no second, dense path: a
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
    ImagePlan,
    SignedColumn,
    SparseRow,
    _combine,
    constancy_rows,
    derham_rows,
    factorial_image,
    image_plan,
    signed,
    transpose,
    unknown_layout,
    whitney_columns,
)
from .simplicial import BadDegree, Cochain, DegreeMismatch, Frozen, _face_positions

__all__ = [
    "CertificateError",
    "lambda_e_dimension",
    "solve_characterization",
    "kernel_is_trivial",
    "Stage1Kill",
    "Stage2Kill",
    "ProofTrace",
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
    if _certified(n, k, whitney_columns(n, k), _system_columns(n, k)) is not None:
        raise CertificateError(
            f"the Whitney columns at (n={n}, k={k}) fail C.(W/k!) = 0, D~.(W/k!) = (k+1) I"
        )
    return len(unknown_layout(n, k).faces)


@cache
def _system_columns(n: int, k: int) -> tuple[SparseRow, ...]:
    """[D~; C] by columns: D~'s rows, one per face, then every face's constancy rows."""
    constancy = [row for rows in constancy_rows(n, k) for row in rows]
    return transpose([*derham_rows(n, k), *constancy], unknown_layout(n, k).size)


def _certified(
    n: int, k: int, columns: Sequence[SignedColumn], by_position: Sequence[SparseRow]
) -> int | None:
    """The first i with rows.X_i != (k+1) e_i, rows given by columns; None if none.

    X has face-many signed columns (else 0 fails) and rows begin with D~.
    With the columns of [D~; C] (:func:`_system_columns`) that is
    D~.X = (k+1) I, C.X = 0; with D~ alone (``derham_columns``), for
    X = W/k!, it is derham(whitney(e_F)) = e_F.
    """
    if len(columns) != len(unknown_layout(n, k).faces):
        return 0
    for i, (plus, minus) in enumerate(columns):
        image: dict[int, int] = {}
        for sign, positions in ((1, plus), (-1, minus)):
            for pos in positions:
                for r, value in by_position[pos]:
                    image[r] = image.get(r, 0) + sign * value
        if {r: v for r, v in image.items() if v} != {i: k + 1}:
            return i
    return None


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
    G = sorted((m,) + L), j = G.index(m), which must determine a_{L,m}. Each
    row is one face's rows or an integer combination of them, so no identity
    is left to check. Raises CertificateError when a row does not isolate
    its unknown among those still alive; a returned schedule is complete.
    """
    layout = unknown_layout(n, k)
    constancy, integrals = constancy_rows(n, k), derham_rows(n, k)
    scale = math.factorial(k + 1)
    rows: list[tuple[SparseRow, int, int, int]] = []
    for i, face in enumerate(layout.faces):
        if face[0] == 0:
            span = face[1:]
            rows += [(row, i, 0, layout.position(span, t)) for row, t in zip(constancy[i], span)]
            rows.append((integrals[i], i, scale, layout.position(span)))
    for span in layout.multi_indices:
        for m in range(1, n + 1):
            if m not in span:
                g = tuple(sorted((m, *span)))
                i, j = _face_positions(n, k)[g], g.index(m)
                weights = [(k + 1) * (s == j) - 1 for s in range(1, k + 1)]
                row = _combine([(1, integrals[i]), *zip(weights, constancy[i])])
                rows.append((tuple(sorted(row.items())), i, scale, layout.position(span, m)))
    alive = [True] * layout.size
    steps: list[_Step] = []
    for row, i, rhs, target in rows:
        if [pos for pos, _ in row if alive[pos]] != [target]:
            raise CertificateError(
                f"a row on face {list(layout.faces[i])} does not isolate {layout.labels[target]}"
            )
        alive[target] = False
        others = tuple(e for e in row if e[0] != target)
        steps.append(_Step(target, dict(row)[target], others, i, rhs))
    return tuple(steps)


def _closed_form_check(n: int, k: int, cochain: Cochain, result: AffineForm) -> None:
    """At the extreme degrees an independent closed form must agree.

    Degree 0 is interpolation of the vertex values c(i) by barycentric
    coordinates, written out: sum_i c(i) nu_i with nu_0 = 1 - sum_i x^i and
    nu_i = x^i is the constant c(0) plus the gradient c(i) - c(0). Degree n
    is the volume form scaled by n! times the single prescribed integral.
    Both are written as integer vectors over the cochain's q and compared
    with the result's.
    """
    if 0 < k < n:
        return
    values = cochain.vec
    if k == 0:
        expected = [values[0]] + [v - values[0] for v in values[1:]]
    else:
        expected = [math.factorial(n) * values[0]] + [0] * n
    if result != AffineForm.from_vector(n, k, expected, cochain.q):
        raise CertificateError(f"solution at (n={n}, k={k}) disagrees with the closed form")


@cache
def _solution_columns(n: int, k: int) -> tuple[SignedColumn, ...]:
    """S/k!: column i solves the unit cochain on faces[i], over k!, as signed positions.

    Each step's scale is divided by k! before its pivot divides; an inexact
    division raises CertificateError, and so do an entry that is not +-1,
    which a signed column cannot hold, and a result that fails
    C.X = 0, D~.X = (k+1) I: then T[b'].X = I, which makes every solve's
    pair canonical with no gcd.
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
    entries = transpose((rows[p].items() for p in sorted(rows)), Cochain.size(n, k))
    try:
        columns = tuple(map(signed, entries))
    except ValueError as exc:
        raise CertificateError(f"the solution columns at (n={n}, k={k}) fail: {exc}") from exc
    if _certified(n, k, columns, _system_columns(n, k)) is not None:
        raise CertificateError(
            f"the solution columns at (n={n}, k={k}) fail C.(S/k!) = 0, D~.(S/k!) = (k+1) I"
        )
    return columns


@cache
def _solution_plan(n: int, k: int) -> ImagePlan:
    """S/k! by rows, read off the certified :func:`_solution_columns`."""
    return image_plan(_solution_columns(n, k), unknown_layout(n, k).size)


def solve_characterization(n: int, k: int, cochain: Cochain) -> AffineForm:
    """The unique affine-coefficient k-form with the prescribed face integrals.

    C(n,k) copies plus C(n,k+1)(k+2) additions: the cochain's entries are
    copied and summed along the rows of S/k! grouped up to sign, in Python
    ints, with k! in the scale (:func:`~whitneyforms.operators.factorial_image`,
    as ``whitney``).
    Raises CertificateError, the schedule's own, when the schedule does not
    build, and when a pivot is inexact, S/k! fails its certificate or the
    closed form disagrees.
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


class Stage1Kill(Frozen):
    """One face through the origin and the unknowns its rows determined."""

    _fields = ("face", "killed")

    def __init__(self, face: tuple[int, ...], killed: tuple[str, ...]) -> None:
        self.__dict__.update(face=face, killed=killed)


class Stage2Kill(Frozen):
    """One inclined face (base vertex m, span L) and the unknown it determined."""

    _fields = ("multi_index", "m", "killed")

    def __init__(self, multi_index: tuple[int, ...], m: int, killed: str) -> None:
        self.__dict__.update(multi_index=multi_index, m=m, killed=killed)


class ProofTrace(Frozen):
    """Record of the elimination: every unknown falls to exactly one step.

    Only a complete schedule makes a trace, so ``to_json`` always reports
    ``"complete": true``; a failing schedule raises CertificateError.
    """

    _fields = ("n", "k", "stage1", "stage2")

    def __init__(
        self, n: int, k: int, stage1: tuple[Stage1Kill, ...], stage2: tuple[Stage2Kill, ...]
    ) -> None:
        self.__dict__.update(n=n, k=k, stage1=stage1, stage2=stage2)

    def to_json(self) -> dict:
        stage1 = [{"face": list(s.face), "killed": list(s.killed)} for s in self.stage1]
        stage2 = [{"L": list(s.multi_index), "m": s.m, "killed": s.killed} for s in self.stage2]
        return {"n": self.n, "k": self.k, "stage1": stage1, "stage2": stage2, "complete": True}


def proof_trace(n: int, k: int) -> ProofTrace:
    """Replay the elimination that forces uniqueness, one unknown per row.

    Stage 1 walks the faces through vertex 0: on each, the pulled-back
    coefficient involves only its own block, so each constancy row names a
    gradient unknown and the integral row then the constant one. Stage 2
    walks the pairs (L, m), whose row on the face sorted((m,) + L) is
    sigma (k+1) times the value at vertex m of the coefficient pulled back
    to [m, *L]: restricted to the unknowns still alive, it is a_{L,m} alone.
    This only formats the schedule that S is built from, so the replay and
    the solve cannot drift apart: both raise its CertificateError.
    """
    if not 1 <= k <= n - 1:
        raise BadDegree(f"the elimination replay needs 1 <= k <= n-1, got n={n}, k={k}")
    layout = unknown_layout(n, k)
    stage1: dict[int, list[int]] = {}
    stage2: list[Stage2Kill] = []
    for step in _schedule(n, k):
        if layout.faces[step.face][0] == 0:
            stage1.setdefault(step.face, []).append(step.target)
        else:
            block, m = divmod(step.target, n + 1)
            stage2.append(Stage2Kill(layout.multi_indices[block], m, layout.labels[step.target]))
    kills = tuple(
        Stage1Kill(layout.faces[i], tuple(layout.labels[p] for p in sorted(targets)))
        for i, targets in stage1.items()
    )
    return ProofTrace(n, k, kills, tuple(stage2))
