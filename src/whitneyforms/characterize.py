"""The linear system that pins a form down by its face data, and its analysis.

Among k-forms with affine coefficients on the standard n-simplex, two
conditions on each k-face -- the pullback is constant, and the integral
equals a prescribed value -- determine a unique form. This module builds
those conditions as an exact linear system over the flat vector of
coefficient unknowns, solves it, certifies uniqueness by a trivial kernel,
and replays the two-stage elimination that proves uniqueness row by row.

Unknowns are blocked per multi-index I: the constant term b_I, then the
gradient entries a_{I,1}, ..., a_{I,n}. Labels follow that naming, e.g.
"b_(1,2)" and "a_(1,2),3". That layout, and the integer rows of both
blocks, come from :mod:`whitneyforms.operators`.

The replay and the solver are one schedule, built once per (n, k): a
triangular order of the square system in which every row determines one
new unknown. Stage 1 takes the constancy rows and then the integral row of
each face through vertex 0; stage 2 takes, for each multi-index L and
vertex m >= 1 outside it, the constant term r(m, L) of the coefficient
pulled back to the face G = sorted((m,) + L), i.e. its value at vertex m.
That row is no row of the system, but the identity

    (k+1) r(m, L) = sigma (D~_G - sum_{s=1..k} C_{G,s} + (k+1) C_{G,j}),

checked exactly when the schedule is built (D~ = D*(k+1)!, C_{G,s} the
constancy row of vertex G[s], j = G.index(m) with the last term absent
when j = 0, sigma the sign of sorting (m,) + L), puts it in their row
space with right-hand side sigma k! c(G). A complete schedule therefore
proves the kernel trivial, and
:func:`solve_characterization` forward-substitutes along it in integers,
O(nnz) work with every division exact: the pivots are +-1, except the
stage-1 integral rows, whose pivot k+1 divides (k+1)! c(F) once the
face's own gradient unknowns are fixed to zero. :func:`proof_trace` reports
the same schedule.

The schedule is also the certificate of the counts. :func:`kernel_is_trivial`
reads its completeness, and :func:`lambda_e_dimension` adds the exact sparse
check C.W = 0, D~.W = (k+1)! I (W the Whitney operator), which puts
face-many independent forms in ker C. The dense ``nullspace`` and ``rank``
run only when a certificate fails, to give the verdict and the offending
forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .forms import AffineForm, MultiIndex
from .linalg import Matrix, nullspace, rank, vstack
from .operators import (
    SparseRow,
    UnknownLayout,
    constancy_rows,
    constant_term_row,
    derham_rows,
    unknown_layout,
    whitney_columns,
)
from .simplicial import (
    AffineFunction,
    BadDegree,
    Cochain,
    DegreeMismatch,
    Face,
    enumerate_faces,
    permutation_sign,
)

__all__ = [
    "NonUnique",
    "Inconsistent",
    "TraceIncomplete",
    "UnknownLayout",
    "ConstraintSystem",
    "build_system",
    "lambda_e_dimension",
    "solve_characterization",
    "KernelReport",
    "kernel_is_trivial",
    "Stage1Kill",
    "Stage2Kill",
    "ProofTrace",
    "proof_trace",
]


class NonUnique(RuntimeError):
    """The constraint system failed to determine every unknown."""


class Inconsistent(RuntimeError):
    """The constraint system admits no solution (or an internal check failed)."""


class TraceIncomplete(RuntimeError):
    """The elimination replay hit a row that does not isolate one unknown."""


def _dense(rows: tuple[SparseRow, ...], cols: int, scale: int = 1) -> Matrix:
    """Sparse integer rows as a dense rational matrix, each entry divided by scale."""
    out: list[list[Fraction]] = []
    for row in rows:
        dense = [Fraction(0)] * cols
        for pos, value in row:
            dense[pos] = Fraction(value, scale)
        out.append(dense)
    return Matrix.from_rows(out, cols=cols)


@cache
def _system_matrices(n: int, k: int) -> tuple[Matrix, Matrix]:
    """(constancy rows C, integral rows D) over the flat unknown vector.

    C has k rows per face, face by face; D is the de Rham operator, whose
    integer rows are divided here by (k+1)!.
    """
    size = unknown_layout(n, k).size
    constancy = tuple(row for rows in constancy_rows(n, k) for row in rows)
    return (
        _dense(constancy, size),
        _dense(derham_rows(n, k), size, math.factorial(k + 1)),
    )


@dataclass(frozen=True)
class ConstraintSystem:
    """Stacked exact constraints: constancy block on top, integrals below.

    The constancy block has k rows per face (each gradient entry of the
    pulled-back coefficient must vanish) with zero right-hand side; the
    integral block has one row per canonical face with the prescribed
    value on the right.
    """

    layout: UnknownLayout
    faces: tuple[Face, ...]
    constancy: Matrix
    integrals: Matrix
    values: tuple[Fraction, ...]

    @property
    def stacked(self) -> Matrix:
        return vstack(self.constancy, self.integrals)

    @property
    def rhs(self) -> tuple[Fraction, ...]:
        return (Fraction(0),) * self.constancy.rows + self.values


def build_system(n: int, k: int, cochain: Cochain | None = None) -> ConstraintSystem:
    """Assemble the system for prescribed face integrals (zero if omitted).

    Degrees 0 and n run through the same general path as everything else;
    their closed-form answers serve as cross-checks elsewhere, not as
    special cases here.
    """
    layout = unknown_layout(n, k)
    faces = tuple(enumerate_faces(n, k))
    constancy, integrals = _system_matrices(n, k)
    if cochain is None:
        values = (Fraction(0),) * len(faces)
    else:
        if (cochain.n, cochain.k) != (n, k):
            raise DegreeMismatch("cochain does not match the requested degrees")
        values = tuple(cochain.terms.get(face.vertices, Fraction(0)) for face in faces)
    return ConstraintSystem(layout, faces, constancy, integrals, values)


@cache
def lambda_e_dimension(n: int, k: int) -> int:
    """Dimension of the affine-coefficient forms with constant face pullbacks.

    It always comes out to the number of k-faces, which is what makes
    prescribing one integral per face a square problem, and that is proved
    without elimination when two certificates hold. A complete schedule
    makes the stacked system [C; D] injective, so ker C, on which D is
    injective, has dimension at most the number of rows of D, one per face.
    And C.W = 0 with D~.W = (k+1)! I puts the face-many columns of W in
    ker C, independent because D maps them to the unit cochains. Should
    either fail, the dimension is counted as unknowns minus the dense rank
    of the constancy block.
    """
    layout = unknown_layout(n, k)
    if _schedule_is_complete(n, k) and _whitney_columns_certified(n, k):
        return len(layout.faces)
    constancy, _ = _system_matrices(n, k)
    return layout.size - rank(constancy)


@cache
def _whitney_columns_certified(n: int, k: int) -> bool:
    """C.W = 0 and D~.W = (k+1)! I, checked exactly on the sparse integer rows."""
    layout = unknown_layout(n, k)
    constancy = [row for rows in constancy_rows(n, k) for row in rows]
    rows = constancy + list(derham_rows(n, k))
    touching: dict[int, list[tuple[int, int]]] = {}
    for r, row in enumerate(rows):
        for pos, value in row:
            touching.setdefault(pos, []).append((r, value))
    columns = whitney_columns(n, k)
    scale = math.factorial(k + 1)
    for i, face in enumerate(layout.faces):
        image: dict[int, int] = {}
        for pos, w in columns[face]:
            for r, value in touching.get(pos, ()):
                image[r] = image.get(r, 0) + value * w
        if {r: v for r, v in image.items() if v} != {len(constancy) + i: scale}:
            return False
    return True


class _Step(NamedTuple):
    """One row of the elimination: pivot * x[target] + others . x = scale * c(faces[face]).

    ``others`` are the row's remaining entries, all on unknowns that earlier
    steps determined; ``scale`` is 0 for a constancy row.
    """

    target: int
    pivot: int
    others: SparseRow
    face: int
    scale: int


class _Schedule(NamedTuple):
    """The replay's rows in order: per face through the origin, then per (L, m)."""

    stage1: tuple[tuple[tuple[int, ...], tuple[_Step, ...]], ...]
    stage2: tuple[tuple[MultiIndex, int, _Step], ...]
    steps: tuple[_Step, ...]


def _combine(terms: list[tuple[int, SparseRow]]) -> dict[int, int]:
    """The nonzero entries of sum(weight * row)."""
    out: dict[int, int] = {}
    for weight, row in terms:
        for pos, value in row:
            out[pos] = out.get(pos, 0) + weight * value
    return {pos: value for pos, value in out.items() if value}


def _step(row: SparseRow, alive: list[bool], face: int, scale: int) -> _Step | None:
    """Determine the row's one live unknown; None if it has more or fewer."""
    live = [pos for pos, _ in row if alive[pos]]
    if len(live) != 1:
        return None
    target = live[0]
    alive[target] = False
    pivot = next(value for pos, value in row if pos == target)
    return _Step(target, pivot, tuple(e for e in row if e[0] != target), face, scale)


@cache
def _schedule(n: int, k: int) -> _Schedule:
    """The two-stage elimination as a triangular order of the stacked system.

    Stage 1 takes, for each face through vertex 0, its constancy rows and
    then its integral row. Stage 2 takes the constant-term row r(m, L) of
    each face G = sorted((m,) + L), checked against the identity in the
    module docstring (its last term is absent when m is G's first vertex).
    Raises TraceIncomplete when a row does not isolate exactly one live
    unknown, Inconsistent when the identity fails.
    """
    layout = unknown_layout(n, k)
    index = {face: i for i, face in enumerate(layout.faces)}
    constancy, integrals = constancy_rows(n, k), derham_rows(n, k)
    alive = [True] * layout.size

    stage1: list[tuple[tuple[int, ...], tuple[_Step, ...]]] = []
    for i, face in enumerate(layout.faces):
        if face[0] != 0:
            continue
        rows = [(row, 0) for row in constancy[i]]
        rows.append((integrals[i], math.factorial(k + 1)))
        steps: list[_Step] = []
        for row, scale in rows:
            step = _step(row, alive, i, scale)
            if step is None:
                raise TraceIncomplete(
                    f"a row on face {list(face)} involves "
                    f"{sum(alive[pos] for pos, _ in row)} live unknowns, expected exactly one"
                )
            steps.append(step)
        stage1.append((face, tuple(steps)))

    stage2: list[tuple[MultiIndex, int, _Step]] = []
    for span in layout.multi_indices:
        for m in range(1, n + 1):
            if m in span:
                continue
            row = constant_term_row(n, k, m, span)
            g = tuple(sorted((m, *span)))
            i = index[g]
            sigma = permutation_sign((m, *span))
            step = _step(row, alive, i, sigma * math.factorial(k))
            if step is None:
                raise TraceIncomplete(
                    f"evaluation at vertex {m} of face {[m, *span]} does not "
                    f"isolate {layout.label(span, m)} with coefficient one"
                )
            j = g.index(m)
            combination = [(sigma, integrals[i])] + [
                (sigma * ((k + 1) * (s == j) - 1), c) for s, c in enumerate(constancy[i], 1)
            ]
            if _combine([(k + 1, row)]) != _combine(combination):
                raise Inconsistent(
                    f"evaluation at vertex {m} of face {[m, *span]} is not a "
                    f"combination of the rows of face {list(g)}"
                )
            stage2.append((span, m, step))

    steps = tuple(s for _, face_steps in stage1 for s in face_steps)
    return _Schedule(tuple(stage1), tuple(stage2), steps + tuple(s for _, _, s in stage2))


def _schedule_is_complete(n: int, k: int) -> bool:
    """True when the schedule builds, every identity holds and every unknown falls."""
    try:
        schedule = _schedule(n, k)
    except (TraceIncomplete, Inconsistent):
        return False
    return len(schedule.steps) == unknown_layout(n, k).size


def _closed_form_check(n: int, k: int, cochain: Cochain, result: AffineForm) -> None:
    """At the extreme degrees an independent closed form must agree.

    Degree 0 is interpolation of the vertex values c(i) by barycentric
    coordinates, written out: sum_i c(i) nu_i with nu_0 = 1 - sum_i x^i and
    nu_i = x^i is the constant c(0) plus the gradient c(i) - c(0). Degree n
    is the volume form scaled by n! times the single prescribed integral.
    """
    if k == 0:
        values = [cochain.terms.get((i,), Fraction(0)) for i in range(n + 1)]
        f = AffineFunction(n, values[0], tuple(v - values[0] for v in values[1:]))
        expected = AffineForm(n, 0, {(): f})
    elif k == n:
        value = cochain.terms.get(tuple(range(n + 1)), Fraction(0))
        coeff = AffineFunction.const(n, math.factorial(n) * value)
        expected = AffineForm(n, n, {tuple(range(1, n + 1)): coeff})
    else:
        return
    if result != expected:
        raise Inconsistent(
            f"solution at (n={n}, k={k}) disagrees with the closed form"
        )


def solve_characterization(n: int, k: int, cochain: Cochain) -> AffineForm:
    """The unique affine-coefficient k-form with the prescribed face integrals.

    Forward-substitutes the cochain through the elimination schedule in
    integers: the values are scaled by the lcm q of their denominators, and
    the solution is divided by q once at the end. Raises NonUnique if the
    schedule does not determine every unknown, Inconsistent if a check fails.
    """
    if (cochain.n, cochain.k) != (n, k):
        raise DegreeMismatch("cochain does not match the requested degrees")
    layout = unknown_layout(n, k)
    try:
        schedule = _schedule(n, k)
    except TraceIncomplete as exc:
        raise NonUnique(f"underdetermined system at (n={n}, k={k})") from exc
    if len(schedule.steps) != layout.size:
        raise NonUnique(f"underdetermined system at (n={n}, k={k})")
    q = math.lcm(*(value.denominator for value in cochain.terms.values()))
    values = [0] * len(layout.faces)
    for i, face in enumerate(layout.faces):
        value = cochain.terms.get(face)
        if value is not None:
            values[i] = value.numerator * (q // value.denominator)
    vec = [0] * layout.size
    for target, pivot, others, face, scale in schedule.steps:
        total = scale * values[face]
        for pos, value in others:
            total -= value * vec[pos]
        vec[target], remainder = divmod(total, pivot)
        if remainder:
            raise Inconsistent(f"inexact pivot at (n={n}, k={k})")
    zero = Fraction(0)
    result = layout.form_from_vector([Fraction(v, q) if v else zero for v in vec])
    _closed_form_check(n, k, cochain, result)
    return result


@dataclass(frozen=True)
class KernelReport:
    """Outcome of the homogeneous uniqueness check.

    When the kernel is nontrivial, ``certificate`` holds a basis of
    offending forms so the failure is inspectable.
    """

    n: int
    k: int
    trivial: bool
    certificate: tuple[AffineForm, ...]

    def __bool__(self) -> bool:
        return self.trivial


def kernel_is_trivial(n: int, k: int) -> KernelReport:
    """Trivial kernel of the stacked system, which means uniqueness.

    A complete elimination schedule proves it: its rows lie in the row
    space of the system and determine every unknown. Only when the schedule
    fails is the dense nullspace computed, for the verdict and for a basis
    of offending forms.
    """
    if _schedule_is_complete(n, k):
        return KernelReport(n, k, True, ())
    layout = unknown_layout(n, k)
    constancy, integrals = _system_matrices(n, k)
    basis = nullspace(vstack(constancy, integrals))
    forms = tuple(layout.form_from_vector(v) for v in basis)
    return KernelReport(n, k, not forms, forms)


@dataclass(frozen=True)
class Stage1Kill:
    """One face through the origin and the unknowns its rows determined."""

    face: tuple[int, ...]
    killed: tuple[str, ...]


@dataclass(frozen=True)
class Stage2Kill:
    """One inclined face (base vertex m, span L) and the unknown it determined."""

    multi_index: tuple[int, ...]
    m: int
    killed: str


@dataclass(frozen=True)
class ProofTrace:
    """Record of the elimination: every unknown must fall to exactly one step."""

    n: int
    k: int
    stage1: tuple[Stage1Kill, ...]
    stage2: tuple[Stage2Kill, ...]
    complete: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "stage1": [
                {"face": list(s.face), "killed": list(s.killed)} for s in self.stage1
            ],
            "stage2": [
                {"L": list(s.multi_index), "m": s.m, "killed": s.killed}
                for s in self.stage2
            ],
            "complete": self.complete,
        }


def proof_trace(n: int, k: int) -> ProofTrace:
    """Replay the elimination that forces uniqueness, one unknown per row.

    Stage 1 walks the faces containing vertex 0. On such a face the
    pulled-back coefficient involves only its own multi-index block, so each
    constancy row names a single gradient unknown outright and the integral
    row then names the block's constant unknown. Stage 2 walks the faces
    [m, l_1, ..., l_k] spanned by unit points: the constant term of the
    pulled-back coefficient, restricted to the unknowns still alive, is
    exactly the lone unknown a_{L,m} with coefficient one. Any row that
    fails to isolate one unknown aborts the replay.

    This formats the schedule that solve_characterization runs, so the
    replay and the solver cannot drift apart.
    """
    if not 1 <= k <= n - 1:
        raise BadDegree(f"the elimination replay needs 1 <= k <= n-1, got n={n}, k={k}")
    layout = unknown_layout(n, k)
    try:
        schedule = _schedule(n, k)
    except Inconsistent as exc:
        raise TraceIncomplete(str(exc)) from exc

    stage1: list[Stage1Kill] = []
    for face, steps in schedule.stage1:
        killed = {step.target for step in steps}
        span = face[1:]
        expected = {layout.position(span)} | {layout.position(span, t) for t in span}
        if killed != expected:
            raise TraceIncomplete(f"face {list(face)} determined unexpected unknowns")
        stage1.append(Stage1Kill(face, tuple(layout.labels[p] for p in sorted(killed))))

    stage2: list[Stage2Kill] = []
    for span, m, step in schedule.stage2:
        if (step.target, step.pivot) != (layout.position(span, m), 1):
            raise TraceIncomplete(
                f"evaluation at vertex {m} of face {[m, *span]} does not "
                f"isolate {layout.label(span, m)} with coefficient one"
            )
        stage2.append(Stage2Kill(span, m, layout.labels[step.target]))

    return ProofTrace(
        n, k, tuple(stage1), tuple(stage2), len(schedule.steps) == layout.size
    )
