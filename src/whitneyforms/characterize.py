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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .forms import AffineForm
from .linalg import (
    LinearSolver,
    Matrix,
    NoSolution,
    NotUnique,
    nullspace,
    rank,
    vstack,
)
from .operators import (
    SparseRow,
    UnknownLayout,
    constancy_rows,
    constant_term_row,
    derham_rows,
    unknown_layout,
)
from .simplicial import (
    AffineFunction,
    BadDegree,
    Cochain,
    DegreeMismatch,
    Face,
    barycentric_functions,
    enumerate_faces,
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

    Counted as unknowns minus the rank of the constancy block. It always
    comes out to the number of k-faces, which is what makes prescribing one
    integral per face a square problem.
    """
    constancy, _ = _system_matrices(n, k)
    return unknown_layout(n, k).size - rank(constancy)


@cache
def _stacked_solver(n: int, k: int) -> LinearSolver:
    constancy, integrals = _system_matrices(n, k)
    return LinearSolver(vstack(constancy, integrals))


def _closed_form_check(n: int, k: int, cochain: Cochain, result: AffineForm) -> None:
    """At the extreme degrees an independent closed form must agree.

    Degree 0 is interpolation of the vertex values by barycentric
    coordinates; degree n is the volume form scaled by n! times the single
    prescribed integral.
    """
    if k == 0:
        nu = barycentric_functions(n)
        f = AffineFunction.zero(n)
        for i in range(n + 1):
            value = cochain.terms.get((i,), Fraction(0))
            if value:
                f = f + value * nu[i]
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

    Solves the stacked system exactly; raises NonUnique or Inconsistent if
    the system ever failed to have exactly one solution.
    """
    if (cochain.n, cochain.k) != (n, k):
        raise DegreeMismatch("cochain does not match the requested degrees")
    layout = unknown_layout(n, k)
    solver = _stacked_solver(n, k)
    rhs = [Fraction(0)] * (k * len(layout.faces)) + [
        cochain.terms.get(face, Fraction(0)) for face in layout.faces
    ]
    try:
        vec = solver.solve(rhs)
    except NotUnique as exc:
        raise NonUnique(f"underdetermined system at (n={n}, k={k})") from exc
    except NoSolution as exc:
        raise Inconsistent(f"unsolvable system at (n={n}, k={k})") from exc
    result = layout.form_from_vector(vec)
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
    """Nullspace of the stacked system; trivial kernel means uniqueness."""
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

    Every row is read off the cached operators: stage 1 from the rows of C
    and D on the face, stage 2 from the closed-form constant-term row.
    """
    if not 1 <= k <= n - 1:
        raise BadDegree(f"the elimination replay needs 1 <= k <= n-1, got n={n}, k={k}")
    layout = unknown_layout(n, k)
    alive = [True] * layout.size

    stage1: list[Stage1Kill] = []
    for face, face_constancy, integral in zip(
        layout.faces, constancy_rows(n, k), derham_rows(n, k)
    ):
        if face[0] != 0:
            continue
        killed_here: list[int] = []
        for row in face_constancy + (integral,):
            support = [pos for pos, _ in row if alive[pos]]
            if len(support) != 1:
                raise TraceIncomplete(
                    f"a row on face {list(face)} involves "
                    f"{len(support)} live unknowns, expected exactly one"
                )
            alive[support[0]] = False
            killed_here.append(support[0])
        span = face[1:]
        expected = {layout.position(span)} | {layout.position(span, t) for t in span}
        if set(killed_here) != expected:
            raise TraceIncomplete(f"face {list(face)} determined unexpected unknowns")
        stage1.append(
            Stage1Kill(face, tuple(layout.labels[p] for p in sorted(killed_here)))
        )

    stage2: list[Stage2Kill] = []
    for span in layout.multi_indices:
        for m in range(1, n + 1):
            if m in span:
                continue
            row = constant_term_row(n, k, m, span)
            support = [(pos, v) for pos, v in row if alive[pos]]
            target = layout.position(span, m)
            if support != [(target, 1)]:
                raise TraceIncomplete(
                    f"evaluation at vertex {m} of face {[m, *span]} does not "
                    f"isolate {layout.label(span, m)} with coefficient one"
                )
            alive[target] = False
            stage2.append(Stage2Kill(span, m, layout.labels[target]))

    return ProofTrace(n, k, tuple(stage1), tuple(stage2), not any(alive))
