"""Exact dense linear algebra over the rationals.

Every scalar is a ``fractions.Fraction``, stored reduced with a positive
denominator, so structural equality of results is mathematical equality and
no operation anywhere in this module carries a tolerance.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "Rational",
    "Matrix",
    "LinearSolver",
    "NoSolution",
    "NotUnique",
    "rank",
    "nullspace",
    "solve",
    "det",
    "matvec",
    "vstack",
    "exact_rational",
    "parse_rational",
    "format_rational",
]

Rational = Fraction

Vector = tuple[Fraction, ...]


class NoSolution(ValueError):
    """The linear system is inconsistent."""


class NotUnique(ValueError):
    """The linear system has more than one solution."""


_RATIONAL_PATTERN = re.compile(r"[+-]?\d+(/[1-9]\d*)?")


def exact_rational(value: object) -> Fraction:
    """Fraction(value) for an exact number; floats and bools are rejected.

    A float would silently smuggle rounding error into a pipeline whose
    whole point is exactness (0.1 would be stored as its binary expansion),
    and a bool is a flag, not a number. An immutable Fraction comes back as is.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, (bool, float)):
        raise ValueError(f"not an exact rational: {value!r}")
    return Fraction(value)


def parse_rational(value: object) -> Fraction:
    """Parse the wire format "p/q" (or "p"); plain ints are accepted too.

    Floats and decimal strings are rejected: they would silently smuggle
    rounding error into a pipeline whose whole point is exactness.
    """
    if isinstance(value, (Fraction, int)) or (
        isinstance(value, str) and _RATIONAL_PATTERN.fullmatch(value.strip())
    ):
        return exact_rational(value)
    raise ValueError(f"not an exact rational: {value!r}")


def format_rational(value: Fraction | int) -> str:
    """Render as "p/q", or just "p" when the denominator is 1."""
    return str(Fraction(value))


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix of rationals, row-major."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows:
            raise ValueError("entry grid does not match the row count")
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("entry grid does not match the column count")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[object]], cols: int | None = None) -> "Matrix":
        data = tuple(tuple(exact_rational(x) for x in row) for row in rows)
        if data:
            width = len(data[0])
            if cols is not None and cols != width:
                raise ValueError("explicit column count disagrees with the rows")
            cols = width
        elif cols is None:
            raise ValueError("an empty matrix needs an explicit column count")
        return cls(len(data), cols, data)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.from_rows(
            [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)],
            cols=n,
        )

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, tuple(tuple(Fraction(0) for _ in range(cols)) for _ in range(rows)))


def matvec(m: Matrix, v: Sequence[object]) -> Vector:
    """Exact matrix-vector product."""
    vec = tuple(exact_rational(x) for x in v)
    if len(vec) != m.cols:
        raise ValueError("vector length does not match the column count")
    return tuple(sum((a * b for a, b in zip(row, vec) if a and b), Fraction(0)) for row in m.entries)


def vstack(top: Matrix, bottom: Matrix) -> Matrix:
    if top.cols != bottom.cols:
        raise ValueError("stacked matrices must share a column count")
    return Matrix(top.rows + bottom.rows, top.cols, top.entries + bottom.entries)


def _rref(data: list[list[Fraction]], pivot_limit: int) -> list[int]:
    """In-place reduced row echelon form; returns the pivot columns.

    Pivots are searched only in the first ``pivot_limit`` columns; any
    further columns are an augmented part that rides along under the same
    row operations. Unit entries are preferred as pivots to keep the
    intermediate fractions small.
    """
    nrows = len(data)
    ncols = len(data[0]) if data else 0
    pivots: list[int] = []
    r = 0
    for c in range(pivot_limit):
        if r == nrows:
            break
        best = None
        for i in range(r, nrows):
            if data[i][c] != 0:
                best = i
                if abs(data[i][c]) == 1:
                    break
        if best is None:
            continue
        data[r], data[best] = data[best], data[r]
        pivot = data[r][c]
        if pivot != 1:
            inv = Fraction(1) / pivot
            row = data[r]
            for j in range(c, ncols):
                if row[j]:
                    row[j] *= inv
        prow = data[r]
        for i in range(nrows):
            if i == r:
                continue
            factor = data[i][c]
            if factor == 0:
                continue
            irow = data[i]
            for j in range(c, ncols):
                if prow[j]:
                    irow[j] -= factor * prow[j]
        pivots.append(c)
        r += 1
    return pivots


def rank(m: Matrix) -> int:
    """Exact rank over the rationals."""
    data = [list(row) for row in m.entries]
    return len(_rref(data, m.cols))


def nullspace(m: Matrix) -> list[Vector]:
    """Basis of the exact kernel; one vector per free column of the echelon form."""
    data = [list(row) for row in m.entries]
    pivots = _rref(data, m.cols)
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * m.cols
        v[free] = Fraction(1)
        for row_index, pivot_col in enumerate(pivots):
            v[pivot_col] = -data[row_index][free]
        basis.append(tuple(v))
    return basis


def solve(m: Matrix, rhs: Sequence[object]) -> Vector:
    """Unique exact solution of m @ x = rhs.

    Raises NotUnique when the matrix has a nontrivial kernel and NoSolution
    when the (possibly overdetermined) system is inconsistent.
    """
    b = tuple(exact_rational(x) for x in rhs)
    if len(b) != m.rows:
        raise ValueError("right-hand side length does not match the row count")
    data = [list(row) + [bi] for row, bi in zip(m.entries, b)]
    pivots = _rref(data, m.cols)
    for r in range(len(pivots), m.rows):
        if data[r][m.cols] != 0:
            raise NoSolution("inconsistent system")
    if len(pivots) < m.cols:
        raise NotUnique(f"rank {len(pivots)} < {m.cols} unknowns")
    x = [Fraction(0)] * m.cols
    for row_index, pivot_col in enumerate(pivots):
        x[pivot_col] = data[row_index][m.cols]
    return tuple(x)


def det(m: Matrix) -> Fraction:
    """Exact determinant by fraction-preserving elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    data = [list(row) for row in m.entries]
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if data[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            data[c], data[pivot_row] = data[pivot_row], data[c]
            sign = -sign
        pivot = data[c][c]
        result *= pivot
        for i in range(c + 1, n):
            factor = data[i][c]
            if factor == 0:
                continue
            factor /= pivot
            for j in range(c, n):
                if data[c][j]:
                    data[i][j] -= factor * data[c][j]
    return result if sign == 1 else -result


class LinearSolver:
    """Row reduction of a fixed matrix, reusable across right-hand sides.

    Equivalent to calling :func:`solve` repeatedly with the same matrix, but
    the elimination work is done once: the reduction is applied to an
    identity block, and each later right-hand side only costs one
    matrix-vector product with the recorded transform.
    """

    def __init__(self, matrix: Matrix):
        self.matrix = matrix
        data = [
            list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(matrix.rows)]
            for i, row in enumerate(matrix.entries)
        ]
        self._pivots = _rref(data, matrix.cols)
        self._transform = tuple(tuple(row[matrix.cols :]) for row in data)

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def solve(self, rhs: Sequence[object]) -> Vector:
        m = self.matrix
        b = tuple(exact_rational(x) for x in rhs)
        if len(b) != m.rows:
            raise ValueError("right-hand side length does not match the row count")
        reduced = [
            sum((t * bi for t, bi in zip(trow, b) if t and bi), Fraction(0))
            for trow in self._transform
        ]
        for r in range(self.rank, m.rows):
            if reduced[r] != 0:
                raise NoSolution("inconsistent system")
        if self.rank < m.cols:
            raise NotUnique(f"rank {self.rank} < {m.cols} unknowns")
        x = [Fraction(0)] * m.cols
        for row_index, pivot_col in enumerate(self._pivots):
            x[pivot_col] = reduced[row_index]
        return tuple(x)
