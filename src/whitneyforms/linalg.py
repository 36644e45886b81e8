"""Exact rational scalars: validation, the wire format, and determinants.

Every scalar is a ``fractions.Fraction``, stored reduced with a positive
denominator, so structural equality of results is mathematical equality and
no operation anywhere in this module carries a tolerance. The package needs
no elimination beyond :func:`det`, which ``forms.evaluate`` alone calls on
the tangent vectors: the pullback minors are closed-form integers in
:mod:`whitneyforms.operators`, and the constraint system is solved and
certified along its sparse elimination schedule in
:mod:`whitneyforms.characterize`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

__all__ = [
    "det",
    "exact_int",
    "exact_rational",
    "parse_rational",
    "format_rational",
]

_RATIONAL_PATTERN = re.compile(r"[+-]?\d+(/[1-9]\d*)?")


def exact_int(value: object) -> int:
    """An integer field read from JSON; floats, bools and strings are rejected.

    ``int()`` would truncate 1.7 to 1 and read true as 1 or "2" as 2, so a
    malformed label or degree would silently name another face.
    """
    if type(value) is not int:
        raise ValueError(f"not an integer: {value!r}")
    return value


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


def det(rows: Sequence[Sequence[object]]) -> Fraction:
    """Exact determinant of a square matrix given by its rows.

    Fraction-preserving elimination; the empty matrix has determinant 1.
    """
    data = [[exact_rational(x) for x in row] for row in rows]
    n = len(data)
    if any(len(row) != n for row in data):
        raise ValueError("determinant needs a square matrix")
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
