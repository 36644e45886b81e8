"""Exact rational scalars: the validation every constructor reads them through.

Every scalar is a ``fractions.Fraction``, stored reduced with a positive
denominator, so structural equality of results is mathematical equality and
no operation anywhere in this module carries a tolerance. The package runs
no elimination at all: the pullback minors are closed-form integers in
:mod:`whitneyforms.operators`, and the constraint system is solved and
certified along its sparse elimination schedule in
:mod:`whitneyforms.characterize`. The wire format "p/q" is
:mod:`whitneyforms.render`'s, with every other external text format.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["exact_int", "exact_rational"]


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

