"""Differential k-forms with affine coefficients on rational coordinates.

A form is a finite sum  sum_I f_I(x) dx^I  over strictly increasing
multi-indices I in {1..n}, where each coefficient f_I is an affine function.
That class is closed under pullback along affine maps, which is all the
simplex geometry here ever needs; the pullback to a face is the integer
operator T_G of :mod:`whitneyforms.operators`, applied by
``derham.pullback``.

An :class:`AffineForm` is its coefficient vector in :class:`UnknownLayout`
order (per multi-index I, b_I then a_{I,1}, ..., a_{I,n}) scaled to
integers: vec / q with a tuple of ints ``vec``, a positive int ``q`` and
gcd(q, *vec) = 1. It is a :class:`~whitneyforms.simplicial.ScaledVector`,
like a cochain, and takes its canonical pair, equality and arithmetic from
there; :mod:`whitneyforms.operators` acts on ``vec`` directly. The
{multi-index: AffineFunction} view ``coeffs`` is built only when render
or the JSON writer reads it; each of its values is the ScaledVector of one
block, vec[base : base + n + 1] / q, as a 0-form.

A constant form is an AffineForm whose gradient slots are all zero
(:func:`is_constant`); it has no class of its own.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache, cached_property
from types import MappingProxyType
from typing import Mapping

from .linalg import exact_int, format_rational, parse_rational
from .simplicial import (
    MAX_UNKNOWNS,
    AffineFunction,
    DegreeMismatch,
    Frozen,
    ScaledVector,
    _face_positions,
    check_cell,
    check_unknowns,
    permutation_sign,
)

__all__ = [
    "UnknownLayout",
    "unknown_layout",
    "MAX_UNKNOWNS",
    "check_unknowns",
    "AffineForm",
    "is_constant",
    "form_to_json",
    "form_from_json",
]

MultiIndex = tuple[int, ...]


class UnknownLayout(Frozen):
    """Flat ordering of the coefficient unknowns of an affine k-form.

    One block of n+1 unknowns per multi-index, multi-indices lexicographic.
    ``faces`` fixes the matching order of the canonical k-faces, which index
    the rows of D and C and the columns of W. n = 0 is allowed: the one
    0-form on a point is a single constant.
    """

    _fields = ("n", "k")

    def __init__(self, n: int, k: int) -> None:
        check_cell(n, k)
        self.__dict__.update(n=n, k=k)

    @cached_property
    def multi_indices(self) -> tuple[MultiIndex, ...]:
        return tuple(itertools.combinations(range(1, self.n + 1), self.k))

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Canonical k-faces as increasing vertex tuples, lexicographic: a cochain's order."""
        return tuple(_face_positions(self.n, self.k))

    @cached_property
    def _offsets(self) -> dict[MultiIndex, int]:
        return {idx: i * (self.n + 1) for i, idx in enumerate(self.multi_indices)}

    @cached_property
    def size(self) -> int:
        return len(self.multi_indices) * (self.n + 1)

    def position(self, idx: MultiIndex, j: int | None = None) -> int:
        """Index of b_idx (j omitted) or a_{idx,j} in the flat vector."""
        base = self._offsets[tuple(idx)]
        if j is None:
            return base
        if not 1 <= j <= self.n:
            raise ValueError(f"gradient slot {j} outside 1..{self.n}")
        return base + j

    def label(self, idx: MultiIndex, j: int | None = None) -> str:
        inner = ",".join(str(i) for i in idx)
        return f"b_({inner})" if j is None else f"a_({inner}),{j}"

    @cached_property
    def labels(self) -> tuple[str, ...]:
        slots = (None, *range(1, self.n + 1))
        return tuple(self.label(idx, j) for idx in self.multi_indices for j in slots)


@cache
def unknown_layout(n: int, k: int) -> UnknownLayout:
    """The layout of (n, k), built once so that its cached properties are too."""
    return UnknownLayout(n, k)


def _check_multi_index(idx: MultiIndex, n: int, k: int) -> None:
    for i in idx:
        exact_int(i)
    if len(idx) != k:
        raise ValueError(f"multi-index {idx} does not have length {k}")
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError(f"multi-index must be strictly increasing: {idx}")
    if idx and (idx[0] < 1 or idx[-1] > n):
        raise ValueError(f"multi-index entries must lie in 1..{n}: {idx}")


class AffineForm(ScaledVector):
    """k-form whose coefficients are affine functions of the coordinates.

    The form is vec / q over ``unknown_layout(n, k)``: ``vec`` a tuple of
    ints, ``q`` a positive int, gcd(q, *vec) = 1. ``AffineForm(n, k, coeffs)``
    builds it from a {multi-index: AffineFunction or rational} dict, and
    :meth:`from_vector` from the integer vector itself. ``coeffs`` is the
    read-only {multi-index: AffineFunction} view of the nonzero blocks,
    built on first use.
    """

    def __init__(
        self, n: int, k: int, coeffs: Mapping[MultiIndex, object] | None = None
    ) -> None:
        layout = unknown_layout(n, k)
        vec = [Fraction(0)] * layout.size
        for idx, f in (coeffs or {}).items():
            key = tuple(idx)
            _check_multi_index(key, n, k)
            if not isinstance(f, AffineFunction):
                f = AffineFunction.const(n, f)
            if f.n != n:
                raise DegreeMismatch("coefficient lives in the wrong dimension")
            base = layout._offsets[key]
            vec[base : base + n + 1] = (f.constant, *f.gradient)
        self._assign_rationals(n, k, vec)

    @staticmethod
    def size(n: int, k: int) -> int:
        return unknown_layout(n, k).size

    @cached_property
    def coeffs(self) -> Mapping[MultiIndex, AffineFunction]:
        n, q, vec = self.n, self.q, self.vec
        view: dict[MultiIndex, AffineFunction] = {}
        for idx, base in unknown_layout(n, self.k)._offsets.items():
            block = vec[base : base + n + 1]
            if any(block):
                view[idx] = AffineFunction.from_vector(n, 0, block, q)
        return MappingProxyType(view)


def is_constant(form: AffineForm) -> bool:
    """True when every coefficient has zero gradient."""
    return all(f.is_constant for f in form.coeffs.values())


def form_to_json(form: AffineForm) -> dict:
    """JSON form: one entry per multi-index with "const" and "grad" strings."""
    return {
        "n": form.n,
        "k": form.k,
        "terms": [
            {
                "dx": list(idx),
                "const": format_rational(f.constant),
                "grad": [format_rational(g) for g in f.gradient],
            }
            for idx, f in sorted(form.coeffs.items())
        ],
    }


def form_from_json(data: Mapping) -> AffineForm:
    """Parse a form; dx lists may come unsorted and are folded by parity.

    n, k and the dx indices must be JSON integers: a float, bool or string
    raises ValueError instead of being truncated or coerced, and so does an
    (n, k) with more than MAX_UNKNOWNS unknowns.
    """
    try:
        n = exact_int(data["n"])
        k = exact_int(data["k"])
        raw_terms = data.get("terms", [])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed form JSON: {exc}") from exc
    check_unknowns(n, k)  # before any of the (n+1)*C(n,k) entries is allocated
    acc: dict[MultiIndex, AffineFunction] = {}
    try:
        for entry in raw_terms:
            try:
                if not isinstance(entry["dx"], list) or not isinstance(entry["grad"], list):
                    raise ValueError("malformed form term: dx and grad must be lists")
                dx = tuple(exact_int(i) for i in entry["dx"])
                const = parse_rational(entry["const"])
                grad = tuple(parse_rational(g) for g in entry["grad"])
            except (KeyError, TypeError) as exc:
                raise ValueError(f"malformed form term: {exc}") from exc
            if len(set(dx)) != len(dx):
                raise ValueError(f"repeated index in dx {list(dx)}")
            sign = permutation_sign(dx)
            key = tuple(sorted(dx))
            f = sign * AffineFunction(n, const, grad)
            acc[key] = acc[key] + f if key in acc else f
    except TypeError as exc:  # "terms" that is no list, such as 5 or null
        raise ValueError(f"malformed form JSON: {exc}") from exc
    return AffineForm(n, k, acc)
