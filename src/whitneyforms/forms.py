"""Differential k-forms with affine coefficients on rational coordinates.

A form is a finite sum  sum_I f_I(x) dx^I  over strictly increasing
multi-indices I in {1..n}, where each coefficient f_I is an affine function.
That class is closed under wedge with constant forms and under pullback
along affine maps with the parameter point appearing at most linearly,
which is all the simplex geometry here ever needs.

An :class:`AffineForm` is its coefficient vector in :class:`UnknownLayout`
order (per multi-index I, b_I then a_{I,1}, ..., a_{I,n}) scaled to
integers: vec / q with a tuple of ints ``vec``, a positive int ``q`` and
gcd(q, *vec) = 1. That pair is canonical, so equality is a tuple compare,
and :mod:`whitneyforms.operators` acts on ``vec`` directly. The
{multi-index: AffineFunction} view ``coeffs`` is built only when render,
evaluate, pullback, wedge or the JSON writer reads it.

A constant form is an AffineForm whose gradient slots are all zero
(:func:`is_constant`); it has no class of its own. ``wedge`` takes one as
its right factor, and a 0-form {(): f} as its left factor multiplies the
right one by the affine function f.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

from . import linalg
from .linalg import exact_int, exact_rational, format_rational, parse_rational
from .simplicial import (
    AffineFunction,
    Face,
    face_parametrization,
    permutation_sign,
)

__all__ = [
    "DegreeOverflow",
    "DimensionMismatch",
    "UnknownLayout",
    "unknown_layout",
    "MAX_UNKNOWNS",
    "check_unknowns",
    "AffineForm",
    "wedge",
    "pullback",
    "is_constant",
    "evaluate",
    "form_to_json",
    "form_from_json",
]

MultiIndex = tuple[int, ...]


class DegreeOverflow(ValueError):
    """Form degree pushed past the ambient dimension."""


class DimensionMismatch(ValueError):
    """Operands disagree on ambient dimension, or a pullback target is too small."""


@dataclass(frozen=True)
class UnknownLayout:
    """Flat ordering of the coefficient unknowns of an affine k-form.

    One block of n+1 unknowns per multi-index, multi-indices lexicographic.
    ``faces`` fixes the matching order of the canonical k-faces, which index
    the rows of D and C and the columns of W. n = 0 is allowed: the one
    0-form on a point is a single constant.
    """

    n: int
    k: int

    def __post_init__(self) -> None:
        _check_degree(self.n, self.k)

    @cached_property
    def multi_indices(self) -> tuple[MultiIndex, ...]:
        return tuple(itertools.combinations(range(1, self.n + 1), self.k))

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Canonical k-faces as increasing vertex tuples, lexicographic."""
        return tuple(itertools.combinations(range(self.n + 1), self.k + 1))

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


MAX_UNKNOWNS = 630
"""Largest coefficient vector, (n+1)*C(n,k), read from JSON or built by a command.

The operators, the constancy rank and the replay all grow with it, so a larger
cell is refused up front. ``AffineForm(n, k)`` itself is not capped."""


def check_unknowns(n: int, k: int) -> None:
    """Refuse a valid (n, k) with more than MAX_UNKNOWNS unknowns: ValueError."""
    # n + 1 alone bounds the count from below, so a huge n never reaches comb
    if 0 <= k <= n and (n + 1 > MAX_UNKNOWNS or (n + 1) * math.comb(n, k) > MAX_UNKNOWNS):
        raise ValueError(
            f"(n={n}, k={k}) needs more than {MAX_UNKNOWNS} coefficient unknowns, "
            f"counted as (n+1)*C(n,k); every cell with n <= 8 fits"
        )


def _check_degree(n: int, k: int) -> None:
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    if not 0 <= k <= n:
        raise DegreeOverflow(f"degree {k} outside 0..{n}")


def _check_multi_index(idx: MultiIndex, n: int, k: int) -> None:
    for i in idx:
        exact_int(i)
    if len(idx) != k:
        raise ValueError(f"multi-index {idx} does not have length {k}")
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError(f"multi-index must be strictly increasing: {idx}")
    if idx and (idx[0] < 1 or idx[-1] > n):
        raise ValueError(f"multi-index entries must lie in 1..{n}: {idx}")


@dataclass(frozen=True, init=False)
class AffineForm:
    """k-form whose coefficients are affine functions of the coordinates.

    The form is vec / q over ``unknown_layout(n, k)``: ``vec`` a tuple of
    ints, ``q`` a positive int, gcd(q, *vec) = 1. ``AffineForm(n, k, coeffs)``
    builds it from a {multi-index: AffineFunction or rational} dict, and
    :meth:`from_vector` from the integer vector itself. ``coeffs`` is the
    read-only {multi-index: AffineFunction} view of the nonzero blocks,
    built on first use.
    """

    n: int
    k: int
    vec: tuple[int, ...]
    q: int

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
                raise DimensionMismatch("coefficient lives in the wrong dimension")
            base = layout._offsets[key]
            vec[base : base + n + 1] = (f.constant, *f.gradient)
        q = math.lcm(*(v.denominator for v in vec))
        self._assign(n, k, [v.numerator * (q // v.denominator) for v in vec], q)

    @classmethod
    def from_vector(cls, n: int, k: int, vec: Sequence[int], q: int = 1) -> "AffineForm":
        """The form vec / q, vec an int per unknown of ``unknown_layout(n, k)``.

        No Fraction is made: the pair is only divided by its gcd.
        """
        size = unknown_layout(n, k).size
        if len(vec) != size:
            raise ValueError(f"expected a vector of length {size}")
        if type(q) is not int or q < 1:
            raise ValueError(f"the scale must be a positive integer, not {q!r}")
        form = object.__new__(cls)
        form._assign(n, k, vec, q)
        return form

    def _assign(self, n: int, k: int, vec: Sequence[int], q: int) -> None:
        g = math.gcd(q, *vec)  # a TypeError for any entry that is not an integer
        if g != 1:
            vec = [v // g for v in vec]
            q //= g
        for name, value in (("n", n), ("k", k), ("vec", tuple(vec)), ("q", q)):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return (AffineForm.from_vector, (self.n, self.k, self.vec, self.q))

    @cached_property
    def coeffs(self) -> Mapping[MultiIndex, AffineFunction]:
        n, q, vec = self.n, self.q, self.vec
        view: dict[MultiIndex, AffineFunction] = {}
        for idx, base in unknown_layout(n, self.k)._offsets.items():
            block = vec[base : base + n + 1]
            if any(block):
                b, *grad = (Fraction(v, q) for v in block)
                view[idx] = AffineFunction(n, b, tuple(grad))
        return MappingProxyType(view)

    @classmethod
    def zero(cls, n: int, k: int) -> "AffineForm":
        return cls(n, k)

    def __add__(self, other: "AffineForm") -> "AffineForm":
        if not isinstance(other, AffineForm):
            return NotImplemented
        if (self.n, self.k) != (other.n, other.k):
            raise DimensionMismatch("forms live in different spaces")
        q = math.lcm(self.q, other.q)
        a, b = q // self.q, q // other.q
        vec = [a * x + b * y for x, y in zip(self.vec, other.vec)]
        return AffineForm.from_vector(self.n, self.k, vec, q)

    def __neg__(self) -> "AffineForm":
        return AffineForm.from_vector(self.n, self.k, [-v for v in self.vec], self.q)

    def __sub__(self, other: "AffineForm") -> "AffineForm":
        return self + (-other)

    def __mul__(self, scalar: object) -> "AffineForm":
        if type(scalar) is bool or not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        s = Fraction(scalar)
        vec = [s.numerator * v for v in self.vec]
        return AffineForm.from_vector(self.n, self.k, vec, self.q * s.denominator)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.vec)


def _merge_indices(a: MultiIndex, b: MultiIndex) -> tuple[int, MultiIndex] | None:
    """Merge two increasing index tuples; None if they intersect.

    The sign is that of the permutation sorting a + b, i.e. the parity of
    the transpositions that interleave b into a.
    """
    if set(a) & set(b):
        return None
    return permutation_sign(a + b), tuple(sorted(a + b))


def wedge(a: AffineForm, b: AffineForm) -> AffineForm:
    """Exterior product; the right factor must be a constant form."""
    if a.n != b.n:
        raise DimensionMismatch("forms live in different dimensions")
    if a.k + b.k > a.n:
        raise DegreeOverflow(f"degree {a.k}+{b.k} exceeds dimension {a.n}")
    if not is_constant(b):
        raise ValueError("the right factor of a wedge must be a constant form")
    acc: dict[MultiIndex, AffineFunction] = {}
    for idx_a, fa in a.coeffs.items():
        for idx_b, fb in b.coeffs.items():
            merged = _merge_indices(idx_a, idx_b)
            if merged is None:
                continue
            sign, idx = merged
            term = (sign * fb.constant) * fa
            acc[idx] = acc[idx] + term if idx in acc else term
    return AffineForm(a.n, a.k + b.k, acc)


def _compose_affine(f: AffineFunction, param) -> AffineFunction:
    """f after the parametrization, as an affine function of t."""
    constant = f(param.origin)
    grad = tuple(
        sum((g * d for g, d in zip(f.gradient, direction) if g and d), Fraction(0))
        for direction in param.directions
    )
    return AffineFunction(param.k, constant, grad)


def pullback(form: AffineForm, face: Face) -> AffineForm:
    """Pull the form back along the face parametrization.

    The result lives on the standard k-simplex in the t coordinates of the
    face (k the face degree). The face's orientation sign is deliberately
    not applied here; integration applies it.
    """
    if face.n != form.n:
        raise DimensionMismatch("face and form live in different dimensions")
    kf = face.degree
    if kf < form.k:
        raise DimensionMismatch(
            f"cannot pull a degree-{form.k} form back to a {kf}-face"
        )
    param = face_parametrization(face)
    directions = param.directions
    acc: dict[MultiIndex, AffineFunction] = {}
    for idx, f in form.coeffs.items():
        pulled_f = _compose_affine(f, param)
        for target in itertools.combinations(range(1, kf + 1), form.k):
            d = linalg.det([[directions[t - 1][i - 1] for t in target] for i in idx])
            if not d:
                continue
            term = d * pulled_f
            acc[target] = acc[target] + term if target in acc else term
    return AffineForm(kf, form.k, acc)


def is_constant(form: AffineForm) -> bool:
    """True when every coefficient has zero gradient."""
    return all(f.is_constant for f in form.coeffs.values())


def evaluate(
    form: AffineForm, point: Sequence[object], vectors: Sequence[Sequence[object]]
) -> Fraction:
    """Value of the form at a point on k tangent vectors (alternating in them).

    Coordinates go through ``exact_rational``: a float or a bool is rejected.
    """
    if len(vectors) != form.k:
        raise DimensionMismatch(f"expected {form.k} vectors, got {len(vectors)}")
    vecs = [tuple(exact_rational(x) for x in v) for v in vectors]
    if any(len(v) != form.n for v in vecs):
        raise DimensionMismatch("tangent vector has the wrong dimension")
    total = Fraction(0)
    for idx, f in form.coeffs.items():
        d = linalg.det([[v[i - 1] for v in vecs] for i in idx])
        if d:
            total += f(point) * d
    return total


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
    return AffineForm(n, k, acc)
