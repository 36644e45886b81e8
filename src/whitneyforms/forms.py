"""Differential k-forms with affine coefficients on rational coordinates.

A form is a finite sum  sum_I f_I(x) dx^I  over strictly increasing
multi-indices I in {1..n}, where each coefficient f_I is an affine function.
That class is closed under wedge with constant forms and under pullback
along affine maps with the parameter point appearing at most linearly,
which is all the simplex geometry here ever needs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
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
    "ConstantForm",
    "AffineForm",
    "wedge",
    "scale_by_affine",
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


def _check_multi_index(idx: MultiIndex, n: int, k: int) -> None:
    if len(idx) != k:
        raise ValueError(f"multi-index {idx} does not have length {k}")
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError(f"multi-index must be strictly increasing: {idx}")
    if idx and (idx[0] < 1 or idx[-1] > n):
        raise ValueError(f"multi-index entries must lie in 1..{n}: {idx}")


@dataclass(frozen=True)
class ConstantForm:
    """k-form with rational constant coefficients."""

    n: int
    k: int
    coeffs: dict[MultiIndex, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("dimension must be nonnegative")
        if not 0 <= self.k <= self.n:
            raise DegreeOverflow(f"degree {self.k} outside 0..{self.n}")
        cleaned: dict[MultiIndex, Fraction] = {}
        for idx in sorted(self.coeffs):
            key = tuple(int(i) for i in idx)
            _check_multi_index(key, self.n, self.k)
            value = exact_rational(self.coeffs[idx])
            if value:
                cleaned[key] = value
        object.__setattr__(self, "coeffs", cleaned)

    @classmethod
    def basis(cls, n: int, idx: Sequence[int]) -> "ConstantForm":
        key = tuple(int(i) for i in idx)
        return cls(n, len(key), {key: Fraction(1)})

    def __add__(self, other: "ConstantForm") -> "ConstantForm":
        if not isinstance(other, ConstantForm):
            return NotImplemented
        if (self.n, self.k) != (other.n, other.k):
            raise DimensionMismatch("forms live in different spaces")
        merged = dict(self.coeffs)
        for idx, value in other.coeffs.items():
            merged[idx] = merged.get(idx, Fraction(0)) + value
        return ConstantForm(self.n, self.k, merged)

    def __neg__(self) -> "ConstantForm":
        return ConstantForm(self.n, self.k, {i: -v for i, v in self.coeffs.items()})

    def __sub__(self, other: "ConstantForm") -> "ConstantForm":
        return self + (-other)

    def __mul__(self, scalar: object) -> "ConstantForm":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        s = Fraction(scalar)
        return ConstantForm(self.n, self.k, {i: s * v for i, v in self.coeffs.items()})

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.coeffs


@dataclass(frozen=True)
class AffineForm:
    """k-form whose coefficients are affine functions of the coordinates."""

    n: int
    k: int
    coeffs: dict[MultiIndex, AffineFunction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("dimension must be nonnegative")
        if not 0 <= self.k <= self.n:
            raise DegreeOverflow(f"degree {self.k} outside 0..{self.n}")
        cleaned: dict[MultiIndex, AffineFunction] = {}
        for idx in sorted(self.coeffs):
            key = tuple(int(i) for i in idx)
            _check_multi_index(key, self.n, self.k)
            f = self.coeffs[idx]
            if not isinstance(f, AffineFunction):
                f = AffineFunction.const(self.n, f)
            if f.n != self.n:
                raise DimensionMismatch("coefficient lives in the wrong dimension")
            if not f.is_zero():
                cleaned[key] = f
        object.__setattr__(self, "coeffs", cleaned)

    @classmethod
    def zero(cls, n: int, k: int) -> "AffineForm":
        return cls(n, k)

    @classmethod
    def from_constant(cls, form: ConstantForm) -> "AffineForm":
        return cls(
            form.n,
            form.k,
            {idx: AffineFunction.const(form.n, v) for idx, v in form.coeffs.items()},
        )

    def __add__(self, other: "AffineForm") -> "AffineForm":
        if not isinstance(other, AffineForm):
            return NotImplemented
        if (self.n, self.k) != (other.n, other.k):
            raise DimensionMismatch("forms live in different spaces")
        merged = dict(self.coeffs)
        for idx, f in other.coeffs.items():
            merged[idx] = merged[idx] + f if idx in merged else f
        return AffineForm(self.n, self.k, merged)

    def __neg__(self) -> "AffineForm":
        return AffineForm(self.n, self.k, {i: -f for i, f in self.coeffs.items()})

    def __sub__(self, other: "AffineForm") -> "AffineForm":
        return self + (-other)

    def __mul__(self, scalar: object) -> "AffineForm":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        s = Fraction(scalar)
        return AffineForm(self.n, self.k, {i: s * f for i, f in self.coeffs.items()})

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.coeffs


def _merge_indices(a: MultiIndex, b: MultiIndex) -> tuple[int, MultiIndex] | None:
    """Merge two increasing index tuples; None if they intersect.

    The sign counts the transpositions needed to interleave b into a, i.e.
    the pairs (i in a, j in b) with i > j.
    """
    if set(a) & set(b):
        return None
    inversions = sum(1 for i in a for j in b if i > j)
    sign = -1 if inversions % 2 else 1
    return sign, tuple(sorted(a + b))


def wedge(a: ConstantForm | AffineForm, b: ConstantForm) -> ConstantForm | AffineForm:
    """Exterior product; the right factor must have constant coefficients."""
    if a.n != b.n:
        raise DimensionMismatch("forms live in different dimensions")
    if a.k + b.k > a.n:
        raise DegreeOverflow(f"degree {a.k}+{b.k} exceeds dimension {a.n}")
    affine = isinstance(a, AffineForm)
    acc: dict[MultiIndex, object] = {}
    for idx_a, ca in a.coeffs.items():
        for idx_b, cb in b.coeffs.items():
            merged = _merge_indices(idx_a, idx_b)
            if merged is None:
                continue
            sign, idx = merged
            term = (sign * cb) * ca if affine else sign * ca * cb
            acc[idx] = acc[idx] + term if idx in acc else term
    cls = AffineForm if affine else ConstantForm
    return cls(a.n, a.k + b.k, acc)


def scale_by_affine(f: AffineFunction, form: ConstantForm) -> AffineForm:
    """Multiply a constant-coefficient form by an affine function."""
    if f.n != form.n:
        raise DimensionMismatch("function and form live in different dimensions")
    return AffineForm(
        form.n, form.k, {idx: v * f for idx, v in form.coeffs.items()}
    )


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
    raises ValueError instead of being truncated or coerced.
    """
    try:
        n = exact_int(data["n"])
        k = exact_int(data["k"])
        raw_terms = data.get("terms", [])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed form JSON: {exc}") from exc
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
