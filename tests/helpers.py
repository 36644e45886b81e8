"""Independent oracles and generators shared across the test modules.

Everything here deliberately avoids the library's fast paths: parity
comes from bubble sort, subset counts from explicit enumeration, integrals
from a floating-point quadrature rule built on numpy, the constraint rows
from the general ``pullback`` of each unit form, the Whitney basis forms
from ``wedge`` and ``scale_by_affine``, none of which the cached operators
call, and the extreme-degree closed forms from barycentric coordinates.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from functools import cache, reduce
from random import Random

import numpy as np

from whitneyforms import (
    AffineForm,
    AffineFunction,
    Cochain,
    ConstantForm,
    Face,
    UnknownLayout,
    barycentric_differential,
    barycentric_functions,
    enumerate_faces,
    pullback,
    scale_by_affine,
    simplex_integral,
    vertex_point,
    wedge,
)


def bubble_sort_parity(seq) -> int:
    """Sign of the sorting permutation by counting adjacent swaps."""
    items = list(seq)
    sign = 1
    for i in range(len(items)):
        for j in range(len(items) - 1 - i):
            if items[j] > items[j + 1]:
                items[j], items[j + 1] = items[j + 1], items[j]
                sign = -sign
    return sign


def count_subsets(n: int, k: int) -> int:
    """Number of k-subsets of an n-set, by enumeration."""
    return sum(1 for _ in itertools.combinations(range(n), k))


def clear_caches() -> None:
    """Empty every functools cache of the package, so builders run again."""
    for name, module in list(sys.modules.items()):
        if name == "whitneyforms" or name.startswith("whitneyforms."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@cache
def wedge_basis_form(n: int, vertices: tuple[int, ...]) -> AffineForm:
    """The Whitney basis form of the face [vertices], built by wedge products.

    k! sum_j (-1)^j nu_{v_j} d nu_{v_0} ^ ... (omit j) ... ^ d nu_{v_k}, taken
    literally; the vertices may come in any order.
    """
    k = len(vertices) - 1
    nu = barycentric_functions(n)
    diffs = [barycentric_differential(n, v) for v in vertices]
    total = AffineForm.zero(n, k)
    for j, v in enumerate(vertices):
        rest = diffs[:j] + diffs[j + 1 :]
        product = reduce(wedge, rest[1:], rest[0]) if rest else ConstantForm(n, 0, {(): 1})
        sign = -1 if j % 2 else 1
        total = total + sign * scale_by_affine(nu[v], product)
    return math.factorial(k) * total


def barycentric_closed_form(cochain: Cochain) -> AffineForm:
    """The solution at k = 0 or k = n, built from barycentric coordinates.

    Degree 0 interpolates the vertex values as sum_i c(i) nu_i, with one
    AffineFunction product and sum per vertex; degree n is c(0..n) times the
    wedge-built Whitney form of the top face.
    """
    n, k = cochain.n, cochain.k
    if k == 0:
        nu = barycentric_functions(n)
        f = AffineFunction.zero(n)
        for i in range(n + 1):
            f = f + cochain.terms.get((i,), Fraction(0)) * nu[i]
        return AffineForm(n, 0, {(): f})
    if k == n:
        top = tuple(range(n + 1))
        return cochain.terms.get(top, Fraction(0)) * wedge_basis_form(n, top)
    raise ValueError(f"no closed form at 0 < k={k} < n={n}")


def random_affine_form(rng: Random, n: int, k: int, bits: int = 0) -> AffineForm:
    """Form with random rational coefficients on every multi-index.

    Numerators and denominators are small (up to 10) by default, or drawn
    below 2**bits when bits is given.
    """

    def draw() -> Fraction:
        if bits:
            return Fraction(rng.randrange(-(2**bits), 2**bits), rng.randrange(1, 2**bits))
        return Fraction(rng.randint(-10, 10), rng.randint(1, 10))

    coeffs = {}
    for idx in itertools.combinations(range(1, n + 1), k):
        constant = draw()
        grad = tuple(draw() for _ in range(n))
        coeffs[idx] = AffineFunction(n, constant, grad)
    return AffineForm(n, k, coeffs)


def _pulled_top_coefficients(layout: UnknownLayout, face: Face) -> list[AffineFunction]:
    """The top coefficient of each unit form pulled back to the face."""
    top = tuple(range(1, layout.k + 1))
    zero = AffineFunction.zero(layout.k)
    return [pullback(u, face).coeffs.get(top, zero) for u in layout.unit_forms]


def pullback_system_rows(n: int, k: int) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """(constancy rows, integral rows) rebuilt from pullbacks of the unit forms.

    Per canonical face, the k gradient entries of the pulled-back top
    coefficient must vanish, and its simplex integral is the face integral.
    """
    layout = UnknownLayout(n, k)
    constancy: list[list[Fraction]] = []
    integrals: list[list[Fraction]] = []
    for face in enumerate_faces(n, k):
        pulled = _pulled_top_coefficients(layout, face)
        constancy.extend([f.gradient[s] for f in pulled] for s in range(k))
        integrals.append([simplex_integral(f) for f in pulled])
    return constancy, integrals


def pullback_constant_term_row(n: int, k: int, face: Face) -> list[Fraction]:
    """Constant term of each unit form's pulled-back coefficient on the face."""
    return [f.constant for f in _pulled_top_coefficients(UnknownLayout(n, k), face)]


def quadrature_integral(form: AffineForm, face: Face) -> float:
    """Centroid-rule integral of an affine-coefficient form over a face.

    Pure float pipeline: numpy determinants for the pullback minors and a
    one-point rule at the barycenter, which is exact for affine integrands.
    """
    k = face.degree
    points = [
        np.array([float(x) for x in vertex_point(face.n, v)]) for v in face.vertices
    ]
    origin = points[0]
    directions = [p - origin for p in points[1:]]
    centroid = origin + sum(directions, np.zeros(face.n)) / (k + 1)
    total = 0.0
    for idx, f in form.coeffs.items():
        if k:
            minor = np.array([[directions[s][i - 1] for s in range(k)] for i in idx])
            d = float(np.linalg.det(minor))
        else:
            d = 1.0
        value = float(f.constant) + sum(
            float(g) * centroid[j] for j, g in enumerate(f.gradient)
        )
        total += d * value
    return face.sign * total / math.factorial(k)
