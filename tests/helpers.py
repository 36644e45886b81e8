"""Independent oracles and generators shared across the test modules.

Everything here deliberately avoids the library's fast paths: parity
comes from bubble sort, subset counts from explicit enumeration, integrals
from a floating-point quadrature rule built on numpy, the constraint rows
from the general ``pullback`` of each unit form, the Whitney basis forms
from ``wedge`` alone (an affine 0-form on the left scales by a barycentric
coordinate), which the cached operators never call, and the extreme-degree
closed forms from barycentric coordinates.
Rank, kernel and solution come from dense Gauss-Jordan elimination over
plain lists of rationals, which the library itself never runs.
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
    Face,
    UnknownLayout,
    barycentric_differential,
    barycentric_functions,
    enumerate_faces,
    pullback,
    simplex_integral,
    vertex_point,
    wedge,
)
from whitneyforms import characterize, linalg
from whitneyforms.linalg import exact_rational
from whitneyforms.operators import constancy_rows, derham_rows, unknown_layout


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
        product = reduce(wedge, rest[1:], rest[0]) if rest else AffineForm(n, 0, {(): 1})
        sign = -1 if j % 2 else 1
        total = total + sign * wedge(AffineForm(n, 0, {(): nu[v]}), product)
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


def unit_form(n: int, k: int, pos: int) -> AffineForm:
    """The form one unknown multiplies: 1 at position pos of the layout vector."""
    return AffineForm.from_vector(n, k, [int(p == pos) for p in range(unknown_layout(n, k).size)])


def form_from_fractions(n: int, k: int, vec) -> AffineForm:
    """The form with this rational coefficient vector, over the lcm of its denominators."""
    q = math.lcm(*(Fraction(v).denominator for v in vec))
    return AffineForm.from_vector(n, k, [int(Fraction(v) * q) for v in vec], q)


def fraction_vector(form: AffineForm) -> tuple[Fraction, ...]:
    """The rational coefficient vector vec / q of a form."""
    return tuple(Fraction(v, form.q) for v in form.vec)


def coeffs_add(a: dict, b: dict) -> dict:
    """Oracle sum of two {multi-index: AffineFunction} dicts, zero blocks dropped."""
    out = dict(a)
    for idx, f in b.items():
        out[idx] = out[idx] + f if idx in out else f
    return {idx: f for idx, f in out.items() if not f.is_zero()}


def coeffs_scale(s: Fraction, a: dict) -> dict:
    """Oracle scalar multiple of a {multi-index: AffineFunction} dict."""
    return {idx: s * f for idx, f in a.items() if s}


def _pulled_top_coefficients(layout: UnknownLayout, face: Face) -> list[AffineFunction]:
    """The top coefficient of each unit form pulled back to the face."""
    top = tuple(range(1, layout.k + 1))
    zero = AffineFunction.zero(layout.k)
    return [
        pullback(unit_form(layout.n, layout.k, pos), face).coeffs.get(top, zero)
        for pos in range(layout.size)
    ]


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


class NoSolution(ValueError):
    """The linear system is inconsistent."""


class NotUnique(ValueError):
    """The linear system has more than one solution."""


def _exact(rows) -> list[list[Fraction]]:
    """A mutable copy of the rows, every entry through ``exact_rational``."""
    return [[exact_rational(x) for x in row] for row in rows]


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


def matvec(rows, v) -> tuple[Fraction, ...]:
    """Exact matrix-vector product over plain lists."""
    return tuple(sum((a * b for a, b in zip(row, v) if a and b), Fraction(0)) for row in rows)


def rank(rows) -> int:
    """Exact rank over the rationals; an empty list of rows has rank 0."""
    data = _exact(rows)
    return len(_rref(data, len(data[0]) if data else 0))


def nullspace(rows, cols: int) -> list[tuple[Fraction, ...]]:
    """Basis of the exact kernel of a rows-by-cols matrix, one vector per free column."""
    data = _exact(rows)
    pivots = _rref(data, cols)
    basis = []
    for free in sorted(set(range(cols)) - set(pivots)):
        v = [Fraction(0)] * cols
        v[free] = Fraction(1)
        for row, pivot_col in zip(data, pivots):
            v[pivot_col] = -row[free]
        basis.append(tuple(v))
    return basis


class LinearSolver:
    """Row reduction of a fixed matrix, reusable across right-hand sides.

    The reduction is applied once to [rows | I]; each right-hand side then
    costs one product with the recorded transform. Raises NoSolution for an
    inconsistent right-hand side and NotUnique for a nontrivial kernel.
    """

    def __init__(self, rows):
        data = _exact(rows)
        self.cols = len(data[0])
        for i, row in enumerate(data):
            row.extend(Fraction(1) if i == j else Fraction(0) for j in range(len(data)))
        self._pivots = _rref(data, self.cols)
        self._transform = [row[self.cols :] for row in data]

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def solve(self, rhs) -> tuple[Fraction, ...]:
        b = [exact_rational(x) for x in rhs]
        if len(b) != len(self._transform):
            raise ValueError("right-hand side length does not match the row count")
        reduced = matvec(self._transform, b)
        if any(reduced[self.rank :]):
            raise NoSolution("inconsistent system")
        if self.rank < self.cols:
            raise NotUnique(f"rank {self.rank} < {self.cols} unknowns")
        x = [Fraction(0)] * self.cols
        for value, pivot_col in zip(reduced, self._pivots):
            x[pivot_col] = value
        return tuple(x)


def dense_system(n: int, k: int) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """(C, D): the operators' constancy and integral rows as dense rationals.

    D is the integer operator D*(k+1)! divided back by (k+1)!.
    """
    size = unknown_layout(n, k).size
    scale = math.factorial(k + 1)

    def dense(row, divisor=1):
        out = [Fraction(0)] * size
        for pos, value in row:
            out[pos] = Fraction(value, divisor)
        return out

    constancy = [dense(row) for rows in constancy_rows(n, k) for row in rows]
    return constancy, [dense(row, scale) for row in derham_rows(n, k)]


def assert_no_dense_elimination() -> None:
    """The library defines no elimination routine besides ``det``.

    The dense rank, kernel and solver above are oracles only: neither
    ``linalg`` nor ``characterize`` holds one for a certificate to fall
    back on.
    """
    defined = {
        name
        for name, obj in vars(linalg).items()
        if callable(obj) and getattr(obj, "__module__", None) == linalg.__name__
    }
    assert defined == {"det", "exact_int", "exact_rational", "format_rational", "parse_rational"}
    assert not {"rank", "nullspace", "LinearSolver", "solve"} & set(vars(characterize))
