"""Independent oracles and generators shared across the test modules.

Everything here deliberately avoids the library's fast paths: parity
comes from bubble sort, subset counts from explicit enumeration, integrals
from a floating-point quadrature rule built on numpy and from the simplex
moments of a pulled-back coefficient, the pullback itself from a
``Fraction`` face parametrization with one ``det`` per minor, the
constraint rows from that ``pullback`` of each unit form, the Whitney basis forms
from ``wedge`` alone (an affine 0-form on the left scales by a barycentric
coordinate), and the extreme-degree closed forms from barycentric
coordinates. ``vertex_point``, the barycentric functions and differentials,
``cochain_eval``, ``wedge``, ``det`` and ``evaluate`` are defined here: the
package has no copy of them for its operators to lean on.
W/k! and S/k! are also applied by summing their columns at the nonzero
entries of a cochain (``column_image``), against the package's rows
grouped up to sign, and D*(k+1)! by summing its columns at the nonzero
entries of a form, against the package's block traces; both go through one
column walk (``column_sum``). The package keeps every operator by rows
only, so its columns are transposed here (``transpose``, and
``derham_columns`` for D*(k+1)!).
Rank, kernel and solution come from dense Gauss-Jordan elimination over
plain lists of rationals, which the library itself never runs, and the
solve also from a forward substitution of each cochain along the whole
elimination schedule, without the cached solution operator.
``run_cli`` runs the command line in process and keeps its exit code and
both output streams.
"""

from __future__ import annotations

import io
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from random import Random

import numpy as np

from whitneyforms import (
    AffineForm,
    AffineFunction,
    Cochain,
    DegreeMismatch,
    Face,
    UnknownLayout,
    canonicalize,
    enumerate_faces,
    is_constant,
    permutation_sign,
)
from whitneyforms import characterize, linalg
from whitneyforms.cli import main as cli_main
from whitneyforms.linalg import exact_int, exact_rational
from whitneyforms.operators import SparseRow, constancy_rows, derham_rows, unknown_layout
from whitneyforms.simplicial import MAX_UNKNOWNS, check_cell


# The textbook route: coordinates, barycentric functions, wedge products,
# determinants and evaluation, over the forms' public ``coeffs`` view and
# AffineFunction arithmetic. No subcommand needs them, since W/k! is written
# down in closed form and the pullback is the integer T_G; here they are the
# oracles that the operators are checked against.


def vertex_point(n: int, label: int) -> tuple[Fraction, ...]:
    """Coordinates of a vertex: the origin for label 0, else a unit point."""
    if not 0 <= exact_int(label) <= n:
        raise ValueError(f"vertex label {label} outside 0..{n}")
    return tuple(Fraction(1) if i == label else Fraction(0) for i in range(1, n + 1))


def barycentric_functions(n: int) -> list[AffineFunction]:
    """The n+1 barycentric coordinates of the standard simplex.

    Index 0 is 1 - (x^1 + ... + x^n); index i >= 1 is x^i. They sum to the
    constant 1 and take value 1 at their own vertex, 0 at the others.
    """
    if n < 1:
        raise ValueError("ambient dimension must be at least 1")
    funcs = [AffineFunction(n, Fraction(1), (Fraction(-1),) * n)]
    for i in range(1, n + 1):
        grad = tuple(Fraction(1) if j == i else Fraction(0) for j in range(1, n + 1))
        funcs.append(AffineFunction(n, Fraction(0), grad))
    return funcs


def barycentric_differential(n: int, label: int) -> AffineForm:
    """d nu_label as a constant 1-form: -sum_i dx^i for label 0, else dx^label."""
    if not 0 <= label <= n:
        raise ValueError(f"vertex label {label} outside 0..{n}")
    if label == 0:
        return AffineForm(n, 1, {(i,): -1 for i in range(1, n + 1)})
    return AffineForm(n, 1, {(label,): 1})


def cochain_eval(c: Cochain, face: Face) -> Fraction:
    """The coefficient of the face, with the orientation sign applied."""
    if face.n != c.n or face.degree != c.k:
        raise DegreeMismatch(
            f"face of degree {face.degree} in dimension {face.n} against a "
            f"({c.n}, {c.k}) cochain"
        )
    canon = canonicalize(face)
    return canon.sign * c.terms.get(canon.vertices, Fraction(0))


def _merge_indices(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Merge two increasing index tuples; None if they intersect.

    The sign is that of the permutation sorting a + b, i.e. the parity of
    the transpositions that interleave b into a.
    """
    if set(a) & set(b):
        return None
    return permutation_sign(a + b), tuple(sorted(a + b))


def wedge(a: AffineForm, b: AffineForm) -> AffineForm:
    """Exterior product; the right factor must be a constant form.

    A 0-form {(): f} as the left factor multiplies the right one by the
    affine function f.
    """
    if a.n != b.n:
        raise DegreeMismatch("forms live in different dimensions")
    check_cell(a.n, a.k + b.k)
    if not is_constant(b):
        raise ValueError("the right factor of a wedge must be a constant form")
    acc: dict[tuple[int, ...], AffineFunction] = {}
    for idx_a, fa in a.coeffs.items():
        for idx_b, fb in b.coeffs.items():
            merged = _merge_indices(idx_a, idx_b)
            if merged is None:
                continue
            sign, idx = merged
            term = (sign * fb.constant) * fa
            acc[idx] = acc[idx] + term if idx in acc else term
    return AffineForm(a.n, a.k + b.k, acc)


def det(rows) -> Fraction:
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


def evaluate(form: AffineForm, point, vectors) -> Fraction:
    """Value of the form at a point on k tangent vectors (alternating in them).

    Coordinates go through ``exact_rational``: a float or a bool is rejected.
    The point is checked first, so even the zero form rejects a bad one.
    """
    pt = tuple(exact_rational(x) for x in point)
    if len(pt) != form.n:
        raise DegreeMismatch(f"expected a point in {form.n} dimensions, got {len(pt)}")
    if len(vectors) != form.k:
        raise DegreeMismatch(f"expected {form.k} vectors, got {len(vectors)}")
    vecs = [tuple(exact_rational(x) for x in v) for v in vectors]
    if any(len(v) != form.n for v in vecs):
        raise DegreeMismatch("tangent vector has the wrong dimension")
    total = Fraction(0)
    for idx, f in form.coeffs.items():
        d = det([[v[i - 1] for v in vecs] for i in idx])
        if d:
            total += f(pt) * d
    return total


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


def _middle_cells_at_the_cap() -> tuple[tuple[int, int], tuple[int, int]]:
    """The largest middle cell MAX_UNKNOWNS admits, and the first it refuses.

    The refused cell is (n, n // 2) for the smallest n whose middle cell, the
    largest of its degree row, has more than MAX_UNKNOWNS unknowns; the
    admitted one is the middle cell of n - 1, so every cell up to it fits.
    """
    n = 1
    while (n + 1) * math.comb(n, n // 2) <= MAX_UNKNOWNS:
        n += 1
    return (n - 1, (n - 1) // 2), (n, n // 2)


LARGEST_ADMITTED, FIRST_REFUSED = _middle_cells_at_the_cap()


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


def canonical_pair(vec, q: int) -> tuple[tuple[int, ...], int]:
    """(vec', q') with vec' / q' = vec / q in lowest terms, from one Fraction per entry.

    q' is the lcm of the reduced entries' denominators, so no gcd of the whole
    vector is taken.
    """
    values = [Fraction(v, q) for v in vec]
    scale = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (scale // v.denominator) for v in values), scale


def random_pairs(rng: Random, count: int) -> list[tuple[int, int]]:
    """count pairs (p, d), one per byte b < 210 of rng.randbytes: p = b // 10 - 10, d = b % 10 + 1.

    Byte by byte, over rounds that each ask for as many bytes as pairs are
    still missing; a byte of 210 or more is skipped.
    """
    pairs: list[tuple[int, int]] = []
    while len(pairs) < count:
        for b in rng.randbytes(count - len(pairs)):
            if b < 210:
                pairs.append((b // 10 - 10, b % 10 + 1))
    return pairs


def dict_random_cochain(rng: Random, n: int, k: int) -> Cochain:
    """``random_cochain`` as a dict of Fractions p/d through the validating constructor."""
    faces = enumerate_faces(n, k)
    pairs = random_pairs(rng, len(faces))
    return Cochain(n, k, {face.vertices: Fraction(p, d) for face, (p, d) in zip(faces, pairs)})


def coeffs_add(a: dict, b: dict) -> dict:
    """Oracle sum of two {multi-index: AffineFunction} dicts, zero blocks dropped.

    Constants and gradients are added as plain Fractions, not by the vector
    arithmetic under test, and each block is rebuilt by the constructor.
    """
    out = {}
    for idx, f in [*a.items(), *b.items()]:
        n, constant, gradient = out.get(idx, (f.n, 0, (0,) * f.n))
        out[idx] = (n, constant + f.constant, tuple(map(operator.add, gradient, f.gradient)))
    return {
        idx: AffineFunction(n, constant, gradient)
        for idx, (n, constant, gradient) in out.items()
        if constant or any(gradient)
    }


def coeffs_scale(s: Fraction, a: dict) -> dict:
    """Oracle scalar multiple of a {multi-index: AffineFunction} dict, in plain Fractions."""
    return {
        idx: AffineFunction(f.n, s * f.constant, tuple(s * g for g in f.gradient))
        for idx, f in a.items()
        if s
    }


@dataclass(frozen=True)
class FaceParametrization:
    """Affine map t -> origin + sum_s t^s direction_s onto a face.

    Domain is the standard k-simplex in the t coordinates; the basis
    (direction_1, ..., direction_k) fixes the orientation convention that
    every integral downstream inherits. Parameter points go through
    ``exact_rational``, as every other exact input does.
    """

    origin: tuple[Fraction, ...]
    directions: tuple[tuple[Fraction, ...], ...]

    @property
    def k(self) -> int:
        return len(self.directions)

    @property
    def n(self) -> int:
        return len(self.origin)

    def __call__(self, t) -> tuple[Fraction, ...]:
        ts = tuple(exact_rational(x) for x in t)
        if len(ts) != self.k:
            raise ValueError("parameter point has the wrong dimension")
        point = list(self.origin)
        for value, direction in zip(ts, self.directions):
            if value == 0:
                continue
            for i, d in enumerate(direction):
                if d:
                    point[i] += value * d
        return tuple(point)


def face_parametrization(face: Face) -> FaceParametrization:
    """Map the standard k-simplex onto the face, vertices in tuple order."""
    points = [vertex_point(face.n, v) for v in face.vertices]
    origin = points[0]
    directions = tuple(
        tuple(a - b for a, b in zip(p, origin)) for p in points[1:]
    )
    return FaceParametrization(origin, directions)


def compose_affine(f: AffineFunction, param: FaceParametrization) -> AffineFunction:
    """f after the parametrization, as an affine function of t."""
    constant = f(param.origin)
    grad = tuple(
        sum((g * d for g, d in zip(f.gradient, direction) if g and d), Fraction(0))
        for direction in param.directions
    )
    return AffineFunction(param.k, constant, grad)


def pullback(form: AffineForm, face: Face) -> AffineForm:
    """Pull the form back along the face parametrization, one ``det`` per minor.

    The result lives on the standard t-simplex in the t coordinates of the
    face (t the face degree). The face's orientation sign is not applied.
    """
    if face.n != form.n:
        raise DegreeMismatch("face and form live in different dimensions")
    kf = face.degree
    if kf < form.k:
        raise DegreeMismatch(f"cannot pull a degree-{form.k} form back to a {kf}-face")
    param = face_parametrization(face)
    directions = param.directions
    acc: dict[tuple[int, ...], AffineFunction] = {}
    for idx, f in form.coeffs.items():
        pulled_f = compose_affine(f, param)
        for target in itertools.combinations(range(1, kf + 1), form.k):
            d = det([[directions[t - 1][i - 1] for t in target] for i in idx])
            if not d:
                continue
            term = d * pulled_f
            acc[target] = acc[target] + term if target in acc else term
    return AffineForm(kf, form.k, acc)


def simplex_integral(f: AffineFunction) -> Fraction:
    """Exact integral of an affine function over the standard simplex.

    In dimension 0 the simplex is a point and the integral is evaluation.
    """
    if f.n == 0:
        return f.constant
    return Fraction(f.constant, math.factorial(f.n)) + Fraction(
        sum(f.gradient, Fraction(0)), math.factorial(f.n + 1)
    )


def pullback_integral(form: AffineForm, face: Face) -> Fraction:
    """The face integral as the face sign times the simplex integral of the pulled-back top coefficient."""
    top = tuple(range(1, face.degree + 1))
    coeff = pullback(form, face).coeffs.get(top, AffineFunction.zero(face.degree))
    return face.sign * simplex_integral(coeff)


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


def transpose(rows, size: int) -> tuple[SparseRow, ...]:
    """The size columns of sparse rows, each listing (row index, value) by row."""
    columns: list[list[tuple[int, int]]] = [[] for _ in range(size)]
    for r, row in enumerate(rows):
        for pos, value in row:
            columns[pos].append((r, value))
    return tuple(map(tuple, columns))


def column_image(columns, cochain: Cochain) -> AffineForm:
    """k! X.c for X given by (position, value) columns, one per face, summed column by column.

    Each nonzero value of vec reads its column (``column_sum``), and
    ``from_vector`` then takes the gcd.
    """
    n, k = cochain.n, cochain.k
    u = column_sum(columns, cochain.vec, unknown_layout(n, k).size)
    return AffineForm.from_vector(n, k, [math.factorial(k) * v for v in u], cochain.q)


def derham_columns(n: int, k: int) -> tuple[SparseRow, ...]:
    """D*(k+1)! by columns, transposed here: column p lists (face index, value) for unknown p."""
    return transpose(derham_rows(n, k), unknown_layout(n, k).size)


def column_sum(columns, values, size: int) -> list[int]:
    """sum_i values[i] * columns[i] as a dense int list; a zero value reads no column."""
    out = [0] * size
    for i, value in enumerate(values):
        if value:
            for pos, entry in columns[i]:
                out[pos] += value * entry
    return out


def schedule_solve(n: int, k: int, cochain: Cochain) -> AffineForm:
    """The solve as one walk over every step of the schedule, per cochain.

    Each pivot divides this cochain's own integers, checked exact, so no
    solution operator S is built or read.
    """
    values = cochain.vec
    vec = [0] * unknown_layout(n, k).size
    for target, pivot, others, face, scale in characterize._schedule(n, k):
        total = scale * values[face] - sum(value * vec[pos] for pos, value in others)
        vec[target], remainder = divmod(total, pivot)
        if remainder:
            raise AssertionError(f"inexact pivot at (n={n}, k={k})")
    return AffineForm.from_vector(n, k, vec, cochain.q)


def empty_first_stage2_integral(n: int, k: int) -> tuple[SparseRow, ...]:
    """D*(k+1)! with the row of the face [1, ..., k+1] emptied, for k < n.

    The first stage-2 step of the schedule combines that face's rows, so it
    no longer isolates its unknown; stage 1 reads only faces through 0.
    """
    rows = list(derham_rows(n, k))
    if k < n:
        rows[unknown_layout(n, k).faces.index(tuple(range(1, k + 2)))] = ()
    return tuple(rows)


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
    """The library defines no elimination routine, not even a determinant.

    The dense rank, kernel, solver and ``det`` above are oracles only:
    ``linalg`` defines the two scalar readers alone, and
    ``characterize`` holds no elimination for a certificate to fall back on.
    """
    defined = {
        name
        for name, obj in vars(linalg).items()
        if callable(obj) and getattr(obj, "__module__", None) == linalg.__name__
    }
    assert defined == {"exact_int", "exact_rational"}
    assert not {"rank", "nullspace", "LinearSolver", "solve"} & set(vars(characterize))


@dataclass
class CliResult:
    """One in-process run of the command line."""

    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None  # None on exit 0, else the SystemExit or the error
    exc_info: tuple | None

    @property
    def output(self) -> str:
        return self.stdout + self.stderr

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode()


def run_cli(argv, input: str | None = None) -> CliResult:
    """cli.main(argv) with input on stdin; SystemExit gives the exit code, any other error 1."""
    out, err = io.StringIO(), io.StringIO()
    exit_code, exception, exc_info = 0, None, None
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(input or ""), out, err
    try:
        cli_main(list(argv))
    except SystemExit as exc:
        exit_code = 0 if exc.code is None else exc.code
        if exit_code != 0:
            exception, exc_info = exc, sys.exc_info()
    except Exception as exc:
        exit_code, exception, exc_info = 1, exc, sys.exc_info()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return CliResult(exit_code, out.getvalue(), err.getvalue(), exception, exc_info)
