"""The standard n-simplex: oriented faces, cochains, exact immutable values.

The ambient simplex is fixed once and for all as [0, e_1, ..., e_n], so a
vertex is just a label in 0..n: label 0 is the origin and label i is the
unit point on the i-th coordinate axis. Faces carry their orientation in
the vertex order, with an explicit sign for reversals.

A :class:`Cochain` is one coefficient per canonical k-face as an exact
vector vec / q of ints, the :class:`ScaledVector` that
:class:`~whitneyforms.forms.AffineForm` also is, so the Whitney and de Rham
maps take and return integer vectors. An :class:`AffineFunction`
b + sum_j g_j x^j is the ScaledVector (b, g_1, ..., g_n) of one 0-form
block, with k = 0. Faces, these vectors and the unknown layout are
:class:`Frozen` values: fields compared, hashed and printed by name, and
never assigned after construction. Their JSON and the "p/q" scalar are
:mod:`whitneyforms.render`'s, with every other external text format.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import cache, cached_property
from random import Random
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .linalg import exact_int, exact_rational

__all__ = [
    "BadDegree",
    "DegreeMismatch",
    "check_cell",
    "Frozen",
    "Face",
    "ScaledVector",
    "Cochain",
    "MAX_UNKNOWNS",
    "check_unknowns",
    "AffineFunction",
    "canonicalize",
    "permutation_sign",
    "enumerate_faces",
    "random_cochain",
    "exact_rational",
]


class BadDegree(ValueError):
    """An (n, k) that is no cell: the degree k lies outside 0..n."""


class DegreeMismatch(ValueError):
    """Operands, or an operand and a face, disagree on degree or ambient dimension."""


def check_cell(n: int, k: int) -> None:
    """Refuse an (n, k) that is no cell, a k-form on the n-simplex with 0 <= k <= n: BadDegree."""
    if not 0 <= k <= n:
        raise BadDegree(f"k={k} outside 0..{n}")


MAX_UNKNOWNS = 630
"""Largest coefficient vector, (n+1)*C(n,k), read from JSON or built by a command.

The operators, the constancy rank and the replay all grow with it, so a larger
cell is refused up front, from form and cochain JSON alike. ``AffineForm(n, k)``
and ``Cochain(n, k)`` themselves are not capped."""


def check_unknowns(n: int, k: int) -> None:
    """Refuse a non-cell (BadDegree) or a cell with more than MAX_UNKNOWNS unknowns (ValueError)."""
    check_cell(n, k)
    # n + 1 alone bounds the count from below, so a huge n never reaches comb
    if n + 1 > MAX_UNKNOWNS or (n + 1) * math.comb(n, k) > MAX_UNKNOWNS:
        raise ValueError(
            f"(n={n}, k={k}) needs more than {MAX_UNKNOWNS} coefficient unknowns, "
            f"counted as (n+1)*C(n,k); every cell with n <= 8 fits"
        )


class Frozen:
    """An immutable value: equality, hash and repr read the fields named in ``_fields``.

    A constructor stores the fields once, with ``self.__dict__.update``; to
    assign or delete an attribute afterwards raises AttributeError. Values of
    different classes are unequal. The instance ``__dict__`` stays, so that
    ``cached_property`` can fill it and pickle and deepcopy restore it.
    """

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Face(Frozen):
    """An oriented k-face of the standard n-simplex.

    The vertex tuple orders the face and thereby orients it; ``sign`` flips
    that orientation without reordering. Canonical faces have increasing
    vertices and sign +1. The point n = 0 has the one face [0], as a
    cochain on it has one entry; every n < 0 is no cell (BadDegree).
    """

    _fields = ("n", "vertices", "sign")

    def __init__(self, n: int, vertices: Sequence[int], sign: int = 1) -> None:
        vertices = tuple(vertices)
        for v in vertices:
            exact_int(v)
        check_cell(n, len(vertices) - 1)
        if len(set(vertices)) != len(vertices):
            raise ValueError(f"repeated vertex label in {vertices}")
        if any(not 0 <= v <= n for v in vertices):
            raise ValueError(f"vertex labels must lie in 0..{n}")
        if type(sign) is not int or sign not in (1, -1):  # 1.0 and True equal 1
            raise ValueError("sign must be +1 or -1")
        self.__dict__.update(n=n, vertices=vertices, sign=sign)

    @property
    def degree(self) -> int:
        return len(self.vertices) - 1

    @property
    def is_canonical(self) -> bool:
        return self.sign == 1 and all(a < b for a, b in zip(self.vertices, self.vertices[1:]))


def permutation_sign(seq: Sequence[int]) -> int:
    """Sign of the permutation that sorts seq ascending: +1 even, -1 odd."""
    inversions = sum(
        1
        for i in range(len(seq))
        for j in range(i + 1, len(seq))
        if seq[i] > seq[j]
    )
    return -1 if inversions % 2 else 1


def canonicalize(face: Face) -> Face:
    """Sort the vertices and fold the sorting permutation's sign into the face."""
    if face.is_canonical:
        return face
    return Face(face.n, tuple(sorted(face.vertices)), face.sign * permutation_sign(face.vertices))


def enumerate_faces(n: int, k: int) -> list[Face]:
    """All canonical k-faces in lexicographic vertex order."""
    return [Face(n, combo) for combo in _face_positions(n, k)]


class ScaledVector(Frozen):
    """An exact rational vector as vec / q: ints ``vec``, an int q >= 1, gcd(q, *vec) = 1.

    The pair is canonical, so equality and hashing are a tuple compare.
    Subclasses define ``size(n, k)``, the length of ``vec``; operands on
    different cells meet in DegreeMismatch.
    """

    _fields = ("n", "k", "vec", "q")

    def _key(self) -> tuple:
        # written out, for speed: verify compares vectors on every sample
        return (self.n, self.k, self.vec, self.q)

    @classmethod
    def from_vector(cls, n: int, k: int, vec: Sequence[int], q: int = 1):
        """The vector vec / q, divided by its gcd; an entry that is not an int is a TypeError."""
        size = cls.size(n, k)
        if len(vec) != size:
            raise ValueError(f"expected a vector of length {size}")
        if type(q) is not int or q < 1:
            raise ValueError(f"the scale must be a positive integer, not {q!r}")
        if not set(map(type, vec)) <= {int}:
            raise TypeError("the entries of an exact vector must be ints")
        return cls._reduced(n, k, vec, q)

    @classmethod
    def _reduced(cls, n: int, k: int, vec: Sequence[int], q: int):
        """vec / q divided by its gcd, for ints and a q >= 1 that the caller made: none is checked.

        The entries tend to share most factors of a multi-word q, so a running gcd
        would stay long for many steps. L = sum((2i+1) * vec[i]) combines the entries,
        so gcd(q, L, *vec) = gcd(q, *vec), and g = gcd(q, L) is short: on 62-bit
        cochains and their forms it had 5 bits (median; 90th pct 12), against 7 (64)
        for weights 1, 2, 3, ... and 159 (1966) for a plain sum. One divmod pass by g
        then leaves v = d g + r with 0 <= r < g, and h = gcd(g, *r) is the gcd: the
        quotients stand when h = g, the entries when h = 1, and otherwise each entry
        is (g/h) d + r/h, as h divides g and every r.
        """
        if not q >> 64:
            g = math.gcd(q, *vec)
            if g != 1:
                vec = [v // g for v in vec]
                q //= g
            return cls._canonical(n, k, vec, q)
        g = math.gcd(q, sum(map(operator.mul, vec, range(1, 2 * len(vec), 2))))
        if g != 1:
            pairs = [divmod(v, g) for v in vec]
            h = math.gcd(g, *(r for _, r in pairs))
            if h == g:
                vec = [d for d, _ in pairs]
            elif h != 1:
                m = g // h
                vec = [m * d + r // h for d, r in pairs]
            q //= h
        return cls._canonical(n, k, vec, q)

    @classmethod
    def _canonical(cls, n: int, k: int, vec: Sequence[int], q: int):
        """vec / q for a pair that is canonical already: it is neither checked nor divided."""
        obj = object.__new__(cls)
        obj._assign(n, k, vec, q)
        return obj

    @classmethod
    def zero(cls, n: int, k: int):
        return cls.from_vector(n, k, [0] * cls.size(n, k))

    def _assign_rationals(self, n: int, k: int, values: Sequence[Fraction]) -> None:
        """Scale reduced rationals by the lcm q of their denominators: canonical with no gcd.

        For p^e exactly dividing q, the entry whose denominator holds p^e stays prime to p."""
        q = math.lcm(*(v.denominator for v in values))
        self._assign(n, k, [v.numerator * (q // v.denominator) for v in values], q)

    def _assign(self, n: int, k: int, vec: Sequence[int], q: int) -> None:
        self.__dict__.update(n=n, k=k, vec=tuple(vec), q=q)

    def __reduce__(self):
        return (type(self).from_vector, (self.n, self.k, self.vec, self.q))

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if (self.n, self.k) != (other.n, other.k):
            cells = f"(n={self.n}, k={self.k}) and (n={other.n}, k={other.k})"
            raise DegreeMismatch(f"operands on different cells {cells}")
        q = math.lcm(self.q, other.q)
        a, b = q // self.q, q // other.q
        vec = [a * x + b * y for x, y in zip(self.vec, other.vec)]
        return self.from_vector(self.n, self.k, vec, q)

    def __neg__(self):
        return self.from_vector(self.n, self.k, [-v for v in self.vec], self.q)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar: object):
        if type(scalar) is bool or not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        s = Fraction(scalar)
        vec = [s.numerator * v for v in self.vec]
        return self.from_vector(self.n, self.k, vec, self.q * s.denominator)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.vec)


class AffineFunction(ScaledVector):
    """b + sum_j g_j x^j, the one block of a 0-form: vec / q = (b, g_1, ..., g_n).

    ``AffineFunction(n, constant, gradient)`` reads its entries, and
    ``__call__`` the coordinates of a point, through ``exact_rational``: a
    float or a bool is rejected. Arithmetic, equality and the cell rule are
    those of every :class:`ScaledVector`; k is always 0.
    """

    def __init__(self, n: int, constant: object, gradient: Sequence[object]) -> None:
        values = [exact_rational(constant), *map(exact_rational, gradient)]
        if len(values) != self.size(n, 0):
            raise ValueError("gradient length must equal the dimension")
        self._assign_rationals(n, 0, values)

    @staticmethod
    def size(n: int, k: int) -> int:
        if k != 0:
            raise DegreeMismatch(f"an affine function has degree 0, not {k}")
        check_cell(n, k)
        return n + 1

    @classmethod
    def zero(cls, n: int) -> "AffineFunction":
        return super().zero(n, 0)

    @classmethod
    def const(cls, n: int, value: object) -> "AffineFunction":
        return cls(n, value, (0,) * n)

    @cached_property
    def constant(self) -> Fraction:
        return Fraction(self.vec[0], self.q)

    @cached_property
    def gradient(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(g, self.q) for g in self.vec[1:])

    def __call__(self, point: Sequence[object]) -> Fraction:
        pt = tuple(exact_rational(x) for x in point)
        if len(pt) != self.n:
            raise ValueError("point has the wrong dimension")
        return self.constant + sum((g * x for g, x in zip(self.gradient, pt) if g and x), Fraction(0))

    @property
    def is_constant(self) -> bool:
        return not any(self.vec[1:])


@cache
def _face_positions(n: int, k: int) -> dict[tuple[int, ...], int]:
    """Canonical k-faces, lexicographic, each mapped to its entry of a cochain."""
    check_cell(n, k)
    return {face: i for i, face in enumerate(itertools.combinations(range(n + 1), k + 1))}


class Cochain(ScaledVector):
    """Formal rational combination of the canonical k-faces.

    vec / q with one entry per canonical k-face, in lexicographic order as
    ``unknown_layout(n, k).faces``. ``Cochain(n, k, terms)`` builds it from
    a {increasing vertex tuple: coefficient} dict, rejecting a float or bool
    coefficient, and ``terms`` is the read-only view of the nonzero entries
    in face order, built on first use.
    """

    def __init__(
        self, n: int, k: int, terms: Mapping[tuple[int, ...], object] | None = None
    ) -> None:
        positions = _face_positions(n, k)
        values = [Fraction(0)] * len(positions)
        for key, coeff in (terms or {}).items():
            verts = tuple(key)
            for v in verts:
                exact_int(v)
            if len(verts) != k + 1:
                raise DegreeMismatch(f"key {verts} is not a degree-{k} face")
            if any(map(operator.ge, verts, verts[1:])):
                raise ValueError(f"cochain keys must be strictly increasing: {verts}")
            if verts[0] < 0 or verts[-1] > n:
                raise ValueError(f"vertex labels must lie in 0..{n}")
            values[positions[verts]] = exact_rational(coeff)
        self._assign_rationals(n, k, values)

    @staticmethod
    def size(n: int, k: int) -> int:
        return len(_face_positions(n, k))

    @cached_property
    def terms(self) -> Mapping[tuple[int, ...], Fraction]:
        q, vec = self.q, self.vec
        faces = _face_positions(self.n, self.k)
        return MappingProxyType({face: Fraction(v, q) for face, v in zip(faces, vec) if v})

    @classmethod
    def basis(cls, face: Face) -> "Cochain":
        """The dual of a single face (its sign folded into the coefficient)."""
        canon, n, k = canonicalize(face), face.n, face.degree
        vec = [0] * cls.size(n, k)
        vec[_face_positions(n, k)[canon.vertices]] = canon.sign
        return cls.from_vector(n, k, vec)

    @classmethod
    def from_terms(
        cls, n: int, k: int, items: Iterable[tuple[Face | Sequence[int], object]]
    ) -> "Cochain":
        """Accumulate (face, coefficient) pairs, canonicalizing and summing."""
        acc: dict[tuple[int, ...], Fraction] = {}
        for face, coeff in items:
            if not isinstance(face, Face):
                face = Face(n, tuple(face))
            elif face.n != n:
                raise DegreeMismatch(f"face in dimension {face.n} against a ({n}, {k}) cochain")
            canon = canonicalize(face)
            coeff = canon.sign * exact_rational(coeff)
            acc[canon.vertices] = acc.get(canon.vertices, Fraction(0)) + coeff
        return cls(n, k, acc)


def _random_draws(rng: Random, count: int) -> tuple[list[int], list[int]]:
    """count numerators rng.randint(-10, 10) and denominators rng.randint(1, 10), drawn in turn.

    randint(a, b) takes getrandbits of the bit length of b - a + 1 and draws
    again while the result is out of range: 5 bits below 21, then 4 bits
    below 10. Calling getrandbits directly gives the same draws and leaves
    rng in the same state, without randint's layers of calls per draw.
    """
    draw = rng.getrandbits
    numerators: list[int] = []
    denominators: list[int] = []
    for _ in range(count):
        p = draw(5)
        while p >= 21:
            p = draw(5)
        d = draw(4)
        while d >= 10:
            d = draw(4)
        numerators.append(p - 10)
        denominators.append(d + 1)
    return numerators, denominators


def random_cochain(rng: Random, n: int, k: int) -> Cochain:
    """Reproducible cochain with small rational coefficients (|p|, q <= 10).

    It draws per face, in lexicographic order, the numerator and then the
    denominator. The ints are its own, so they reach the gcd unchecked."""
    numerators, denominators = _random_draws(rng, Cochain.size(n, k))
    q = math.lcm(*denominators)
    return Cochain._reduced(n, k, [p * (q // d) for p, d in zip(numerators, denominators)], q)
