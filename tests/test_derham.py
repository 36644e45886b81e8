"""Pullback to a face, face integration, and the round trip from cochains through forms and back."""

import itertools
import math
import sys
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import whitneyforms
from helpers import pullback_integral, quadrature_integral, random_affine_form, simplex_integral
from whitneyforms import (
    AffineForm,
    AffineFunction,
    Cochain,
    DegreeMismatch,
    Face,
    derham,
    enumerate_faces,
    integrate_over_face,
    pullback,
    random_cochain,
    whitney,
    whitney_basis_form,
)
from whitneyforms import operators


def affine(n, const, *grad):
    return AffineFunction(n, Fraction(const), tuple(Fraction(g) for g in grad))


def test_simplex_integral_moments():
    # volume of the standard k-simplex, and first moments
    for k in range(0, 6):
        one = AffineFunction.const(k, 1)
        assert simplex_integral(one) == Fraction(1, math.factorial(k))
    f = affine(2, 0, 1, 0)  # t1 over the triangle
    assert simplex_integral(f) == Fraction(1, 6)
    g = affine(3, 2, 1, 1, 1)
    assert simplex_integral(g) == Fraction(2, 6) + Fraction(3, 24)


def test_integrate_rotational_form_over_edges():
    w = whitney_basis_form(Face(2, (1, 2)))  # x1 dx2 - x2 dx1
    assert integrate_over_face(w, Face(2, (1, 2))) == Fraction(1)
    assert integrate_over_face(w, Face(2, (0, 1))) == Fraction(0)
    assert integrate_over_face(w, Face(2, (0, 2))) == Fraction(0)
    assert integrate_over_face(w, Face(2, (2, 1))) == Fraction(-1)


def test_integrate_zero_form_is_vertex_evaluation():
    form = AffineForm(2, 0, {(): affine(2, 1, -1, -1)})  # 1 - x1 - x2
    assert integrate_over_face(form, Face(2, (0,))) == Fraction(1)
    assert integrate_over_face(form, Face(2, (1,))) == Fraction(0)


def test_integrate_volume_form():
    n = 3
    form = AffineForm(
        n, n, {(1, 2, 3): AffineFunction.const(n, math.factorial(n))}
    )
    assert integrate_over_face(form, Face(n, (0, 1, 2, 3))) == Fraction(1)


def test_integrate_degree_mismatch():
    form = AffineForm(2, 1, {(1,): affine(2, 1, 0, 0)})
    with pytest.raises(DegreeMismatch):
        integrate_over_face(form, Face(2, (0, 1, 2)))


@pytest.mark.parametrize("n", range(1, 5))
def test_pullback_and_integral_match_the_oracle_on_every_vertex_order(n):
    # every vertex order of every t-face, k <= t <= n: a non-canonical order
    # reparametrises the t-simplex, and only integration applies the sign
    rng = Random(100 + n)
    for k in range(n + 1):
        forms = [random_affine_form(rng, n, k, bits) for bits in (0, 62)]
        for t in range(k, n + 1):
            for vertices in itertools.permutations(range(n + 1), t + 1):
                face = Face(n, vertices)
                for form in forms:
                    assert pullback(form, face) == helpers.pullback(form, face)
                    if t == k:
                        for signed in (face, Face(n, vertices, -1)):
                            assert integrate_over_face(form, signed) == pullback_integral(
                                form, signed
                            )


def test_the_pullback_oracles_stay_independent():
    # the Fraction pullback, its parametrization and the simplex moments are
    # defined in helpers, which binds none of the integer routes they check
    for oracle in (helpers.pullback, helpers.face_parametrization, helpers.simplex_integral):
        assert oracle.__module__ == "helpers"
    checked = (whitneyforms.pullback, whitneyforms.integrate_over_face, operators.pullback_rows)
    assert not any(value is route for value in vars(helpers).values() for route in checked)


def test_integrate_over_face_reads_the_cached_integral_rows(monkeypatch):
    # once D*(k+1)! is cached, integrating over a face of any vertex order
    # and sign builds no pullback and no integral row
    def refuse(*args):
        raise AssertionError("a face row was built")

    form = random_affine_form(Random(7), 4, 2, 62)
    faces = [Face(4, (3, 1, 4)), Face(4, (0, 2, 1), -1), Face(4, (1, 2, 3))]
    expected = [pullback_integral(form, face) for face in faces]
    operators.derham_rows(4, 2)
    for module in (sys.modules["whitneyforms.derham"], operators):
        for name in ("pullback_rows", "integral_row"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert [integrate_over_face(form, face) for face in faces] == expected


def test_pullback_and_integral_refuse_a_mismatched_face():
    form = random_affine_form(Random(5), 3, 2)
    with pytest.raises(DegreeMismatch):
        pullback(form, Face(3, (2, 0)))  # t = 1 < k = 2
    with pytest.raises(DegreeMismatch):
        pullback(form, Face(4, (0, 1, 2)))
    with pytest.raises(DegreeMismatch):
        integrate_over_face(form, Face(4, (0, 1, 2)))


def test_derham_collects_all_faces():
    w = whitney_basis_form(Face(2, (1, 2)))
    assert derham(w) == Cochain.basis(Face(2, (1, 2)))


def test_derham_builds_its_cochain_from_the_integer_vector(monkeypatch):
    # one integer matvec over q * (k+1)!: no Fraction per face, and no dict
    # of terms for the cochain constructor to validate and sort again
    def refuse(*args, **kwargs):
        raise AssertionError("derham left the integer path")

    rng = Random(11)
    cells = [(3, 1), (5, 2), (7, 3)]
    forms = [random_affine_form(rng, n, k, bits) for n, k in cells for bits in (0, 62)]
    forms += [AffineForm.zero(2, 2), whitney_basis_form(Face(4, (3, 1)))]
    expected = []
    for f in forms:
        faces = enumerate_faces(f.n, f.k)
        expected.append(Cochain(f.n, f.k, {g.vertices: integrate_over_face(f, g) for g in faces}))
    monkeypatch.setattr(sys.modules["whitneyforms.derham"], "Fraction", refuse)
    monkeypatch.setattr(Cochain, "__init__", refuse)
    for form, cochain in zip(forms, expected):
        assert derham(form) == cochain


def test_round_trip_on_basis_cochains():
    for n in range(1, 5):
        for k in range(n + 1):
            for face in enumerate_faces(n, k):
                c = Cochain.basis(face)
                assert derham(whitney(c)) == c


@given(
    st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
    st.integers(0, 10 ** 6),
)
@settings(max_examples=30, deadline=None)
def test_round_trip_on_random_cochains(nk, seed):
    n, k = nk
    c = random_cochain(Random(seed), n, k)
    assert derham(whitney(c)) == c


@given(
    st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
    st.integers(0, 10 ** 6),
)
@settings(max_examples=30, deadline=None)
def test_integration_is_linear(nk, seed):
    n, k = nk
    rng = Random(seed)
    a = random_affine_form(rng, n, k)
    b = random_affine_form(rng, n, k)
    for face in enumerate_faces(n, k):
        assert integrate_over_face(a + b, face) == integrate_over_face(
            a, face
        ) + integrate_over_face(b, face)


@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n), st.integers(0, 10 ** 6))
    )
)
@settings(max_examples=30, deadline=None)
def test_integration_is_alternating(case):
    n, k, seed = case
    form = random_affine_form(Random(seed), n, k)
    for face in enumerate_faces(n, k):
        value = integrate_over_face(form, face)
        flipped = Face(n, face.vertices, sign=-1)
        assert integrate_over_face(form, flipped) == -value
        swapped = Face(n, (face.vertices[1], face.vertices[0]) + face.vertices[2:])
        assert integrate_over_face(form, swapped) == -value


def test_exact_integrals_match_float_quadrature():
    rng = Random(2024)
    for _ in range(60):
        n = rng.randint(1, 3)
        k = rng.randint(0, n)
        form = random_affine_form(rng, n, k)
        faces = enumerate_faces(n, k)
        face = faces[rng.randrange(len(faces))]
        exact = float(integrate_over_face(form, face))
        approx = quadrature_integral(form, face)
        assert abs(exact - approx) <= 1e-12
