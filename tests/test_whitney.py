"""The Whitney construction itself."""

import math
import sys
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import barycentric_differential, barycentric_functions, evaluate
from whitneyforms import (
    AffineForm,
    AffineFunction,
    Cochain,
    Face,
    enumerate_faces,
    is_constant,
    random_cochain,
    render_form,
    whitney,
    whitney_basis_form,
)


def test_the_package_names_whitney_and_derham_are_the_functions():
    # the functions shadow their submodules on the package, so an
    # "import ... as" of the submodule binds the function; sys.modules holds the module
    import whitneyforms
    import whitneyforms.derham as derham_name
    import whitneyforms.whitney as whitney_name

    assert whitneyforms.whitney is whitney_name is sys.modules["whitneyforms.whitney"].whitney
    assert whitneyforms.derham is derham_name is sys.modules["whitneyforms.derham"].derham


def test_barycentric_differential():
    # d nu_0 = -sum_i dx^i and d nu_i = dx^i, as constant AffineForms
    for n in range(1, 5):
        d0 = barycentric_differential(n, 0)
        assert d0 == AffineForm(n, 1, {(i,): -1 for i in range(1, n + 1)})
        assert is_constant(d0)
    assert barycentric_differential(2, 2) == AffineForm(2, 1, {(2,): 1})
    with pytest.raises(ValueError):
        barycentric_differential(2, 3)


def test_vertex_forms_are_barycentric_functions():
    for n in range(1, 5):
        nu = barycentric_functions(n)
        for i in range(n + 1):
            form = whitney_basis_form(Face(n, (i,)))
            assert form == AffineForm(n, 0, {(): nu[i]})


def test_edge_form_in_dimension_two():
    w = whitney_basis_form(Face(2, (1, 2)))
    assert w == AffineForm(
        2,
        1,
        {
            (1,): AffineFunction(2, Fraction(0), (Fraction(0), Fraction(-1))),
            (2,): AffineFunction(2, Fraction(0), (Fraction(1), Fraction(0))),
        },
    )
    assert render_form(w) == "x1 dx2 - x2 dx1"


def test_edge_form_touching_origin():
    w = whitney_basis_form(Face(2, (0, 1)))
    assert render_form(w) == "(1 - x2) dx1 + x1 dx2"


def test_top_form_is_scaled_volume_form():
    for n in range(1, 6):
        w = whitney_basis_form(Face(n, tuple(range(n + 1))))
        expected = AffineForm(
            n,
            n,
            {tuple(range(1, n + 1)): AffineFunction.const(n, math.factorial(n))},
        )
        assert w == expected


def test_orientation_reversal_negates_the_form():
    face = Face(3, (1, 2))
    assert whitney_basis_form(Face(3, (2, 1))) == -whitney_basis_form(face)
    assert whitney_basis_form(Face(3, (1, 2), sign=-1)) == -whitney_basis_form(face)


def test_whitney_of_basis_cochain_matches_basis_form():
    for n in range(1, 4):
        for k in range(n + 1):
            for face in enumerate_faces(n, k):
                assert whitney(Cochain.basis(face)) == whitney_basis_form(face)


def test_whitney_vanishing_on_opposite_face():
    # the form of [1,2] in the 3-simplex restricts to zero along directions
    # of the disjoint edge [0,3]
    w = whitney_basis_form(Face(3, (1, 2)))
    p = (Fraction(0), Fraction(0), Fraction(1, 2))  # midpoint of edge [0,3]
    direction = (Fraction(0), Fraction(0), Fraction(1))
    assert evaluate(w, p, [direction]) == Fraction(0)


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
       st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_whitney_is_linear(nk, seed):
    n, k = nk
    rng = Random(seed)
    a = random_cochain(rng, n, k)
    b = random_cochain(rng, n, k)
    assert whitney(a + b) == whitney(a) + whitney(b)
    assert whitney(Fraction(-3, 2) * a) == Fraction(-3, 2) * whitney(a)
    assert whitney(Cochain.zero(n, k)).is_zero()
