"""Wedge products, pullbacks, evaluation, and the form JSON format."""

import copy
import itertools
import json
import math
import pickle
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import coeffs_add, coeffs_scale, random_affine_form
from whitneyforms import (
    AffineForm,
    AffineFunction,
    DegreeOverflow,
    DimensionMismatch,
    Face,
    evaluate,
    form_from_json,
    form_to_json,
    is_constant,
    pullback,
    vertex_point,
    wedge,
)
from whitneyforms import forms


def dx(n, *idx):
    return AffineForm(n, len(idx), {idx: 1})


def affine(n, const, *grad):
    return AffineFunction(n, Fraction(const), tuple(Fraction(g) for g in grad))


def test_constant_form_normalization():
    # a constant form is an AffineForm built from rationals: zero gradient slots
    f = AffineForm(3, 2, {(1, 2): Fraction(0), (1, 3): Fraction(2)})
    assert f.coeffs == {(1, 3): AffineFunction.const(3, 2)}
    assert is_constant(f)
    with pytest.raises(ValueError):
        AffineForm(3, 2, {(2, 1): Fraction(1)})
    with pytest.raises(DegreeOverflow):
        AffineForm(2, 3, {})
    for bad in (0.5, False):
        with pytest.raises(ValueError, match="not an exact rational"):
            AffineForm(3, 2, {(1, 2): bad})


def test_wedge_basis_examples():
    a = dx(3, 1) + dx(3, 2)
    assert wedge(a, dx(3, 3)) == AffineForm(3, 2, {(1, 3): 1, (2, 3): 1})
    assert wedge(dx(3, 2), dx(3, 1)) == AffineForm(3, 2, {(1, 2): -1})
    assert wedge(dx(3, 1), dx(3, 1)).is_zero()


def test_wedge_degree_overflow():
    with pytest.raises(DegreeOverflow):
        wedge(dx(2, 1), wedge(dx(2, 1), dx(2, 2)))


def test_wedge_sign_matches_sorting_parity():
    for perm in itertools.permutations((1, 2, 3)):
        product = dx(3, perm[0])
        for i in perm[1:]:
            product = wedge(product, dx(3, i))
        inversions = sum(
            1 for a in range(3) for b in range(a + 1, 3) if perm[a] > perm[b]
        )
        want = -1 if inversions % 2 else 1
        assert product == AffineForm(3, 3, {(1, 2, 3): want})


def test_wedge_with_an_affine_zero_form_scales():
    # the affine function f as a 0-form on the left of wedge multiplies by f
    f = affine(2, 0, 1, 0)  # x1
    form = wedge(AffineForm(2, 0, {(): f}), dx(2, 2))
    assert form.coeffs == {(2,): f}
    assert form == AffineForm(2, 1, {(2,): f})


def test_wedge_right_factor_must_be_constant():
    x1 = AffineForm(2, 0, {(): affine(2, 0, 1, 0)})
    with pytest.raises(ValueError, match="constant form"):
        wedge(dx(2, 1), AffineForm(2, 1, {(2,): affine(2, 0, 1, 0)}))
    with pytest.raises(ValueError, match="constant form"):
        wedge(dx(2, 1), x1)
    # a constant right factor given with rational or AffineFunction coefficients
    assert wedge(x1, AffineForm(2, 1, {(2,): affine(2, 3, 0, 0)})) == AffineForm(
        2, 1, {(2,): affine(2, 0, 3, 0)}
    )
    assert wedge(dx(2, 1), AffineForm(2, 0, {(): 1})) == dx(2, 1)
    with pytest.raises(DimensionMismatch):
        wedge(dx(2, 1), dx(3, 2))


def test_pullback_of_rotational_edge_form():
    # x1 dx2 - x2 dx1 restricted to the edge from e1 to e2 is the unit form dt
    form = AffineForm(
        2, 1, {(1,): affine(2, 0, 0, -1), (2,): affine(2, 0, 1, 0)}
    )
    pulled = pullback(form, Face(2, (1, 2)))
    assert pulled == AffineForm(1, 1, {(1,): affine(1, 1, 0)})


def test_pullback_ignores_face_sign():
    form = AffineForm(2, 1, {(1,): affine(2, 1, 0, 0)})
    plus = pullback(form, Face(2, (0, 1)))
    minus = pullback(form, Face(2, (0, 1), sign=-1))
    assert plus == minus


def test_pullback_to_lower_degree_face_rejected():
    form = AffineForm(2, 1, {(1,): affine(2, 1, 0, 0)})
    with pytest.raises(DimensionMismatch):
        pullback(form, Face(2, (1,)))


def test_pullback_of_zero_form_is_composition():
    form = AffineForm(2, 0, {(): affine(2, 1, -1, 0)})  # 1 - x1
    pulled = pullback(form, Face(2, (1,)))
    assert pulled == AffineForm(0, 0, {(): AffineFunction(0, Fraction(0), ())})
    pulled_edge = pullback(form, Face(2, (0, 1)))
    assert pulled_edge == AffineForm(1, 0, {(): affine(1, 1, -1)})


def test_evaluate_against_hand_values():
    form = AffineForm(2, 1, {(2,): affine(2, 0, 1, 0)})  # x1 dx2
    e1 = (Fraction(1), Fraction(0))
    e2 = (Fraction(0), Fraction(1))
    assert evaluate(form, (Fraction(1, 2), Fraction(0)), [e2]) == Fraction(1, 2)
    area = dx(2, 1, 2)
    assert evaluate(area, (Fraction(0), Fraction(0)), [e2, e1]) == Fraction(-1)


def test_evaluate_checks_arity():
    form = AffineForm(2, 1, {(1,): affine(2, 1, 0, 0)})
    with pytest.raises(DimensionMismatch):
        evaluate(form, (Fraction(0), Fraction(0)), [])


def test_is_constant():
    assert is_constant(AffineForm(2, 1, {(1,): affine(2, 3, 0, 0)}))
    assert not is_constant(AffineForm(2, 1, {(1,): affine(2, 0, 1, 0)}))
    assert is_constant(AffineForm.zero(2, 1))


def test_form_json_round_trip():
    form = AffineForm(
        2, 1, {(1,): affine(2, 1, 0, -1), (2,): affine(2, 0, 1, 0)}
    )
    data = form_to_json(form)
    assert data == {
        "n": 2,
        "k": 1,
        "terms": [
            {"dx": [1], "const": "1", "grad": ["0", "-1"]},
            {"dx": [2], "const": "0", "grad": ["1", "0"]},
        ],
    }
    assert form_from_json(json.loads(json.dumps(data))) == form


def test_form_json_folds_unsorted_dx():
    data = {
        "n": 2,
        "k": 2,
        "terms": [
            {"dx": [2, 1], "const": "1", "grad": ["0", "0"]},
            {"dx": [1, 2], "const": "3", "grad": ["0", "0"]},
        ],
    }
    form = form_from_json(data)
    assert form == AffineForm(2, 2, {(1, 2): affine(2, 2, 0, 0)})


def test_form_json_rejects_garbage():
    with pytest.raises(ValueError):
        form_from_json({"n": 2, "k": 1, "terms": [{"dx": [1, 1], "const": "1", "grad": ["0", "0"]}]})
    with pytest.raises(ValueError):
        form_from_json({"n": 2, "k": 1, "terms": [{"dx": [1], "const": "1"}]})
    with pytest.raises(ValueError):
        form_from_json({"n": 2})
    # JSON strings where index and gradient lists belong
    with pytest.raises(ValueError, match="must be lists"):
        form_from_json({"n": 2, "k": 1, "terms": [{"dx": "2", "const": "1", "grad": "34"}]})
    with pytest.raises(ValueError, match="must be lists"):
        form_from_json({"n": 2, "k": 1, "terms": [{"dx": [2], "const": "1", "grad": "34"}]})



@pytest.mark.parametrize(
    "data",
    [
        {"n": 2, "k": 1, "terms": [{"dx": [1.9], "const": "1", "grad": ["0", "0"]}]},
        {"n": 2, "k": 1, "terms": [{"dx": [True], "const": "1", "grad": ["0", "0"]}]},
        {"n": 2, "k": 1, "terms": [{"dx": ["2"], "const": "1", "grad": ["0", "0"]}]},
        {"n": 2.7, "k": 1, "terms": []},
        {"n": 2, "k": True, "terms": []},
        {"n": 2, "k": "1", "terms": []},
    ],
)
def test_form_json_takes_only_integer_fields(data):
    # int() would read these as dx^1, dx^1, dx^2, n = 2 and k = 1
    with pytest.raises(ValueError, match="not an integer"):
        form_from_json(data)


def test_form_json_refuses_a_huge_cell_before_allocating(monkeypatch):
    # a (30, 15) form has 31 * C(30, 15) coefficients: it must be refused unbuilt
    def unbuilt(*args, **kwargs):
        raise AssertionError("the form was built")

    monkeypatch.setattr(forms, "AffineForm", unbuilt)
    monkeypatch.setattr(forms, "unknown_layout", unbuilt)
    for n, k in [(30, 15), (9, 4), (10**30, 1)]:
        with pytest.raises(ValueError, match=f"more than {forms.MAX_UNKNOWNS} coefficient unknowns"):
            form_from_json({"n": n, "k": k, "terms": []})
    monkeypatch.undo()
    assert form_from_json({"n": 8, "k": 4, "terms": []}) == AffineForm(8, 4)
    # a form built in the program is not capped
    assert AffineForm(9, 4).is_zero() and len(AffineForm(9, 4).vec) > forms.MAX_UNKNOWNS


small_form_cases = st.integers(1, 3).flatmap(
    lambda n: st.integers(0, n).flatmap(
        lambda k: st.tuples(st.just(n), st.just(k), st.integers(0, 10 ** 6))
    )
)


@given(small_form_cases)
@settings(max_examples=40, deadline=None)
def test_pullback_is_linear(case):
    n, k, seed = case
    rng = Random(seed)
    a = random_affine_form(rng, n, k)
    b = random_affine_form(rng, n, k)
    for face in [Face(n, tuple(range(k + 1))), Face(n, tuple(range(n - k, n + 1)))]:
        assert pullback(a + b, face) == pullback(a, face) + pullback(b, face)
        assert pullback(3 * a, face) == 3 * pullback(a, face)


@given(st.integers(1, 4), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_wedge_anticommutes_on_one_forms(n, seed):
    rng = Random(seed)
    a = AffineForm(
        n, 1, {(i,): Fraction(rng.randint(-5, 5)) for i in range(1, n + 1)}
    )
    b = AffineForm(
        n, 1, {(i,): Fraction(rng.randint(-5, 5)) for i in range(1, n + 1)}
    )
    if n >= 2:
        assert wedge(a, b) == -wedge(b, a)
        assert wedge(a, a).is_zero()


# The vector-backed AffineForm against a plain {multi-index: AffineFunction}
# dict oracle: n = 0..4 and every k = 0..n, so k = 0, k = n and the point
# n = 0 all occur; blocks are present or absent at random, and may be zero.
rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def coefficient_dicts(draw):
    n = draw(st.integers(0, 4))
    k = draw(st.integers(0, n))

    def coeffs():
        return {
            idx: AffineFunction(n, draw(rationals), tuple(draw(rationals) for _ in range(n)))
            for idx in itertools.combinations(range(1, n + 1), k)
            if draw(st.booleans())
        }

    return n, k, coeffs(), coeffs(), draw(rationals)


def assert_canonical(form):
    assert type(form.q) is int and form.q >= 1
    assert all(type(v) is int for v in form.vec)
    assert math.gcd(form.q, *form.vec) == 1
    if not any(form.vec):
        assert form.q == 1 and form.is_zero()


@given(coefficient_dicts())
@settings(max_examples=80, deadline=None)
def test_vector_form_matches_the_dict_oracle(case):
    n, k, a, b, s = case
    f, g = AffineForm(n, k, a), AffineForm(n, k, b)
    assert AffineForm(n, k, f.coeffs) == f
    assert dict(f.coeffs) == coeffs_add(a, {})
    results = {
        "sum": (f + g, coeffs_add(a, b)),
        "difference": (f - g, coeffs_add(a, coeffs_scale(Fraction(-1), b))),
        "negation": (-f, coeffs_scale(Fraction(-1), coeffs_add(a, {}))),
        "left multiple": (s * f, coeffs_scale(s, coeffs_add(a, {}))),
        "right multiple": (f * s, coeffs_scale(s, coeffs_add(a, {}))),
        "integer multiple": (3 * f, coeffs_scale(Fraction(3), coeffs_add(a, {}))),
    }
    for name, (form, oracle) in results.items():
        assert dict(form.coeffs) == oracle, name
        assert form == AffineForm(n, k, oracle), name
        assert_canonical(form)
    for form in (f, g, f - f, AffineForm.zero(n, k)):
        assert_canonical(form)
    assert (f - f).is_zero() and (f - f).q == 1


@given(coefficient_dicts(), st.integers(1, 50))
@settings(max_examples=60, deadline=None)
def test_equal_forms_hash_equal(case, m):
    n, k, a, _, s = case
    f = AffineForm(n, k, a)
    rebuilt = [
        AffineForm.from_vector(n, k, f.vec, f.q),
        # the same rationals over a common factor m reduce to the same pair
        AffineForm.from_vector(n, k, [m * v for v in f.vec], m * f.q),
        f + AffineForm.zero(n, k),
        (f * Fraction(m, 7)) * Fraction(7, m),
        AffineForm(n, k, dict(f.coeffs)),
    ]
    if s:
        rebuilt.append((s * f) * (1 / s))
    dict(f.coeffs)  # the cached view does not travel with a copy or a pickle
    rebuilt += [copy.deepcopy(f), pickle.loads(pickle.dumps(f))]
    for form in rebuilt:
        assert form == f and hash(form) == hash(f)
        assert (form.vec, form.q) == (f.vec, f.q)
    assert len({f, *rebuilt}) == 1


@given(st.integers(1, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_pullback_onto_a_vertex_is_a_point_form(n, data):
    # a 0-form pulled back to a vertex lives on the 0-simplex: n = 0, one unknown
    f = AffineFunction(n, data.draw(rationals), tuple(data.draw(rationals) for _ in range(n)))
    v = data.draw(st.integers(0, n))
    pulled = pullback(AffineForm(n, 0, {(): f}), Face(n, (v,)))
    value = f(vertex_point(n, v))
    assert (pulled.n, pulled.k) == (0, 0)
    assert (pulled.vec, pulled.q) == ((value.numerator,), value.denominator)
    assert pulled == AffineForm(0, 0, {(): AffineFunction(0, value, ())})
    assert pulled == AffineForm.from_vector(0, 0, [value.numerator], value.denominator)
    assert_canonical(pulled)


def test_from_vector_rejects_bad_input():
    with pytest.raises(ValueError, match="length"):
        AffineForm.from_vector(2, 1, [0] * 5)
    for q in (0, -1, 1.0, True, Fraction(1)):
        with pytest.raises(ValueError, match="positive integer"):
            AffineForm.from_vector(2, 1, [0] * 6, q)
    with pytest.raises(TypeError):
        AffineForm.from_vector(2, 1, [0.5] + [0] * 5)
    with pytest.raises(DegreeOverflow):
        AffineForm.from_vector(2, 3, [])
    form = AffineForm.from_vector(2, 1, [2, 0, 4, 0, 0, 6], 4)
    assert (form.vec, form.q) == ((1, 0, 2, 0, 0, 3), 2)
    with pytest.raises(AttributeError):
        form.q = 1
