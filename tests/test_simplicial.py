"""Faces, orientations, barycentric coordinates, and cochains."""

import itertools
import json
import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import LinearSolver, bubble_sort_parity, count_subsets, nullspace, rank
from whitneyforms import (
    AffineForm,
    AffineFunction,
    BadDegree,
    Cochain,
    DegreeMismatch,
    Face,
    barycentric_functions,
    canonicalize,
    cochain_eval,
    cochain_from_json,
    cochain_to_json,
    enumerate_faces,
    evaluate,
    face_parametrization,
    permutation_sign,
    random_cochain,
    vertex_point,
)
from whitneyforms import linalg, simplicial


def test_face_validation():
    Face(2, (0, 1))
    with pytest.raises(ValueError):
        Face(2, (0, 0))
    with pytest.raises(ValueError):
        Face(2, (0, 3))
    with pytest.raises(ValueError):
        Face(2, (0, 1), sign=2)
    with pytest.raises(BadDegree):
        Face(2, (0, 1, 2, 2))  # too many labels also means a repeat; length first


def test_face_too_many_vertices():
    with pytest.raises(BadDegree):
        Face(1, (0, 1, 1))


def test_canonicalize_examples():
    f = canonicalize(Face(2, (2, 0, 1)))
    assert f.vertices == (0, 1, 2) and f.sign == 1
    g = canonicalize(Face(2, (2, 1)))
    assert g.vertices == (1, 2) and g.sign == -1
    h = canonicalize(Face(2, (1, 2), sign=-1))
    assert h.vertices == (1, 2) and h.sign == -1


@given(st.permutations(list(range(5))))
def test_permutation_sign_matches_bubble_sort(perm):
    assert permutation_sign(perm) == bubble_sort_parity(perm)


def test_enumerate_faces_counts():
    assert len(enumerate_faces(4, 2)) == 10
    for n in range(1, 6):
        for k in range(n + 1):
            faces = enumerate_faces(n, k)
            assert len(faces) == count_subsets(n + 1, k + 1)
            assert all(f.is_canonical for f in faces)
    with pytest.raises(BadDegree):
        enumerate_faces(3, 4)


def test_barycentric_partition_of_unity():
    for n in range(1, 6):
        nu = barycentric_functions(n)
        total = nu[0]
        for f in nu[1:]:
            total = total + f
        assert total == AffineFunction.const(n, 1)


def test_barycentric_vertex_values():
    for n in range(1, 5):
        nu = barycentric_functions(n)
        for i in range(n + 1):
            for j in range(n + 1):
                want = Fraction(1) if i == j else Fraction(0)
                assert nu[i](vertex_point(n, j)) == want


def test_barycentric_at_interior_point():
    nu = barycentric_functions(3)
    p = (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))
    assert nu[0](p) == Fraction(1, 4)


def test_face_parametrization_edge():
    param = face_parametrization(Face(2, (1, 2)))
    assert param((Fraction(0),)) == (Fraction(1), Fraction(0))
    assert param((Fraction(1),)) == (Fraction(0), Fraction(1))
    assert param((Fraction(1, 3),)) == (Fraction(2, 3), Fraction(1, 3))


def test_face_parametrization_hits_vertices():
    face = Face(3, (2, 0, 3))
    param = face_parametrization(face)
    corners = [
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ]
    for t, label in zip(corners, face.vertices):
        assert param(t) == vertex_point(3, label)


def test_cochain_normalization():
    c = Cochain(2, 1, {(0, 1): Fraction(0), (1, 2): Fraction(3, 2)})
    assert c.terms == {(1, 2): Fraction(3, 2)}
    with pytest.raises(ValueError):
        Cochain(2, 1, {(1, 0): Fraction(1)})
    with pytest.raises(DegreeMismatch):
        Cochain(2, 1, {(0, 1, 2): Fraction(1)})


def test_exact_types_reject_floats_and_bools():
    for bad in (0.1, 0.5, True):
        with pytest.raises(ValueError, match="not an exact rational"):
            Cochain(1, 0, {(0,): bad})
        with pytest.raises(ValueError, match="not an exact rational"):
            Cochain.from_terms(1, 0, [((0,), bad)])
        with pytest.raises(ValueError, match="not an exact rational"):
            AffineFunction(1, bad, (Fraction(1, 2),))
        with pytest.raises(ValueError, match="not an exact rational"):
            AffineFunction(1, Fraction(0), (bad,))
        with pytest.raises(ValueError, match="not an exact rational"):
            AffineFunction.const(1, bad)
        # points, parameter points and tangent vectors are exact inputs too
        with pytest.raises(ValueError, match="not an exact rational"):
            AffineFunction(1, 0, (Fraction(1),))((bad,))
        with pytest.raises(ValueError, match="not an exact rational"):
            face_parametrization(Face(2, (1, 2)))((bad,))
        form = AffineForm(2, 1, {(1,): AffineFunction(2, 1, (Fraction(1), Fraction(0)))})
        with pytest.raises(ValueError, match="not an exact rational"):
            evaluate(form, (bad, 0), [(1, 0)])
        with pytest.raises(ValueError, match="not an exact rational"):
            evaluate(form, (0, 0), [(bad, 0)])
        # determinant entries, and the dense oracles' entries and right-hand sides
        with pytest.raises(ValueError, match="not an exact rational"):
            linalg.det([[Fraction(1), bad], [0, 1]])
        with pytest.raises(ValueError, match="not an exact rational"):
            rank([[Fraction(1), bad]])
        with pytest.raises(ValueError, match="not an exact rational"):
            nullspace([[bad]], 1)
        with pytest.raises(ValueError, match="not an exact rational"):
            LinearSolver([[bad]])
        with pytest.raises(ValueError, match="not an exact rational"):
            LinearSolver([[1]]).solve([bad])
    assert simplicial.exact_rational is linalg.exact_rational
    assert linalg.det([[1, Fraction(1, 10)], [0, 3]]) == Fraction(3)
    assert rank([[1, Fraction(1, 10)]]) == 1
    assert LinearSolver([[1]]).solve([Fraction(1, 10)]) == (Fraction(1, 10),)
    assert LinearSolver([[1]]).solve([3]) == (Fraction(3),)
    assert Cochain(1, 0, {(0,): 1}).terms == {(0,): Fraction(1)}
    assert AffineFunction(1, 2, (Fraction(1, 2),)).constant == Fraction(2)
    assert AffineFunction(1, 0, (Fraction(1),))((Fraction(1, 10),)) == Fraction(1, 10)
    assert face_parametrization(Face(2, (1, 2)))((Fraction(1, 2),)) == (Fraction(1, 2),) * 2
    assert evaluate(form, (Fraction(1, 2), 0), [(3, 0)]) == Fraction(9, 2)


def test_cochain_eval_applies_orientation():
    c = Cochain(2, 1, {(1, 2): Fraction(3, 2), (0, 2): Fraction(5)})
    assert cochain_eval(c, Face(2, (2, 0))) == Fraction(-5)
    assert cochain_eval(c, Face(2, (1, 2))) == Fraction(3, 2)
    assert cochain_eval(c, Face(2, (0, 1))) == Fraction(0)
    with pytest.raises(DegreeMismatch):
        cochain_eval(c, Face(2, (0,)))


def test_cochain_from_terms_folds_orientations():
    c = Cochain.from_terms(2, 1, [((2, 1), Fraction(1)), ((1, 2), Fraction(1))])
    assert c.terms == {}
    d = Cochain.from_terms(2, 1, [((2, 0), 2), ((0, 2), 1)])
    assert d.terms == {(0, 2): Fraction(-1)}


def test_cochain_arithmetic():
    a = Cochain(2, 1, {(0, 1): Fraction(1)})
    b = Cochain(2, 1, {(0, 1): Fraction(-1), (1, 2): Fraction(2)})
    assert (a + b).terms == {(1, 2): Fraction(2)}
    assert (a - a).terms == {}
    assert (3 * b).terms == {(0, 1): Fraction(-3), (1, 2): Fraction(6)}
    with pytest.raises(DegreeMismatch):
        a + Cochain(2, 0, {(0,): Fraction(1)})


def test_random_cochain_is_reproducible():
    a = random_cochain(Random(7), 3, 1)
    b = random_cochain(Random(7), 3, 1)
    assert a == b
    assert set(a.terms) <= {f.vertices for f in enumerate_faces(3, 1)}
    values = [v for v in a.terms.values()]
    assert all(abs(v) <= 10 and v.denominator <= 10 for v in values)


def test_random_cochain_draws_face_by_face():
    # the same draws, in the same order, as over enumerate_faces
    for seed in range(4):
        for n in range(1, 6):
            for k in range(n + 1):
                rng, reference = Random(seed), Random(seed)
                for _ in range(2):
                    expected = Cochain(n, k, {
                        face.vertices: Fraction(reference.randint(-10, 10), reference.randint(1, 10))
                        for face in enumerate_faces(n, k)
                    })
                    assert random_cochain(rng, n, k) == expected


def test_cochain_json_round_trip():
    c = Cochain(2, 1, {(0, 1): Fraction(3, 2), (1, 2): Fraction(-5)})
    data = cochain_to_json(c)
    assert data == {
        "n": 2,
        "k": 1,
        "terms": [
            {"face": [0, 1], "coeff": "3/2"},
            {"face": [1, 2], "coeff": "-5"},
        ],
    }
    assert cochain_from_json(json.loads(json.dumps(data))) == c


def test_cochain_json_accepts_unsorted_faces():
    data = {
        "n": 2,
        "k": 1,
        "terms": [
            {"face": [2, 1], "coeff": "1"},
            {"face": [1, 2], "coeff": "3"},
        ],
    }
    assert cochain_from_json(data) == Cochain(2, 1, {(1, 2): Fraction(2)})


def test_cochain_json_rejects_garbage():
    with pytest.raises(ValueError):
        cochain_from_json({"n": 2, "k": 1, "terms": [{"face": [0, 1]}]})
    with pytest.raises(ValueError):
        cochain_from_json({"n": 2, "k": 1, "terms": [{"face": [0, 1], "coeff": "0.5"}]})
    with pytest.raises(ValueError):
        cochain_from_json({"k": 1, "terms": []})
    # a JSON string where the vertex list belongs is not read as its characters
    with pytest.raises(ValueError, match="must be a list"):
        cochain_from_json({"n": 2, "k": 1, "terms": [{"face": "12", "coeff": "1"}]})



@pytest.mark.parametrize(
    "data",
    [
        {"n": 2, "k": 1, "terms": [{"face": [0.5, 1.7], "coeff": "1"}]},
        {"n": 2, "k": 1, "terms": [{"face": [True, "2"], "coeff": "1"}]},
        {"n": 2, "k": 1, "terms": [{"face": [0, 1.0], "coeff": "1"}]},
        {"n": 2.7, "k": 1, "terms": []},
        {"n": "2", "k": 1, "terms": []},
        {"n": 2, "k": True, "terms": []},
        {"n": 2, "k": 1.0, "terms": []},
    ],
)
def test_cochain_json_takes_only_integer_fields(data):
    # int() would read these as face (0, 1), (1, 2), n = 2 and k = 1
    with pytest.raises(ValueError, match="not an integer"):
        cochain_from_json(data)


faces_strategy = st.integers(1, 4).flatmap(
    lambda n: st.integers(0, n).flatmap(
        lambda k: st.tuples(
            st.just(n),
            st.permutations(list(range(n + 1))).map(lambda p: tuple(p[: k + 1])),
        )
    )
)


@given(faces_strategy)
@settings(max_examples=80)
def test_canonicalize_is_idempotent_and_sign_consistent(case):
    n, verts = case
    face = Face(n, verts)
    canon = canonicalize(face)
    assert canon.is_canonical == (canon.sign == 1)
    assert canonicalize(canon) == canon
    assert canon.vertices == tuple(sorted(verts))
    assert canon.sign == permutation_sign(verts)


@given(faces_strategy, st.integers(0, 10 ** 6))
@settings(max_examples=60)
def test_cochain_eval_is_alternating(case, seed):
    n, verts = case
    k = len(verts) - 1
    c = random_cochain(Random(seed), n, k)
    face = Face(n, verts)
    value = cochain_eval(c, face)
    swapped = cochain_eval(c, Face(n, verts, sign=-1))
    assert swapped == -value
    if k >= 1:
        transposed = (verts[1], verts[0]) + verts[2:]
        assert cochain_eval(c, Face(n, transposed)) == -value


@pytest.mark.parametrize(
    "build",
    [
        lambda: Face(2, (0.5, 1.7)),
        lambda: Face(2, (True, "2")),
        lambda: Face(2, (0, 1.0)),
        lambda: Cochain(2, 1, {(0.5, 1.7): Fraction(1)}),
        lambda: Cochain(2, 1, {(True, 2): Fraction(1)}),
        lambda: Cochain(2, 1, {(0, "2"): Fraction(1)}),
        lambda: AffineForm(2, 1, {(1.9,): AffineFunction.const(2, 1)}),
        lambda: AffineForm(2, 1, {(True,): Fraction(1)}),
        lambda: AffineForm(2, 1, {("2",): Fraction(1)}),
    ],
    ids=[
        "Face-floats", "Face-bool-str", "Face-float-one",
        "Cochain-floats", "Cochain-bool", "Cochain-str",
        "AffineForm-float", "AffineForm-bool", "AffineForm-str",
    ],
)
def test_labels_must_be_integers(build):
    # int() would read 1.7 as 1, True as 1 and "2" as 2, naming another face
    with pytest.raises(ValueError, match="not an integer"):
        build()


@pytest.mark.parametrize(
    "value",
    [
        Cochain(2, 1, {(0, 1): 1}),
        AffineFunction.const(2, 3),
        AffineForm(2, 1, {(1,): Fraction(2)}),
    ],
    ids=["Cochain", "AffineFunction", "AffineForm"],
)
def test_bool_is_not_a_scalar(value):
    for flag in (True, False):
        with pytest.raises(TypeError):
            value * flag
        with pytest.raises(TypeError):
            flag * value
    assert value * 1 == value == 1 * value
    assert value * Fraction(2) == 2 * value
